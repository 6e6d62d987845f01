"""The benchmark calls ckfree by name and runs its command lines.

`perfbench/tracing.py` lists the functions that `--trace 1` wraps in
`TRACED` as (module, attribute) pairs, `perfbench/workloads.py` calls
package attributes as `ck.<name>`, and its operations run `ckfree`
subcommands with options; renaming or deleting one of them breaks a
benchmark run.  The files are read, or imported or run with bytecode
writing off, so nothing is written next to them.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import ckfree
from ckfree.cli import build_parser

PERFBENCH = Path(__file__).parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def traced_entries():
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["TRACED"]


def test_every_traced_attribute_resolves():
    entries = traced_entries()
    assert entries
    for modname, attr, _, _ in entries:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{modname}.{attr} no longer exists"
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{attr} is not callable"


def workload_package_names():
    """Every <name> in a `ck.<name>` or `self.ck.<name>` of workloads.py."""
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            isinstance(node.value, ast.Name) and node.value.id == "ck"
            or isinstance(node.value, ast.Attribute) and node.value.attr == "ck"
        )
    }


def test_every_package_name_a_workload_calls_resolves():
    names = workload_package_names()
    assert "build_construction" in names and "verify_inequality_chain" in names
    for name in sorted(names):
        assert hasattr(ckfree, name), f"perfbench/workloads.py calls ck.{name}, which no longer exists"


def ckfree_modules():
    return {k: v for k, v in sys.modules.items() if k == "ckfree" or k.startswith("ckfree.")}


def test_every_command_line_a_workload_runs_parses(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = ckfree_modules()
    argvs = {}
    try:
        workloads = importlib.import_module("workloads")
        real = workloads.Workload.cli_op

        def record(self, argv):
            argvs.setdefault(self.name, []).append(argv)
            return real(self, argv)

        monkeypatch.setattr(workloads.Workload, "cli_op", record)
        for name, cls in workloads.WORKLOADS.items():
            workdir = tmp_path / name
            workdir.mkdir()
            w = cls(0, workdir)
            w.setup()  # imports the package afresh
            w.ops()
    finally:
        for key in ckfree_modules():
            del sys.modules[key]
        sys.modules.update(saved)
        for key in ("workloads", "checks"):
            sys.modules.pop(key, None)
    assert set(argvs) == {"construct-large", "search-desk", "bounds-grid"}
    assert any(a[0] == "lemma-check" and "--node-limit" in a for a in argvs["search-desk"])
    parser = build_parser()
    for argv in (a for each in argvs.values() for a in each):
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"perfbench runs `ckfree {' '.join(argv)}`, which the CLI refuses")


def test_perfbench_selftest_passes(tmp_path):
    """The output checks' self-test, which calls `cli.main` many times in
    one process and writes only to a temporary directory."""
    run = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "selftest.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
