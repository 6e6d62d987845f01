"""The benchmark calls ckfree by name.

`perfbench/tracing.py` lists the functions that `--trace 1` wraps in
`TRACED` as (module, attribute) pairs, and `perfbench/workloads.py` calls
package attributes as `ck.<name>`; renaming or deleting one of them breaks
a benchmark run.  Both files are only read here, never imported, so no
bytecode is written next to them.
"""

import ast
import importlib
from pathlib import Path

import ckfree

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
