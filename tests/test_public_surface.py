"""Every public name of the library has a caller in the program.

A public function, class or method of `src/ckfree/*.py` counts as called
when some module of `src/` or `perfbench/` loads it by name or as an
attribute, when a dotted string of `perfbench/tracing.py` names it (the
tracer wraps what it names), or when it is a `cli.cmd_*` handler, which
`main` looks up by name.  Package re-exports in `__init__.py` are imports,
not calls, so they do not count.  A name that tests alone call is surface
that the program does not need; only the keep-list below may stay without a
caller.

The README's library table names only what exists: every backticked call
`f(...)` and every `Class.attr` in it resolves to an attribute of a
`ckfree` module, and each argument name of a call is a parameter of it.
"""

import ast
import fnmatch
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "ckfree"
PERFBENCH = ROOT / "perfbench"

# name -> why it stays although nothing in the program calls it
KEEP = {
    "thm2_lower": "the paper's general lower bound 3n - 6 - 6*3^log2(3)*n/k^log2(3)",
    "conj1_value": "the disproved conjecture 3n - 6 - (3n + 6)/k that the paper answers",
    "conj2_form": "the conjectured family 3n - 6 - d*n/k^log2(3) the paper's bound is read against",
    "exact_edge_count": "the paper's edge count 3n - 6 - (s - 1) of H(n, k), in closed form",
}


def public_definitions():
    """(module file, qualified name, bare name) of each public function,
    class and method."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path.name, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.name, f"{node.name}.{item.name}", item.name


def called_names():
    """Names loaded anywhere in src/ or perfbench/, plus each part of the
    dotted strings in perfbench/tracing.py."""
    names = set()
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in ast.walk(tracing):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_every_public_name_has_a_caller():
    called = called_names()
    uncalled = [
        f"{module}:{qualified}"
        for module, qualified, name in public_definitions()
        if name not in called
        and name not in KEEP
        and not (module == "cli.py" and name.startswith("cmd_"))
    ]
    assert not uncalled, f"public names that nothing in src/ or perfbench/ calls: {uncalled}"


def test_the_keep_list_names_existing_uncalled_definitions():
    defined = {name for _, _, name in public_definitions()}
    called = called_names()
    for name, reason in KEEP.items():
        assert name in defined, f"{name} is kept but no longer defined"
        assert name not in called, f"{name} has a caller now and needs no keep-list entry"
        assert reason


# stdlib names the library table calls: array.array, the flat dart arrays
STDLIB_CALLS = {"array"}


def library_table_spans():
    """The backticked spans of the README's library table."""
    rows = [line for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("| `ckfree.")]
    assert len(rows) == len(list(SRC.glob("*.py"))) - 1  # one row per module
    return [span for row in rows for span in re.findall(r"`([^`]+)`", row)]


def resolve(name):
    """The objects of the ckfree modules that `name` names (None for a
    dataclass field): a module attribute, `Class.attr` (a `*` in attr
    matches any run of characters), or a bare method or field name of a
    class in a module."""
    head, _, attr = name.partition(".")
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"ckfree.{path.stem}")
        top = getattr(module, head, None)
        if attr:
            if inspect.isclass(top):  # a dataclass field without a default is no class attribute
                names = [*dir(top), *getattr(top, "__dataclass_fields__", ())]
                found += [getattr(top, a, None) for a in names if fnmatch.fnmatchcase(a, attr)]
        elif top is not None:
            found.append(top)
        else:
            found += [getattr(c, head) for c in vars(module).values()
                      if inspect.isclass(c) and hasattr(c, head)]
    return found


def test_the_library_table_names_existing_attributes():
    spans = library_table_spans()
    calls = [m.groups() for span in spans if (m := re.fullmatch(r"([A-Za-z_][\w.]*)\((.*)\)", span))]
    attrs = [span for span in spans if re.fullmatch(r"[A-Z]\w*\.[\w*]+", span)]
    assert calls and attrs
    stale = [f"`{name}`" for name in attrs if not resolve(name)]
    for name, args in calls:
        if name in STDLIB_CALLS:
            continue
        objs = [obj for obj in resolve(name) if callable(obj)]
        if not objs:
            stale.append(f"`{name}(...)`")
            continue
        params = {p for obj in objs for p in inspect.signature(obj).parameters}
        written = [arg.split("=")[0].strip() for arg in args.split(",") if arg.strip()]
        stale += [f"`{name}({args})`: no parameter {arg}" for arg in written if arg not in params]
    assert not stale, f"the README's library table names what the library lacks: {stale}"
