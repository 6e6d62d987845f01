"""Every public name of the library has a caller in the program.

A public function, class or method of `src/ckfree/*.py` counts as called
when some module of `src/` or `perfbench/` loads it by name or as an
attribute, when a dotted string of `perfbench/tracing.py` names it (the
tracer wraps what it names), or when it is a `cli.cmd_*` handler, which
`main` looks up by name.  Package re-exports in `__init__.py` are imports,
not calls, so they do not count.  A name that tests alone call is surface
that the program does not need; only the keep-list below may stay without a
caller.
"""

import ast
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
