"""The benchmark's `--trace 1` mode wraps ckfree functions by name.

`perfbench/tracing.py` lists them in `TRACED` as (module, attribute) pairs;
renaming or deleting one of them breaks the traced run.  The file is read
and executed here without importing it as a module, so no bytecode is
written next to it.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


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
