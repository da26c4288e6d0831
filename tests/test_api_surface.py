"""The public names of ``qmeas`` and the names the benchmark's tracer wraps resolve.

``qmeas.__all__`` is derived from the names the package imports, so it
lists every public name once, with no submodule among them.
``bench/spans.py`` wraps the functions in its ``TRACED`` table by name at run
time, so deleting or renaming one of them breaks the traced benchmark run
without failing any other test.
"""

import functools
import importlib
import importlib.util
import types
from pathlib import Path

import qmeas

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_name_in_all_resolves():
    assert [name for name in qmeas.__all__ if not hasattr(qmeas, name)] == []


def test_all_is_sorted_without_duplicates():
    assert qmeas.__all__ == sorted(set(qmeas.__all__))


def test_all_holds_no_module():
    assert [n for n in qmeas.__all__ if isinstance(getattr(qmeas, n), types.ModuleType)] == []


def test_all_is_every_public_name_the_package_binds():
    # submodules are bound as attributes once imported, but are not API names
    bound = {
        name for name, value in vars(qmeas).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(qmeas.__all__) == bound


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qmeas import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == qmeas.__all__


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(f"qmeas.{module_name}")
        for name in names:
            # the tracer wraps "cli.command" as every runner in the command table
            path = ["_COMMANDS"] if (module_name, name) == ("cli", "command") else name.split(".")
            try:
                functools.reduce(getattr, path, module)
            except AttributeError:
                missing.append(f"{module_name}.{name}")
    assert missing == []
