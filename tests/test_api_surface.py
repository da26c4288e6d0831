"""The public names of ``qmeas`` and the names the benchmark's tracer wraps resolve.

``bench/spans.py`` wraps the functions in its ``TRACED`` table by name at run
time, so deleting or renaming one of them breaks the traced benchmark run
without failing any other test.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import qmeas

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_name_in_all_resolves():
    assert [name for name in qmeas.__all__ if not hasattr(qmeas, name)] == []


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
