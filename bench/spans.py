"""Traced run of one ``qmeas`` command: per-layer call counts and self times.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/spans.py SPANS.json nogo --a1 0.6 --a2 0.8 --events 20000 --seed 7

The script imports ``qmeas``, wraps the public functions listed in
``TRACED`` with timing wrappers, calls ``qmeas.cli.main(argv)`` in this
process and writes the aggregated spans to ``SPANS.json``.  The report goes
to stdout exactly as ``python3 -m qmeas`` would write it.  Nothing under
``src/`` is modified: the wrappers replace module attributes at run time.

Spans are aggregated as they close instead of being kept one by one: the
``nogo`` workload opens several hundred thousand of them.  A span's self
time is its duration minus the time covered by the spans it encloses.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# Functions wrapped per module.  "Class" wraps construction (``__init__``),
# "Class.attr" wraps a property getter, and "cli.command" wraps whichever
# ``cmd_*`` function the command line dispatches to.
TRACED = {
    "hilbert": (
        "Observable",
        "Observable.spectrum",
        "embed_operator",
        "is_eigenstate",
        "expectation",
        "outcome_distribution",
        "partial_trace",
        "StateVector",
        "DensityMatrix",
    ),
    "model": (
        "measurement_chain_state",
        "branch_state",
        "interference_operator",
        "zoo",
        "decohere",
    ),
    "ensembles": (
        "run_ensemble",
        "mixture_density",
        "restrict_statistical",
        "restrict_stochastic",
    ),
    "discrimination": (
        "nogo_search",
        "forcing_check",
        "overlap",
        "purity_rate",
        "optimal_phase",
        "interference_analysis",
        "interference_phase_scan",
        "channel_information",
    ),
    "cli": ("resolve_config", "render_report", "command"),
}
NOGO_SCOPES = ("O", "D", "MS")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run reports."""
    out = []
    for module, names in TRACED.items():
        for name in names:
            out.append((f"{module}.{name}.calls", "count", "lower"))
            out.append((f"{module}.{name}.self_s", "s", "lower"))
    out += [(f"discrimination.nogo_search.{s}.self_s", "s", "lower") for s in NOGO_SCOPES]
    out += [
        ("discrimination.nogo_search.candidates", "count", "higher"),
        ("discrimination.is_eigenstate.pass_ratio", "ratio", "higher"),
        ("ensembles.run_ensemble.events_per_s", "1/s", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


def layer_values(stats: dict, counts: dict) -> dict[str, float]:
    """Per-layer metric values (all but ``trace.overhead_s``) from merged spans."""
    values = {}
    for module, names in TRACED.items():
        for name in names:
            calls, self_s, _ = stats.get(f"{module}.{name}", (0, 0.0, 0.0))
            values[f"{module}.{name}.calls"] = calls
            values[f"{module}.{name}.self_s"] = self_s
    for scope in NOGO_SCOPES:
        values[f"discrimination.nogo_search.{scope}.self_s"] = stats.get(
            f"discrimination.nogo_search.{scope}", (0, 0.0, 0.0)
        )[1]
    values["discrimination.nogo_search.candidates"] = counts.get("nogo_candidates", 0)
    # discrimination is the only caller of is_eigenstate in the package
    eigen_calls = stats.get("hilbert.is_eigenstate", (0, 0.0, 0.0))[0]
    values["discrimination.is_eigenstate.pass_ratio"] = (
        counts.get("eigenstate_passed", 0) / eigen_calls if eigen_calls else 0.0
    )
    ensemble_s = stats.get("ensembles.run_ensemble", (0, 0.0, 0.0))[2]
    values["ensembles.run_ensemble.events_per_s"] = (
        counts.get("ensemble_events", 0) / ensemble_s if ensemble_s else 0.0
    )
    return values


class Tracer:
    """Aggregates nested spans into calls, self time and total time per name."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, total_s]
        self.counts: dict[str, float] = {}
        self._open: list[float] = []       # time covered by children, per open span

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, scope=None, tally=None):
        """Timing wrapper around ``fn``.

        ``scope(*args)`` names a sub-span recorded as ``name.<scope>`` next to
        ``name``; ``tally(result, *args)`` adds counts after a call returns.
        """
        open_spans, stats = self._open, self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                keys = (name, f"{name}.{scope(*args)}") if scope else (name,)
                for key in keys:
                    entry = stats.setdefault(key, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed - inner
                    entry[2] += elapsed
            if tally:
                tally(result, *args)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TRACED`` at each module that binds it.

    The package binds names at import (``cli`` does ``from .discrimination
    import nogo_search``, ``model`` and ``discrimination`` import
    ``embed_operator``), so a function is replaced wherever a module
    attribute refers to it.  Construction and properties are wrapped on
    the class, which reaches every caller.
    """
    import qmeas
    from qmeas import cli, discrimination, ensembles, hilbert, model

    modules = {
        "hilbert": hilbert,
        "model": model,
        "ensembles": ensembles,
        "discrimination": discrimination,
        "cli": cli,
    }
    everywhere = (qmeas, *modules.values())
    special = {
        "discrimination.nogo_search": dict(
            scope=lambda layout_scope, *rest: layout_scope,
            tally=lambda verdict, *args: tracer.count(
                "nogo_candidates", verdict.n_candidates_tested
            ),
        ),
        "hilbert.is_eigenstate": dict(
            tally=lambda lam, *args: tracer.count("eigenstate_passed", lam is not None)
        ),
        "ensembles.run_ensemble": dict(
            tally=lambda report, *args: tracer.count("ensemble_events", report.n_events)
        ),
    }

    for module_name, names in TRACED.items():
        module = modules[module_name]
        for name in names:
            span = f"{module_name}.{name}"
            if span == "cli.command":
                for command, fn in list(cli._COMMANDS.items()):
                    cli._COMMANDS[command] = tracer.wrap(span, fn)
            elif "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                prop = getattr(cls, attr)
                setattr(cls, attr, property(tracer.wrap(span, prop.fget)))
            elif isinstance(getattr(module, name), type):
                cls = getattr(module, name)
                cls.__init__ = tracer.wrap(span, cls.__init__)
            else:
                original = getattr(module, name)
                wrapped = tracer.wrap(span, original, **special.get(span, {}))
                for site in everywhere:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            setattr(site, attr, wrapped)


def main(argv: list[str]) -> int:
    spans_path, qmeas_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from qmeas import cli

    code = cli.main(qmeas_argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"stats": tracer.stats, "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
