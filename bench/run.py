#!/usr/bin/env python3
"""Benchmark of the ``qmeas`` command line.

Run from the repository root::

    python3 bench/run.py --workload nogo --seed 7 --seconds 40 --trace 0

``--workload`` is ``nogo``, ``scans``, ``bulk`` or ``all`` (the three in
turn).  Load is a closed loop with one client: one fresh child process runs
at a time and the next starts when it has exited.  Every child gets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to
1 and imports ``qmeas`` from ``src/`` of the checkout.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions (see
``spans.py``) and reports the per-layer metrics.  Every report is checked;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A copy of the result, with the
machine facts and the raw per-repetition figures, is written under
``.bench_build/qmeas/``.  See ``bench/README.md`` for the workloads and
what each metric is expected to show.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import layer_values, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
REFERENCE_DIR = BENCH / "reference"
CALIBRATION = BENCH / "calibrate.py"
OUT = ROOT / ".bench_build" / "qmeas"

REFERENCE_SEED = 7
FLOAT_TOLERANCE = 1e-13
MIN_REPS = 3
CHILD_TIMEOUT_S = 120.0
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
RSS_METHOD = "os.wait4 ru_maxrss of each child"
# Wall time of the calibration child at the reference speed.  End-to-end
# times are scaled, round by round, by CALIBRATION_REFERENCE_S over the
# round's calibration time: seconds at the reference speed.
CALIBRATION_REFERENCE_S = 0.35

# Grid points of the phase scans in `discriminate` that its report does not
# echo: purity, interference MS and interference SD each scan MIN_PHASE_GRID.
PHASE_GRID = 3600
NOGO_CANDIDATES = {"O": 20000, "D": 20000, "MS": 20015}
NOGO_FORCING_SAMPLES = 1000
BULK_EVENTS = 10_000_000
CHAIN = ["--a1", "0.6", "--a2", "0.8"]

# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = ("nogo", "scans", "bulk")


def commands(workload: str, seed: int) -> list[list[str]]:
    """argv of each child of one repetition, in order."""
    s = str(seed)
    if workload == "nogo":
        return [["nogo", *CHAIN, "--events", "20000", "--seed", s]]
    if workload == "scans":
        return [["discriminate", *CHAIN, "--gamma", "0.3", "--c-phase", "0.7", "--seed", s]]
    return [
        ["simulate", *CHAIN, "--events", str(BULK_EVENTS), "--seed", s],
        ["decohere", *CHAIN, "--n-env", "10", "--env-overlap", "0.5"],
    ]


# Commands whose report depends on the seed beyond echoing it.  The others
# are compared with their reference report at every seed.
SEEDED = {"nogo", "simulate"}

SETUP_PROBE = (
    "import sys\n"
    "from qmeas.cli import build_parser, resolve_config\n"
    "resolve_config(build_parser().parse_args(sys.argv[1:]))\n"
)
MACHINE_PROBE = (
    "import json, os, platform, numpy\n"
    "deps = numpy.show_config(mode='dicts').get('Build Dependencies', {})\n"
    "blas = deps.get('blas', {})\n"
    "print(json.dumps({'nproc': len(os.sched_getaffinity(0)),\n"
    "  'python': platform.python_version(), 'numpy': numpy.__version__,\n"
    "  'blas': f\"{blas.get('name', '?')} {blas.get('version', '?')}\"}))\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QMEAS_SEED", None)  # the seed comes from the argv only
    env["PYTHONPATH"] = str(SRC)
    env.update(PINNED_THREADS)
    return env


class Child:
    """One finished child process: exit code, wall and CPU time, peak RSS."""

    def __init__(self, argv: list[str], env: dict[str, str], tag: str):
        self.stdout_path = OUT / f"{tag}.out"
        stderr_path = OUT / f"{tag}.err"
        with open(self.stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=env, cwd=ROOT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            # wait4 rather than Popen.wait: it returns this child's own
            # rusage; RUSAGE_CHILDREN keeps a maximum over all children.
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = perf_counter() - start
            killer.cancel()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stdout = self.stdout_path.read_bytes()
        self.stderr = stderr_path.read_bytes()


# ------------------------------------------------------------------ checks

def _numbers_differ(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a != b
    return not math.isclose(a, b, rel_tol=FLOAT_TOLERANCE, abs_tol=FLOAT_TOLERANCE)


def differences(got, want, path: str = ""):
    """Paths where ``got`` differs from ``want``: non-floats exactly, floats
    within FLOAT_TOLERANCE."""
    number = (int, float)
    if (isinstance(got, number) and isinstance(want, number)
            and not isinstance(got, bool) and not isinstance(want, bool)):
        if _numbers_differ(got, want):
            yield f"{path}: {got!r} != {want!r}"
    elif isinstance(got, dict) and isinstance(want, dict):
        if list(got) != list(want):
            yield f"{path}: keys {list(got)} != {list(want)}"
            return
        for key in got:
            yield from differences(got[key], want[key], f"{path}.{key}")
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            yield f"{path}: length {len(got)} != {len(want)}"
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from differences(g, w, f"{path}[{i}]")
    elif type(got) is not type(want) or got != want:
        yield f"{path}: {got!r} != {want!r}"


def _failed_gates(value, path: str = ""):
    if isinstance(value, dict):
        if value.get("passed") is False:
            yield path
        for key, item in value.items():
            yield from _failed_gates(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _failed_gates(item, f"{path}[{i}]")


def check_report(argv: list[str], child: Child, seed: int) -> tuple[list[str], int]:
    """Problems found in one child's run, and the items its report covers."""
    command = argv[0]
    if child.returncode != 0:
        return [f"exit code {child.returncode}"], 0
    if b"Traceback" in child.stderr:
        return ["traceback on stderr"], 0
    try:
        report = json.loads(child.stdout)
        return _check_fields(argv, report, seed)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"], 0
    except (KeyError, TypeError) as exc:
        return [f"report lacks an expected field: {exc!r}"], 0


def _check_fields(argv: list[str], report: dict, seed: int) -> tuple[list[str], int]:
    command = argv[0]
    problems = [f"gate failed at {path}" for path in _failed_gates(report)]
    if report.get("command") != command:
        problems.append(f"command {report.get('command')!r} != {command!r}")
    echoed = seed if "--seed" in argv else 0
    if report["config"]["rng_seed"] != echoed:
        problems.append(f"config.rng_seed {report['config']['rng_seed']} != {echoed}")

    items = 0
    if command == "nogo":
        for scope, expected in NOGO_CANDIDATES.items():
            verdict = report["nogo"]["scopes"][scope]
            if verdict["found"] or verdict["out_of_regime"]:
                problems.append(f"scope {scope}: found or out of regime")
            if verdict["n_candidates_tested"] != expected:
                problems.append(f"scope {scope}: {verdict['n_candidates_tested']} candidates")
            if verdict["forcing"]["n_samples"] != NOGO_FORCING_SAMPLES:
                problems.append(f"scope {scope}: {verdict['forcing']['n_samples']} forcing samples")
            items += verdict["n_candidates_tested"] + verdict["forcing"]["n_samples"]
    elif command == "discriminate":
        channel = report["channel"]
        items = 3 * PHASE_GRID + channel["n_gamma"] + channel["n_directions"]
    elif command == "simulate":
        frequency = report["frequency"]
        counts = sum(branch["count"] for branch in frequency["branches"])
        if not counts == frequency["n_events"] == BULK_EVENTS:
            problems.append(f"counts sum to {counts}, n_events {frequency['n_events']}")
        items = frequency["n_events"]

    if command not in SEEDED or seed == REFERENCE_SEED:
        want = json.loads((REFERENCE_DIR / f"{command}.json").read_text())
        want["config"]["rng_seed"] = echoed
        problems += [f"differs from reference at {d}"
                     for d in differences(report, want, "report")]
    return problems, items


# --------------------------------------------------------------- the runs

class Run:
    """Repetitions of one workload at one seed, and the figures they give."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.argvs = commands(workload, seed)
        self.env = child_env()
        self.tag = f"{workload}-{seed}"
        self.setup_s: list[float] = []
        self.speed: list[float] = []     # CALIBRATION_REFERENCE_S / calibration time
        self.reps: list[dict] = []       # untraced repetitions
        self.traced: list[dict] = []     # traced repetitions

    def _child(self, argv: list[str], kind: str) -> Child:
        return Child(argv, self.env, f"{self.tag}-{kind}")

    def _probe(self, argv: list[str], kind: str) -> float:
        """Wall time of a helper child, which must succeed."""
        child = self._child(argv, kind)
        if child.returncode != 0:
            raise SystemExit(f"bench: {kind} child failed: "
                             f"{child.stderr.decode(errors='replace')}")
        return child.wall_s

    def calibrate(self) -> float:
        """Speed factor of this round: reference over calibration time."""
        return CALIBRATION_REFERENCE_S / self._probe([str(CALIBRATION)], "calibration")

    def setup_probe(self) -> float:
        """Set-up time of one repetition: import, parse and resolve, no command."""
        return sum(self._probe(["-c", SETUP_PROBE, *argv], "setup") for argv in self.argvs)

    def repetition(self, traced: bool) -> dict:
        rep = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "items": 0,
               "problems": [], "outputs": [], "spans": []}
        for argv in self.argvs:
            kind = f"{argv[0]}-{'traced' if traced else 'plain'}"
            spans_path = OUT / f"{self.tag}-{kind}.spans.json"
            if traced:
                child = self._child([str(BENCH / "spans.py"), str(spans_path), *argv], kind)
            else:
                child = self._child(["-m", "qmeas", *argv], kind)
            rep["wall_s"] += child.wall_s
            rep["cpu_s"] += child.cpu_s
            rep["rss_mb"] = max(rep["rss_mb"], child.rss_mb)
            rep["outputs"].append(child.stdout)
            problems, items = check_report(argv, child, self.seed)
            rep["problems"] += [f"{argv[0]}: {p}" for p in problems]
            rep["items"] += items
            if traced and child.returncode == 0:
                rep["spans"].append(json.loads(spans_path.read_text()))
        return rep

    def measure(self, trace: bool) -> None:
        """Repeat until the next round would end past ``seconds``.

        Each untraced round runs the calibration, a set-up probe and a
        repetition back to back, so that all three see the same machine
        speed.
        """
        self.setup_probe()  # fills the bytecode and page caches
        start = perf_counter()
        while True:
            round_start = perf_counter()
            if not trace:
                self.speed.append(self.calibrate())
                self.setup_s.append(self.setup_probe())
            self.reps.append(self.repetition(traced=False))
            if trace:
                rep = self.repetition(traced=True)
                if rep["outputs"] != self.reps[-1]["outputs"]:
                    rep["problems"].append("traced report bytes differ from untraced")
                self.traced.append(rep)
            last = perf_counter() - round_start
            done = len(self.reps) >= (1 if trace else MIN_REPS)
            if done and perf_counter() + last - start > self.seconds:
                break

    @property
    def all_reps(self) -> list[dict]:
        return self.reps + self.traced

    def failed(self) -> int:
        return sum(1 for rep in self.all_reps if rep["problems"])

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Medians over rounds of times scaled to the reference speed."""
        def scaled(values):
            return median(v * k for v, k in zip(values, self.speed))

        wall = scaled(rep["wall_s"] for rep in self.reps)
        setup = scaled(self.setup_s)
        return {
            "wall_s": (wall, "s"),
            "setup_s": (setup, "s"),
            "cpu_s": (scaled(rep["cpu_s"] for rep in self.reps), "s"),
            "items_per_s": (max(rep["items"] for rep in self.reps) / (wall - setup), "1/s"),
            "peak_rss_mb": (max(rep["rss_mb"] for rep in self.reps), "MB"),
        }

    def unscaled(self) -> dict[str, float]:
        """Medians of the measured times, before scaling."""
        return {
            "wall_s": median(rep["wall_s"] for rep in self.reps),
            "setup_s": median(self.setup_s),
            "cpu_s": median(rep["cpu_s"] for rep in self.reps),
            "calibration_s": median(CALIBRATION_REFERENCE_S / k for k in self.speed),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        per_rep = []
        for rep in self.traced:
            stats: dict[str, list] = {}
            counts: dict[str, float] = {}
            for spans in rep["spans"]:  # bulk sums its two children
                for name, entry in spans["stats"].items():
                    stats[name] = [a + b for a, b in zip(stats.get(name, [0, 0.0, 0.0]), entry)]
                for name, amount in spans["counts"].items():
                    counts[name] = counts.get(name, 0) + amount
            per_rep.append(layer_values(stats, counts))
        overhead = (median(rep["wall_s"] for rep in self.traced)
                    - median(rep["wall_s"] for rep in self.reps))
        out = {}
        for name, unit, _ in per_layer_metrics():
            if name == "trace.overhead_s":
                out[name] = (overhead, unit)
            else:
                out[name] = (median(values.get(name, 0) for values in per_rep), unit)
        return out


def machine_facts(env: dict[str, str]) -> dict:
    child = Child(["-c", MACHINE_PROBE], env, "machine")
    facts = json.loads(child.stdout)
    facts["pinned_threads"] = PINNED_THREADS
    facts["rss_method"] = RSS_METHOD
    return facts


def print_run(run: Run, metrics: dict[str, tuple[float, str]], trace: bool) -> None:
    attempted = len(run.all_reps)
    print(f"workload {run.workload}: seed {run.seed}, {len(run.reps)} untraced"
          f" and {len(run.traced)} traced repetitions, {len(run.setup_s)} set-up probes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if not trace:
        print(f"  {'failed_share':44s} {run.failed() / attempted:14.6g} "
              f"({run.failed()}/{attempted})")
        print(f"  unscaled medians: " + ", ".join(
            f"{name} {value:.4g} s" for name, value in run.unscaled().items()))
    for rep in run.all_reps:
        for problem in rep["problems"][:5]:
            print(f"  FAILED: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmeas" / "cli.py").is_file():
        print(f"bench: no qmeas sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    facts = machine_facts(child_env())
    print("machine: " + json.dumps(facts))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in workloads:
        run = Run(workload, args.seed, args.seconds)
        run.measure(trace)
        values = run.per_layer() if trace else run.end_to_end()
        print_run(run, values, trace)
        attempted += len(run.all_reps)
        failed += run.failed()
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
        result = {
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": facts,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
            "calibration_reference_s": CALIBRATION_REFERENCE_S,
            "unscaled": None if trace else run.unscaled(),
            "speed": run.speed,
            "setup_s": run.setup_s,
            "repetitions": [
                {key: rep[key] for key in ("wall_s", "cpu_s", "rss_mb", "problems")}
                for rep in run.all_reps
            ],
        }
        (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n"
        )
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
