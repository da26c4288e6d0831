"""Byte identity of reports: this tree against a git revision, or BLAS threads.

Run from the repository root, with numpy installed::

    python tests/identity.py                  # this tree against HEAD
    python tests/identity.py --against REV    # this tree against revision REV
    python tests/identity.py --threads        # OPENBLAS_NUM_THREADS=1 against unset

``--against`` extracts the ``src/`` of REV from the local git objects
(``git archive``) into a temporary directory, runs every argv of
``argvs()`` as ``python -m qmeas`` on both trees with
``OPENBLAS_NUM_THREADS=1``, and compares the exit codes, stdout, the
``--out`` file and, for a run that exits non-zero, stderr byte for byte (a
successful run prints its wall time there).  ``--threads`` runs the list
on this tree twice, with the variable at 1 and unset, where OpenBLAS picks
its own thread count.  Each argv prints one line; a differing report names
its argv and its first differing line.  The exit code is 1 when any report
differs.

The list is the golden ``CASES`` of ``tests/test_golden.py`` (read with
``ast``, so nothing is imported), the ``all`` case in CSV to ``--out``, the
bench children of ``bench/run.py`` at seeds 7 and 1, the flat scan, ``all``
at 13 qubits, two ``nogo`` runs with complex amplitudes, and three runs with
negative values after a space: under abbreviated flags, in a CSV report, and
a stray one that exits 1.  The golden test compares floats within 1e-13
against committed files; this script compares two trees on one machine, so
it asks for every bit.

Only the standard library is imported here, and pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import itertools
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = "{out}"  # an argv item that stands for the --out file of each run
TIMEOUT_S = 300


def _golden_cases() -> dict[str, list[str]]:
    """``CASES`` of ``tests/test_golden.py``, evaluated as a literal."""
    module = ast.parse((ROOT / "tests" / "test_golden.py").read_text(encoding="utf-8"))
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "CASES" for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_golden.py assigns no CASES")


def _bench_commands(seeds=(7, 1)) -> list[list[str]]:
    """argv of every child of ``bench/run.py`` at ``seeds``."""
    spec = importlib.util.spec_from_file_location("_bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "bench"))  # run.py imports spans.py beside it
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [argv for seed in seeds for workload in run.WORKLOADS
            for argv in run.commands(workload, seed)]


def argvs() -> list[list[str]]:
    """The compared argvs, each once, in a fixed order."""
    cases = _golden_cases()
    listed = [
        *cases.values(),
        [*cases["all"], "--format", "csv", "--out", OUT],  # tests/golden/all.csv
        *_bench_commands(),
        ["discriminate", "--a1", "1", "--a2", "0"],  # the flat scan: every grid point ties
        ["all", "--n-env", "10", "--events", "10000"],  # 13 qubits
        ["nogo", "--a1", "0.28", "--a2", "0,0.96", "--events", "20000", "--seed", "1"],
        ["nogo", "--a1", "0.6,0.48", "--a2", "0,0.64", "--events", "20000", "--seed", "9"],
        # negative values after a space, under abbreviated flags and in CSV
        ["discriminate", "--a1", "-.6", "--a2", "-8E-1", "--gam", "-1e-3", "--c-ph", "-2.5e-1"],
        ["simulate", "--a1", "0.6", "--a2", "-0.48,-0.64", "--events", "10000", "--format", "csv"],
        ["discriminate", "--gamma", "-1", "-2"],  # exits 1: -2 is unrecognized
    ]
    return [list(argv) for argv in dict.fromkeys(map(tuple, listed))]


def _start(src: Path, argv: list[str], threads: str | None, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("QMEAS_SEED", None)  # the seed comes from the argv only
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    args = [str(out) if arg == OUT else arg for arg in argv]
    return subprocess.Popen([sys.executable, "-m", "qmeas", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _finish(child: subprocess.Popen, out: Path) -> dict[str, bytes | int]:
    stdout, stderr = child.communicate(timeout=TIMEOUT_S)
    written = out.read_bytes() if out.exists() else b""
    out.unlink(missing_ok=True)
    return {"exit code": child.returncode, "stdout": stdout, "--out file": written,
            "stderr": stderr if child.returncode else b""}


def first_difference(left: bytes, right: bytes) -> str:
    """The first line where two byte strings differ, numbered from 1."""
    pairs = itertools.zip_longest(left.splitlines(), right.splitlines())
    for number, (a, b) in enumerate(pairs, 1):
        if a != b:
            return f"line {number}: {a!r} against {b!r}"
    return "no line differs (line endings)"


def compare(sides, runs: list[list[str]], work: Path) -> list[list[str]]:
    """Run each argv on both ``sides``, (src, OPENBLAS_NUM_THREADS or None)
    pairs, at the same time; print one line per argv and return those whose
    reports differ."""
    differing = []
    for argv in runs:
        outs = [work / f"out-{n}" for n in range(len(sides))]
        children = [_start(src, argv, threads, out) for (src, threads), out in zip(sides, outs)]
        try:
            left, right = (_finish(child, out) for child, out in zip(children, outs))
        finally:
            for child in children:
                if child.poll() is None:  # the other child timed out
                    child.kill()
                    child.wait()
        problems = [
            f"{part} {left[part]} against {right[part]}" if part == "exit code"
            else f"{part} {first_difference(left[part], right[part])}"
            for part in left if left[part] != right[part]
        ]
        print(f"{'differs' if problems else 'same'}: {shlex.join(argv)}", flush=True)
        for problem in problems:
            print(f"    {problem}")
        if problems:
            differing.append(argv)
    return differing


def extract_src(rev: str, dest: Path) -> Path:
    """``src/`` of git revision ``rev``, from the local objects, under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest / "src"


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", metavar="REV", default="HEAD",
                      help="git revision whose src/ this tree is compared with (default HEAD)")
    mode.add_argument("--threads", action="store_true",
                      help="compare OPENBLAS_NUM_THREADS=1 with the variable unset, on this tree")
    options = parser.parse_args(args)
    runs = argvs()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qmeas-identity-") as tmp:
        work = Path(tmp)
        here = ROOT / "src"
        if options.threads:
            print(f"{len(runs)} reports, OPENBLAS_NUM_THREADS=1 against unset")
            sides = [(here, "1"), (here, None)]
        else:
            try:
                other = extract_src(options.against, work / "rev")
            except subprocess.CalledProcessError as exc:
                print(f"git archive {options.against} failed: {exc.stderr.decode().strip()}")
                return 1
            print(f"{len(runs)} reports, this tree against {options.against}")
            sides = [(here, "1"), (other, "1")]
        differing = compare(sides, runs, work)
    elapsed = time.perf_counter() - start
    if differing:
        print(f"{len(differing)} of {len(runs)} reports differ ({elapsed:.1f} s)")
        return 1
    print(f"all {len(runs)} reports are byte-identical ({elapsed:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
