"""Smoke checks of whole ``qmeas`` runs: exact counts, memory and time bounds.

Run from anywhere, with numpy installed::

    python tests/smoke.py           # every check in CHECKS
    python tests/smoke.py NAME ...  # only the named ones

Each check starts one ``python -m qmeas`` child on this checkout's ``src/``,
measures its wall time and peak RSS (``os.wait4``), and checks its exit code
and report against fixed counts and bounds.  A check prints one line and
fails the run with a message when a count or bound is not met.

Only the standard library is imported here, and pytest does not collect
this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_child(*args: str) -> tuple[int, float, float, bytes]:
    """Exit code, seconds, peak RSS in MB and stdout of ``python -m qmeas ARGS``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "qmeas", *args],
                             stdout=subprocess.PIPE, env=env)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - start
    code = child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    rss_mb = usage.ru_maxrss / 1024
    print(f"exit {code}, {elapsed:.2f} s, max RSS {rss_mb:.1f} MB")
    return code, elapsed, rss_mb, out


def sampler() -> str | None:
    """10^8 events: the streamed sampler keeps memory constant.

    Drawing all events as one array would need about 2.6 GB.  The default
    |a1|^2 sits one ulp above 0.5, at the edge of the sampler's integer
    branch threshold, and the counts are those of the float-uniform sampler
    it replaced.
    """
    code, _, rss_mb, out = run_child("simulate", "--events", "100000000", "--seed", "7")
    if code != 0:
        return "simulate failed"
    counts = [b["count"] for b in json.loads(out)["frequency"]["branches"]]
    if counts != [50008937, 49991063]:
        return f"counts {counts}, not [50008937, 49991063]"
    if rss_mb > 100:
        return f"max RSS {rss_mb:.1f} MB is above 100 MB"
    return None


def nogo() -> str | None:
    """200000 candidates per no-go scope: memory, time and candidate counts.

    Scopes O and D screen each batch of 512 directions on psi's products
    alone (as many entries as an MS batch of 64 matrices at dim 8) and form
    the branch products only where psi passes; materializing a whole
    scope's three products at this size would take about 77 MB.  The
    one-candidate-at-a-time loop of earlier versions took about 4.5 s at
    20000 candidates, so about 45 s here.  The candidate counts catch a
    miscount of batches in which nothing passes.
    """
    code, elapsed, rss_mb, out = run_child("nogo", "--events", "200000", "--seed", "7")
    if code != 0:
        return "nogo failed"
    scopes = json.loads(out)["nogo"]["scopes"]
    found = sorted(name for name, scope in scopes.items() if scope["found"])
    if sorted(scopes) != ["D", "MS", "O"] or found:
        return f"scopes {sorted(scopes)}, discriminating observable found in {found}"
    tested = [scopes[name]["n_candidates_tested"] for name in ("O", "D", "MS")]
    if tested != [200000, 200000, 200015]:
        return f"candidates tested in O, D, MS: {tested}, not [200000, 200000, 200015]"
    # one forcing check per run, its record shown in every scope
    forcing = [scope["forcing"] for scope in scopes.values()]
    if forcing[0] is None or forcing.count(forcing[0]) != 3:
        return f"forcing blocks are null or differ: {forcing}"
    if forcing[0]["n_samples"] != 1000:
        return f"forcing check drew {forcing[0]['n_samples']} samples, not 1000"
    if rss_mb > 60:
        return f"max RSS {rss_mb:.1f} MB is above 60 MB"
    if elapsed > 30:
        return f"nogo took {elapsed:.1f} s, above 30 s"
    return None


def flat() -> str | None:
    """a1 a2 = 0: every phase scan is flat, so all grid points tie.

    They are scored again in stacked calls of the one exact kernel (the
    whole process takes about 0.4 s on a 2-vCPU KVM guest); the bound guards
    against a large slowdown, it is not a tight one.
    """
    code, elapsed, _, out = run_child("discriminate", "--a1", "1", "--a2", "0")
    if code != 0:
        return "discriminate failed"
    try:
        json.loads(out)
    except ValueError as exc:
        return f"stdout is not valid JSON: {exc}"
    if elapsed > 3:
        return f"discriminate took {elapsed:.1f} s, above 3 s"
    return None


CHECKS = {"sampler": sampler, "nogo": nogo, "flat": flat}


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(CHECKS))
    if unknown:
        print(f"unknown checks {unknown}; known: {sorted(CHECKS)}")
        return 2
    failed = []
    for name in names or CHECKS:
        print(f"{name}:", flush=True)
        problem = CHECKS[name]()
        if problem:
            print(f"{name}: {problem}")
            failed.append(name)
    print("smoke checks failed: " + ", ".join(failed) if failed else "smoke checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
