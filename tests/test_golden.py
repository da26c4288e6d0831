"""Reports at small fixed configs against the committed reports in ``golden/``.

Most files were written by the per-candidate implementation before the
no-go search and the phase scans were batched; ``all.json`` was written
again once K came from the one exact stacked kernel, which moved the last
digits of its two direction-sweep minima.  Every file is byte for byte the
report its ``argv`` writes today.  A refactor must reproduce them,
including the order in which random candidates are drawn and the phases
the scans report.  Non-floats must match exactly and floats to within
1e-13 (relative or absolute).  ``all.csv`` is the ``all`` report in CSV,
written before the command checks moved to the config boundary; its names,
tolerances and ``passed`` cells must match exactly, its values as floats
within the same 1e-13.  To regenerate one after a deliberate report change,
run the ``argv`` below (with ``--format csv`` for ``all.csv``) with
``--out`` pointing into ``tests/golden/``.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from qmeas.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_TOLERANCE = 1e-13

CASES = {
    "nogo_seed3": ["nogo", "--a1", "0.6", "--a2", "0,0.8", "--events", "10000", "--seed", "3"],
    "nogo_seed11": ["nogo", "--a1", "0.6", "--a2", "0,0.8", "--events", "10000", "--seed", "11"],
    "simulate": ["simulate", "--events", "10000", "--seed", "5"],
    # several event blocks, a partial last one and the largest seed
    "simulate_blocks": [
        "simulate", "--a1", "0.6", "--a2", "0,0.8", "--events", "100003",
        "--seed", "18446744073709551615",
    ],
    "discriminate": ["discriminate", "--gamma", "0.3", "--c-phase", "0.7"],
    "discriminate_complex": [
        "discriminate", "--a1", "0.28", "--a2", "0,0.96", "--gamma", "2", "--c-phase", "0.7",
    ],
    # a1 a2 = 0: every scan is flat, so its grid ties decide the reported phases
    "discriminate_degenerate": ["discriminate", "--a1", "1", "--a2", "0"],
    "decohere": ["decohere", "--n-env", "4", "--env-overlap", "0.5"],
    "all": [
        "all", "--a1", "0.6", "--a2", "0,0.8", "--events", "10000", "--seed", "3",
        "--n-env", "4", "--gamma", "0.3", "--c-phase", "0.7",
    ],
}


def differences(got, want, path=""):
    """Paths where ``got`` differs from ``want``."""
    number = (int, float)
    if (isinstance(got, number) and isinstance(want, number)
            and not isinstance(got, bool) and not isinstance(want, bool)):
        if isinstance(got, int) and isinstance(want, int):
            differ = got != want
        else:
            differ = not math.isclose(
                got, want, rel_tol=FLOAT_TOLERANCE, abs_tol=FLOAT_TOLERANCE
            )
        if differ:
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QMEAS_SEED", raising=False)
    out = tmp_path / f"{name}.json"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert list(differences(got, want)) == []


def _csv_value_differs(got: str, want: str) -> bool:
    if got == want:
        return False
    try:
        return not math.isclose(
            float(got), float(want), rel_tol=FLOAT_TOLERANCE, abs_tol=FLOAT_TOLERANCE
        )
    except ValueError:  # a string, a boolean or an empty cell
        return True


def test_csv_report_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QMEAS_SEED", raising=False)
    out = tmp_path / "all.csv"
    assert main(CASES["all"] + ["--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    got = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
    want = list(csv.reader((GOLDEN / "all.csv").read_text(encoding="utf-8").splitlines()))
    assert [row[0] for row in got] == [row[0] for row in want]
    assert [row[2:] for row in got] == [row[2:] for row in want]
    differ = [g[0] for g, w in zip(got, want) if _csv_value_differs(g[1], w[1])]
    assert differ == []


def test_csv_value_differs_applies_the_float_tolerance():
    assert not _csv_value_differs("0.99999999999999889", "0.999999999999999")
    assert _csv_value_differs("1", "1.000000000001")
    assert _csv_value_differs("10000", "10001")
    assert _csv_value_differs("true", "false") and _csv_value_differs("", "0")


def test_differences_applies_the_float_tolerance():
    assert list(differences({"x": 1.0, "n": 3}, {"x": 1.0 + 1e-15, "n": 3})) == []
    assert list(differences({"x": 1.0}, {"x": 1.0 + 1e-12})) != []
    assert list(differences({"n": 3}, {"n": 3.0 + 1e-14})) == []
    assert list(differences({"flag": True}, {"flag": 1})) != []
    assert list(differences([1, 2], [1, 2, 3])) == [": length 2 != 3"]
