"""``tests/identity.py`` on temporary copies of ``src/``: equal trees compare
equal, and a one-ulp change in one scan's objective is reported with its argv."""

import shutil

import pytest

import identity

DISCRIMINATE = ["discriminate", "--gamma", "0.3", "--c-phase", "0.7"]
DECOHERE = ["decohere", "--n-env", "2", "--env-overlap", "0.5"]
CSV_OUT = ["decohere", "--n-env", "2", "--format", "csv", "--out", identity.OUT]


def _copy_src(dest):
    return shutil.copytree(identity.ROOT / "src", dest,
                           ignore=shutil.ignore_patterns("__pycache__"))


def test_identical_trees_compare_equal(tmp_path, capsys):
    left, right = _copy_src(tmp_path / "left"), _copy_src(tmp_path / "right")
    runs = [DISCRIMINATE, CSV_OUT]
    assert identity.compare([(left, "1"), (right, "1")], runs, tmp_path) == []
    assert capsys.readouterr().out.splitlines() == [
        "same: discriminate --gamma 0.3 --c-phase 0.7",
        "same: decohere --n-env 2 --format csv --out '{out}'",
    ]


def test_threads_mode_compares_one_tree_with_itself(tmp_path):
    src = _copy_src(tmp_path / "src")
    assert identity.compare([(src, "1"), (src, None)], [DECOHERE], tmp_path) == []


def test_a_one_ulp_change_is_reported_with_its_argv(tmp_path, capsys):
    left, right = _copy_src(tmp_path / "left"), _copy_src(tmp_path / "right")
    model = right / "qmeas" / "model.py"
    text = model.read_text(encoding="utf-8")
    plant = "for f in (math.cos, math.sin))"
    assert text.count(plant) == 1
    model.write_text(text.replace(
        plant, "for f in (lambda g: math.nextafter(math.cos(g), 2.0), math.sin))"),
        encoding="utf-8")
    runs = [DECOHERE, DISCRIMINATE]
    assert identity.compare([(left, "1"), (right, "1")], runs, tmp_path) == [DISCRIMINATE]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "same: decohere --n-env 2 --env-overlap 0.5"
    assert out[1] == "differs: discriminate --gamma 0.3 --c-phase 0.7"
    assert out[2].startswith("    stdout line ") and " against " in out[2]
    assert len(out) == 3  # one first differing line; exit codes and --out agree


def test_a_differing_exit_code_and_out_file_are_reported(tmp_path, capsys):
    left, right = _copy_src(tmp_path / "left"), _copy_src(tmp_path / "right")
    (right / "qmeas" / "__main__.py").write_text("raise SystemExit(3)\n", encoding="utf-8")
    assert identity.compare([(left, "1"), (right, "1")], [CSV_OUT], tmp_path) == [CSV_OUT]
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "    exit code 0 against 3"
    assert out[2].startswith("    --out file line 1: b'")
    assert out[2].endswith(" against None")


@pytest.mark.parametrize("left, right, want", [
    (b"a\nb\n", b"a\nc\n", "line 2: b'b' against b'c'"),
    (b"a\n", b"a\nb\n", "line 2: None against b'b'"),
    (b"a\n", b"a\r\n", "no line differs (line endings)"),
])
def test_first_difference_names_the_first_differing_line(left, right, want):
    assert identity.first_difference(left, right) == want


def test_the_list_covers_goldens_bench_children_and_complex_nogo():
    runs = identity.argvs()
    assert len(runs) == len(set(map(tuple, runs)))
    for case in identity._golden_cases().values():
        assert case in runs
    for seed in ("7", "1"):
        assert ["nogo", "--a1", "0.6", "--a2", "0.8", "--events", "20000", "--seed", seed] in runs
        assert any(argv[0] == "simulate" and argv[-1] == seed for argv in runs)
    assert ["discriminate", "--a1", "1", "--a2", "0"] in runs
    complex_nogo = [argv for argv in runs if argv[0] == "nogo"
                    and any("," in arg for arg in argv)]
    assert len(complex_nogo) >= 4  # two golden cases and two more
    assert sum(identity.OUT in argv for argv in runs) == 1
    # negative values after a space: under abbreviated flags, in CSV, and a stray one
    assert ["discriminate", "--a1", "-.6", "--a2", "-8E-1",
            "--gam", "-1e-3", "--c-ph", "-2.5e-1"] in runs
    assert ["simulate", "--a1", "0.6", "--a2", "-0.48,-0.64",
            "--events", "10000", "--format", "csv"] in runs
    assert ["discriminate", "--gamma", "-1", "-2"] in runs
