import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import qmeas.cli as cli
from qmeas.cli import (
    ConfigError,
    build_parser,
    main,
    render_json,
    resolve_config,
)
from qmeas.discrimination import forcing_check
from qmeas.hilbert import InvariantViolation

SQ2 = 1 / math.sqrt(2)
SRC = Path(__file__).resolve().parents[1] / "src"


def resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


def run_main(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------ config merging

def test_defaults_applied():
    config, warnings = resolve(["simulate"])
    assert config.a1_re == pytest.approx(SQ2)
    assert config.n_events == 100_000
    assert config.rng_seed == 0
    assert config.output_format == "json"
    assert warnings == []


def test_flags_override_defaults():
    config, _ = resolve(
        ["simulate", "--a1", "0.6", "--a2", "0,0.8", "--events", "500",
         "--seed", "9", "--gamma", "1.5", "--format", "csv"]
    )
    assert config.a1 == pytest.approx(0.6)
    assert config.a2 == pytest.approx(0.8j)
    assert config.n_events == 500
    assert config.rng_seed == 9
    assert config.gamma == 1.5
    assert config.output_format == "csv"


def test_config_file_with_flag_override(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"a1_re": 1.0, "a2_re": 0.0, "n_events": 50, "rng_seed": 5}))
    config, _ = resolve(["simulate", "--config", str(path), "--events", "60"])
    assert config.a1 == pytest.approx(1.0)
    assert config.n_events == 60  # flag wins
    assert config.rng_seed == 5


def test_env_seed_is_a_fallback(monkeypatch, tmp_path):
    monkeypatch.setenv("QMEAS_SEED", "777")
    config, _ = resolve(["simulate"])
    assert config.rng_seed == 777

    # the config file beats the environment
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rng_seed": 5}))
    config, _ = resolve(["simulate", "--config", str(path)])
    assert config.rng_seed == 5

    # a flag beats both
    config, _ = resolve(["simulate", "--seed", "3"])
    assert config.rng_seed == 3


def test_env_seed_must_be_integer(monkeypatch):
    monkeypatch.setenv("QMEAS_SEED", "not-a-number")
    with pytest.raises(ConfigError, match="QMEAS_SEED"):
        resolve(["simulate"])


@pytest.mark.parametrize(
    "text",
    [
        # json raises a plain ValueError here, which exited 2 as an invariant violation
        '{"gamma": 1' + "0" * 5000 + "}",
        # json raises RecursionError on these, which ended in a traceback
        "[" * 100_000,
        '{"n_env": ' + "[" * 5000,
    ],
    ids=["digits", "nested_arrays", "nested_value"],
)
def test_config_integer_past_the_digit_limit_exits_one(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    rc, out, err = run_main(["simulate", "--events", "10", "--config", str(path)], capsys)
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and "not valid JSON" in err and "Traceback" not in err


def test_repeated_config_key_exits_one(tmp_path, capsys):
    # json keeps the last value of a repeated key, which ran at gamma 0.2
    path = tmp_path / "config.json"
    path.write_text('{"gamma": 0.1, "n_env": 3, "gamma": 0.2}')
    rc, out, err = run_main(["discriminate", "--config", str(path)], capsys)
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and "repeated config keys ['gamma']" in err
    assert "Traceback" not in err


def _child_env():
    """The environment of a child ``qmeas`` process on this checkout's sources."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")


def test_config_file_past_the_size_cap_exits_one(tmp_path, capsys):
    # a valid config padded with whitespace past the cap was read whole and ran
    path = tmp_path / "config.json"
    path.write_text('{"n_env": 3}' + " " * cli.MAX_CONFIG_CHARS)
    rc, out, err = run_main(["simulate", "--events", "10", "--config", str(path)], capsys)
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and "longer than 1048576 characters" in err
    assert "Traceback" not in err


def test_config_file_at_the_size_cap_is_read(tmp_path):
    # the cap bounds the read; a config padded to the cap itself still runs
    path = tmp_path / "config.json"
    path.write_text('{"n_env": 3}'.ljust(cli.MAX_CONFIG_CHARS))
    assert resolve(["simulate", "--config", str(path)])[0].n_env == 3


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_config_file_exits_one():
    # json.load read /dev/zero until memory ran out and ended in a MemoryError
    # traceback; the child's address space is capped so a regression cannot
    # exhaust the machine
    pytest.importorskip("resource")
    limit = 1_500_000_000
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from qmeas.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, "simulate", "--events", "10", "--config", "/dev/zero"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr.count("\n") == 1 and "longer than" in child.stderr


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_config_file_from_a_pipe_is_read():
    # the size cap reads a piped config through /dev/stdin as before
    child = subprocess.run(
        [sys.executable, "-m", "qmeas", "simulate", "--events", "10", "--config", "/dev/stdin"],
        input='{"rng_seed": 4}', capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["config"]["rng_seed"] == 4


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["simulate", "decohere"])
def test_failed_stdout_write_exits_one_without_traceback(command):
    # the OSError of sys.stdout.write ended in a traceback; with stdout
    # buffered (PYTHONUNBUFFERED unset, the default) the rest of the report
    # would also fail again at exit, as an "Exception ignored" line and exit 120
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, "-m", "qmeas", command, "--events", "10"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert child.returncode == 1
    assert child.stderr.count("\n") == 1
    assert child.stderr.startswith("qmeas: error: cannot write report to stdout: ")
    assert "Traceback" not in child.stderr and "Exception" not in child.stderr


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"a1_real": 1.0}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        resolve(["simulate", "--config", str(path)])


def test_amplitudes_renormalized_with_warning():
    config, warnings = resolve(["simulate", "--a1", "0.70710683", "--a2", "0.70710678"])
    assert len(warnings) == 1 and "renormalized" in warnings[0]
    assert abs(config.a1) ** 2 + abs(config.a2) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_amplitudes_rejected_beyond_limit():
    with pytest.raises(ConfigError, match="normalization"):
        resolve(["simulate", "--a1", "0.8", "--a2", "0.7"])


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--a1", "1e200", "--a2", "1e200"], None),
        (["--a1", "1,1e308"], None),
        (["--a1", "1e308,1e308"], None),  # abs() of the complex amplitude overflows
        ([], {"a1_re": 1e200, "a2_re": 1e200}),
    ],
)
def test_amplitudes_too_large_to_square_exit_one(flags, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        flags = ["--config", str(path)]
    rc, out, err = run_main(["simulate", "--events", "10", *flags], capsys)
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and "normalization by inf" in err
    assert "Traceback" not in err


def test_negative_complex_amplitude_needs_the_equals_form():
    config, _ = resolve(["simulate", "--a1=-0.6,0.1", "--a2", repr(math.sqrt(0.63))])
    assert config.a1 == pytest.approx(-0.6 + 0.1j)
    config, _ = resolve(["simulate", "--a1", "-0.6", "--a2", "0.8"])
    assert config.a1 == pytest.approx(-0.6)
    # argparse reads a value that starts with "-" and is not a plain number as an option
    with pytest.raises(ConfigError, match="expected one argument"):
        resolve(["simulate", "--a1", "-0.6,0.1", "--a2", repr(math.sqrt(0.63))])


def test_amplitude_parse_errors():
    with pytest.raises(ConfigError, match="RE"):
        resolve(["simulate", "--a1", "x"])
    with pytest.raises(ConfigError, match="RE"):
        resolve(["simulate", "--a1", "1,2,3"])


def test_bad_env_overlap_rejected():
    with pytest.raises(ConfigError, match="env_overlap"):
        resolve(["simulate", "--env-overlap", "1.5"])


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--a1", "nan"], "a1_re"),
        (["--a1", "0.6,inf"], "a1_im"),
        (["--a2=-inf"], "a2_re"),
        (["--gamma", "nan"], "gamma"),
        (["--c-phase", "inf"], "c_phase"),
        (["--env-overlap", "nan"], "env_overlap"),
    ],
)
def test_non_finite_flag_exits_one_naming_the_key(flags, key, capsys):
    rc, out, err = run_main(["discriminate", *flags], capsys)
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and key in err and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "literal",
    # an integer literal too large for a float made float() raise OverflowError
    ["NaN", "Infinity", "-Infinity", "1e400", pytest.param("1" + "0" * 400, id="10**400")],
)
@pytest.mark.parametrize("key", ["a1_re", "a2_im", "gamma", "c_phase", "env_overlap"])
def test_non_finite_config_value_exits_one_naming_the_key(key, literal, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(f'{{"{key}": {literal}}}')
    rc, out, err = run_main(["simulate", "--events", "10", "--config", str(path)], capsys)
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and key in err and "finite" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_events", 20000.7),
        ("n_env", 2.9),
        ("n_env", True),
        ("rng_seed", False),
        ("gamma", True),
        ("gamma", "0.5"),
        ("output_path", 5),
        ("output_path", ["a"]),
        ("output_format", None),
    ],
)
def test_config_value_of_wrong_type_exits_one_naming_the_key(key, value, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    rc, out, err = run_main(["simulate", "--config", str(path)], capsys)
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and key in err and "Traceback" not in err


def test_config_integral_numbers_are_accepted_for_integer_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"n_events": 1e5, "n_env": 3.0, "gamma": 1, "output_path": null}')
    config, _ = resolve(["simulate", "--config", str(path)])
    assert type(config.n_events) is int and config.n_events == 100_000
    assert type(config.n_env) is int and config.n_env == 3
    assert type(config.gamma) is float and config.gamma == 1.0
    assert config.output_path is None


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_flag_out_of_range_exits_one_naming_the_key(seed, monkeypatch, capsys):
    # 2**64 would otherwise wrap to seed 0 in the event streams
    monkeypatch.delenv("QMEAS_SEED", raising=False)
    for command in ("simulate", "nogo"):
        rc, out, err = run_main([command, "--events", "10000", "--seed", seed], capsys)
        assert rc == 1
        assert out == ""
        assert err.count("\n") == 1 and "rng_seed" in err and "Traceback" not in err


def test_seed_out_of_range_from_env_or_config_file_exits_one(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("QMEAS_SEED", "-3")
    rc, out, err = run_main(["nogo"], capsys)
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "rng_seed" in err

    monkeypatch.delenv("QMEAS_SEED")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rng_seed": 2**64}))
    rc, out, err = run_main(["simulate", "--config", str(path)], capsys)
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "rng_seed" in err


def test_largest_seed_runs(monkeypatch, capsys):
    monkeypatch.delenv("QMEAS_SEED", raising=False)
    rc, out, _ = run_main(["simulate", "--events", "10", "--seed", str(2**64 - 1)], capsys)
    assert rc == 0
    assert json.loads(out)["config"]["rng_seed"] == 2**64 - 1


def test_n_events_above_ceiling_exits_one_naming_the_key(tmp_path, capsys):
    # 2**62 events made numpy raise "array is too big", which exited 2
    for command in ("simulate", "nogo"):
        rc, out, err = run_main([command, "--events", str(2**62)], capsys)
        assert rc == 1
        assert out == ""
        assert err.count("\n") == 1 and "n_events" in err and "Traceback" not in err

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_events": cli.MAX_N_EVENTS + 1}))
    rc, out, err = run_main(["simulate", "--config", str(path)], capsys)
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "n_events" in err and "Traceback" not in err


def test_n_events_at_ceiling_is_accepted():
    config, _ = resolve(["simulate", "--events", str(cli.MAX_N_EVENTS)])
    assert config.n_events == cli.MAX_N_EVENTS == 10**9


def test_unwritable_out_path_exits_one_without_traceback(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    rc, out, err = run_main(
        ["simulate", "--events", "10", "--seed", "1", "--out", str(target)], capsys
    )
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and "cannot write report" in err and str(target) in err
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_directory_out_path_exits_one_and_stays_empty(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    rc, _, err = run_main(
        ["simulate", "--events", "10", "--seed", "1", "--out", str(target)], capsys
    )
    assert rc == 1
    assert "cannot write report" in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("source", ["config-flag", "out-flag", "config-key"])
def test_empty_path_exits_one_without_report(source, tmp_path, capsys):
    # an empty path is given, not left out: it must not send the report to stdout
    config = tmp_path / "config.json"
    config.write_text('{"output_path": ""}', encoding="utf-8")
    flags = {"config-flag": ["--config", ""], "out-flag": ["--out", ""],
             "config-key": ["--config", str(config)]}[source]
    rc, out, err = run_main(["simulate", "--events", "10", *flags], capsys)
    assert (rc, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("qmeas: error: ")
    assert "Traceback" not in err


def test_failed_replace_keeps_old_file_and_leaves_no_partial_file(
    tmp_path, capsys, monkeypatch
):
    target = tmp_path / "r.json"
    target.write_text("old")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr("qmeas.cli.os.replace", refuse)
    rc, _, err = run_main(
        ["simulate", "--events", "10", "--seed", "1", "--out", str(target)], capsys
    )
    assert rc == 1
    assert err.count("\n") == 1 and "Permission denied" in err
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_out_path_holds_whole_report_and_nothing_else(tmp_path, capsys):
    target = tmp_path / "r.json"
    target.write_text("stale")
    rc, out, _ = run_main(
        ["simulate", "--events", "10", "--seed", "1", "--out", str(target)], capsys
    )
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())["config"]["n_events"] == 10
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_out_path_keeps_file_mode(tmp_path, capsys):
    target = tmp_path / "r.json"
    target.write_text("stale")
    target.chmod(0o640)
    rc, _, _ = run_main(["simulate", "--events", "10", "--out", str(target)], capsys)
    assert rc == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert json.loads(target.read_text())["command"] == "simulate"


def test_new_out_file_gets_umask_mode(tmp_path, capsys):
    target = tmp_path / "r.json"
    old = os.umask(0o027)
    try:
        rc, _, _ = run_main(["simulate", "--events", "10", "--out", str(target)], capsys)
    finally:
        os.umask(old)
    assert rc == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_symlink_out_path_writes_through_the_link(tmp_path, capsys):
    real = tmp_path / "real.json"
    real.write_text("stale")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    rc, _, _ = run_main(["simulate", "--events", "10", "--out", str(link)], capsys)
    assert rc == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert json.loads(real.read_text())["command"] == "simulate"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_hard_linked_out_file_is_written_in_place(tmp_path, capsys):
    target = tmp_path / "r.json"
    target.write_text("stale")
    other = tmp_path / "other.json"
    os.link(target, other)
    rc, _, _ = run_main(["simulate", "--events", "10", "--out", str(target)], capsys)
    assert rc == 0
    assert os.path.samefile(target, other)
    assert json.loads(other.read_text())["command"] == "simulate"


def test_stale_temp_name_is_left_alone(tmp_path, capsys):
    stale = tmp_path / f".r.json.{os.getpid()}.tmp"
    stale.write_text("not ours")
    target = tmp_path / "r.json"
    rc, _, _ = run_main(["simulate", "--events", "10", "--out", str(target)], capsys)
    assert rc == 0
    assert stale.read_text() == "not ours"
    assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "r.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_out_path_is_written_not_replaced(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text()), daemon=True
    )
    reader.start()
    rc, _, _ = run_main(["simulate", "--events", "10", "--out", str(fifo)], capsys)
    reader.join(timeout=30)
    assert rc == 0
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert json.loads(received[0])["command"] == "simulate"


# ------------------------------------------------------------------ running

def test_simulate_eigenstate_input(capsys):
    rc, out, err = run_main(
        ["simulate", "--a1", "1", "--a2", "0", "--events", "100", "--seed", "1"],
        capsys,
    )
    assert rc == 0
    report = json.loads(out)
    assert report["frequency"]["branches"][0]["frequency"]["value"] == 1.0
    assert report["frequency"]["branches"][0]["count"] == 100
    assert "finished" in err


def test_report_schema_is_stable(capsys):
    rc, out, _ = run_main(
        ["simulate", "--events", "10", "--seed", "1"], capsys
    )
    assert rc == 0
    report = json.loads(out)
    expected = {"schema", "command", "config", "frequency", "restriction", "overlaps",
                "purity", "interference", "channel", "nogo", "decoherence"}
    assert set(report) == expected
    for absent in ("overlaps", "purity", "interference", "channel", "nogo",
                   "decoherence"):
        assert report[absent] is None


def test_simulate_reports_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    base = ["simulate", "--events", "5000", "--seed", "31415"]
    assert main(base + ["--out", str(first)]) == 0
    assert main(base + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_csv_output_has_metric_rows(capsys):
    rc, out, _ = run_main(
        ["simulate", "--events", "10", "--seed", "1", "--format", "csv"], capsys
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "name,value,tolerance,passed"
    frequency_rows = [l for l in lines if l.startswith("frequency.branches[0].frequency")]
    assert len(frequency_rows) == 1
    name, value, tolerance, passed = frequency_rows[0].split(",")
    assert passed in ("true", "false")


def test_import_loads_neither_dataclasses_nor_csv():
    # every command's process pays for what `import qmeas.cli` loads, and
    # numpy loads neither module; CSV output imports csv when it runs
    code = (
        "import numpy, sys\n"
        "import qmeas.cli as cli\n"
        "print(sorted({'dataclasses', 'csv'} & set(sys.modules)))\n"
        "print(cli.render_report({'schema': 'qmeas-report/1'}, 'csv').splitlines())\n"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=_child_env(), check=True)
    loaded, rows = child.stdout.splitlines()
    assert loaded == "[]"
    assert rows == str(["name,value,tolerance,passed", "schema,qmeas-report/1,,"])


def test_discriminate_symmetric_table_rows(capsys):
    rc, out, _ = run_main(["discriminate"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["overlaps"]["system_side"]["K_S_x"]["value"] == pytest.approx(
        0.5, abs=1e-9
    )
    assert report["overlaps"]["detector_side"]["K_Q"]["value"] == pytest.approx(
        1.0, abs=1e-9
    )
    assert report["interference"]["MS"]["K_at_c_phase"]["value"] == pytest.approx(
        0.5, abs=1e-9
    )
    assert report["channel"]["K_S_z_eigenstate_pair"]["value"] == 0.0
    assert report["purity"]["mixture_r_p_at_gamma"]["passed"] is True


def test_nogo_symmetric_finds_nothing(capsys):
    rc, out, _ = run_main(["nogo", "--events", "10000", "--seed", "4"], capsys)
    assert rc == 0
    scopes = json.loads(out)["nogo"]["scopes"]
    assert set(scopes) == {"O", "D", "MS"}
    for verdict in scopes.values():
        assert verdict["found"] is False
        assert verdict["witness"] is None
        assert verdict["max_min_gap"]["passed"] is True


def test_decohere_command_reports_factor(capsys):
    rc, out, _ = run_main(
        ["decohere", "--n-env", "5", "--env-overlap", "0.5"], capsys
    )
    assert rc == 0
    section = json.loads(out)["decoherence"]
    assert section["predicted_factor"] == 0.03125
    assert section["coherence_factor"]["passed"] is True
    assert all(p["passed"] for p in section["branch_purities"])

    rc, out, _ = run_main(["decohere", "--n-env", "3", "--env-overlap", "1"], capsys)
    assert rc == 0
    section = json.loads(out)["decoherence"]
    assert section["predicted_factor"] == 1.0
    assert section["coherence_factor"]["value"] == pytest.approx(1.0, abs=1e-10)


def test_decohere_requires_environment(capsys):
    rc, _, err = run_main(["decohere", "--n-env", "0"], capsys)
    assert rc == 1
    assert "n_env" in err


@pytest.mark.parametrize("n_env", ["11", "30"])
def test_n_env_above_ceiling_exits_one_naming_the_key(n_env, capsys):
    # 30 would ask for a 33-qubit state; the check must come before any is built
    rc, out, err = run_main(["decohere", "--n-env", n_env], capsys)
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "n_env" in err and "Traceback" not in err


def test_n_env_ceiling_applies_to_config_files(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_env": 11}))
    rc, _, err = run_main(["all", "--config", str(path)], capsys)
    assert rc == 1
    assert err.count("\n") == 1 and "n_env" in err


def test_n_env_at_ceiling_runs(capsys):
    rc, out, _ = run_main(["decohere", "--n-env", "10", "--env-overlap", "0.5"], capsys)
    assert rc == 0
    section = json.loads(out)["decoherence"]
    assert section["n_env"] == 10
    assert section["coherence_factor"]["passed"] is True


def test_nogo_runs_one_forcing_check_per_run(monkeypatch, capsys):
    # the forcing identity depends on the states alone, not on the scope
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return forcing_check(*args, **kwargs)

    monkeypatch.setattr(cli, "forcing_check", counted)
    rc, out, _ = run_main(["nogo", "--events", "10000", "--seed", "5"], capsys)
    assert rc == 0 and len(calls) == 1
    blocks = [v["forcing"] for v in json.loads(out)["nogo"]["scopes"].values()]
    assert len(blocks) == 3 and blocks[0] is not None
    assert blocks[0]["n_samples"] == 1000
    assert blocks[1] == blocks[0] and blocks[2] == blocks[0]

    calls.clear()
    rc, out, _ = run_main(["nogo", "--a1", "1", "--a2", "0", "--events", "10000"], capsys)
    assert rc == 0 and calls == []
    assert all(v["forcing"] is None for v in json.loads(out)["nogo"]["scopes"].values())


def test_nogo_rejects_small_sample_count(capsys):
    rc, _, err = run_main(["nogo", "--events", "100"], capsys)
    assert rc == 1
    assert "10000" in err


def test_nogo_flags_degenerate_amplitudes(capsys):
    rc, out, err = run_main(
        ["nogo", "--a1", "1", "--a2", "0", "--events", "10000"], capsys
    )
    assert rc == 0
    assert "out of the no-go regime" in err
    report = json.loads(out)
    assert all(v["out_of_regime"] for v in report["nogo"]["scopes"].values())


@pytest.mark.parametrize("argv", [
    ["all", "--n-env", "0"],
    ["all", "--events", "9999"],
    ["nogo", "--events", "9999"],
    ["decohere", "--n-env", "0"],
])
def test_command_checks_run_before_any_section_builder(argv, monkeypatch, capsys):
    # the sample floor and n_env >= 1 are config rules of the commands that
    # run the no-go search or the decoherence analysis; they used to fire
    # inside those builders, after every earlier section had run
    called = []

    def recorder(section):
        def build(*args):
            called.append(section)
        return build

    for command, sections in list(cli._SECTIONS.items()):
        recorded = tuple((section, recorder(section)) for section, _ in sections)
        monkeypatch.setitem(cli._SECTIONS, command, recorded)
    rc, out, err = run_main(argv, capsys)
    assert (rc, out, called) == (1, "", [])
    assert err.count("\n") == 1 and err.startswith("qmeas: error: ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--events", "5"],
    ["discriminate", "--n-env", "0"],
    ["nogo", "--n-env", "0"],
    ["decohere", "--events", "5"],
])
def test_command_checks_leave_other_commands_alone(argv):
    config, _ = resolve(argv)
    assert config.n_env == 0 or config.n_events == 5


def test_huge_event_count_without_environment_exits_at_once():
    # this once sampled 10**9 events and scanned 10**9 candidates per no-go
    # scope before the decoherence section rejected n_env = 0 (hours of work)
    child = subprocess.run(
        [sys.executable, "-m", "qmeas", "all", "--n-env", "0", "--events", "1000000000"],
        capture_output=True, text=True, env=_child_env(), timeout=10,
    )
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == "qmeas: error: decoherence analysis needs n_env >= 1\n"


def _ulps_from(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else 0.0)
    return x


REGIME_EDGE = [(repr(_ulps_from(1e-12, n)), "1") for n in range(-3, 8)]


@pytest.mark.parametrize("a1, a2", [*REGIME_EDGE, ("0.6", "0.8"), ("1", "0")])
def test_coherence_factor_is_null_exactly_out_of_the_no_go_regime(a1, a2):
    # config a1 a2 just above 1e-12 once gave an in-regime coherence factor
    # while nogo_search, which reads <b1|psi><b2|psi> of the premeasured state
    # (a few ulps smaller), put every scope out of regime
    config, _ = resolve(["all", "--a1", a1, "--a2", a2, "--n-env", "2", "--events", "10000"])
    warnings = []
    scopes = cli._nogo_section(config, warnings.append, None)["scopes"].values()
    null = cli._decoherence_section(config)["coherence_factor"] is None
    assert [scope["out_of_regime"] for scope in scopes] == [null] * 3
    assert warnings == ["|a1 a2| <= 1e-12: out of the no-go regime, scans are skipped"] * null
    if a1 in ("0.6", "1", "1.0000000000000002e-12"):  # the last one is the mended band
        assert null == (a1 != "0.6")


def test_usage_error_exits_one(capsys):
    rc, _, err = run_main(["simulate", "--format", "xml"], capsys)
    assert rc == 1
    assert "error" in err


def test_missing_command_exits_one(capsys):
    rc, _, _ = run_main([], capsys)
    assert rc == 1


def test_invariant_violation_exits_two(capsys, monkeypatch):
    def broken(config, warn):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "simulate", broken)
    rc, _, err = run_main(["simulate"], capsys)
    assert rc == 2
    assert "invariant violation" in err


# ------------------------------------------------------------- serialization

def test_render_json_float_formatting():
    text = render_json({"x": 0.1, "flag": True, "n": 3, "none": None})
    parsed = json.loads(text)
    assert parsed["x"] == 0.1
    assert "0.10000000000000001" in text  # 17 significant digits round-trip
    assert parsed["flag"] is True and parsed["n"] == 3 and parsed["none"] is None


def test_render_json_rejects_non_finite():
    with pytest.raises(InvariantViolation, match="non-finite"):
        render_json({"x": float("nan")})


def test_render_json_round_trips_report(capsys):
    rc, out, _ = run_main(["simulate", "--events", "10", "--seed", "2"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["config"]["n_events"] == 10
