"""Command-line front end: config ingestion, run orchestration, report emission.

Reports have a stable schema: every run emits the same top-level field set
and analyses a subcommand does not perform are explicit nulls.  Floats are
serialized with 17 significant digits so a fixed (config, seed) pair yields
byte-identical report files; wall-clock timing goes to stderr, never into
the file.

Exit codes: 0 success, 1 usage or configuration error, 2 model invariant
violation.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import re
import stat
import sys
import tempfile
import time
from collections import Counter
from typing import NamedTuple

import numpy as np

from .discrimination import (
    DEGENERATE_AMPLITUDE,
    MIN_NOGO_SAMPLES,
    N_DIRECTIONS,
    PHASE_GRID,
    channel_information,
    forcing_check,
    interference_analysis,
    interference_phase_scan,
    matched_pair,
    nogo_search,
    optimal_phase,
    out_of_regime,
    overlap,
    purity_rate,
)
from .ensembles import (
    mixture_density,
    restrict_statistical,
    restrict_stochastic,
    run_ensemble,
)
from .hilbert import InvariantViolation, partial_trace
from .model import (
    branch_state,
    decohere,
    measurement_chain_state,
    ms_layout,
    zoo,
)

SEED_ENV_VAR = "QMEAS_SEED"
MAX_N_ENV = 10  # 3 chain qubits + 10 = 13 qubits, the largest dense state supported
MAX_N_EVENTS = 10**9  # about 10 s of `simulate` with the streamed sampler
MAX_CONFIG_CHARS = 2**20  # a flat config is under 1 KB; /dev/zero must not fill memory
AMPLITUDE_REJECT = 1e-6
AMPLITUDE_WARN = 1e-9


class ConfigError(Exception):
    """Unusable configuration or command line."""


class ExperimentConfig(NamedTuple):
    a1_re: float = 1.0 / math.sqrt(2.0)
    a1_im: float = 0.0
    a2_re: float = 1.0 / math.sqrt(2.0)
    a2_im: float = 0.0
    gamma: float = 0.0
    c_phase: float = 0.0
    n_env: int = 5
    env_overlap: float = 0.5
    n_events: int = 100_000
    rng_seed: int = 0
    output_path: str | None = None
    output_format: str = "json"

    @property
    def a1(self) -> complex:
        return complex(self.a1_re, self.a1_im)

    @property
    def a2(self) -> complex:
        return complex(self.a2_re, self.a2_im)


def _typed(key: str, value):
    """``value`` checked against the type of ``key``'s default, str where that
    is None; an integral float becomes an int."""
    default = ExperimentConfig._field_defaults[key]
    if type(default) is int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if type(value) is not int:
            raise ConfigError(f"config key {key!r} must be an integer")
    elif type(default) is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    elif not (isinstance(value, str) or value is default is None):
        raise ConfigError(f"config key {key!r} must be a string")
    return value


def _parse_amplitude(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ConfigError(f"{flag} expects RE or RE,IM, got {text!r}")
    try:
        re_part = float(parts[0])
        im_part = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise ConfigError(f"{flag} expects numeric RE[,IM], got {text!r}") from None
    return re_part, im_part


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for config files: a key given twice is an error, not a choice."""
    repeated = sorted(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
    if repeated:
        raise ConfigError(f"repeated config keys {repeated}")
    return dict(pairs)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read(MAX_CONFIG_CHARS + 1)
        if len(text) > MAX_CONFIG_CHARS:
            raise ConfigError(f"config file {path!r} is longer than {MAX_CONFIG_CHARS} characters")
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also too many digits, or deep nesting
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a flat JSON object")
    unknown = set(raw) - set(ExperimentConfig._fields)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    return raw


def resolve_config(args: argparse.Namespace) -> tuple[ExperimentConfig, list[str]]:
    """Merge defaults, config file, environment seed, and flags (flag wins)."""
    values: dict = {}
    if args.config is not None:  # an empty path is a missing file, not "no file"
        values.update(_load_config_file(args.config))

    if "rng_seed" not in values and os.environ.get(SEED_ENV_VAR):
        try:
            values["rng_seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {os.environ[SEED_ENV_VAR]!r}"
            ) from None

    if args.a1 is not None:
        values["a1_re"], values["a1_im"] = _parse_amplitude(args.a1, "--a1")
    if args.a2 is not None:
        values["a2_re"], values["a2_im"] = _parse_amplitude(args.a2, "--a2")
    for name in ExperimentConfig._fields:  # each flag's dest is its field name
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value

    config = ExperimentConfig(**{key: _typed(key, value) for key, value in values.items()})
    warnings: list[str] = []

    try:
        norm = math.sqrt(abs(config.a1) ** 2 + abs(config.a2) ** 2)
    except OverflowError:  # an amplitude too large to square
        norm = math.inf
    deviation = abs(norm - 1.0)
    if deviation > AMPLITUDE_REJECT:
        raise ConfigError(
            f"amplitudes deviate from normalization by {deviation:.3e} "
            f"(limit {AMPLITUDE_REJECT:.0e})"
        )
    if deviation > AMPLITUDE_WARN:
        warnings.append(
            f"amplitudes renormalized; deviation was {deviation:.3e}"
        )
    config = config._replace(a1_re=config.a1_re / norm, a1_im=config.a1_im / norm,
                             a2_re=config.a2_re / norm, a2_im=config.a2_im / norm)

    if not 0 <= config.rng_seed < 2**64:
        raise ConfigError(f"rng_seed must lie in [0, 2**64), got {config.rng_seed}")
    if config.n_events < 1:
        raise ConfigError("n_events must be >= 1")
    if config.n_events > MAX_N_EVENTS:
        raise ConfigError(f"n_events must be <= {MAX_N_EVENTS}, got {config.n_events}")
    if config.n_env < 0:
        raise ConfigError("n_env must be >= 0")
    if config.n_env > MAX_N_ENV:
        raise ConfigError(f"n_env must be <= {MAX_N_ENV}, got {config.n_env}")
    if not 0.0 <= config.env_overlap <= 1.0:
        raise ConfigError("env_overlap must lie in [0, 1]")
    if config.output_format not in ("json", "csv"):
        raise ConfigError("output_format must be 'json' or 'csv'")
    if config.output_path == "":
        raise ConfigError("output_path must name a file; omit it to write to stdout")
    sections = {section for section, _ in _SECTIONS[args.command]}
    if "nogo" in sections and config.n_events < MIN_NOGO_SAMPLES:
        raise ConfigError(
            f"the no-go search needs at least {MIN_NOGO_SAMPLES} samples; "
            f"got n_events={config.n_events}"
        )
    if "decoherence" in sections and config.n_env < 1:
        raise ConfigError("decoherence analysis needs n_env >= 1")
    return config, warnings


# ------------------------------------------------------------------ reports

def metric(value, target=None, tolerance=None) -> dict:
    passed = None
    if target is not None and tolerance is not None:
        passed = bool(abs(float(value) - float(target)) <= float(tolerance))
    return {
        "value": float(value),
        "target": None if target is None else float(target),
        "tolerance": None if tolerance is None else float(tolerance),
        "passed": passed,
    }


def _config_echo(config: ExperimentConfig) -> dict:
    # experiment parameters only; the output destination is not part of them
    return {
        "a1_re": config.a1_re,
        "a1_im": config.a1_im,
        "a2_re": config.a2_re,
        "a2_im": config.a2_im,
        "gamma": config.gamma,
        "c_phase": config.c_phase,
        "n_env": config.n_env,
        "env_overlap": config.env_overlap,
        "n_events": config.n_events,
        "rng_seed": config.rng_seed,
    }


def _frequency_section(config: ExperimentConfig, *_) -> dict:
    report = run_ensemble(config.a1, config.a2, config.n_events, seed=config.rng_seed)
    branches = []
    for i in range(2):
        p = report.born_probabilities[i]
        branches.append(
            {
                "branch": i + 1,
                "count": report.counts[i],
                "born_probability": p,
                "frequency": metric(
                    report.frequencies[i],
                    target=p,
                    tolerance=4.0 * report.standard_errors[i],
                ),
            }
        )
    return {
        "n_events": report.n_events,
        "rng_seed": config.rng_seed,
        "gate": "four sigma binomial",
        "branches": branches,
    }


def _restriction_section(config: ExperimentConfig, *_) -> dict:
    psi = measurement_chain_state(config.a1, config.a2)
    statistical = restrict_statistical(psi)
    stochastic = restrict_stochastic(psi)
    diff = float(
        np.max(np.abs(mixture_density(stochastic).matrix - statistical.matrix))
    )
    p1, p2 = abs(config.a1) ** 2, abs(config.a2) ** 2
    return {
        "observer_weights": [
            metric(statistical.matrix[0, 0].real, target=p1, tolerance=1e-12),
            metric(statistical.matrix[1, 1].real, target=p2, tolerance=1e-12),
        ],
        "gemenge_vs_partial_trace_max_diff": metric(diff, target=0.0, tolerance=1e-12),
    }


def _overlaps_section(config: ExperimentConfig, warn, channel) -> dict:
    a = (config.a1, config.a2)
    pure, mixed = matched_pair(a, "S")
    system_zoo = zoo(pure.layout, gamma=config.gamma)
    chain_pure, chain_mixed = matched_pair(a, "SD")
    detector_zoo = zoo(chain_pure.layout)
    k = _channel_section(config, warn, channel)  # the K metrics both sections report
    return {
        "system_side": {
            "K_S_x": metric(overlap(system_zoo["S_x"], pure, mixed)),
            "K_S_y": metric(overlap(system_zoo["S_y"], pure, mixed)),
            "K_S_a_at_gamma": metric(
                overlap(system_zoo["S_a"], pure, mixed)
            ),
            "K_min_over_gamma_sweep": k["pre_channel_K_min"],
            "gamma_at_min": k["pre_channel_gamma"],
        },
        "detector_side": {
            **{
                f"K_{name}": metric(
                    overlap(detector_zoo[name], chain_pure, chain_mixed),
                    target=1.0,
                    tolerance=1e-9,
                )
                for name in ("Q", "Q_x", "Q_y")
            },
            "K_min_over_direction_sweep": k["post_channel_K_min"],
            "n_directions": k["n_directions"],
        },
        "input_eigenstate_pair_K_S_z": k["K_S_z_eigenstate_pair"],
    }


def _purity_section(config: ExperimentConfig, *_) -> dict:
    pure, mixed = matched_pair((config.a1, config.a2), "S")
    gamma, purity = optimal_phase(pure)
    return {
        "pure_r_p_at_gamma": metric(purity_rate(pure, config.gamma)),
        "pure_r_p_optimal": metric(
            purity, target=2.0 * abs(config.a1) * abs(config.a2), tolerance=1e-9
        ),
        "optimal_gamma": gamma,
        "mixture_r_p_at_gamma": metric(
            purity_rate(mixed, config.gamma), target=0.0, tolerance=1e-12
        ),
    }


def _interference_section(config: ExperimentConfig, *_) -> dict:
    a = (config.a1, config.a2)
    target_min = 1.0 - abs(config.a1) * abs(config.a2)
    sections = {}
    for scope in ("MS", "SD"):
        eigenvalues, pure, mixed, k = interference_analysis(
            np.exp(1j * config.c_phase), a, scope=scope)
        phase, k_min = interference_phase_scan(a, scope=scope)
        sections[scope] = {
            "c_phase": config.c_phase,
            "eigenvalues": list(eigenvalues),
            "expectation_pure": metric(pure),
            "expectation_mixed": metric(mixed, target=0.0, tolerance=1e-12),
            "K_at_c_phase": metric(k),
            "phase_scan": {
                "phase_at_min": phase,
                "K_min": metric(k_min, target=target_min, tolerance=1e-4),
            },
        }
    return sections


def _channel_section(config: ExperimentConfig, _warn, channel) -> dict:
    target_min = 1.0 - abs(config.a1) * abs(config.a2)
    k_sz, pre_gamma, pre_k_min, post_k_min = channel()
    return {
        "K_S_z_eigenstate_pair": metric(k_sz, target=0.0, tolerance=1e-12),
        "pre_channel_K_min": metric(pre_k_min, target=target_min, tolerance=1e-9),
        "pre_channel_gamma": pre_gamma,
        "post_channel_K_min": metric(post_k_min, target=1.0, tolerance=1e-9),
        "n_gamma": PHASE_GRID,
        "n_directions": N_DIRECTIONS,
    }


def _forcing_dict(record) -> dict:
    n_samples, max_residual, max_gap = record
    return {
        "n_samples": n_samples,
        "max_substitution_residual": metric(max_residual, target=0.0, tolerance=1e-12),
        "max_forced_gap": metric(max_gap, target=0.0, tolerance=1e-8),
    }


def _verdict_dict(verdict, forcing: dict | None) -> dict:
    witness = None
    if verdict.witness is not None:
        params, g0, g1, g2 = verdict.witness
        witness = {"parameters": str(params), "g0": g0, "g1": g1, "g2": g2}
    return {
        "family": verdict.family_description,
        "n_candidates_tested": verdict.n_candidates_tested,
        "found": verdict.found,
        "witness": witness,
        "max_min_gap": metric(verdict.max_min_gap, target=0.0, tolerance=1e-8),
        "out_of_regime": verdict.out_of_regime,
        "forcing": forcing,
    }


def _chain_states(config: ExperimentConfig) -> tuple:
    """The chain state and its two branch states, the triple ``out_of_regime`` reads."""
    layout = ms_layout()
    return (measurement_chain_state(config.a1, config.a2),
            branch_state(1, layout), branch_state(2, layout))


def _nogo_section(config: ExperimentConfig, warn, _channel) -> dict:
    states = _chain_states(config)
    verdicts = {
        scope: nogo_search(scope, states, config.n_events, seed=config.rng_seed)
        for scope in ("O", "D", "MS")
    }
    forcing = None
    if out_of_regime(states):
        warn(f"|a1 a2| <= {DEGENERATE_AMPLITUDE:g}: out of the no-go regime, scans are skipped")
    else:
        # the forcing identity depends on the states alone: one check serves every scope
        forcing = _forcing_dict(forcing_check(states, seed=config.rng_seed + 1))
    scopes = {scope: _verdict_dict(verdict, forcing) for scope, verdict in verdicts.items()}
    return {"sample_count": config.n_events, "scopes": scopes}


def _decoherence_section(config: ExperimentConfig, *_) -> dict:
    predicted = config.env_overlap**config.n_env
    states = _chain_states(config)
    chains = [states[0], *(measurement_chain_state(*a) for a in ((1, 0), (0, 1)))]
    reduced, *branches = (
        partial_trace(decohere(chain, config.n_env, config.env_overlap), ["S", "D", "O"])
        for chain in chains
    )
    coherence = coherence_imag = None
    if not out_of_regime(states):
        factor = reduced.matrix[0, 7] / (config.a1 * np.conj(config.a2))
        coherence = metric(factor.real, target=predicted, tolerance=1e-10)
        coherence_imag = metric(factor.imag, target=0.0, tolerance=1e-10)
    return {
        "n_env": config.n_env,
        "env_overlap": config.env_overlap,
        "predicted_factor": predicted,
        "coherence_factor": coherence,
        "coherence_factor_imag": coherence_imag,
        "branch_purities": [
            metric(branch.purity(), target=1.0, tolerance=1e-10) for branch in branches
        ],
    }


# Sections each command fills, in report order.  Every builder is called as
# builder(config, warn, channel); channel() returns the run's one
# channel_information tuple, computed on first use.
_SECTIONS = {
    "simulate": (("frequency", _frequency_section), ("restriction", _restriction_section)),
    "discriminate": (
        ("overlaps", _overlaps_section),
        ("purity", _purity_section),
        ("interference", _interference_section),
        ("channel", _channel_section),
    ),
    "nogo": (("nogo", _nogo_section),),
    "decohere": (("decoherence", _decoherence_section),),
}
_SECTIONS["all"] = sum(_SECTIONS.values(), ())  # every other command's sections, in order
REPORT_SECTIONS = tuple(section for section, _ in _SECTIONS["all"])


def _run(command: str, config: ExperimentConfig, warn) -> dict:
    """The report of ``command``: its sections in report order, every other one null."""
    report = {"schema": "qmeas-report/1", "command": command, "config": _config_echo(config),
              **dict.fromkeys(REPORT_SECTIONS)}
    channel = functools.cache(lambda: channel_information((config.a1, config.a2)))
    for section, builder in _SECTIONS[command]:
        report[section] = builder(config, warn, channel)
    return report


_COMMANDS = {name: functools.partial(_run, name) for name in _SECTIONS}


# ------------------------------------------------------------- serialization

def render_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    child_pad = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise InvariantViolation(f"non-finite value {value!r} in report")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{child_pad}{json.dumps(str(key))}: {render_json(item, indent + 1)}"
            for key, item in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(
            f"{child_pad}{render_json(item, indent + 1)}" for item in value
        )
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def _csv_cell(value) -> str:
    """A scalar as ``render_json`` writes it, except that None is empty and a string unquoted."""
    if value is None:
        return ""
    return value if isinstance(value, str) else render_json(value)


def render_csv(report: dict) -> str:
    import csv  # only CSV output needs it; a JSON run does not pay for the import
    rows: list[tuple[str, object, object, object]] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            if set(value) == {"value", "target", "tolerance", "passed"}:
                rows.append((prefix, value["value"], value["tolerance"], value["passed"]))
                return
            for key, item in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), item)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        else:
            rows.append((prefix, value, None, None))

    walk("", report)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "value", "tolerance", "passed"])
    for name, value, tolerance, passed in rows:
        writer.writerow([name, _csv_cell(value), _csv_cell(tolerance), _csv_cell(passed)])
    return buffer.getvalue()


def render_report(report: dict, output_format: str) -> str:
    if output_format == "csv":
        return render_csv(report)
    return render_json(report) + "\n"


def _write_report(path: str, text: str) -> None:
    """Write ``text`` to ``path``; an OS error becomes a ``ConfigError``.

    A new file, or an existing regular file with no other hard link, is
    written whole or not at all: a complete temporary file beside it, with
    the permissions the file has or would get, is renamed over it.  Any
    other target (a symlink, a device, a pipe) is opened and written in
    place, so that it stays what it is.
    """
    try:
        try:
            status = os.lstat(path)
        except FileNotFoundError:
            status = None
        if status is not None and not (
            stat.S_ISREG(status.st_mode) and status.st_nlink == 1
        ):
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            return
        if status is None:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        else:
            mode = stat.S_IMODE(status.st_mode)
        directory, name = os.path.split(os.path.abspath(path))
        fd, partial = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.chmod(partial, mode)
            os.replace(partial, path)
        except BaseException:
            os.unlink(partial)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write report to {path!r}: {exc.strerror or exc}") from None


# --------------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    """Errors raise ``ConfigError``; a value flag also takes a negative value after a space.

    argparse reads a token that starts with "-" as an option unless its
    private ``_negative_number_matcher`` matches it, by default only -N and
    -N.N, so ``--gamma -1e-3`` and ``--a1 -0.6,0.1`` would fail.  Here it
    matches "-" and then a digit or ".", which argparse then reads as a value
    wherever one may stand; subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmeas",
        description="Simulate a qubit measurement chain and its information metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "sample collapse events and check the restriction maps"),
        ("discriminate", "overlap table, purity rates, interference terms"),
        ("nogo", "scan observable families for a discriminating operator"),
        ("decohere", "environment coupling: coherence factor and branch purity"),
        ("all", "run every analysis"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="flat JSON config file")
        cmd.add_argument("--seed", dest="rng_seed", type=int,
                         metavar="SEED", help="RNG seed (u64)")
        cmd.add_argument("--events", dest="n_events", type=int,
                         metavar="N", help="event / sample count")
        cmd.add_argument("--a1", metavar="RE[,IM]",
                         help="first amplitude")
        cmd.add_argument("--a2", metavar="RE[,IM]",
                         help="second amplitude")
        cmd.add_argument("--gamma", type=float, metavar="RAD",
                         help="conjugate-spin phase")
        cmd.add_argument("--c-phase", dest="c_phase", type=float,
                         metavar="RAD", help="interference-term phase")
        cmd.add_argument("--n-env", dest="n_env", type=int,
                         metavar="N", help="environment qubit count")
        cmd.add_argument("--env-overlap", dest="env_overlap", type=float,
                         metavar="X",
                         help="per-qubit environment overlap in [0, 1]")
        cmd.add_argument("--out", dest="output_path", metavar="PATH",
                         help="output file (default: stdout)")
        cmd.add_argument("--format", dest="output_format",
                         choices=("json", "csv"), help="output format")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        config, warnings = resolve_config(args)

        def warn(message: str) -> None:
            print(f"qmeas: warning: {message}", file=sys.stderr)

        for message in warnings:
            warn(message)
        report = _COMMANDS[args.command](config, warn)
        text = render_report(report, config.output_format)
        if config.output_path:
            _write_report(config.output_path, text)
        else:
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError as exc:
                # what stays buffered would fail again, with a traceback, at exit
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise ConfigError(
                    f"cannot write report to stdout: {exc.strerror or exc}") from None
    except ConfigError as exc:
        print(f"qmeas: error: {exc}", file=sys.stderr)
        return 1
    except (InvariantViolation, ValueError) as exc:
        print(f"qmeas: invariant violation: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    destination = config.output_path or "stdout"
    print(
        f"qmeas: {args.command} finished in {elapsed:.2f}s, report -> {destination}",
        file=sys.stderr,
    )
    return 0
