"""Mutation gate: every recorded mutant of ``src/`` must make its tests fail.

Run from the repository root, with numpy, pytest and hypothesis installed::

    python tests/mutants.py             # every mutant in MUTANTS
    python tests/mutants.py NAME ...    # only the named ones

Each entry of ``MUTANTS`` names a file under ``src/qmeas``, a text that must
occur in it exactly once, the text that replaces it, and the tests (pytest
node ids) that must catch the change.  The driver copies ``src/``,
``tests/``, ``bench/`` and ``pyproject.toml`` into a temporary directory, so that a test
which starts a child ``qmeas`` process runs the copy too.  It first runs
every selected test once on the unchanged copy, which must pass; then, for
each mutant, it applies the change and runs the mutant's tests with
``pytest -x``.

The gate fails when a mutant survives, when its old text is missing from
``src/`` or occurs more than once (a refactor that moves the code must
update its entry), or when pytest ends in anything but a pass or a test
failure (for example no test collected).  An entry marked ``host_dependent``
changes bits that agree with the original on some CPUs; it may survive or
not, and its outcome is only reported.

Only the standard library is imported here; no mutation package is used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/qmeas
    old: str
    new: str
    tests: tuple[str, ...]
    host_dependent: bool = False


SCAN_KERNEL = "tests/test_scan_kernel.py"
REFINE_WALK = f"{SCAN_KERNEL}::test_lookahead_refinement_equals_the_pairwise_loop"
ORACLE_PAIRS = f"{SCAN_KERNEL}::test_scans_equal_oracle_on_amplitude_pairs"
SAMPLER_COUNTS = "tests/test_ensembles.py::test_run_ensemble_counts_equal_uniforms_below_p1"
WHOLE_ARRAY = "tests/test_ensembles.py::test_run_ensemble_equals_whole_array_sampler"
FAILED_STDOUT = "tests/test_cli.py::test_failed_stdout_write_exits_one_without_traceback"
COMMAND_CHECKS = "tests/test_cli.py::test_command_checks_run_before_any_section_builder"
NOGO_ENGINE = "tests/test_nogo_engine.py"
NEGATIVE_SPACED = "tests/test_cli.py::test_negative_value_after_a_space_equals_the_equals_form"

MUTANTS = (
    # Born form and the K kernel
    Mutant(
        "born-einsum", "hilbert.py",
        "values = np.matmul(amplitudes.conj(), (operators @ amplitudes)[..., None])[..., 0]",
        'values = np.einsum("i,...ij,j->...", amplitudes.conj(), operators, amplitudes)',
        (f"{SCAN_KERNEL}::test_born_form_equals_vdot_and_trace_bit_for_bit",),
    ),
    Mutant(
        "outcome-distribution-einsum", "hilbert.py",
        "weights = outcome_weights(state, [projector for _, projector, _ in spectrum])",
        'weights = np.einsum("i,gij,j->g", state.amplitudes.conj(), '
        "np.array([projector for _, projector, _ in spectrum]), state.amplitudes).real",
        (f"{SCAN_KERNEL}::test_k_is_the_left_to_right_group_sum_on_every_python",),
    ),
    Mutant(
        "group-sum-axis-0", "discrimination.py",
        "k[rows] = _left_to_right(np.minimum(w1, w2))",
        "k[rows] = np.minimum(w1, w2).sum(axis=0)",
        (SCAN_KERNEL,),
    ),
    Mutant(
        # the K sum compensated, as math.fsum in the former scalar overlap was
        "group-sum-fsum", "discrimination.py",
        "    total = 0.0\n    for term in terms:\n        total = total + term\n    return total\n",
        "    return np.array([math.fsum(column) for column in np.asarray(terms).T])\n",
        (SCAN_KERNEL,),
    ),
    Mutant(
        "cosine-one-ulp", "model.py",
        "for f in (math.cos, math.sin))",
        "for f in (lambda g: math.nextafter(math.cos(g), 2.0), math.sin))",
        (SCAN_KERNEL,),
    ),
    Mutant(
        # numpy's array cos and sin agree with libm on many CPUs
        "numpy-cosine", "model.py",
        "np.fromiter(map(f, flat), float, len(flat)).reshape(gammas.shape + (1, 1))\n"
        "                for f in (math.cos, math.sin))",
        "f(gammas)[..., None, None] for f in (np.cos, np.sin))",
        (SCAN_KERNEL,),
        host_dependent=True,
    ),
    # the walk of the lookahead refinement
    Mutant(
        "refine-ties-left", "discrimination.py",
        "values[2 * n] < values[2 * n + 1]", "values[2 * n] <= values[2 * n + 1]",
        (REFINE_WALK,),
    ),
    Mutant(
        "refine-children-swapped", "discrimination.py",
        "(1 if values[2 * n] < values[2 * n + 1] else 2)",
        "(2 if values[2 * n] < values[2 * n + 1] else 1)",
        (REFINE_WALK,),
    ),
    Mutant(
        # a child's index without its level's offset
        "refine-child-index-slip", "discrimination.py",
        "n = 2 * n + (1 if", "n = n + (1 if",
        (REFINE_WALK,),
    ),
    # the scanned families, which the K kernel takes without a Hermiticity gate
    Mutant(
        "interference-corner-unconjugated", "model.py",
        "matrix[..., dim - 1, 0] = c1.conj()", "matrix[..., dim - 1, 0] = c1",
        (f"{SCAN_KERNEL}::test_scanned_families_are_exactly_hermitian",),
    ),
    Mutant(
        "conjugate-spin-anti-hermitian", "model.py",
        "(cos * PAULI_X + sin * PAULI_Y) / 2.0", "(cos * PAULI_X + 1j * sin * PAULI_Y) / 2.0",
        (f"{SCAN_KERNEL}::test_scanned_families_are_exactly_hermitian",),
    ),
    # the sampler's integer branch threshold and its keys
    Mutant(
        "threshold-floor", "ensembles.py",
        "edge = math.ceil(p1 * 2.0**53)", "edge = math.floor(p1 * 2.0**53)",
        (SAMPLER_COUNTS,),
    ),
    Mutant(
        "threshold-less-equal", "ensembles.py",
        "np.count_nonzero(z < threshold)", "np.count_nonzero(z <= threshold)",
        (SAMPLER_COUNTS,),
    ),
    Mutant(
        "no-certain-branch", "ensembles.py",
        "if edge >= 2**53:", "if False:",
        (SAMPLER_COUNTS, WHOLE_ARRAY),
    ),
    Mutant(
        "key-base-plus-one", "ensembles.py",
        "base = np.uint64(((start + 1) * int(_GOLDEN) + seed) % 2**64)",
        "base = np.uint64(((start + 1) * int(_GOLDEN) + seed + 1) % 2**64)",
        (WHOLE_ARRAY,),
    ),
    # the no-go engine
    Mutant(
        "skip-path-undercounts", "discrimination.py",
        "n_tested += len(passed)\n            continue",
        "n_tested += min(len(passed), 64)\n            continue",
        ("tests/test_nogo_engine.py",),
    ),
    Mutant(
        # screened O/D batches peak at about 1.9 MB at 4096 rows (0.6 MB at 1024)
        "od-rows-4096", "discrimination.py",
        "_pointer_directions(n_sphere, n_random, rng, _batch_rows(dim))",
        "_pointer_directions(n_sphere, n_random, rng, 4096)",
        ("tests/test_nogo_engine.py::test_scan_memory_stays_bounded",),
    ),
    Mutant(
        # every verdict stays the same, since a candidate b1 fails is rejected
        # too; only the screen's vectors show the change
        "screen-on-b1", "discrimination.py",
        "passed = eigen_residuals(products(1), vectors[:1], tol)[1]",
        "passed = eigen_residuals(products(2)[:, 1:], vectors[1:2], tol)[1]",
        (f"{NOGO_ENGINE}::test_each_batch_screens_on_psi_and_confirms_only_where_psi_passes",),
    ),
    Mutant(
        # psi's mask taken for the three-state one
        "confirm-skipped", "discrimination.py",
        "lam, passed = eigen_residuals(products(3), vectors, tol)",
        "lam = eigen_residuals(products(3), vectors, tol)[0]",
        (f"{NOGO_ENGINE}::test_candidates_only_the_target_passes_are_rejected_by_the_confirmation",
         f"{NOGO_ENGINE}::test_engine_labels_a_late_random_hit_with_its_global_index"),
    ),
    Mutant(
        "apply-matmul-transpose", "discrimination.py",
        "return np.matmul(matrices[:, None], vectors[None, :, :, None])[..., 0]",
        "return (matrices @ vectors.T).swapaxes(1, 2)",
        ("tests/test_nogo_engine.py::test_apply_equals_the_per_vector_stack",),
    ),
    Mutant(
        "residual-abs-squared", "hilbert.py",
        "np.add.reduce((deviation.conj() * deviation).real, axis=-1)",
        "np.add.reduce(abs(deviation) ** 2, axis=-1)",
        ("tests/test_nogo_engine.py::test_eigen_residuals_equal_the_norm_residuals",),
    ),
    Mutant(
        "batch-rows-no-floor", "discrimination.py",
        "return max(1, 4096 // row_entries)", "return 4096 // row_entries",
        ("tests/test_nogo_engine.py"
         "::test_batch_rows_holds_at_most_4096_entries_and_at_least_one_row",),
    ),
    # the scans' tie window: an optimum on a grid midpoint, where the grid
    # points beside it differ by an ulp
    Mutant(
        "scan-tie-window-0", "discrimination.py",
        "SCAN_TIE_WINDOW = 1e-12", "SCAN_TIE_WINDOW = 0.0",
        (f"{ORACLE_PAIRS}[midpoint_1665_5-channel_information]",
         f"{ORACLE_PAIRS}[midpoint_111_5-interference_SD]"),
    ),
    # the embedding's shape check, and the one shape gate of states and observables
    Mutant(
        "embed-shape-unchecked", "hilbert.py",
        "if np.shape(matrix) != (2 ** len(targets),) * 2:", "if False:",
        ("tests/test_hilbert.py::test_embed_rejects_a_matrix_not_sized_to_its_targets",),
    ),
    Mutant(
        "shape-gate-dropped", "hilbert.py",
        "    if arr.shape != shape:", "    if False:",
        ("tests/test_hilbert.py::test_values_reject_an_array_not_shaped_to_their_layout",),
    ),
    # the gemenge's one sum rule, and its members on the branches
    Mutant(
        "gemenge-sum-unchecked", "ensembles.py",
        "if not abs(total - 1.0) <= ATOL_PROBABILITY:", "if False:",
        ("tests/test_ensembles.py"
         "::test_gemenge_sum_rule_is_the_one_check_and_an_invariant_violation",
         "tests/test_model.py::test_config_rejects_non_normalized_amplitudes"),
    ),
    Mutant(
        "non-branch-member-admitted", "ensembles.py",
        "            if max(p1, p2) < 1.0 - ATOL_BRANCH_SUPPORT:\n"
        "                raise ValueError(\n"
        '                    "gemenge member is not a branch state; cannot restrict stochastically"\n'
        "                )\n",
        "",
        ("tests/test_ensembles.py::test_stochastic_restriction_rejects_non_branch_states",),
    ),
    # the input gates, each widened to a value no earlier test could tell apart
    Mutant(
        "hermitian-gate-1e-6", "hilbert.py",
        "ATOL_HERMITIAN_INPUT = 1e-10", "ATOL_HERMITIAN_INPUT = 1e-6",
        ("tests/test_hilbert.py"
         "::test_observable_gate_rejects_an_anti_hermitian_part_above_its_tolerance",),
    ),
    Mutant(
        "branch-support-1e-3", "ensembles.py",
        "ATOL_BRANCH_SUPPORT = 1e-9", "ATOL_BRANCH_SUPPORT = 1e-3",
        ("tests/test_ensembles.py::test_stochastic_restriction_rejects_weight_off_the_branches",),
    ),
    # two thresholds of the analyses, each pinned just inside its value
    Mutant(
        "eig-group-rtol-1e-4", "hilbert.py",
        "EIG_GROUP_RTOL = 1e-8", "EIG_GROUP_RTOL = 1e-4",
        ("tests/test_hilbert.py::test_spectrum_joins_a_split_exactly_below_its_tolerance",),
    ),
    Mutant(
        "indeterminate-purity-1e-6", "discrimination.py",
        "INDETERMINATE_PURITY = 1e-10", "INDETERMINATE_PURITY = 1e-6",
        ("tests/test_discrimination.py"
         "::test_optimal_phase_is_indeterminate_exactly_below_its_purity_bound",),
    ),
    # environment factors enter a state only through decohere
    Mutant(
        "branch-state-admits-environment", "model.py",
        "if label not in CHAIN_LABELS:", "if False:",
        ("tests/test_model.py::test_branch_state_rejects_environment_factors",
         "tests/test_ensembles.py::test_stochastic_restriction_rejects_environment_factors"),
    ),
    # the public-name list
    Mutant(
        "all-keeps-modules", "__init__.py",
        'if not name.startswith("_") and not isinstance(value, _ModuleType)',
        'if not name.startswith("_")',
        ("tests/test_api_surface.py",),
    ),
    Mutant(
        "all-duplicate", "__init__.py",
        "not isinstance(value, _ModuleType)\n)",
        'not isinstance(value, _ModuleType)\n) + ["overlap"]',
        ("tests/test_api_surface.py",),
    ),
    # the command line
    Mutant(
        "stdout-not-redirected", "cli.py",
        "                os.dup2(devnull, sys.stdout.fileno())\n", "",
        (FAILED_STDOUT,),
    ),
    Mutant(
        "stdout-not-flushed", "cli.py",
        "                sys.stdout.write(text)\n                sys.stdout.flush()\n",
        "                sys.stdout.write(text)\n",
        (FAILED_STDOUT,),
    ),
    Mutant(
        # argparse's own rule: only -N and -N.N read as values
        "negative-matcher-default", "cli.py",
        r'self._negative_number_matcher = re.compile(r"-[\d.]")',
        r'self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$")',
        (NEGATIVE_SPACED,),
    ),
    Mutant(
        # "-" and a digit only: the -.6 form reads as an option
        "negative-matcher-drops-leading-dot", "cli.py",
        r'self._negative_number_matcher = re.compile(r"-[\d.]")',
        r'self._negative_number_matcher = re.compile(r"-\d")',
        (NEGATIVE_SPACED, "tests/test_cli.py::test_negative_amplitude_keeps_its_signs"),
    ),
    Mutant(
        "config-warnings-dropped", "cli.py",
        "        for message in warnings:\n            warn(message)\n", "",
        ("tests/test_cli.py::test_main_prints_config_warnings_before_the_wall_time",),
    ),
    Mutant(
        "witness-dropped", "cli.py",
        "    if verdict.witness is not None:", "    if False:",
        (f"{NOGO_ENGINE}::test_found_verdict_renders_its_witness_in_json_and_csv",),
    ),
    Mutant(
        "metric-bound-exclusive", "cli.py",
        "passed = bool(abs(float(value) - float(target)) <= float(tolerance))",
        "passed = bool(abs(float(value) - float(target)) < float(tolerance))",
        ("tests/test_cli.py::test_metric_passes_exactly_at_its_tolerance",),
    ),
    Mutant(
        # the test's child reads /dev/zero under a 1.5 GB address-space limit
        "config-read-unbounded", "cli.py",
        "text = handle.read(MAX_CONFIG_CHARS + 1)", "text = handle.read()",
        ("tests/test_cli.py::test_endless_config_file_exits_one",),
    ),
    Mutant(
        "n-env-rule-dropped", "cli.py",
        '    if "decoherence" in sections and config.n_env < 1:\n'
        '        raise ConfigError("decoherence analysis needs n_env >= 1")\n',
        "",
        (COMMAND_CHECKS,
         "tests/test_cli.py::test_huge_event_count_without_environment_exits_at_once"),
    ),
    Mutant(
        "sample-floor-dropped", "cli.py",
        '    if "nogo" in sections and config.n_events < MIN_NOGO_SAMPLES:\n',
        '    if False:\n',
        (COMMAND_CHECKS,),
    ),
    Mutant(
        # the regime rule copied back into the decoherence section, on the config
        "decoherence-null-on-config-amplitudes", "cli.py",
        "if not out_of_regime(states):",
        "if abs(config.a1 * config.a2) > DEGENERATE_AMPLITUDE:",
        ("tests/test_cli.py::test_coherence_factor_is_null_exactly_out_of_the_no_go_regime",),
    ),
)


def _pytest(copy: Path, tests, first_failure: bool) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    env.pop("QMEAS_SEED", None)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    if first_failure:
        argv.append("-x")
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def _tail(result: subprocess.CompletedProcess) -> str:
    lines = (result.stdout + result.stderr).strip().splitlines()
    return "\n".join("    " + line for line in lines[-5:])


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    problems = []
    for m in chosen:
        count = (ROOT / "src" / "qmeas" / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: its old text occurs {count} times in src/qmeas/{m.file}")
    if problems:
        print("\n".join(problems))
        return 1

    with tempfile.TemporaryDirectory(prefix="qmeas-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests", "bench"):  # the API tests read bench/spans.py
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        selected = list(dict.fromkeys(test for m in chosen for test in m.tests))
        start = time.perf_counter()
        clean = _pytest(copy, selected, first_failure=False)
        print(f"unchanged copy: exit {clean.returncode} ({time.perf_counter() - start:.1f} s)")
        if clean.returncode != 0:
            print(_tail(clean))
            return 1

        for m in chosen:
            path = copy / "src" / "qmeas" / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                result = _pytest(copy, m.tests, first_failure=True)
            finally:
                path.write_text(original, encoding="utf-8")
            outcome = {0: "survived", 1: "killed"}.get(result.returncode,
                                                      f"error (pytest exit {result.returncode})")
            note = " (host-dependent, either outcome is accepted)" if m.host_dependent else ""
            print(f"{m.name}: {outcome}{note} ({time.perf_counter() - start:.1f} s)")
            if outcome != "killed" and not (m.host_dependent and outcome == "survived"):
                problems.append(m.name)
                print(_tail(result))

    if problems:
        print(f"mutation gate failed: {', '.join(problems)}")
        return 1
    print(f"mutation gate passed: {len(chosen)} mutants")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
