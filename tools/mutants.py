"""Mutation checks: each listed mutant of `src/` must make its tests fail.

    python3 tools/mutants.py [NAME ...]

A mutant is a named textual patch: a file under `src/scanvar/`, the exact
old text (which must occur once), the new text, and the pytest selections
(test files or node ids) that must fail with it. Each mutant is applied
alone to its own copy of `src/` in a temporary directory, and `pytest -q
-x` runs its selections against that copy; WORKERS mutants run at a time.
The script prints killed or survived per mutant, in list order, and exits
1 when a must-kill mutant survives or a patch no longer applies, so a
refactor has to move its mutants with it.

EQUIVALENT lists mutants that no test can kill, each with the reason; they
are run too, and a kill among them is reported, not counted as a fault.
With names given, only those mutants run. BLAS threads are pinned to one.
Needs only the standard library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Mutants run at a time, each a pytest process on one BLAS thread.
WORKERS = 2


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "solve: strat and rand swapped",
        "variance.py",
        'if scheme == "rand":\n        return (fam._mixed.matrix,)',
        'if scheme == "strat":\n        return (fam._mixed.matrix,)',
        ("tests/test_variance.py",),
    ),
    Mutant(
        "cycle solve: unit diagonal dropped",
        "embedding.py",
        "system.flat[:: n + 1] += 1.0",
        "system.flat[:: n + 1] += 0.0",
        ("tests/test_embedding.py",),
    ),
    Mutant(
        "cycle solve: rank-one term at discount one dropped",
        "embedding.py",
        "system += np.outer(scale, weights / scale)",
        "system += 0.0",
        ("tests/test_variance.py",),
    ),
    Mutant(
        "variance: 2 m - |f|^2 made 2 m + |f|^2",
        "variance.py",
        "return 2.0 * mean - norm_sq",
        "return 2.0 * mean + norm_sq",
        ("tests/test_variance.py",),
    ),
    Mutant(
        "lockstep: kernel index off by one",
        "simulate.py",
        "(phase % k * n)[:, None, :]",
        "((phase + 1) % k * n)[:, None, :]",
        ("tests/test_simulate.py",),
    ),
    Mutant(
        "count table: step-up test <= made <",
        "simulate.py",
        "up = np.flatnonzero(self.breaks[g] <= u)",
        "up = np.flatnonzero(self.breaks[g] < u)",
        ("tests/test_simulate.py",),
    ),
    Mutant(
        "gap bound: factor 2 made 1",
        "ordering.py",
        "return 2.0 * lam * lam * float(np.dot(fam.pi.weights, d * z))",
        "return 1.0 * lam * lam * float(np.dot(fam.pi.weights, d * z))",
        ("tests/test_ordering.py",),
    ),
    Mutant(
        "gap bound: mixed solve at +lam",
        "ordering.py",
        "z = _cycle_solve(mats, -lam, d[None], fam.pi.weights, prod)[0]",
        "z = _cycle_solve(mats, lam, d[None], fam.pi.weights, prod)[0]",
        ("tests/test_ordering.py",),
    ),
    Mutant(
        "transcript: printed values lose a digit",
        "cli.py",
        'return format(float(x), ".9g")',
        'return format(float(x), ".8g")',
        ("tests/test_transcript.py",),
    ),
    Mutant(
        "unit count: radius dropped",
        "kernels.py",
        "radius = float(np.linalg.norm(s - s.T)) / 2.0 + 16.0 * n * _EPS",
        "radius = 0.0",
        ("tests/test_shortcuts.py",),
    ),
    Mutant(
        "unit count: certificate shifted without the radius",
        "kernels.py",
        "a.flat[:: n + 1] += 1.0 - 1e-8 - radius - margin",
        "a.flat[:: n + 1] += 1.0 - 1e-8 - margin",
        ("tests/test_shortcuts.py::test_skew_part_widens_the_rand_certificate",),
    ),
    Mutant(
        "unit count: certificate margin dropped",
        "kernels.py",
        "margin = 2.0 * n * g / (1.0 - n * g) + 21.0 * n * _EPS",
        "margin = 0.0",
        ("tests/test_shortcuts.py::test_certificate_verdict_on_the_line",),
    ),
    Mutant(
        "unit count: eigvals fallback restored",
        "kernels.py",
        "        mu = np.linalg.eigvalsh(sym)\n"
        "        return int(np.sum(1.0 - mu < 1e-8 + radius))\n",
        "        dist = np.abs(np.linalg.eigvals(self._mixed.matrix) - 1.0)\n"
        "        return int(np.sum(dist < 1e-8))\n",
        ("tests/test_shortcuts.py::test_rand_limit_makes_no_eigvals_call",),
    ),
    Mutant(
        "unit count: the certificate's verdict ignored",
        "kernels.py",
        "            np.linalg.cholesky(a)\n            return 1\n",
        "            np.linalg.cholesky(a)\n",
        ("tests/test_shortcuts.py::test_random_family_is_decided_without_eigvals",),
    ),
    Mutant(
        "compose cycle: phase one ahead",
        "kernels.py",
        "fam.matrices[(q - 1 + step) % fam.k]",
        "fam.matrices[(q + step) % fam.k]",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        # the two rotations agree for k <= 2 coordinates
        "simulate: coordinate rotation reversed",
        "simulate.py",
        "(np.arange(width) - times) % width",
        "(np.arange(width) + times) % width",
        ("tests/test_simulate.py::TestReferenceSimulator::test_paths[embedded-3]",),
    ),
    Mutant(
        "mixed kernel: sort dropped",
        "kernels.py",
        "return np.add.reduce(np.sort(stack, axis=0), axis=0)",
        "return np.add.reduce(stack, axis=0)",
        ("tests/test_kernels.py::TestRandomScan",),
    ),
    Mutant(
        "summability: rounding allowance dropped",
        "kernels.py",
        "while fro + err >= 1.0:",
        "while fro >= 1.0:",
        ("tests/test_shortcuts.py", "tests/test_variance.py"),
    ),
    Mutant(
        "summability: never squares",
        "kernels.py",
        "if err >= 1.0 or fro >= last:",
        "if True:",
        ("tests/test_shortcuts.py", "tests/test_variance.py"),
    ),
    Mutant(
        "center: heaviest-state shift dropped",
        "kernels.py",
        "g = f.values - f.values[np.argmax(pi.weights)]",
        "g = f.values",
        (
            "tests/test_shortcuts.py::test_tiny_weight_residual_refusal",
            "tests/test_variance.py::test_nearly_constant_f_near_one_prints_the_exact_digits",
            "tests/test_variance.py::test_constant_f_centres_to_zero_on_a_rounded_target",
        ),
    ),
    Mutant(
        "cycle solve: weight scaling dropped",
        "embedding.py",
        "scale = np.exp2(np.round(np.log2(weights) / 2))",
        "scale = np.ones(n)",
        ("tests/test_variance.py::test_light_state_carrying_f_prints_the_exact_digits_at_099",),
    ),
    Mutant(
        "finite horizon: divides by M + 1",
        "variance.py",
        "2.0 * total / m_steps",
        "2.0 * total / (m_steps + 1)",
        ("tests/test_variance.py",),
    ),
    Mutant(
        "limit: off by 1e-9 relative",
        "variance.py",
        "return _variance(*_solve(fam, f, 1.0, scheme), fam.pi)",
        "return _variance(*_solve(fam, f, 1.0, scheme), fam.pi) * (1.0 + 1e-9)",
        ("tests/test_variance.py",),
    ),
    Mutant(
        "sum rule: row and weight sums not judged",
        "kernels.py",
        "if residual > ROW_SUM_TOL:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        # the rows go back into lists, which load_model converts after the
        # whole file is read
        "load_model: every kernel's lists kept until the file is read",
        "cli.py",
        "                return matrix, j + 1\n",
        "                return matrix.tolist(), j + 1\n",
        ("tests/test_cli.py::TestLoadModel::test_load_holds_the_bytes_and_the_arrays",),
    ),
    Mutant(
        # a ValueError from the conversion sends the file to json.loads,
        # whose value the conversion step then reports as before, so a
        # ragged matrix alone does not tell, and a string entry keeps its
        # matrix's lists by the routing check; an object entry's TypeError does
        "load_model: a bad matrix converted inside the walk",
        "cli.py",
        "        try:\n"
        "            return np.asarray(lists, dtype=float), end\n"
        "        except (TypeError, ValueError, OverflowError):\n"
        "            pass\n",
        "        return np.asarray(lists, dtype=float), end\n",
        ("tests/test_cli.py::TestLoadModel::test_unconvertible_kernel_reported_after_required_fields",),
    ),
    Mutant(
        # the whole-text fallback would still give json's value, but after
        # a second parse of the file: the test counts json.loads calls
        "load_model: a refused row no longer re-scans with json",
        "cli.py",
        "        except (TypeError, ValueError):  # orjson.JSONDecodeError is a ValueError\n"
        "            pass\n",
        "        except (TypeError, ValueError):  # orjson.JSONDecodeError is a ValueError\n"
        "            raise\n",
        ("tests/test_cli.py::TestRowDecode",),
    ),
    Mutant(
        # numpy broadcasts a length-1 row across its row of the array
        "row fill: row length unchecked",
        "cli.py",
        "if matrix is None or r == len(matrix) or len(row) != len(matrix):",
        "if matrix is None or r == len(matrix):",
        ("tests/test_cli.py::TestRowDecode",),
    ),
    Mutant(
        "row fill: a first row's square not bounded by the file",
        "cli.py",
        "if matrix is None and len(row) ** 2 <= len(data) - i:",
        "if matrix is None:",
        ("tests/test_cli.py::TestLoadModel::test_long_first_row_makes_no_square_array",),
    ),
    Mutant(
        # the rest of the number stands where the walk wants a separator,
        # so the file is parsed again whole: the test forbids json.loads
        "walk: a value cut at the decode window's end is accepted",
        "cli.py",
        "if end < len(window) or j == len(data):",
        "if end <= len(window) or j == len(data):",
        ("tests/test_cli.py::TestLoadModel::test_values_across_window_edges_read_by_the_walk",),
    ),
    Mutant(
        # a cut character fails the window's decode, so the file is parsed
        # again whole: the test forbids json.loads
        "walk: a decode window may end inside a character",
        "cli.py",
        "        while j < len(data) and data[j] & 0xC0 == 0x80:  # a continuation byte\n"
        "            j -= 1\n",
        "",
        ("tests/test_cli.py::TestLoadModel::test_values_across_window_edges_read_by_the_walk",),
    ),
    Mutant(
        # a row of true and false fills its row with ones and zeros
        "walk: non-number routing check skipped",
        "cli.py",
        """return all(data.find(c, i, j) < 0 for c in (b'"', b"u", b"l"))""",
        "return True",
        ("tests/test_cli.py::TestLoadModel::test_non_number_entry_is_parse_error",),
    ),
    Mutant(
        "load_model: non-number entries taken",
        "cli.py",
        "        if not _is_number(x):\n",
        "        if False:\n",
        ("tests/test_cli.py::TestLoadModel::test_non_number_entry_is_parse_error",),
    ),
    Mutant(
        "load_model: row separator check dropped",
        "cli.py",
        "            while sep == b\",\":\n"
        "                j = _WHITESPACE(data, j + 1).end()\n",
        "            while sep != b\"]\" and sep:\n"
        "                j = _WHITESPACE(data, j + 1).end()\n",
        ("tests/test_cli.py::TestRowDecode",),
    ),
    Mutant(
        "load_model: UTF-8 mapping dropped",
        "cli.py",
        "    except UnicodeDecodeError as err:\n"
        "        raise ModelFormatError(f\"{path} is not valid UTF-8: {err}\") from err\n",
        "    except UnicodeDecodeError:\n"
        "        raise\n",
        ("tests/test_cli.py::TestLoadModel::test_non_utf8_file_is_parse_error",),
    ),
    Mutant(
        "load_model: out-of-range mapping dropped",
        "cli.py",
        "    except OverflowError as err:\n"
        "        raise ModelFormatError(f\"{path}: a number is out of range: {err}\") from err\n",
        "",
        ("tests/test_cli.py::TestLoadModel::test_out_of_range_integer_is_parse_error",),
    ),
    Mutant(
        "fault listing: empty kernel list unnamed beside a refused pi",
        "cli.py",
        "    elif not kernels:\n"
        "        problems.append(EMPTY_FAMILY_FAULT)\n",
        "",
        ("tests/test_cli.py::TestLoadModel::test_type_refusal_listed",),
    ),
    Mutant(
        "fault listing: the refusal's record diagnosed again",
        "cli.py",
        "family_faults(diag or family_diagnostics(pi, kernels))",
        "family_faults(family_diagnostics(pi, kernels))",
        ("tests/test_cli.py::TestLoadModel::test_valid_model_diagnosed_once",),
    ),
    Mutant(
        "finiteness rule: non-finite entries accepted",
        "kernels.py",
        "    if finite.all():\n",
        "    if True:\n",
        ("tests/test_cli.py::TestLoadModel::test_non_finite_entry_listed_alone",),
    ),
    Mutant(
        "fault listing: family judged on non-finite parts",
        "cli.py",
        " and all(np.isfinite(a).all() for a in (pi, *kernels)):",
        ":",
        ("tests/test_cli.py::TestLoadModel::test_non_finite_entry_listed_alone",),
    ),
    Mutant(
        "fault listing: threshold of its own",
        "cli.py",
        '    parts = [("pi", pi, (n,), weight_faults),',
        "    loose = np.errstate(over=\"ignore\")(lambda w: [  # the weight sum against 1e-10\n"
        '        x for x in weight_faults(w) if "sum" not in x or abs(w.sum() - 1.0) > 1e-10\n'
        "    ])\n"
        '    parts = [("pi", pi, (n,), loose),',
        ("tests/test_cli.py::TestLoadModel::test_type_refusal_listed",),
    ),
    Mutant(
        "load_model: f checked outside the listing",
        "cli.py",
        "    try:\n"
        "        copies = [Kernel(m) for m in kernels]\n",
        "    f = Observable(f_values)\n"
        "    try:\n"
        "        copies = [Kernel(m) for m in kernels]\n",
        ("tests/test_cli.py::TestLoadModel::test_non_finite_entry_listed_alone",),
    ),
    Mutant(
        "load_model: f's length not checked",
        "cli.py",
        "family.n == f.n == n",
        "family.n == n",
        ("tests/test_cli.py::TestLoadModel::test_dimension_mismatch_listed",),
    ),
    Mutant(
        "load_model: a negative state count taken",
        "cli.py",
        " and states > 0:",
        ":",
        ("tests/test_cli.py::TestLoadModel::test_boolean_state_count_is_parse_error",),
    ),
    Mutant(
        "load_model: a zero state count taken",
        "cli.py",
        " and states > 0:",
        " and states >= 0:",
        ("tests/test_cli.py::TestLoadModel::test_boolean_state_count_is_parse_error[zero]",),
    ),
    Mutant(
        "diagnostics: overflow and invalid warnings no longer silenced",
        "kernels.py",
        '@np.errstate(over="ignore", invalid="ignore")\n',
        "",
        ("tests/test_kernels.py::TestValidateFamily",),
    ),
    Mutant(
        "target type: an overflowing weight sum warns",
        "kernels.py",
        '@np.errstate(over="ignore")  # an overflowing sum is inf, and refused\n'
        "def weight_faults(",
        "def weight_faults(",
        ("tests/test_cli.py::TestLoadModel::test_overflowing_sum_listed_without_warnings",),
    ),
    Mutant(
        "kernel type: an overflowing row sum warns",
        "kernels.py",
        '@np.errstate(over="ignore")  # an overflowing sum is inf, and refused\n'
        "def matrix_faults(",
        "def matrix_faults(",
        ("tests/test_cli.py::TestLoadModel::test_overflowing_sum_listed_without_warnings",),
    ),
    Mutant(
        "fault listing: repeated labels not listed",
        "cli.py",
        '["state labels must be distinct"] if repeated else []',
        "[]",
        ("tests/test_cli.py::TestLoadModel::test_repeated_labels_listed_with_other_faults",),
    ),
    Mutant(
        "load_model: labels not passed to the fault listing",
        "cli.py",
        "_raise_problems(path, n, pi, f_values, kernels, diag, repeated)",
        "_raise_problems(path, n, pi, f_values, kernels, diag, False)",
        ("tests/test_cli.py::TestLoadModel::test_repeated_labels_listed_with_other_faults",),
    ),
    Mutant(
        "load_model: repeated labels of a valid family taken",
        "cli.py",
        "if repeated or not valid:",
        "if not valid:",
        ("tests/test_cli.py::TestLoadModel::test_type_refusal_listed",),
    ),
    Mutant(
        "validate: verdict <= made <",
        "cli.py",
        "passes = worst <= args.tol",
        "passes = worst < args.tol",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "compare: ordering verdict >= made >",
        "cli.py",
        "if not gap >= -args.tol:",
        "if not gap > -args.tol:",
        ("tests/test_cli.py::TestVerdicts",),
    ),
    Mutant(
        "compare: bound verdict's - tol made + tol",
        "cli.py",
        "gap >= bound - args.tol",
        "gap >= bound + args.tol",
        ("tests/test_cli.py::TestVerdicts",),
    ),
    Mutant(
        "compare: a NaN bound no longer vacuous",
        "cli.py",
        "if not (math.isnan(bound) or gap >= bound - args.tol):",
        "if not gap >= bound - args.tol:",
        ("tests/test_cli.py::TestVerdicts",),
    ),
    Mutant(
        "peskun: verdict >= made >",
        "cli.py",
        "all(r.gap >= -args.tol for r in rows)",
        "all(r.gap > -args.tol for r in rows)",
        ("tests/test_cli.py::TestVerdicts",),
    ),
    Mutant(
        "peskun: dominance verdict >= made >",
        "cli.py",
        "or comparison.min_dirichlet_gap_eigenvalue >= -PSD_TOL",
        "or comparison.min_dirichlet_gap_eigenvalue > -PSD_TOL",
        ("tests/test_cli.py::TestVerdicts",),
    ),
    Mutant(
        "peskun: floor trusted with no fallback",
        "cli.py",
        "\n        or comparison.min_dirichlet_gap_eigenvalue >= -PSD_TOL\n",
        "\n",
        ("tests/test_cli.py::TestVerdicts", "tests/test_transcript.py"),
    ),
    Mutant(
        "peskun dominance: least eigenvalue read from the first kernel only",
        "ordering.py",
        "return min(self.per_kernel_min_eigenvalue)",
        "return self.per_kernel_min_eigenvalue[0]",
        ("tests/test_ordering.py",),
    ),
    Mutant(
        "load: the loader's arrays kept through validation",
        "cli.py",
        "        kernels = [k.matrix for k in copies]",
        "        pass",
        ("tests/test_cli.py::TestLoadModel::test_load_holds_the_bytes_and_the_arrays",),
    ),
    Mutant(
        "peskun dominance: floor read from the first kernel only",
        "ordering.py",
        "return min(self.per_kernel_floor)",
        "return self.per_kernel_floor[0]",
        ("tests/test_ordering.py::TestPeskunDominance",),
    ),
    Mutant(
        "peskun floor: sign test skipped",
        "ordering.py",
        "if d.max() > 0.0:",
        "if False:",
        ("tests/test_ordering.py::test_dominance_floor_lies_under_the_eigenvalue",),
    ),
    Mutant(
        "peskun floor: stationarity term dropped",
        "ordering.py",
        "low = float((d.sum(axis=1) + weights @ d / weights).min()) / 2.0",
        "low = float((d.sum(axis=1) + d.sum(axis=1)).min()) / 2.0",
        ("tests/test_ordering.py::test_dominance_floor_reads_the_stationarity_term",),
    ),
    Mutant(
        "peskun floor: eigensolver allowance dropped",
        "ordering.py",
        "return low - (17 * n + 16) * _EPS * size",
        "return low - (n + 16) * _EPS * size",
        ("tests/test_ordering.py::test_dominance_floor_allows_for_the_eigensolver",),
    ),
    Mutant(
        "grid walk: limit row labelled resolvent",
        "ordering.py",
        'return "limit" if self.lam == 1.0 else "resolvent"',
        'return "resolvent"',
        ("tests/test_ordering.py",),
    ),
    Mutant(
        "walk: reducibility refusal not dropped",
        "ordering.py",
        "except (SummabilityError, ReducibilityError):",
        "except SummabilityError:",
        (
            "tests/test_ordering.py::test_refused_rand_limit_drops_the_limit_row",
            "tests/test_cli.py::TestLimitAndSimulate::test_near_reducible_rand_limit_refused",
        ),
    ),
    Mutant(
        "walk: a lone refused limit row swallowed",
        "ordering.py",
        "            if not rows:\n                raise\n",
        "            pass\n",
        (
            "tests/test_ordering.py::test_refused_limit_alone_is_raised",
            "tests/test_ordering.py::test_refused_rand_limit_alone_is_raised",
            "tests/test_cli.py::TestLimitAndSimulate::test_refused_limit_alone_is_limits_refusal",
        ),
    ),
    Mutant(
        "count rule: bound dropped",
        "kernels.py",
        "if value >= 2**bits:",
        "if False:",
        (
            "tests/test_simulate.py::TestSimulate::test_counts_from_2_to_the_63_refused",
            "tests/test_simulate.py::TestSimulate::test_seed_outside_64_bits_refused",
            "tests/test_variance.py::TestFiniteM::test_rejects_bad_horizon",
        ),
    ),
    Mutant(
        "count rule: least value dropped",
        "kernels.py",
        "if value < least:",
        "if False:",
        (
            "tests/test_simulate.py::TestSimulate::test_seed_outside_64_bits_refused",
            "tests/test_variance.py::TestFiniteM::test_rejects_bad_horizon",
            "tests/test_cli.py::TestLimitAndSimulate::test_simulate_zero_sizes_rejected",
        ),
    ),
    Mutant(
        "count rule: a non-integer taken",
        "kernels.py",
        "if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
        "if False:",
        (
            "tests/test_variance.py::TestFiniteM::test_horizon_must_be_an_integer",
            "tests/test_simulate.py::TestSimulate::test_counts_and_seed_must_be_integers",
        ),
    ),
    Mutant(
        "count rule: a bool taken",
        "kernels.py",
        "if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
        "if not isinstance(value, (int, np.integer)):",
        ("tests/test_simulate.py::TestSimulate::test_counts_and_seed_must_be_integers",),
    ),
    Mutant(
        "simulation config: the step rule skipped",
        "simulate.py",
        '        _check_count("steps", self.steps, 1, 63)\n',
        "",
        ("tests/test_simulate.py::TestSimulate::test_invalid_config",),
    ),
    Mutant(
        "simulation config: the seed rule skipped",
        "simulate.py",
        '        _check_count("seed", self.seed, 0, 64)',
        "        pass",
        (
            "tests/test_simulate.py::TestSimulate::test_counts_and_seed_must_be_integers",
            "tests/test_simulate.py::TestSimulate::test_seed_outside_64_bits_refused",
        ),
    ),
    Mutant(
        "finite horizon: the step rule skipped",
        "variance.py",
        '    _check_count("steps", m_steps, 1, 63)\n',
        "",
        ("tests/test_variance.py::TestFiniteM::test_rejects_bad_horizon",),
    ),
    Mutant(
        "estimate: the replica rule skipped",
        "simulate.py",
        '    _check_count("replicas", replicas, 2, 63)\n',
        "",
        (
            "tests/test_simulate.py::TestSimulate::test_counts_from_2_to_the_63_refused",
            "tests/test_simulate.py::TestSimulate::test_counts_and_seed_must_be_integers",
        ),
    ),
    Mutant(
        "limit: strat limit of a cycle that is not summable not refused",
        "variance.py",
        "        elif not fam._summable:\n",
        "        elif False:\n",
        ("tests/test_cli.py::TestLimitAndSimulate::test_limit_refusal_is_the_libraries",),
    ),
    Mutant(
        "scan limit: gap bound solved at discount one",
        "ordering.py",
        "0.0 if lam == 1.0 else _gap_bound(fam, forward, lam)",
        "_gap_bound(fam, forward, lam)",
        ("tests/test_ordering.py::test_scan_rows_are_the_public_variances",),
    ),
    Mutant(
        "scan row: rand solved before the strat guard",
        "ordering.py",
        '        fbar, forward = _solve(fam, f, lam, "strat")',
        '        _solve(fam, f, lam, "rand")\n        fbar, forward = _solve(fam, f, lam, "strat")',
        ("tests/test_ordering.py::test_refused_limit_alone_is_raised",),
    ),
    Mutant(
        "limit: rand count not checked at discount one",
        "variance.py",
        "            if ones_count > 1:\n",
        "            if False:\n",
        ("tests/test_ordering.py::test_refused_rand_limit_alone_is_raised",),
    ),
    Mutant(
        "load_model: an empty label list taken",
        "cli.py",
        "isinstance(states, list) and states and all(",
        "isinstance(states, list) and all(",
        ("tests/test_cli.py::TestLoadModel::test_boolean_state_count_is_parse_error[no-labels]",),
    ),
    Mutant(
        "seeding: a numpy seed masked in its own type",
        "seeding.py",
        "splitmix64(int(master) & _MASK64)",
        "splitmix64(master & _MASK64)",
        ("tests/test_simulate.py::TestSimulate::test_numpy_integers_accepted",),
    ),
    Mutant(
        "cycle solve: back-substitution reads its own phase",
        "embedding.py",
        "x[q] = rhs[q] + lam * (blocks[q] @ x[(q + 1) % k])",
        "x[q] = rhs[q] + lam * (blocks[q] @ x[q])",
        ("tests/test_embedding.py",),
    ),
    Mutant(
        "resolvent solve: shape check dropped",
        "embedding.py",
        "if rhs.shape != (fam.k, fam.n):",
        "if False:",
        ("tests/test_embedding.py::TestResolvent::test_refuses_a_rhs_of_another_shape",),
    ),
    Mutant(
        "scan: a token cut at the window's edge taken for a syntax error",
        "cli.py",
        "_CUT = 16",
        "_CUT = 7",
        ("tests/test_cli.py::TestLoadModel::test_token_cut_at_a_window_edge_read_by_the_walk",),
    ),
    Mutant(
        "scan: a string cut at the window's edge taken for a syntax error",
        "cli.py",
        "if j == len(data) or not cut and at < len(window) - _CUT:",
        "if j == len(data) or at < len(window) - _CUT:",
        ("tests/test_cli.py::TestLoadModel::test_values_across_window_edges_read_by_the_walk",),
    ),
    Mutant(
        "scan: an early syntax error widens the window to the file's end",
        "cli.py",
        "if j == len(data) or not cut and at < len(window) - _CUT:",
        "if j == len(data):",
        ("tests/test_cli.py::TestLoadModel::test_early_syntax_error_decodes_one_window",),
    ),
    Mutant(
        "load_model: an empty lambda_grid accepted",
        "cli.py",
        "        if not grid:\n",
        "        if False:\n",
        ("tests/test_cli.py::TestLoadModel::test_malformed_optional_field_is_parse_error",),
    ),
)

EQUIVALENT = (
    (
        Mutant(
            "summability: no-decrease refusal dropped",
            "kernels.py",
            "if err >= 1.0 or fro >= last:",
            "if err >= 1.0:",
            ("tests/test_shortcuts.py", "tests/test_variance.py"),
        ),
        "the allowance e_m grows about linearly in m while |B_m|_F does not "
        "fall, so e_m reaches one and refuses the same families a few "
        "squarings later; the refusal only saves those squarings",
    ),
)


def run(mutant: Mutant, work: Path) -> str:
    """'killed', 'survived' or 'stale' (the old text is not there once),
    with the mutant's copy of `src/` made under `work`, which it owns."""
    copy = work / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / "scanvar" / mutant.file
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1", **PINS)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    done = subprocess.run(
        [*cmd, *mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True
    )
    if done.returncode in (1, 2):  # tests failed, or the mutant broke collection
        return "killed"
    if done.returncode == 0:
        return "survived"
    raise RuntimeError(
        f"pytest exited {done.returncode} on {mutant.name}:\n{done.stdout}{done.stderr}"
    )


def main(argv: list[str]) -> int:
    chosen = set(argv)
    names = {m.name for m in MUTANTS} | {m.name for m, _ in EQUIVALENT}
    if chosen - names:
        print(f"unknown mutant(s): {sorted(chosen - names)}", file=sys.stderr)
        return 2
    jobs = [(m, None) for m in MUTANTS] + list(EQUIVALENT)
    jobs = [(m, reason) for m, reason in jobs if not chosen or m.name in chosen]
    faults = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        works = [Path(tmp) / str(i) for i in range(len(jobs))]
        verdicts = pool.map(run, [m for m, _ in jobs], works)
        for (mutant, reason), verdict in zip(jobs, verdicts):
            if reason is None:
                faults += verdict != "killed"
                print(f"{verdict}: {mutant.name}", flush=True)
            else:
                faults += verdict == "stale"
                print(f"{verdict} (equivalent: {reason}): {mutant.name}", flush=True)
    print(f"{faults} fault(s), {time.perf_counter() - start:.0f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
