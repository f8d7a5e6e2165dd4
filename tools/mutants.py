"""Mutation checks: each listed mutant of `src/` must make its tests fail.

    python3 tools/mutants.py [NAME ...]

A mutant is a named textual patch: a file under `src/scanvar/`, the exact
old text (which must occur once), the new text, and the pytest selections
(test files or node ids) that must fail with it. Each mutant is applied
alone to a copy of `src/` in a temporary directory, and `pytest -q -x`
runs its selections against that copy. The script prints killed or
survived per mutant and exits 1 when a must-kill mutant survives or a
patch no longer applies, so a refactor has to move its mutants with it.

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
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


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
        'if scheme == "rand" or fam.k == 1:',
        'if scheme == "strat" or fam.k == 1:',
        ("tests/test_variance.py",),
    ),
    Mutant(
        "cycle solve: rank-one term at discount one dropped",
        "embedding.py",
        "system += np.outer(np.ones(n), weights)",
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
        "unit count: radius dropped",
        "kernels.py",
        "radius = skew + 16.0 * self.n * _EPS",
        "radius = 0.0",
        ("tests/test_shortcuts.py",),
    ),
    Mutant(
        "unit count: eigvals fallback restored",
        "kernels.py",
        "        radius = skew + 16.0 * self.n * _EPS\n"
        "        return int(np.sum(1.0 - mu < 1e-8 + radius))\n",
        "        radius = skew + 16.0 * self.n * _EPS * float(self.pi.weights.max()"
        " / self.pi.weights.min())\n"
        "        dist = np.abs(mu - 1.0)\n"
        "        if radius < 1e-8 and not np.any(np.abs(dist - 1e-8) <= radius):\n"
        "            return int(np.sum(dist < 1e-8))\n"
        "        return int(np.sum(np.abs(np.linalg.eigvals(self._mixed.matrix) - 1.0)"
        " < 1e-8))\n",
        ("tests/test_shortcuts.py::test_rand_limit_makes_no_eigvals_call",),
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
        "exact sum: half-way correction dropped",
        "kernels.py",
        "return np.where(same_sign & (up - hi == twice), up, hi)",
        "return hi",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "exact sum: cascade reads the wrong slot",
        "kernels.py",
        "            y = partials[j]\n",
        "            y = partials[0]\n",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "exact sum: swap by magnitude dropped",
        "kernels.py",
        "swap = np.abs(x) < np.abs(y)",
        "swap = np.zeros(x.shape, dtype=bool)",
        ("tests/test_kernels.py",),
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
        "finite horizon: divides by M + 1",
        "variance.py",
        "2.0 * evaluate(prod, pi, *cycle_map) / m_steps",
        "2.0 * evaluate(prod, pi, *cycle_map) / (m_steps + 1)",
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
        "load_model: row-sum listing dropped",
        "cli.py",
        "if dev > ROW_SUM_TOL:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "load_model: every kernel's lists kept until the file is read",
        "cli.py",
        "        try:\n"
        "            matrix = np.asarray(matrix, dtype=float)\n"
        "        except (TypeError, ValueError, OverflowError):\n"
        "            pass\n",
        "",
        ("tests/test_cli.py::TestLoadModel::test_load_holds_the_text_and_one_kernel_tree",),
    ),
    Mutant(
        # a ValueError from the conversion sends the text to json.loads,
        # whose value the conversion step then reports as before, so a
        # string entry alone does not tell; an object entry's TypeError does
        "load_model: a bad matrix converted inside the walk",
        "cli.py",
        "        try:\n"
        "            matrix = np.asarray(matrix, dtype=float)\n"
        "        except (TypeError, ValueError, OverflowError):\n"
        "            pass\n",
        "        matrix = np.asarray(matrix, dtype=float)\n",
        ("tests/test_cli.py::TestLoadModel::test_unconvertible_kernel_reported_after_required_fields",),
    ),
    Mutant(
        # the whole-text fallback would still give json's value, but after
        # a second parse of the file: the test counts json.loads calls
        "load_model: a refused row no longer re-scans with json",
        "cli.py",
        "        except ValueError:  # orjson.JSONDecodeError is one\n"
        "            pass\n",
        "        except ValueError:  # orjson.JSONDecodeError is one\n"
        "            raise\n",
        ("tests/test_cli.py::TestRowDecode",),
    ),
    Mutant(
        "load_model: row separator check dropped",
        "cli.py",
        "            while sep == \",\":\n"
        "                j = ws(text, j + 1).end()\n",
        "            while sep != \"]\" and sep:\n"
        "                j = ws(text, j + 1).end()\n",
        ("tests/test_cli.py::TestRowDecode",),
    ),
    Mutant(
        "load_model: UTF-8 mapping dropped",
        "cli.py",
        "    except UnicodeDecodeError as err:\n"
        "        raise ModelFormatError(f\"{path} is not valid UTF-8: {err}\") from err\n",
        "",
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
        "fault listing: the refusal's record diagnosed again",
        "cli.py",
        "diag = diag or family_diagnostics(pi, kernels)",
        "diag = family_diagnostics(pi, kernels)",
        ("tests/test_cli.py::TestLoadModel::test_valid_model_diagnosed_once",),
    ),
    Mutant(
        "fault listing: non-finite entries not listed",
        "cli.py",
        "if bad.size:",
        "if False:",
        ("tests/test_cli.py::TestLoadModel::test_non_finite_entry_listed_alone",),
    ),
    Mutant(
        "load_model: f's finiteness left to the Observable type",
        "cli.py",
        " or not np.isfinite(f_values).all():",
        ":",
        ("tests/test_cli.py::TestLoadModel::test_non_finite_entry_listed_alone",),
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
        "        with np.errstate(over=\"ignore\"):  # an overflowing sum is refused below\n"
        "            total = float(w.sum())\n",
        "        total = float(w.sum())\n",
        ("tests/test_cli.py::TestLoadModel::test_overflowing_sum_listed_without_warnings",),
    ),
    Mutant(
        "kernel type: an overflowing row sum warns",
        "kernels.py",
        "        with np.errstate(over=\"ignore\"):  # an overflowing sum is refused below\n"
        "            sums = m.sum(axis=1)\n",
        "        sums = m.sum(axis=1)\n",
        ("tests/test_cli.py::TestLoadModel::test_overflowing_sum_listed_without_warnings",),
    ),
    Mutant(
        "fault listing: an overflowing row sum warns",
        "cli.py",
        "                with np.errstate(over=\"ignore\"):  # an overflow is listed as inf\n"
        "                    sums = m.sum(axis=1)\n",
        "                sums = m.sum(axis=1)\n",
        ("tests/test_cli.py::TestLoadModel::test_overflowing_sum_listed_without_warnings",),
    ),
    Mutant(
        "fault listing: repeated labels not listed",
        "cli.py",
        "problems.insert(0, \"state labels must be distinct\")",
        "pass",
        ("tests/test_cli.py::TestLoadModel::test_repeated_labels_listed_with_other_faults",),
    ),
    Mutant(
        "load_model: labels not passed to the fault listing",
        "cli.py",
        "err.diagnostics, labels)",
        "err.diagnostics)",
        ("tests/test_cli.py::TestLoadModel::test_repeated_labels_listed_with_other_faults",),
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
        "dominates = comparison.min_dirichlet_gap_eigenvalue >= -PSD_TOL",
        "dominates = comparison.min_dirichlet_gap_eigenvalue > -PSD_TOL",
        ("tests/test_cli.py::TestVerdicts",),
    ),
    Mutant(
        "peskun dominance: least eigenvalue read from the first kernel only",
        "ordering.py",
        "min_dirichlet_gap_eigenvalue=min(min_eigs),",
        "min_dirichlet_gap_eigenvalue=min_eigs[0],",
        ("tests/test_ordering.py",),
    ),
    Mutant(
        "grid walk: limit row labelled resolvent",
        "ordering.py",
        'rows.append(OrderingReport(1.0, *limit(), "limit"))',
        'rows.append(OrderingReport(1.0, *limit(), "resolvent"))',
        ("tests/test_ordering.py",),
    ),
    Mutant(
        "simulation config: steps bound dropped",
        "simulate.py",
        "if self.steps >= 2**63:",
        "if False:",
        ("tests/test_simulate.py::TestSimulate::test_counts_from_2_to_the_63_refused",),
    ),
    Mutant(
        "estimate: replicas bound dropped",
        "simulate.py",
        "if replicas >= 2**63:",
        "if False:",
        ("tests/test_simulate.py::TestSimulate::test_counts_from_2_to_the_63_refused",),
    ),
    Mutant(
        "finite horizon: step bound dropped",
        "variance.py",
        "if m_steps >= 2**63:",
        "if False:",
        ("tests/test_variance.py",),
    ),
    Mutant(
        "symmetric row: blocks K_q instead of the mean",
        "embedding.py",
        "return [(mats[q] + mats[q - 1]) / 2.0 for q in range(k)], 1",
        "return [mats[q] for q in range(k)], 1",
        ("tests/test_embedding.py",),
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
    """'killed', 'survived' or 'stale' (the old text is not there once)."""
    copy = work / "src"
    shutil.rmtree(copy, ignore_errors=True)
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
    faults = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for mutant in MUTANTS:
            if chosen and mutant.name not in chosen:
                continue
            verdict = run(mutant, work)
            faults += verdict != "killed"
            print(f"{verdict}: {mutant.name}", flush=True)
        for mutant, reason in EQUIVALENT:
            if chosen and mutant.name not in chosen:
                continue
            verdict = run(mutant, work)
            faults += verdict == "stale"
            print(f"{verdict} (equivalent: {reason}): {mutant.name}", flush=True)
    print(f"{faults} fault(s), {time.perf_counter() - start:.0f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
