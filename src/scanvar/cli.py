"""Command-line front end: model files in, CSV reports out.

Model files are JSON with fields `states` (a count or a list of labels),
`pi`, `kernels` (row-major matrices), `f`, optional `lambda_grid` and an
optional `simulation` block. All numeric CSV fields use 9 significant
digits and LF line endings, so identical inputs give byte-identical files.

A model file is read as one text. json's scanner walks its top-level
object, orjson decodes each kernel row, and json scans again any matrix
whose rows orjson refuses, so every value or error is json's own. Each
kernel becomes a float array as soon as it is read, so a load peaks at
about twice the file's size: its bytes and its text while it is read.

Exit codes: 0 success, 1 validation failure, 2 assertion failure or usage error,
3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np
import orjson

from scanvar.kernels import (
    KernelFamily,
    NUMERIC_TOL,
    Observable,
    ReducibilityError,
    SummabilityError,
    ValidationError,
    family_diagnostics,
    family_faults,
    make_family,
    matrix_faults,
    value_faults,
    weight_faults,
)
from scanvar.ordering import (
    OrderingReport,
    check_peskun_ordering,
    check_scan_ordering,
    peskun_dominates,
)
from scanvar.simulate import estimate_variance
from scanvar.variance import finite_m_variance_exact, summability_check, var_limit

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ASSERTION = 2
EXIT_IO = 3

# peskun's dominance verdict: the least eigenvalue of the kernelwise
# Dirichlet-form differences may fall this far below zero.
PSD_TOL = 1e-10

COMPARE_HEADER = "lambda,var_strat,var_rand,gap,gap_lower_bound,method"
PESKUN_HEADER = "lambda,var_strat_a,var_strat_b,difference,dominates,method"
SIMULATE_HEADER = "scheme,steps,replicas,estimate,standard_error,exact_finite_m"

DEFAULT_GRID = (0.3, 0.6, 0.9, 0.99)

DEMO_MODEL = {
    "states": 2,
    "pi": [0.5, 0.5],
    "kernels": [
        [[0.9, 0.1], [0.1, 0.9]],
        [[0.6, 0.4], [0.4, 0.6]],
    ],
    "f": [1.0, -1.0],
    "lambda_grid": [0.3, 0.5, 0.9],
    "simulation": {"steps": 4096, "replicas": 200, "seed": 7, "scheme": "strat"},
}


class ModelFormatError(ValueError):
    """The model file cannot be parsed into the expected structure."""


@dataclass(frozen=True)
class Model:
    family: KernelFamily
    f: Observable
    lambda_grid: tuple[float, ...] | None
    simulation: dict | None


def _fmt(x) -> str:
    return format(float(x), ".9g")


def _raise_problems(path: str, n: int, pi, f_values, kernels, diag, repeated) -> NoReturn:
    """Raise ValidationError listing every violated invariant of a refused
    model's raw data, as kernels.py's checks word them: `repeated` state
    labels; for pi, f and each kernel, its shape if the state count asks
    for another, or else its own faults; and the family's faults (from
    `diag`, if a refusal measured it) when pi and every kernel have the
    count's shapes and finite entries."""
    problems = ["state labels must be distinct"] if repeated else []
    parts = [("pi", pi, (n,), weight_faults), ("f", f_values, (n,), value_faults)]
    parts += [(f"kernel {i + 1}", m, (n, n), matrix_faults) for i, m in enumerate(kernels)]
    for name, values, shape, faults in parts:
        if values.shape != shape:
            problems.append(f"{name} has shape {values.shape}, expected {shape}")
        else:
            problems += [f"{name}: {fault}" for fault in faults(values)]
    if not kernels:
        problems.append("kernels list is empty")
    shaped = pi.shape == (n,) and all(m.shape == (n, n) for m in kernels)
    if kernels and shaped and all(np.isfinite(a).all() for a in (pi, *kernels)):
        problems += family_faults(diag or family_diagnostics(pi, kernels))
    raise ValidationError(f"{path} failed validation:\n  " + "\n  ".join(problems))


def _scan_matrix(text: str, i: int, scan, ws) -> tuple[list, int]:
    """The matrix whose first character is text[i], and the index after it.
    Each row, from its '[' to the first ']' after it, is decoded by orjson,
    whose floats are json's bit for bit (an integer past 64 bits comes as
    the float json's int converts to). Anything else (not a list of rows,
    a bad separator, a row orjson refuses, such as one holding a NaN, a
    number past a float's range, a nested list or a string with a ']')
    sends the whole matrix to json's scanner, so its value or its error is
    json's own."""
    if text[i : i + 1] == "[":
        rows, j, sep = [], i, ","
        try:
            while sep == ",":
                j = ws(text, j + 1).end()
                if text[j : j + 1] != "[":
                    break
                end = text.index("]", j) + 1
                rows.append(orjson.loads(text[j:end]))
                j = ws(text, end).end()
                sep = text[j : j + 1]
            if sep == "]":
                return rows, j + 1
        except ValueError:  # orjson.JSONDecodeError is one
            pass
    return scan(text, i)


def _scan_kernels(text: str, i: int, scan, ws) -> tuple[list, int]:
    """The `kernels` array whose '[' is at text[i], and the index after its
    ']'. Each matrix is read by _scan_matrix and becomes a float array as
    soon as it is read, so its lists die before the next is built; one
    that does not convert stays as parsed, for load_model's conversion
    step to report in its place."""
    kernels, sep = [], ","
    while sep == ",":
        matrix, i = _scan_matrix(text, ws(text, i + 1).end(), scan, ws)
        try:
            matrix = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError, OverflowError):
            pass
        kernels.append(matrix)
        i = ws(text, i).end()
        sep = text[i : i + 1]
    if sep != "]":
        raise ValueError("not a JSON array")
    return kernels, i + 1


def _scan_model(text: str) -> dict:
    """The top-level object of a model file, parsed by json's own scanner
    one value at a time, with `kernels` read by _scan_kernels. Anything
    else (another top level, an empty object or array, a syntax error,
    trailing data) raises ValueError, StopIteration or RecursionError."""
    scan, ws = json.JSONDecoder().scan_once, json.decoder.WHITESPACE.match
    i = ws(text).end()
    if text[i : i + 1] != "{":
        raise ValueError("not a JSON object")
    raw, sep = {}, ","
    while sep == ",":
        i = ws(text, i + 1).end()
        if text[i : i + 1] != '"':
            raise ValueError("not a JSON object")
        key, i = json.decoder.scanstring(text, i + 1)
        i = ws(text, i).end()
        if text[i : i + 1] != ":":
            raise ValueError("not a JSON object")
        i = ws(text, i + 1).end()
        if key == "kernels" and text[i : i + 1] == "[":
            raw[key], i = _scan_kernels(text, i, scan, ws)
        else:
            raw[key], i = scan(text, i)
        i = ws(text, i).end()
        sep = text[i : i + 1]
    if sep != "}" or ws(text, i + 1).end() != len(text):
        raise ValueError("not one JSON object")
    return raw


def _read_model(path: str):
    """The parsed model file. The text lives only here, and at most one
    kernel's lists live beside it, so the peak is the read's: about twice
    the file. Kernel rows go through orjson, the rest through json's
    scanner; a text _scan_model does not take is parsed again by
    json.loads, so its value or its error is json's own."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ModelFormatError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ModelFormatError(f"{path} is not valid UTF-8: {err}") from err
    try:
        try:
            return _scan_model(text)
        except (ValueError, StopIteration, RecursionError):
            return json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError(
            f"{path} is not valid JSON (line {err.lineno}, column {err.colno}): {err.msg}"
        ) from err
    except (ValueError, RecursionError) as err:  # too many digits, or too deep
        raise ModelFormatError(f"{path} cannot be parsed: {err}") from err


def load_model(path: str) -> Model:
    """Parse and validate a JSON model file.

    Parse problems raise ModelFormatError with field context. Data that the
    domain types refuse, or whose lengths or labels `states` refuses,
    raises ValidationError listing every violated invariant. The field
    `states` is read only here: its count must be the target's length,
    and its labels must be distinct; they are checked, not kept.
    """
    raw = _read_model(path)
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    for field in ("states", "pi", "kernels", "f"):
        if field not in raw:
            raise ModelFormatError(f"{path}: missing required field {field!r}")
    states = raw["states"]
    if isinstance(states, int) and not isinstance(states, bool) and states > 0:
        n, repeated = states, False
    elif isinstance(states, list) and states and all(isinstance(s, str) for s in states):
        n, repeated = len(states), len(set(states)) != len(states)
    else:
        raise ModelFormatError(
            f"{path}: field 'states' must be a count or a list of labels"
        )
    try:
        pi = np.asarray(raw["pi"], dtype=float)
        f_values = np.asarray(raw["f"], dtype=float)
        kernels = [np.asarray(m, dtype=float) for m in raw["kernels"]]
    except (TypeError, ValueError) as err:
        raise ModelFormatError(f"{path}: non-numeric entries: {err}") from err
    except OverflowError as err:
        raise ModelFormatError(f"{path}: a number is out of range: {err}") from err

    try:
        family, f = make_family(pi, kernels), Observable(f_values)
        diag, valid = family.diagnostics, family.n == f.n == n
    except ValidationError as err:
        diag, valid = err.diagnostics, False
    if repeated or not valid:
        _raise_problems(path, n, pi, f_values, kernels, diag, repeated)
    grid = raw.get("lambda_grid")
    if grid is not None:
        numbers = isinstance(grid, list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in grid
        )
        if not numbers:
            raise ModelFormatError(f"{path}: field 'lambda_grid' must be a list of numbers")
        if not grid:
            raise ModelFormatError(f"{path}: field 'lambda_grid' must not be empty")
        try:
            grid = tuple(float(x) for x in grid)
        except OverflowError as err:
            raise ModelFormatError(
                f"{path}: field 'lambda_grid' has a number out of range: {err}"
            ) from err
    sim = raw.get("simulation")
    if sim is not None:
        if not isinstance(sim, dict):
            raise ModelFormatError(f"{path}: field 'simulation' must be an object")
        sim = dict(sim)
        for key in ("steps", "replicas", "seed"):
            if key in sim:
                value = sim[key]
                if isinstance(value, float) and value.is_integer():
                    value = int(value)
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ModelFormatError(
                        f"{path}: field 'simulation.{key}' must be an integer, "
                        f"got {sim[key]!r}"
                    )
                sim[key] = value
        if "scheme" in sim and not isinstance(sim["scheme"], str):
            raise ModelFormatError(f"{path}: field 'simulation.scheme' must be a string")
    return Model(family=family, f=f, lambda_grid=grid, simulation=sim)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {out}")


def _csv(header: str, rows: list[list[str]]) -> str:
    lines = [header] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _grid(args, model: Model) -> tuple[float, ...]:
    if args.lambdas is not None:
        try:
            return tuple(float(x) for x in args.lambdas.split(","))
        except ValueError as err:
            raise ModelFormatError(
                f"--lambda must be a comma-separated list of numbers, got {args.lambdas!r}"
            ) from err
    if model.lambda_grid is not None:
        return model.lambda_grid
    return DEFAULT_GRID


def _cmd_validate(args) -> int:
    model = load_model(args.model)
    diag = model.family.diagnostics
    worst = max(*diag.row_sum_deviation, *diag.balance_residual)
    passes = worst <= args.tol
    print(f"states: {model.family.n}, kernels: {model.family.k}")
    for i in range(model.family.k):
        print(
            f"kernel {i + 1}: row-sum deviation {diag.row_sum_deviation[i]:.3g}, "
            f"balance residual {diag.balance_residual[i]:.3g} "
            f"(relative {diag.relative_balance_residual[i]:.3g})"
        )
    print(f"target sum deviation: {diag.pi_sum_deviation:.3g}, min weight: {diag.min_pi:.3g}")
    print(f"verdict at tol {args.tol:g}: {'pass' if passes else 'fail'}")
    return EXIT_OK if passes else EXIT_VALIDATION


def _row(rep: OrderingReport, fifth: str) -> list[str]:
    """A CSV row of compare, limit or peskun: the fifth column is the
    formatted gap bound or the dominance verdict."""
    return [_fmt(rep.lam), _fmt(rep.var_a), _fmt(rep.var_b), _fmt(rep.gap), fifth, rep.method]


def _cmd_compare(args) -> int:
    """The scan comparison's CSV. Only for two kernels are the rows judged
    against --tol: each needs gap >= -tol, so a NaN gap fails, and gap >=
    bound - tol unless its bound is NaN."""
    model = load_model(args.model)
    grid = _grid(args, model) + (1.0,)  # and the limit row
    reports = check_scan_ordering(model.family, model.f, grid)
    failures: list[str] = []
    if model.family.k == 2:
        for rep in reports:
            gap, bound = rep.gap, rep.gap_lower_bound
            if not gap >= -args.tol:
                failures.append(
                    f"scan-order comparison violated at lambda={rep.lam:g}: "
                    f"random-scan minus deterministic-scan gap {gap:.3g} < -{args.tol:g}"
                )
            if not (math.isnan(bound) or gap >= bound - args.tol):
                failures.append(
                    f"gap lower bound violated at lambda={rep.lam:g}: "
                    f"gap {gap:.3g} below its certified bound {bound:.3g} beyond {args.tol:g}"
                )
    rows = [_row(rep, _fmt(rep.gap_lower_bound)) for rep in reports]
    _emit(_csv(COMPARE_HEADER, rows), args.out)
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return EXIT_ASSERTION if failures else EXIT_OK


def _cmd_peskun(args) -> int:
    if not args.model_b:
        raise ModelFormatError("peskun needs --model-b for the dominated family")
    model_a = load_model(args.model)
    model_b = load_model(args.model_b)
    grid = _grid(args, model_a) + (1.0,)  # and the limit row
    comparison = peskun_dominates(model_a.family, model_b.family)
    rows = check_peskun_ordering(model_a.family, model_b.family, model_a.f, grid)
    dominates = comparison.min_dirichlet_gap_eigenvalue >= -PSD_TOL
    dom = "true" if dominates else "false"
    _emit(_csv(PESKUN_HEADER, [_row(r, dom) for r in rows]), args.out)
    code = EXIT_OK
    if not dominates:
        print(
            "FAIL: kernelwise Dirichlet-form dominance does not hold "
            f"(smallest eigenvalue {comparison.min_dirichlet_gap_eigenvalue:.3g} "
            f"below -{PSD_TOL:g}); comparison reported outside the dominance hypothesis",
            file=sys.stderr,
        )
        code = EXIT_ASSERTION
    elif not all(r.gap >= -args.tol for r in rows):
        worst = min(r.gap for r in rows)
        print(
            "FAIL: dominated-family cycle variance dropped below the dominating "
            f"one (worst difference {worst:.3g})",
            file=sys.stderr,
        )
        code = EXIT_ASSERTION
    return code


def _cmd_limit(args) -> int:
    model = load_model(args.model)
    fam, f = model.family, model.f
    report = summability_check(fam)
    print(
        f"cycle contraction: {report.cycle_contraction:.9g} "
        f"({'summable' if report.absolutely_summable else 'not summable'})"
    )
    bound = 0.0 if fam.k == 2 else math.nan
    rep = OrderingReport(1.0, var_limit(fam, f, "strat"), var_limit(fam, f, "rand"), bound)
    print(f"limit var_strat: {_fmt(rep.var_a)}")
    print(f"limit var_rand:  {_fmt(rep.var_b)}")
    if args.out:
        _emit(_csv(COMPARE_HEADER, [_row(rep, _fmt(rep.gap_lower_bound))]), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    fam, f = model.family, model.f
    sim = dict(model.simulation or {})
    steps = args.steps if args.steps is not None else sim.get("steps", 4096)
    replicas = args.replicas if args.replicas is not None else sim.get("replicas", 200)
    seed = args.seed if args.seed is not None else sim.get("seed", 0)
    if not 0 <= seed < 2**64:  # derive_seed reads the seed modulo 2**64
        source = "--seed" if args.seed is not None else f"{args.model}: field 'simulation.seed'"
        raise ModelFormatError(f"{source} must satisfy 0 <= seed < 2**64, got {seed}")
    schemes = [sim["scheme"]] if "scheme" in sim else ["strat", "rand"]
    rows = []
    for scheme in schemes:
        estimate = estimate_variance(fam, f, steps, replicas, seed, scheme)
        reference_scheme = "strat" if scheme == "embedded" else scheme
        exact = finite_m_variance_exact(fam, f, steps, reference_scheme)
        rows.append(
            [
                scheme,
                str(steps),
                str(replicas),
                _fmt(estimate.point),
                _fmt(estimate.standard_error),
                _fmt(exact),
            ]
        )
    _emit(_csv(SIMULATE_HEADER, rows), args.out)
    return EXIT_OK


def _cmd_demo(args) -> int:
    out_csv = args.out or "demo_compare.csv"
    model_path = str(Path(out_csv).parent / "demo_model.json")
    with open(model_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(DEMO_MODEL, fh, indent=2)
        fh.write("\n")
    print(f"wrote {model_path}")
    return _cmd_compare(
        argparse.Namespace(model=model_path, lambdas=None, tol=args.tol, out=out_csv)
    )


class _Tolerance(argparse.Action):
    """Stores --tol as a float, refusing a value that is not a finite
    nonnegative number as a parse error before any handler runs."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            tol = float(values)
        except ValueError:
            tol = math.nan
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ModelFormatError(
                f"--tol must be a finite nonnegative number, got {values!r}"
            )
        setattr(namespace, self.dest, tol)


# Each subcommand registers only the flags its handler reads, so any other
# flag is a usage error.
FLAGS = {
    "model": ("--model", {"required": True, "help": "path to a JSON model file"}),
    "model_b": ("--model-b", {"help": "model of the dominated family"}),
    "lambdas": (
        "--lambda", {"help": "comma-separated discount grid, overrides the model file"}
    ),
    "tol": ("--tol", {"action": _Tolerance, "default": NUMERIC_TOL}),
    "seed": ("--seed", {"type": int}),
    "steps": ("--steps", {"type": int}),
    "replicas": ("--replicas", {"type": int}),
    "out": ("--out", {"help": "output file (default: stdout)"}),
}

COMMANDS = {  # name: (help, flags)
    "validate": ("check a model file and report residuals", "model tol"),
    "compare": (
        "sweep the discount grid and compare the two scan schemes",
        "model lambdas tol out",
    ),
    "peskun": (
        "compare cycle variances of a dominating and a dominated family",
        "model model_b lambdas tol out",
    ),
    "limit": ("limiting variances plus the summability report", "model out"),
    "simulate": (
        "replicated empirical estimates next to exact references",
        "model seed steps replicas out",
    ),
    "demo": (
        "write the built-in two-state example and run compare on it",
        "tol out",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scanvar",
        description=(
            "Exact and empirical asymptotic-variance comparison of random-scan "
            "and deterministic-scan kernel orderings on finite state spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, dests) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in dests.split():
            flag, options = FLAGS[dest]
            p.add_argument(flag, dest=dest, **options)
        p.set_defaults(handler=globals()[f"_cmd_{name}"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # may raise _Tolerance's parse error
        return args.handler(args)
    except ModelFormatError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_IO
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, SummabilityError, ReducibilityError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, np.linalg.LinAlgError) as err:
        print(f"assertion error: {err}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
