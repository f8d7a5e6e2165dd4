"""Command-line front end: model files in, CSV reports out.

Model files are JSON with fields `states` (a count or a list of labels),
`pi`, `kernels` (row-major matrices), `f`, optional `lambda_grid` and an
optional `simulation` block. All numeric CSV fields use 9 significant
digits and LF line endings, so identical inputs give byte-identical files.

A model file is read once as bytes, and its top-level object is walked
on those bytes: orjson decodes each kernel row straight into the
kernel's float array, and json's scanner reads every other value, and
any matrix that is not square, whose rows orjson or the conversion
refuses, or that holds a JSON string, true, false or null, on a decoded
window of the bytes, so every value or error is json's own. So a load
peaks at about 1.35 times the file's size, for any number of kernels:
the bytes plus the arrays, with no decoded copy of the file and no
kernel's lists. A file the walk does not take (a BOM, bytes that are not
UTF-8, a syntax error, another top level, an empty `kernels` list) is
decoded as text and parsed by json.loads.

Exit codes: 0 success, 1 validation failure, 2 assertion failure or usage error,
3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np
import orjson

from scanvar.kernels import (
    EMPTY_FAMILY_FAULT,
    Kernel,
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
from scanvar.variance import finite_m_variance_exact, summability_check

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
    count's shapes and finite entries, or else an empty kernel list, the
    one family fault that pi does not enter."""
    problems = ["state labels must be distinct"] if repeated else []
    parts = [("pi", pi, (n,), weight_faults), ("f", f_values, (n,), value_faults)]
    parts += [(f"kernel {i + 1}", m, (n, n), matrix_faults) for i, m in enumerate(kernels)]
    for name, values, shape, faults in parts:
        if values.shape != shape:
            problems.append(f"{name} has shape {values.shape}, expected {shape}")
        else:
            problems += [f"{name}: {fault}" for fault in faults(values)]
    shaped = pi.shape == (n,) and all(m.shape == (n, n) for m in kernels)
    if shaped and all(np.isfinite(a).all() for a in (pi, *kernels)):
        problems += family_faults(diag or family_diagnostics(pi, kernels))
    elif not kernels:
        problems.append(EMPTY_FAMILY_FAULT)
    raise ValidationError(f"{path} failed validation:\n  " + "\n  ".join(problems))


# JSON's whitespace, matched on bytes
_WHITESPACE = re.compile(rb"[ \t\n\r]*").match
# the first decode window of a value json's scanner reads, in bytes
_WINDOW = 4096
# json's scanner fails on a value that a window cuts within this many
# characters of the window's end, or at the start of an unterminated
# string: at most 8 before it, at the '-' of a cut -Infinity
_CUT = 16


def _scan(data: bytes, i: int, scan) -> tuple[object, int]:
    """The value json's scanner reads at data[i], and the byte index after
    it. The scanner reads a decoded window of the bytes from i that starts
    at _WINDOW bytes, never ends inside a UTF-8 character, and doubles
    until the value ends before the window does, so a number cut at the
    window's edge is never taken; only a window that reaches the end of
    the file may end with its value. json's error is raised from a window
    that reaches the end of the file, or from one whose cut cannot have
    caused it: one that points more than _CUT characters before the
    window's end at anything but an unterminated string."""
    view, size = memoryview(data), _WINDOW
    while True:
        j = min(i + size, len(data))
        while j < len(data) and data[j] & 0xC0 == 0x80:  # a continuation byte
            j -= 1
        window = str(view[i:j], "utf-8")
        try:
            value, end = scan(window, 0)
            if end < len(window) or j == len(data):
                break
        except (ValueError, StopIteration) as err:  # an integer too long has no pos
            at = err.value if isinstance(err, StopIteration) else getattr(err, "pos", 0)
            cut = getattr(err, "msg", "").startswith("Unterminated string")
            if j == len(data) or not cut and at < len(window) - _CUT:
                raise
        del window  # before the next one is decoded: two never live together
        size *= 2
    return value, i + (end if window.isascii() else len(window[:end].encode("utf-8")))


def _numbers_only(data: bytes, i: int, j: int) -> bool:
    """Whether data[i:j] holds no JSON string, true, false or null: each of
    them holds a '"', 'u' or 'l' byte, and no number, NaN or Infinity does."""
    return all(data.find(c, i, j) < 0 for c in (b'"', b"u", b"l"))


def _walk_matrix(data: bytes, i: int, scan) -> tuple[np.ndarray | list, int]:
    """The matrix whose first byte is data[i], and the index after it. A
    square matrix of rows is read into one m x m float array, m the length
    of its first row: each row, from its '[' to the first ']' after it, is
    decoded by orjson from a memoryview of the bytes, whose floats are
    json's bit for bit (an integer past 64 bits comes as the float json's
    int converts to), and goes straight into its row of the array,
    converted as np.asarray would convert it. Anything else (not a list of
    rows, a bad separator, a row orjson or the conversion refuses, such as
    one holding a NaN, a number past a float's range, a nested list, an
    object or a string with a ']', a row of another length, which numpy
    would broadcast, one row too many or too few, a first row too long for
    its square to fit in the file, or a JSON string, true, false or null
    anywhere in the matrix) is read by json's scanner, so its value or its
    error is json's own. Its lists become a float array at once when they
    hold numbers only and convert, or else stay as parsed, for load_model's
    conversion step to refuse in its place."""
    if data[i : i + 1] == b"[":
        view, matrix, r, j, sep = memoryview(data), None, 0, i, b","
        try:
            while sep == b",":
                j = _WHITESPACE(data, j + 1).end()
                if data[j : j + 1] != b"[":
                    break
                end = data.index(b"]", j) + 1
                row = orjson.loads(view[j:end])
                if matrix is None and len(row) ** 2 <= len(data) - i:
                    matrix = np.empty((len(row), len(row)))
                if matrix is None or r == len(matrix) or len(row) != len(matrix):
                    break
                matrix[r] = row
                r += 1
                j = _WHITESPACE(data, end).end()
                sep = data[j : j + 1]
            if sep == b"]" and r == len(matrix) and _numbers_only(data, i, j):
                return matrix, j + 1
        except (TypeError, ValueError):  # orjson.JSONDecodeError is a ValueError
            pass
    lists, end = _scan(data, i, scan)
    if _numbers_only(data, i, end):
        try:
            return np.asarray(lists, dtype=float), end
        except (TypeError, ValueError, OverflowError):
            pass
    return lists, end


def _walk_kernels(data: bytes, i: int, scan) -> tuple[list, int]:
    """The `kernels` array whose '[' is at data[i], and the index after its
    ']'. Each matrix is read by _walk_matrix, so no matrix's lists outlive
    its read unless they hold what load_model refuses."""
    kernels, sep = [], b","
    while sep == b",":
        matrix, i = _walk_matrix(data, _WHITESPACE(data, i + 1).end(), scan)
        kernels.append(matrix)
        i = _WHITESPACE(data, i).end()
        sep = data[i : i + 1]
    if sep != b"]":
        raise ValueError("not a JSON array")
    return kernels, i + 1


def _walk_model(data: bytes) -> dict:
    """The top-level object of a model file's bytes, one value at a time:
    the top-level `kernels` by _walk_kernels, every other key and value by
    _scan. Anything else (another top level, a BOM, an empty object or
    array, a syntax error, trailing data, bytes that are not UTF-8) raises
    ValueError, StopIteration or RecursionError."""
    scan, ws = json.JSONDecoder().scan_once, _WHITESPACE
    i = ws(data).end()
    if data[i : i + 1] != b"{":
        raise ValueError("not a JSON object")
    raw, sep = {}, b","
    while sep == b",":
        i = ws(data, i + 1).end()
        if data[i : i + 1] != b'"':
            raise ValueError("not a JSON object")
        key, i = _scan(data, i, scan)
        i = ws(data, i).end()
        if data[i : i + 1] != b":":
            raise ValueError("not a JSON object")
        i = ws(data, i + 1).end()
        if key == "kernels" and data[i : i + 1] == b"[":
            raw[key], i = _walk_kernels(data, i, scan)
        else:
            raw[key], i = _scan(data, i, scan)
        i = ws(data, i).end()
        sep = data[i : i + 1]
    if sep != b"}" or ws(data, i + 1).end() != len(data):
        raise ValueError("not one JSON object")
    return raw


def _read_model(path: str):
    """The parsed model file. Its bytes are read once and walked by
    _walk_model, with no decoded copy of them: beside the bytes live the
    kernels' arrays, one row's list, a window of text for the value json's
    scanner reads, and the lists of a matrix json's scanner reads, kept
    only where they do not convert or hold a string, true, false or null.
    So the peak is about 1.35 times the file, the bytes plus the arrays.
    A file the walk does not take is decoded as read_text decodes it (with
    universal newlines) and parsed by json.loads, so its value or its
    error, with its line and column, is json's own."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise ModelFormatError(f"cannot read {path}: {err}") from err
    try:
        return _walk_model(data)
    except (ValueError, StopIteration, RecursionError):
        pass
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ModelFormatError(f"{path} is not valid UTF-8: {err}") from err
    if "\r" in text:  # universal newlines, as read_text reads
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError(
            f"{path} is not valid JSON (line {err.lineno}, column {err.colno}): {err.msg}"
        ) from err
    except (ValueError, RecursionError) as err:  # too many digits, or too deep
        raise ModelFormatError(f"{path} cannot be parsed: {err}") from err


def _is_number(x) -> bool:
    """Whether a parsed JSON value is a number (a bool is not)."""
    return type(x) in (int, float)


def _refuse_non_numbers(path: str, field: str, values) -> None:
    """Refuse, as a parse error naming the field, an entry of `values`
    that is a JSON string, true, false or null, which np.asarray reads as
    a number ("0.5" as 0.5, true as 1, null as NaN). `values` converted
    to floats, so its lists are rectangular; an array is a matrix the walk
    decoded, which holds numbers only."""
    if isinstance(values, np.ndarray):
        return
    for x in np.asarray(values, dtype=object).flat:
        if not _is_number(x):
            raise ModelFormatError(
                f"{path}: field {field!r} has an entry that is not a number: {json.dumps(x)}"
            )


def load_model(path: str) -> Model:
    """Parse and validate a JSON model file.

    Parse problems raise ModelFormatError with field context; among them
    a JSON string, true, false or null in `pi`, `f` or a kernel. Data that
    the domain types refuse, or whose lengths or labels `states` refuses,
    raises ValidationError listing every violated invariant. The field
    `states` is read only here: its count must be the target's length,
    and its labels must be distinct; they are checked, not kept. The read
    peaks at about 1.35 times the file's size, its bytes plus the arrays
    (see _read_model), and validation does not raise it: each kernel's
    type copies the read's array, which is dropped before the family's
    residuals are measured.
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
    parts = [("pi", raw["pi"]), ("f", raw["f"])] + [("kernels", m) for m in raw.pop("kernels")]
    for field, values in parts:
        _refuse_non_numbers(path, field, values)
    del parts, values  # `kernels` alone holds the loader's arrays

    try:
        copies = [Kernel(m) for m in kernels]
        kernels = [k.matrix for k in copies]  # the loader's arrays go before validation
        family, f = make_family(pi, copies), Observable(f_values)
        diag, valid = family.diagnostics, family.n == f.n == n
    except ValidationError as err:
        diag, valid = err.diagnostics, False
    if repeated or not valid:
        _raise_problems(path, n, pi, f_values, kernels, diag, repeated)
    grid = raw.get("lambda_grid")
    if grid is not None:
        if not (isinstance(grid, list) and all(map(_is_number, grid))):
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
    # a floor >= -PSD_TOL implies an eigenvalue >= -PSD_TOL; only a lower
    # floor has the eigenproblems solved
    dominates = (
        comparison.min_dirichlet_gap_floor >= -PSD_TOL
        or comparison.min_dirichlet_gap_eigenvalue >= -PSD_TOL
    )
    rows = check_peskun_ordering(model_a.family, model_b.family, model_a.f, grid)
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
    (rep,) = check_scan_ordering(fam, f, (1.0,))
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
