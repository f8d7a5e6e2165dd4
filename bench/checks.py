"""Checks of CLI output against the reference, one problem string per mismatch.

A printed number passes when it lies within half a unit of its ninth
significant digit of the reference value, plus 1e-11 of the row's variance
scale for the reference's own rounding (the reference and the library agree
to about 1e-14 relative on the benchmark's models).
"""

from __future__ import annotations

import math

COMPARE_HEADER = "lambda,var_strat,var_rand,gap,gap_lower_bound,method"
PESKUN_HEADER = "lambda,var_strat_a,var_strat_b,difference,dominates,method"
SIMULATE_HEADER = "scheme,steps,replicas,estimate,standard_error,exact_finite_m"

NAN = float("nan")


def matches(printed: str, expected: float, scale: float) -> bool:
    try:
        value = float(printed)
    except ValueError:
        return False
    if math.isnan(expected):
        return math.isnan(value)
    if not math.isfinite(value):
        return False
    half_unit = 0.0
    if value != 0.0:
        half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 8)
    return abs(value - expected) <= half_unit * (1.0 + 1e-9) + 1e-11 * scale


def _rows(text: str, header: str, problems: list[str]) -> list[list[str]]:
    if not text.endswith("\n"):
        problems.append("CSV does not end with a line feed")
    lines = text.rstrip("\n").split("\n")
    if lines[0] != header:
        problems.append(f"CSV header {lines[0]!r} is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _check_rows(rows, expected, problems: list[str]) -> None:
    """`expected` holds one tuple per row: numbers are compared by
    `matches` at the row's scale, strings literally."""
    if len(rows) != len(expected):
        problems.append(f"CSV has {len(rows)} rows, expected {len(expected)}")
        return
    for got, want in zip(rows, expected):
        if len(got) != len(want):
            problems.append(f"row {got} has {len(got)} fields, expected {len(want)}")
            continue
        scale = max(abs(x) for x in want if isinstance(x, float) and math.isfinite(x))
        for field, value in zip(got, want):
            ok = field == value if isinstance(value, str) else matches(field, value, scale)
            if not ok:
                problems.append(f"row {','.join(got)}: {field!r} should be {value!r}")


def _lambdas(grid) -> list[float]:
    return [float(x) for x in grid if float(x) < 1.0 - 1e-12]


def _limit_row(ref, k: int) -> tuple:
    strat, rand = ref.strat(1.0), ref.rand(1.0)
    return (1.0, strat, rand, rand - strat, 0.0 if k == 2 else NAN, "limit")


def check_compare(text: str, grid, ref) -> list[str]:
    problems: list[str] = []
    rows = _rows(text, COMPARE_HEADER, problems)
    expected = []
    for lam in _lambdas(grid):
        strat, rand = ref.strat(lam), ref.rand(lam)
        bound = ref.gap_bound(lam) if ref.k == 2 else NAN
        expected.append((lam, strat, rand, rand - strat, bound, "resolvent"))
    expected.append(_limit_row(ref, ref.k))
    _check_rows(rows, expected, problems)
    return problems


def check_peskun(text: str, grid, ref_a, ref_b) -> list[str]:
    problems: list[str] = []
    rows = _rows(text, PESKUN_HEADER, problems)
    expected = []
    for lam, method in [(x, "resolvent") for x in _lambdas(grid)] + [(1.0, "limit")]:
        a, b = ref_a.strat(lam), ref_b.strat(lam)
        expected.append((lam, a, b, b - a, "true", method))
    _check_rows(rows, expected, problems)
    return problems


def check_limit(stdout: str, text: str, ref) -> list[str]:
    problems: list[str] = []
    lines = stdout.splitlines()
    head = "cycle contraction: "
    if not lines or not lines[0].startswith(head) or not lines[0].endswith(" (summable)"):
        problems.append(f"unexpected summability line {lines[:1]!r}")
    else:
        printed = lines[0][len(head) : -len(" (summable)")]
        # eigenvalues of a nonsymmetric matrix carry more rounding than a solve
        if not math.isclose(float(printed), ref.contraction(), rel_tol=1e-8):
            problems.append(f"cycle contraction {printed} should be {ref.contraction()!r}")
    for label, value in (("var_strat: ", ref.strat(1.0)), ("var_rand:  ", ref.rand(1.0))):
        printed = [x[len("limit " + label) :] for x in lines if x.startswith("limit " + label)]
        if len(printed) != 1 or not matches(printed[0], value, value):
            problems.append(f"limit {label.strip()} {printed!r} should be {value!r}")
    _check_rows(_rows(text, COMPARE_HEADER, problems), [_limit_row(ref, ref.k)], problems)
    return problems


def check_validate(stdout: str, n: int, k: int) -> list[str]:
    problems: list[str] = []
    if f"states: {n}, kernels: {k}" not in stdout:
        problems.append(f"validate did not report {n} states and {k} kernels")
    if "verdict at tol 1e-10: pass" not in stdout:
        problems.append("validate did not pass the model")
    return problems


def check_simulate(text: str, ref, scheme: str, steps: int, replicas: int) -> list[str]:
    """The exact column must match the reference, and the estimate must lie
    within 5 standard errors of it. The standard error is the one a sample
    variance of `replicas` normal values has at the exact variance,
    exact * sqrt(2 / (replicas - 1)). The printed standard_error is itself
    estimated from the replicas and shrinks with a low estimate: with 100
    replicas, gating on it fails about 6 in 10,000 correct estimates, and
    gating on this one about 1 in 75,000 (sampled with normal values)."""
    problems: list[str] = []
    rows = _rows(text, SIMULATE_HEADER, problems)
    exact = ref.finite_m(steps, "strat" if scheme == "embedded" else scheme)
    if len(rows) != 1 or len(rows[0]) != 6:
        problems.append(f"simulate printed {rows!r}, expected one row of 6 fields")
        return problems
    name, got_steps, got_replicas, estimate, error, exact_field = rows[0]
    if (name, got_steps, got_replicas) != (scheme, str(steps), str(replicas)):
        problems.append(f"simulate row {rows[0]} is not for {scheme},{steps},{replicas}")
    if not matches(exact_field, exact, exact):
        problems.append(f"exact_finite_m {exact_field} should be {exact!r}")
    try:
        estimate, error = float(estimate), float(error)
    except ValueError:
        problems.append(f"non-numeric estimate {estimate!r} or error {error!r}")
        return problems
    if not (math.isfinite(error) and error > 0.0):
        problems.append(f"standard error {error} is not a positive number")
    if not abs(estimate - exact) <= 5.0 * standard_error(exact, replicas):
        problems.append(f"estimate {estimate} is more than 5 standard errors from {exact!r}")
    return problems


def standard_error(exact: float, replicas: int) -> float:
    return exact * math.sqrt(2.0 / (replicas - 1))
