"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with
`pytest tests/test_acceptance.py -v -s` to see them all.
"""

import time
from functools import lru_cache

import numpy as np

import helpers
from helpers import (
    BetaPath,
    bellman_value,
    joint_law_exact,
    palindrome_check,
    var_lambda_strat_series,
)
from scanvar.embedding import (
    BlockVector,
    CycleEmbedding,
    apply_embedding,
    apply_embedding_adjoint,
    block_inner,
    shift,
    shift_realization,
)
from scanvar.kernels import Dist, Observable, gibbs_kernel, inner, make_family
from scanvar.ordering import gap_lower_bound, peskun_dominates
from scanvar.simulate import estimate_variance
from scanvar.variance import (
    finite_m_variance_exact,
    var_lambda_rand,
    var_lambda_strat,
    var_limit,
)

LAMBDA_GRID = (0.3, 0.6, 0.9, 0.99)


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@lru_cache(maxsize=1)
def _two_kernel_sweep():
    """50 seeded random reversible pairs swept over the discount grid.

    Returns (gaps, bounds, elapsed_seconds); shared by criteria 1 and 2.
    """
    rng = np.random.default_rng(20240501)
    cases = []
    for _ in range(50):
        n = int(rng.integers(3, 21))
        fam = helpers.random_family(rng, n, 2)
        f = helpers.random_centered(rng, fam)
        cases.append((fam, f))
    start = time.perf_counter()
    gaps, bounds = [], []
    for fam, f in cases:
        for lam in LAMBDA_GRID:
            gap = var_lambda_rand(fam, f, lam) - var_lambda_strat(fam, f, lam)
            gaps.append(gap)
            bounds.append(gap_lower_bound(fam, f, lam))
    elapsed = time.perf_counter() - start
    return np.array(gaps), np.array(bounds), elapsed


def test_criterion_1_two_kernel_ordering():
    gaps, _, elapsed = _two_kernel_sweep()
    ok = bool(np.all(gaps >= -1e-10)) and elapsed < 30.0
    _verdict(
        1,
        "k=2 scan ordering",
        ok,
        f"min gap {gaps.min():.3g} over {gaps.size} cases in {elapsed:.1f}s",
    )


def test_criterion_2_gap_lower_bound():
    gaps, bounds, _ = _two_kernel_sweep()
    ok = bool(np.all(gaps >= bounds - 1e-9)) and bool(np.all(bounds >= -1e-12))
    worst = float(np.min(gaps - bounds))
    _verdict(
        2,
        "certified gap bound",
        ok,
        f"min slack {worst:.3g}, min bound {bounds.min():.3g}",
    )


def test_criterion_3_resolvent_series_equivalence():
    rng = np.random.default_rng(7001)
    worst = 0.0
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, 5))
        fam = helpers.random_family(rng, n, k)
        f = helpers.random_centered(rng, fam)
        for lam in (0.3, 0.6, 0.9):
            resolvent = var_lambda_strat(fam, f, lam)
            series, bound = var_lambda_strat_series(fam, f, lam, terms=400)
            excess = abs(resolvent - series) - bound
            worst = max(worst, excess)
            ok = ok and excess <= 1e-9
    _verdict(3, "resolvent vs series", ok, f"worst excess over bound {worst:.3g}")


def test_criterion_4_two_state_anchor():
    fam = helpers.e1_family()
    f = Observable(helpers.E1_F)
    checks = {
        "var_strat(0.5)": (var_lambda_strat(fam, f, 0.5), helpers.E1_VAR_STRAT_HALF),
        "var_rand(0.5)": (var_lambda_rand(fam, f, 0.5), helpers.E1_VAR_RAND_HALF),
        "gap(0.5)": (
            var_lambda_rand(fam, f, 0.5) - var_lambda_strat(fam, f, 0.5),
            helpers.E1_GAP_HALF,
        ),
        "limit strat": (var_limit(fam, f, "strat"), helpers.E1_LIMIT_STRAT),
        "limit rand": (var_limit(fam, f, "rand"), helpers.E1_LIMIT_RAND),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    _verdict(4, "two-state closed forms", worst <= 1e-9, f"worst error {worst:.3g}")


def test_criterion_5_finite_horizon_and_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(5005)
    families = [
        (helpers.e1_family(), Observable(helpers.E1_F)),
        (helpers.random_family(rng, 5, 2), None),
        (helpers.random_family(rng, 4, 3), None),
    ]
    grid = [2**6, 2**8, 2**10, 2**12]
    ok = True
    details = []
    for fam, f in families:
        if f is None:
            f = helpers.random_centered(rng, fam)
        limit = var_limit(fam, f, "strat")
        errors = [
            abs(finite_m_variance_exact(fam, f, m, "strat") - limit) for m in grid
        ]
        decreasing = all(a > b for a, b in zip(errors, errors[1:]))
        c = 1.5 * errors[0] * grid[0]
        rate_ok = all(err <= c / m for m, err in zip(grid, errors))
        ok = ok and decreasing and rate_ok
        details.append(f"e(2^12)={errors[-1]:.2e}")
    fam, f = helpers.e1_family(), Observable(helpers.E1_F)
    for scheme in ("strat", "rand"):
        exact = finite_m_variance_exact(fam, f, 2**12, scheme)
        est = estimate_variance(fam, f, 2**12, 200, 314159, scheme)
        z = abs(est.point - exact) / est.standard_error
        ok = ok and z <= 3.0
        details.append(f"{scheme} z={z:.2f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _verdict(
        5,
        "finite-horizon convergence + Monte Carlo",
        ok,
        ", ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_6_embedding_law_equality():
    rng = np.random.default_rng(6006)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        fam = helpers.random_family(rng, n, k)
        for m in (1, 2, 3):
            direct = joint_law_exact(fam, m, "strat")
            marginalised = joint_law_exact(fam, m, "embedded")
            worst = max(worst, float(np.abs(direct - marginalised).max()))
    _verdict(6, "embedded law equality", worst <= 1e-12, f"worst cell gap {worst:.3g}")


def test_criterion_7_peskun_comparison():
    rng = np.random.default_rng(7007)
    grid = np.linspace(0.0, 1.0, 11)
    h = 1e-5
    ok = True
    min_derivative = np.inf
    worst_fd = 0.0
    worst_order = np.inf
    for _ in range(20):
        n = int(rng.integers(3, 11))
        fam = helpers.random_family(rng, n, 2)
        holds = rng.uniform(0.2, 0.7, size=2)
        dominated = helpers.lazified(fam, holds)
        f = helpers.random_centered(rng, fam)
        assert peskun_dominates(fam, dominated).min_dirichlet_gap_eigenvalue >= -1e-10
        for lam in (0.3, 0.6, 0.9):
            diff = var_lambda_strat(dominated, f, lam) - var_lambda_strat(fam, f, lam)
            worst_order = min(worst_order, diff)
            ok = ok and diff >= -1e-10
        path = BetaPath(fam, dominated)
        lam = 0.6
        for beta in grid:
            closed = path.derivative(f, lam, float(beta))
            min_derivative = min(min_derivative, closed)
            fd = (
                path.delta(f, lam, float(beta) + h) - path.delta(f, lam, float(beta) - h)
            ) / (2 * h)
            rel = abs(closed - fd) / max(abs(closed), abs(fd))
            worst_fd = max(worst_fd, rel)
            ok = ok and closed >= -1e-9 and rel <= 1e-6
    _verdict(
        7,
        "dominated-family comparison",
        ok,
        f"min difference {worst_order:.3g}, min derivative {min_derivative:.3g}, "
        f"worst fd rel {worst_fd:.2e}",
    )


def test_criterion_8_adjoint_algebra():
    rng = np.random.default_rng(8008)
    worst_pairing = 0.0
    worst_conjugation = 0.0
    worst_isometry = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        fam = helpers.random_family(rng, n, k)
        emb = CycleEmbedding(fam)
        backward = shift_realization(k, n, -1)
        conj = backward @ emb.realization("embed") @ backward
        worst_conjugation = max(
            worst_conjugation,
            float(np.abs(conj - emb.realization("embed_adjoint")).max()),
        )
        for _ in range(5):
            phi = BlockVector(rng.standard_normal((k, n)))
            psi = BlockVector(rng.standard_normal((k, n)))
            lhs = block_inner(psi, apply_embedding(fam, phi), fam.pi)
            rhs = block_inner(apply_embedding_adjoint(fam, psi), phi, fam.pi)
            worst_pairing = max(worst_pairing, abs(lhs - rhs))
            iso = block_inner(shift(psi, +1), phi, fam.pi) - block_inner(
                psi, shift(phi, -1), fam.pi
            )
            worst_isometry = max(worst_isometry, abs(iso))
    worst = max(worst_pairing, worst_conjugation, worst_isometry)
    _verdict(
        8,
        "adjoint algebra",
        worst <= 1e-11,
        f"pairing {worst_pairing:.2e}, conjugation {worst_conjugation:.2e}, "
        f"shift adjoint {worst_isometry:.2e}",
    )


def test_criterion_9_variational_supremum():
    rng = np.random.default_rng(9009)
    worst_excess = -np.inf
    ok = True
    for case in range(10):
        n = int(rng.integers(2, 9))
        if case % 2 == 0:
            fam = helpers.random_family(rng, n, 2)
            w = fam.pi.weights
            lam = float(rng.uniform(0.2, 0.9))
            op = np.eye(n) - lam * (fam.matrices[0] + fam.matrices[1]) / 2.0
        else:
            w = helpers.random_dist(rng, n).weights
            base = rng.standard_normal((n, n))
            spd = base @ base.T + n * np.eye(n)
            root = np.sqrt(w)
            op = spd / root[:, None] * root[None, :]
        f = rng.standard_normal(n)
        value, _ = bellman_value(op, f, w)
        for _ in range(200):
            g = rng.standard_normal(n)
            excess = 2 * np.dot(w, f * g) - np.dot(w, g * (op @ g)) - value
            worst_excess = max(worst_excess, excess)
            ok = ok and excess <= 1e-10
    _verdict(9, "variational supremum", ok, f"max probe excess {worst_excess:.3g}")


def test_criterion_10_projection_identity():
    rng = np.random.default_rng(1010)
    grids = [(2, 3), (3, 3), (4, 5), (6, 6), (5, 2)]
    worst = 0.0
    for shape in grids:
        cells = shape[0] * shape[1]
        w = rng.random(cells) + 0.1
        joint = Dist(w / w.sum())
        fam = make_family(
            joint.weights,
            [gibbs_kernel(joint, shape, 1), gibbs_kernel(joint, shape, 2)],
        )
        f = helpers.random_centered(rng, fam)
        residual = abs(
            var_limit(fam, f, "rand")
            - (2.0 * var_limit(fam, f, "strat") - inner(f, f, fam.pi))
        )
        worst = max(worst, residual)
    _verdict(
        10, "two-projection variance identity", worst <= 1e-8, f"worst residual {worst:.3g}"
    )


def test_criterion_11_palindromic_cycles():
    rng = np.random.default_rng(1111)
    worst_gap = 0.0
    worst_derivative = np.inf
    for p in (2, 3):
        pi = helpers.random_dist(rng, 4)
        generators = [
            helpers.random_reversible(pi, int(rng.integers(2**62))) for _ in range(p)
        ]
        f = Observable(rng.standard_normal(4))
        for case in palindrome_check(generators, pi, 0.5, f):
            worst_gap = max(worst_gap, case.max_component_gap)
            worst_derivative = min(worst_derivative, case.min_derivative)
    ok = worst_gap <= 1e-11 and worst_derivative >= -1e-9
    _verdict(
        11,
        "palindromic cycles",
        ok,
        f"worst component gap {worst_gap:.3g}, min derivative {worst_derivative:.3g}",
    )
