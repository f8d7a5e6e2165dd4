"""Unit tests for ordering checkers, the gap bound, blends and palindromes."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
import scanvar.variance
from helpers import BetaPath, bellman_value, palindrome_check, variational_identity_check
from scanvar.cli import PSD_TOL
from scanvar.kernels import (
    Dist,
    Kernel,
    NUMERIC_TOL,
    Observable,
    REVERSIBILITY_TOL,
    ReducibilityError,
    SummabilityError,
    ValidationError,
    center,
    gibbs_kernel,
    inner,
    lazy,
    make_family,
    random_reversible,
)
from scanvar.ordering import (
    _floor,
    _least_eigenvalue,
    check_peskun_ordering,
    check_scan_ordering,
    gap_lower_bound,
    peskun_dominates,
)
from scanvar.variance import (
    summability_check,
    var_lambda_rand,
    var_lambda_strat,
    var_limit,
)


class TestGapLowerBound:
    def test_identical_kernels_zero(self, e1_f):
        fam = make_family([0.5, 0.5], [helpers.E1_P1, helpers.E1_P1])
        assert abs(gap_lower_bound(fam, e1_f, 0.6)) <= 1e-13

    def test_lambda_zero(self, e1, e1_f):
        assert gap_lower_bound(e1, e1_f, 0.0) == 0.0

    def test_e1_between_zero_and_gap(self, e1, e1_f):
        bound = gap_lower_bound(e1, e1_f, 0.5)
        assert 0.0 <= bound <= helpers.E1_GAP_HALF + 1e-12

    def test_needs_two_kernels(self, e1_f):
        fam = make_family([0.5, 0.5], [helpers.E1_P1, helpers.E1_P2, helpers.E1_P1])
        with pytest.raises(ValueError):
            gap_lower_bound(fam, e1_f, 0.5)

    def test_random_sweep_bound_certified(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            fam = helpers.random_family(rng, int(rng.integers(3, 12)), 2)
            f = helpers.random_centered(rng, fam)
            for lam in (0.3, 0.9):
                gap = var_lambda_rand(fam, f, lam) - var_lambda_strat(fam, f, lam)
                bound = gap_lower_bound(fam, f, lam)
                assert bound >= -1e-12
                assert gap >= bound - 1e-9


class TestCheckScanOrdering:
    def test_e1_half(self, e1, e1_f):
        reports = check_scan_ordering(e1, e1_f, [0.5])
        assert len(reports) == 1
        rep = reports[0]
        assert rep.gap == pytest.approx(helpers.E1_GAP_HALF, abs=1e-12)
        assert rep.gap >= -NUMERIC_TOL and rep.gap >= rep.gap_lower_bound - NUMERIC_TOL
        assert rep.method == "resolvent"

    def test_gap_bound_shares_the_strat_solve(self, monkeypatch):
        # per discount one LU on the cycle, strat's, shared with the bound;
        # the bound's other solve and rand's are LUs on the mixed kernel alone
        import scanvar.embedding as embedding
        import scanvar.ordering as ordering
        import scanvar.variance as variance

        fam = helpers.random_family(np.random.default_rng(73), 6, 2)
        f = helpers.random_centered(np.random.default_rng(74), fam)
        grid = [0.3, 0.6, 0.9, 0.99]
        calls = []
        solve = embedding._cycle_solve

        def counted(*args, **kwargs):
            calls.append((len(args[0]), args[1]))
            return solve(*args, **kwargs)

        for module in (embedding, variance, ordering):
            monkeypatch.setattr(module, "_cycle_solve", counted)
        reports = check_scan_ordering(fam, f, grid)
        assert calls == [c for lam in grid for c in ((2, lam), (1, -lam), (1, lam))]
        monkeypatch.undo()
        for lam, rep in zip(grid, reports):
            assert rep.var_a == var_lambda_strat(fam, f, lam)
            assert rep.var_b == var_lambda_rand(fam, f, lam)
            assert rep.gap_lower_bound == gap_lower_bound(fam, f, lam)

    def test_sweep_and_limit_take_one_cholesky(
        self, eigh_calls, eigvalsh_calls, cholesky_calls
    ):
        # a five-point sweep and the limit solve no eigenproblem: the rand
        # guard is one Cholesky certificate, kept with the family, and the
        # summability verdict factors nothing
        fam = helpers.random_family(np.random.default_rng(76), 6, 2)
        f = helpers.random_centered(np.random.default_rng(77), fam)
        summability_check(fam)
        rows = check_scan_ordering(fam, f, [0.0, 0.3, 0.6, 0.9, 0.99, 1.0])
        assert [r.method for r in rows] == ["resolvent"] * 5 + ["limit"]
        assert cholesky_calls == [(6, 6)]
        assert eigh_calls == eigvalsh_calls == []
        check_scan_ordering(fam, f, [0.5, 1.0])
        assert cholesky_calls == [(6, 6)]

    def test_e1_limit_row(self, e1, e1_f):
        reports = check_scan_ordering(e1, e1_f, [0.5, 1.0])
        assert reports[-1].method == "limit"
        assert reports[-1].lam == 1.0
        assert reports[-1].gap == pytest.approx(3.0 - 18.0 / 7.0, abs=1e-12)

    def test_identical_kernels_zero_gap(self, e1_f):
        fam = make_family([0.5, 0.5], [helpers.E1_P2, helpers.E1_P2])
        for rep in check_scan_ordering(fam, e1_f, [0.3, 0.6, 0.9, 1.0]):
            assert abs(rep.gap) <= 1e-10
            assert rep.gap >= -NUMERIC_TOL

    def test_three_kernel_counterexample(self, e1_f):
        # strat <= rand is a theorem for two kernels only; here it fails at
        # discount 0.9 and in the limit, and holds at 0.5
        fam = make_family(helpers.E1_PI, helpers.K3_COUNTER_KERNELS)
        rows = check_scan_ordering(fam, e1_f, [0.5, 0.9, 1.0])
        assert [(r.lam, r.method, r.gap >= -NUMERIC_TOL) for r in rows] == [
            (0.5, "resolvent", True),
            (0.9, "resolvent", False),
            (1.0, "limit", False),
        ]
        expected = [(259 / 351, 13 / 17), (0.873787399, 19 / 31), (69 / 61, 11 / 19)]
        for r, (strat, rand) in zip(rows, expected):
            assert r.var_a == pytest.approx(strat, abs=1e-9)
            assert r.var_b == pytest.approx(rand, abs=1e-12)
            assert r.gap == r.var_b - r.var_a
            assert np.isnan(r.gap_lower_bound)
        assert rows[1].gap == pytest.approx(-0.261, abs=1e-3)
        assert summability_check(fam).cycle_contraction == pytest.approx(0.512, abs=1e-12)

    def test_no_limit_row_when_not_summable(self, e1_f):
        fam = make_family([0.5, 0.5], [np.eye(2), np.eye(2)])
        reports = check_scan_ordering(fam, e1_f, [0.5, 1.0])
        assert [rep.method for rep in reports] == ["resolvent"]

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_any_number_of_kernels_has_nan_bound(self, k):
        rng = np.random.default_rng(41 + k)
        fam = helpers.random_family(rng, 5, k)
        f = helpers.random_centered(rng, fam)
        reports = check_scan_ordering(fam, f, [0.3, 0.9, 1.0])
        assert [rep.method for rep in reports] == ["resolvent", "resolvent", "limit"]
        for rep in reports:
            assert np.isnan(rep.gap_lower_bound)
        assert reports[1].var_a == pytest.approx(var_lambda_strat(fam, f, 0.9), abs=1e-12)
        assert reports[2].var_b == pytest.approx(var_limit(fam, f, "rand"), abs=1e-12)

    @pytest.mark.parametrize("lam", [1.5, 1.0 + 1e-9, -0.5])
    def test_discount_outside_unit_interval_raises(self, e1, e1_f, lam):
        with pytest.raises(ValueError):
            check_scan_ordering(e1, e1_f, [0.5, lam])
        with pytest.raises(ValueError):
            check_peskun_ordering(e1, e1, e1_f, [0.5, lam])

    def test_k8_sweep_sums_the_mixed_kernel_once(self, monkeypatch):
        from scanvar.kernels import KernelFamily

        rng = np.random.default_rng(88)
        fam = helpers.random_family(rng, 10, 8)
        f = helpers.random_centered(rng, fam)
        calls = []
        mixed = KernelFamily.__dict__["_mixed"]  # the cached property
        build = mixed.func

        def counted(family):
            calls.append(family.k)
            return build(family)

        monkeypatch.setattr(mixed, "func", counted)
        reports = check_scan_ordering(fam, f, [0.3, 0.6, 0.9, 0.99, 1.0])
        assert [rep.method for rep in reports] == ["resolvent"] * 4 + ["limit"]
        assert calls == [8]


def centred_bottom(form: np.ndarray, pi: np.ndarray) -> float:
    """The smallest <f, G f>_pi / |f|^2_pi over centred f of the
    pi-symmetrised form G: the bottom eigenvalue of the symmetric part of
    D^{1/2} G D^{-1/2} on the orthogonal complement of sqrt(pi)."""
    root = np.sqrt(pi)
    balanced = root[:, None] * form / root[None, :]
    basis = np.linalg.qr(np.column_stack([root, np.eye(pi.size)]))[0][:, 1:]
    return float(np.linalg.eigvalsh(basis.T @ (balanced + balanced.T) @ basis).min()) / 2.0


def rand_gram(fam, lam):
    return helpers.gram("embed", [sum(fam.matrices) / fam.k], fam.pi.weights, lam)


class TestEveryObservable:
    """Each variance is the form <f, G f>_pi of helpers.gram on centred f, so
    an ordering for every observable is one symmetric eigenproblem."""

    @given(helpers.families(), st.sampled_from([0.0, 0.5, 0.9, 0.99]))
    def test_gram_matches_the_library(self, case, lam):
        fam, f = case
        pi = fam.pi.weights
        fc = f.values - pi @ f.values
        scale = float(pi @ (f.values * f.values))
        for value, form in (
            (var_lambda_strat(fam, f, lam), helpers.gram("embed", fam.matrices, pi, lam)),
            (var_lambda_rand(fam, f, lam), rand_gram(fam, lam)),
        ):
            assert float(fc @ (pi * (form @ fc))) == pytest.approx(
                value, abs=1e-8 * max(scale, abs(value))
            )

    @given(helpers.families(k=2), st.sampled_from([0.5, 0.9, 0.99]))
    def test_two_kernels_order_every_observable(self, case, lam):
        # a dense solve of condition up to 2 / (1 - lam) rounds the forms
        fam, _ = case
        strat = helpers.gram("embed", fam.matrices, fam.pi.weights, lam)
        bottom = centred_bottom(rand_gram(fam, lam) - strat, fam.pi.weights)
        assert bottom >= -1e-12 / (1.0 - lam)

    @given(helpers.families(k=2))
    def test_lazier_cycle_raises_every_variance(self, case):
        # Peskun ordering for every observable (Maire, Douc and Olsson, Ann.
        # Statist. 2014): holding in each kernel orders the cycle's forms
        fam, _ = case
        pi = fam.pi.weights
        for hold in (0.1, 0.5, 0.9):
            lazier = helpers.lazified(fam, hold)
            for lam in (0.5, 0.9, 0.99):
                gap = helpers.gram("embed", lazier.matrices, pi, lam) - helpers.gram(
                    "embed", fam.matrices, pi, lam
                )
                assert centred_bottom(gap, pi) >= -1e-12 / (1.0 - lam)

    def test_three_kernel_counterexample_for_every_observable(self):
        # on two states the one centred f is e1's, so the bottom eigenvalue
        # is the library's gap var_rand - var_strat there
        fam = make_family(helpers.E1_PI, helpers.K3_COUNTER_KERNELS)
        f = Observable(helpers.E1_F)
        for lam, pinned in ((0.9, -0.26088417), (0.99, -0.51193759)):
            strat = helpers.gram("embed", fam.matrices, fam.pi.weights, lam)
            bottom = centred_bottom(rand_gram(fam, lam) - strat, fam.pi.weights)
            assert bottom == pytest.approx(pinned, abs=1e-8)
            gap = var_lambda_rand(fam, f, lam) - var_lambda_strat(fam, f, lam)
            assert bottom == pytest.approx(gap, abs=1e-12)

    @given(helpers.dirichlet_families(), st.sampled_from([0.5, 0.9, 0.99]))
    def test_walk_orders_every_observable(self, fam, lam):
        # the forward/backward walk (T + T*) / 2 on (phase, state) loses to
        # the cycle for every observable at every k; at k = 2 it is random
        # scan, which for k >= 3 need not lose (next test)
        pi = fam.pi.weights
        strat = helpers.gram("embed", fam.matrices, pi, lam)
        walk = helpers.gram("symmetric", fam.matrices, pi, lam)
        assert centred_bottom(walk - strat, pi) >= -1e-12 / (1.0 - lam)

    def test_random_scan_counterexample_on_dirichlet_family(self):
        # three Metropolised Dirichlet kernels on three states: random scan
        # beats the cycle for some observable at 0.9 and 0.99, the walk never
        fam = helpers.dirichlet_family(np.random.default_rng(140), 3, 3)
        pi = fam.pi.weights
        for lam, pinned in ((0.9, -0.02105161), (0.99, -0.13093890)):
            strat = helpers.gram("embed", fam.matrices, pi, lam)
            walk = helpers.gram("symmetric", fam.matrices, pi, lam)
            assert centred_bottom(rand_gram(fam, lam) - strat, pi) == pytest.approx(
                pinned, abs=1e-8
            )
            assert centred_bottom(walk - strat, pi) >= 0.0


class TestBellman:
    def test_identity_operator(self):
        f = np.array([1.0, -1.0])
        value, argmax = bellman_value(np.eye(2), f, [0.5, 0.5])
        assert value == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(argmax, f, atol=1e-14)

    def test_scaling(self):
        f = np.array([1.0, -1.0])
        value, argmax = bellman_value(2.0 * np.eye(2), f, [0.5, 0.5])
        assert value == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(argmax, f / 2.0, atol=1e-14)

    def test_e1_mixed_kernel_operator(self, e1, e1_f):
        op = np.eye(2) - 0.5 * np.asarray([[0.75, 0.25], [0.25, 0.75]])
        value, argmax = bellman_value(op, e1_f, e1.pi)
        assert value == pytest.approx(4.0 / 3.0, abs=1e-12)
        # any perturbation of the optimiser strictly decreases the objective
        rng = np.random.default_rng(41)
        w = e1.pi.weights

        def objective(g):
            return 2.0 * float(np.dot(w, e1_f.values * g)) - float(
                np.dot(w, g * (op @ g))
            )

        assert objective(argmax) == pytest.approx(value, abs=1e-13)
        for _ in range(20):
            g = argmax + 0.1 * rng.standard_normal(2)
            assert objective(g) < value

    def test_probes_never_exceed(self):
        rng = np.random.default_rng(42)
        fam = helpers.random_family(rng, 5, 2)
        w = fam.pi.weights
        op = np.eye(5) - 0.7 * helpers.cycle_product(fam.matrices, 1, 1)
        f = rng.standard_normal(5)
        value, _ = bellman_value(op, f, w)
        for _ in range(200):
            g = rng.standard_normal(5)
            assert 2 * np.dot(w, f * g) - np.dot(w, g * (op @ g)) <= value + 1e-10

    def test_block_space_operator(self, e1, e1_f):
        # the symmetric-part resolvent system is positive self-adjoint on the
        # stacked space with phase-tiled weights; for two kernels its form
        # at the tiled f is the random scan's variance plus |f|^2
        from scanvar.embedding import CycleEmbedding

        lam = 0.5
        op = np.eye(4) - lam * CycleEmbedding(e1).realization("symmetric")
        fbar = np.tile(e1_f.values, (2, 1))
        value, argmax = bellman_value(op, fbar.ravel(), np.tile(e1.pi.weights, 2))
        solved = np.linalg.solve(op, fbar.ravel()).reshape(2, -1)
        assert value == pytest.approx(helpers.block_inner(fbar, solved, e1.pi), abs=1e-12)
        np.testing.assert_allclose(argmax, solved.ravel(), atol=1e-12)
        rand = var_lambda_rand(e1, e1_f, lam) + inner(e1_f, e1_f, e1.pi)
        assert value == pytest.approx(rand, abs=1e-12)

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(ValidationError):
            bellman_value(np.array([[1.0, 0.5], [0.0, 1.0]]), [1.0, 1.0], [0.5, 0.5])

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            bellman_value(-np.eye(2), [1.0, 1.0], [0.5, 0.5])


class TestVariationalIdentity:
    def test_reversible_kernel_reduces_to_resolvent(self, e1, e1_f):
        rep = variational_identity_check(e1.kernels[0], e1.pi, e1_f, 0.5)
        assert rep.residual <= 1e-9 and rep.max_probe_excess <= 1e-9
        assert rep.residual <= 1e-12
        # for a reversible kernel the skew part vanishes and the form is the
        # plain resolvent quadratic form
        expected = inner(
            e1_f,
            Observable(np.linalg.solve(np.eye(2) - 0.5 * e1.matrices[0], e1_f.values)),
            e1.pi,
        )
        assert rep.lhs == pytest.approx(expected, abs=1e-13)

    def test_lambda_zero_both_sides_norm(self, e1, e1_f):
        rep = variational_identity_check(e1.kernels[0], e1.pi, e1_f, 0.0)
        assert rep.lhs == pytest.approx(1.0, abs=1e-14)
        assert rep.rhs == pytest.approx(1.0, abs=1e-14)

    def test_nonreversible_cyclic_blend(self):
        cyc = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        kern = Kernel(0.5 * np.eye(3) + 0.5 * cyc)
        pi = Dist([1 / 3, 1 / 3, 1 / 3])
        f = Observable([1.0, 0.5, -1.5])
        rep = variational_identity_check(kern, pi, f, 0.5)
        assert rep.residual <= 1e-10
        assert rep.max_probe_excess <= 1e-10

    def test_rejects_non_invariant(self):
        kern = Kernel([[0.9, 0.1], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            variational_identity_check(kern, Dist([0.5, 0.5]), Observable([1.0, -1.0]), 0.5)


class TestPeskunDominance:
    def test_lazified_family_is_dominated(self):
        rng = np.random.default_rng(43)
        fam = helpers.random_family(rng, 5, 2)
        comparison = peskun_dominates(fam, helpers.lazified(fam, 0.3))
        assert comparison.min_dirichlet_gap_eigenvalue >= -1e-10
        assert all(low >= -1e-10 for low in comparison.per_kernel_min_eigenvalue)
        assert comparison.min_dirichlet_gap_eigenvalue >= -1e-12

    def test_self_comparison(self, e1):
        comparison = peskun_dominates(e1, e1)
        assert comparison.min_dirichlet_gap_eigenvalue >= -1e-10
        assert comparison.min_dirichlet_gap_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_reversed_roles_fail(self):
        rng = np.random.default_rng(44)
        fam = helpers.random_family(rng, 5, 2)
        comparison = peskun_dominates(helpers.lazified(fam, 0.3), fam)
        assert comparison.min_dirichlet_gap_eigenvalue < -1e-10
        assert comparison.min_dirichlet_gap_eigenvalue < -1e-6

    def test_least_eigenvalue_reads_every_kernel(self):
        # only kernel 2 is lazified, so only kernel 2 fails dominance, and
        # the least eigenvalue over the family is kernel 2's
        rng = np.random.default_rng(44)
        fam = helpers.random_family(rng, 5, 2)
        comparison = peskun_dominates(helpers.lazified(fam, [0.0, 0.3]), fam)
        first, second = comparison.per_kernel_min_eigenvalue
        assert first == pytest.approx(0.0, abs=1e-12)
        assert second < -1e-6
        assert comparison.min_dirichlet_gap_eigenvalue == second
        # so do the floors: kernel 1's is certified, kernel 2's is not
        first, second = comparison.per_kernel_floor
        assert first >= -1e-12 and second == -np.inf
        assert comparison.min_dirichlet_gap_floor == -np.inf

    def test_eigenvalues_match_direct_eigensolve(self):
        rng = np.random.default_rng(45)
        fam = helpers.random_family(rng, 4, 2)
        dominated = helpers.lazified(fam, 0.3)
        comparison = peskun_dominates(fam, dominated)
        root = np.sqrt(fam.pi.weights)
        for i in range(2):
            diff = dominated.matrices[i] - fam.matrices[i]
            sym = root[:, None] * diff / root[None, :]
            expected = float(np.linalg.eigvalsh((sym + sym.T) / 2)[0])
            assert comparison.per_kernel_min_eigenvalue[i] == pytest.approx(
                expected, abs=1e-12
            )

    def test_mismatched_families_rejected(self, e1):
        rng = np.random.default_rng(46)
        other = helpers.random_family(rng, 3, 2)
        with pytest.raises(ValidationError):
            peskun_dominates(e1, other)


def off_balance(fam, hold):
    """fam lazified by hold, then its last kernel moving mass from the
    lightest state's hold to the heaviest state, as much as keeps the
    relative balance residual within 0.9 REVERSIBILITY_TOL and the pair
    ordered: a family that leaves its target invariant only to that
    tolerance."""
    lazy, w = helpers.lazified(fam, hold), fam.pi.weights
    i, j = int(w.argmax()), int(w.argmin())
    m = lazy.matrices[-1].copy()
    flows = w[:, None] * m
    eps = min(0.9 * REVERSIBILITY_TOL * flows.max() / w[j], 0.5 * hold * fam.matrices[-1][j, i])
    m[j, i] += eps
    m[j, j] -= eps
    return make_family(w, [*lazy.matrices[:-1], m])


@st.composite
def peskun_pairs(draw):
    """Two-kernel families (fam_a, fam_b) on helpers.families' targets,
    whose weights run down to 1e-12: fam_b is fam_a lazified by one hold
    or one per kernel, or also moved off balance (both ordered off the
    diagonal); or the pair is reversed, or fam_b is (1 + d) K - d I of a
    lazified fam_a (not ordered); or fam_b is K + c (I - K)^2, which
    dominates fam_a and is not ordered where K^2 reaches past K."""
    fam, _ = draw(helpers.families(k=2))
    hold = draw(st.floats(1e-6, 1.0))
    kind = draw(st.sampled_from(["lazy", "each", "off-balance", "reversed", "eager", "squared"]))
    if kind == "lazy":
        return fam, helpers.lazified(fam, hold)
    if kind == "each":
        return fam, helpers.lazified(fam, draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    if kind == "off-balance":
        return fam, off_balance(fam, hold)
    if kind == "reversed":
        return helpers.lazified(fam, hold), fam
    eye, w = np.eye(fam.n), fam.pi.weights
    if kind == "eager":
        base = helpers.lazified(fam, 0.5)
        d = draw(st.sampled_from([1e-12, 1e-10, 1e-6, 1e-2]))
        return base, make_family(w, [(1.0 + d) * m - d * eye for m in base.matrices])
    c = draw(st.floats(0.01, 0.5))
    return fam, make_family(w, [m + c * (eye - m) @ (eye - m) for m in fam.matrices])


@given(peskun_pairs())
def test_dominance_floor_lies_under_the_eigenvalue(pair):
    # each kernel's floor is finite exactly when the pair is ordered off
    # the diagonal, and lies under the least eigenvalue that eigvalsh
    # computes, so that no floor accepts at a tolerance where the
    # eigenvalue refuses
    fam_a, fam_b = pair
    comparison = peskun_dominates(*pair)
    off = ~np.eye(fam_a.n, dtype=bool)
    floors, eigenvalues = comparison.per_kernel_floor, comparison.per_kernel_min_eigenvalue
    for a, b, floor, eig in zip(fam_a.matrices, fam_b.matrices, floors, eigenvalues):
        assert (floor > -np.inf) == bool(((b - a)[off] <= 0.0).all())
        assert floor <= eig
        for t in (0.0, 1e-12, PSD_TOL):
            assert eig >= -t or not floor >= -t


@pytest.mark.parametrize("n", [2, 4, 20])
def test_dominance_floor_on_the_line(n):
    # the pair (K, (1 - h) K + h I - t I) is ordered off the diagonal and
    # its least eigenvalue is -t; t steps in 1e-16 across PSD_TOL, where
    # the eigenvalue's verdict changes, and across the floor's own line,
    # its allowance below: the verdict the CLI reads (the floor, else the
    # eigenvalue) is the eigenvalue's at every step
    for seed in range(4):
        base = helpers.random_family(np.random.default_rng(seed), n, 1)
        a, w, eye = base.matrices[0], base.pi.weights, np.eye(n)
        lazy = 0.7 * a + 0.3 * eye
        allowance = -PSD_TOL - _floor(a, lazy - PSD_TOL * eye, w)
        verdicts = set()
        for line in (PSD_TOL, PSD_TOL - allowance):
            for step in range(-30, 30):
                b = lazy - (line + step * 1e-16) * eye
                floor, eig = _floor(a, b, w), _least_eigenvalue(a, b, w)
                assert floor <= eig, (seed, step)
                verdicts.add((floor >= -PSD_TOL, eig >= -PSD_TOL))
        assert verdicts == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize(
    "a, s",
    [
        ([[0.5, 0.5], [0.5, 0.5]], 0.5),
        ([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]], 1.0),
    ],
)
def test_dominance_floor_allows_for_the_eigensolver(a, s):
    # on these pairs (K, (K + I) / 2) on a uniform target every sum is
    # exact: the Collatz-Wielandt bound is 0 and |sym|_2 <= s, and the
    # floor lies at least eigvalsh's backward error, 16 n eps s, below it
    a = np.array(a)
    n = len(a)
    floor = _floor(a, (a + np.eye(n)) / 2.0, np.full(n, 1.0 / n))
    assert -1e-13 < floor <= -16 * n * np.finfo(float).eps * s


def test_dominance_floor_reads_the_stationarity_term():
    # d = I - P for P = [[0, 1], [0, 1]], which does not leave the uniform
    # target invariant: d's rows sum to zero and it is ordered off the
    # diagonal, yet sym's least eigenvalue is (1 - sqrt 2) / 2; only the
    # column term (pi' d)_1 / pi_1 = -1 brings the floor under it
    a, w = np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([0.5, 0.5])
    eig = _least_eigenvalue(a, np.eye(2), w)
    assert eig == pytest.approx((1.0 - np.sqrt(2.0)) / 2.0)
    assert _floor(a, np.eye(2), w) <= eig


def test_dominance_floor_past_a_floats_range():
    # a weight of 1e-320 and a flow of 1e-11 into its state, which the
    # balance tolerance allows: (pi' d)_0 / pi_0 overflows, and the floor
    # is -inf, with no warning
    w = [1e-320, 0.5, 0.5]
    a = make_family(w, [[[1.0, 0.0, 0.0], [2e-11, 0.5 - 2e-11, 0.5], [0.0, 0.5, 0.5]]])
    b = make_family(w, [[[1.0, 0.0, 0.0], [1e-11, 0.5 - 1e-11, 0.5], [0.0, 0.5, 0.5]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comparison = peskun_dominates(a, b)
    assert comparison.per_kernel_floor == (-np.inf,)
    assert comparison.min_dirichlet_gap_eigenvalue < -1e100


class TestCheckPeskunOrdering:
    def test_e1_versus_lazified(self, e1, e1_f):
        dominated = helpers.lazified(e1, 0.5)
        rows = check_peskun_ordering(e1, dominated, e1_f, [0.5, 1.0])
        assert peskun_dominates(e1, dominated).min_dirichlet_gap_eigenvalue >= -1e-10
        assert all(row.gap >= -NUMERIC_TOL for row in rows)
        assert rows[-1].method == "limit"
        for row in rows:
            assert row.gap >= -1e-10
            assert np.isnan(row.gap_lower_bound)

    def test_self_comparison_equality(self, e1, e1_f):
        rows = check_peskun_ordering(e1, e1, e1_f, [0.3, 0.9, 1.0])
        assert peskun_dominates(e1, e1).min_dirichlet_gap_eigenvalue >= -1e-10
        for row in rows:
            assert abs(row.gap) <= 1e-10

    def test_strong_lazification_large_gap(self, e1, e1_f):
        dominated = helpers.lazified(e1, 0.99)
        (row,) = check_peskun_ordering(e1, dominated, e1_f, [0.9])
        assert row.gap >= -NUMERIC_TOL
        assert row.gap == row.var_b - row.var_a > 1.0

    def test_shape_refused_before_kernel_count(self, e1_f):
        # both refusals come before the grid is read
        three = make_family(helpers.E1_PI, helpers.K3_COUNTER_KERNELS)
        other = helpers.random_family(np.random.default_rng(46), 3, 3)
        with pytest.raises(ValidationError, match="differ in shape"):
            check_peskun_ordering(three, other, e1_f, [1.5])
        with pytest.raises(ValueError, match="exactly two kernels"):
            check_peskun_ordering(three, three, e1_f, [1.5])

    def test_failed_dominance_still_reports(self, e1, e1_f):
        stronger = helpers.lazified(e1, 0.5)
        rows = check_peskun_ordering(stronger, e1, e1_f, [0.5, 1.0])
        assert peskun_dominates(stronger, e1).min_dirichlet_gap_eigenvalue < -1e-10
        assert len(rows) >= 1


# The rows of both checkers, which read a grid alike: a limit row only when
# a grid value asks for it.
GRID_CHECKERS = pytest.mark.parametrize(
    "limit_rows",
    [
        check_scan_ordering,
        lambda fam, f, grid: check_peskun_ordering(fam, fam, f, grid),
    ],
    ids=["scan", "peskun"],
)


@GRID_CHECKERS
@pytest.mark.parametrize("one", [1.0, 1.0 + 1e-13, 1.0 - 1e-13])
def test_grid_value_near_one_is_the_limit_row(e1, e1_f, limit_rows, one):
    rows = limit_rows(e1, e1_f, [0.5, one])
    assert [(r.lam, r.method) for r in rows] == [(0.5, "resolvent"), (1.0, "limit")]
    assert [r.lam for r in limit_rows(e1, e1_f, [0.5])] == [0.5]


def test_refused_rand_limit_drops_the_limit_row():
    # the mixed kernel of a pair flipping with probability 1e-9 has a second
    # eigenvalue within 1e-8 of one: the limit row goes, the discount row stays
    sticky = [[1.0 - 1e-9, 1e-9], [1e-9, 1.0 - 1e-9]]
    fam = make_family([0.5, 0.5], [sticky, sticky])
    rows = check_scan_ordering(fam, Observable([1.0, -1.0]), [0.5, 1.0])
    assert [(r.lam, r.method) for r in rows] == [(0.5, "resolvent")]


def test_refused_rand_limit_alone_is_raised():
    # with no discount row before it, the refused limit row is not dropped
    sticky = [[1.0 - 1e-9, 1e-9], [1e-9, 1.0 - 1e-9]]
    fam = make_family([0.5, 0.5], [sticky, sticky])
    with pytest.raises(ReducibilityError, match="mixed kernel has 2 eigenvalues"):
        check_scan_ordering(fam, Observable([1.0, -1.0]), (1.0,))


@GRID_CHECKERS
def test_refused_limit_alone_is_raised(limit_rows):
    # a swap pair's cycle never contracts: its limit row is dropped after a
    # discount row, and its refusal raised when the grid asks only for it;
    # the strat solve is guarded first, so the mixed kernel's count is
    # never read
    swap = [[0.0, 1.0], [1.0, 0.0]]
    fam, f = make_family([0.5, 0.5], [swap, swap]), Observable([1.0, -1.0])
    assert [r.method for r in limit_rows(fam, f, [0.5, 1.0])] == ["resolvent"]
    with pytest.raises(SummabilityError, match="cycle contraction 1 is not below 1"):
        limit_rows(fam, f, (1.0,))
    assert "_unit_count" not in fam.__dict__


@GRID_CHECKERS
@pytest.mark.parametrize("bad", [1.5, float("nan")])
def test_grid_checked_before_any_solve(e1, e1_f, monkeypatch, limit_rows, bad):
    solves = []
    for module in (scanvar.variance, scanvar.ordering):
        monkeypatch.setattr(module, "_cycle_solve", lambda *a, **k: solves.append(a))
    with pytest.raises(ValueError, match=rf"discount must lie in \[0, 1\), got {bad}"):
        limit_rows(e1, e1_f, [0.3, 1.0, bad])
    assert solves == []


# The discounts at which the two-kernel orderings are checked on generated
# families; 1 asks for the limit row.
PROPERTY_GRID = [0.0, 0.5, 0.9, 0.99, 1.0]


@given(helpers.families(k=2))
def test_two_kernel_scan_ordering_and_bound_hold(case):
    fam, f = case
    rows = check_scan_ordering(fam, f, PROPERTY_GRID)
    assert [r.lam for r in rows[:4]] == PROPERTY_GRID[:4]
    for r in rows:
        assert r.gap >= -NUMERIC_TOL and r.gap >= r.gap_lower_bound - NUMERIC_TOL


@given(helpers.families(k=2))
def test_closed_form_bound_and_rand_match_dense_routes(case):
    # the bound against the three dense solves of its definition, and the
    # random scan's one-block LU against a plain dense solve in the mean
    # kernel
    fam, f = case
    w = fam.pi.weights
    fc = center(f, fam.pi).values
    mean = helpers.fsum_mean(fam)
    for lam in PROPERTY_GRID[:4]:
        bound = gap_lower_bound(fam, f, lam)
        assert bound == pytest.approx(
            helpers.oracle_gap_bound(fam, f, lam), rel=1e-10, abs=1e-14 * np.dot(w, fc * fc)
        )
        dense = np.linalg.solve(np.eye(fam.n) - lam * mean, fc)
        rand = var_lambda_rand(fam, f, lam)
        assert rand == pytest.approx(2.0 * np.dot(w, fc * dense) - np.dot(w, fc * fc), rel=1e-12)
    # at discount zero both solves return the right-hand side bit for bit,
    # every per-phase inner product rounds alike, and the bound and the gap
    # are exactly zero
    for scheme in ("strat", "rand"):
        fbar, y = scanvar.variance._solve(fam, f, 0.0, scheme)
        np.testing.assert_array_equal(y, fbar)
    assert gap_lower_bound(fam, f, 0.0) == 0.0
    (row,) = check_scan_ordering(fam, f, [0.0])
    assert row.gap == 0.0 and row.var_a == row.var_b


def _limit_or_none(fam, f, scheme):
    """var_limit, or None where the solve at discount one refuses it."""
    try:
        return var_limit(fam, f, scheme)
    except (SummabilityError, ReducibilityError):
        return None


@given(helpers.families())
def test_scan_rows_are_the_public_variances(case):
    # one route: each row is var_lambda_strat and var_lambda_rand at its
    # discount and var_limit on the limit row, bit for bit, with the gap
    # bound of two kernels (0 in the limit) and NaN for any other number
    fam, f = case
    two = fam.k == 2
    rows = check_scan_ordering(fam, f, PROPERTY_GRID)
    for row in rows[:4]:
        assert row.var_a == var_lambda_strat(fam, f, row.lam)
        assert row.var_b == var_lambda_rand(fam, f, row.lam)
        bound = gap_lower_bound(fam, f, row.lam) if two else np.nan
        np.testing.assert_array_equal(row.gap_lower_bound, bound)
    limit = [_limit_or_none(fam, f, scheme) for scheme in ("strat", "rand")]
    if None in limit:
        assert [r.lam for r in rows] == PROPERTY_GRID[:4]
    else:
        assert [rows[4].lam, rows[4].var_a, rows[4].var_b] == [1.0, *limit]
        np.testing.assert_array_equal(rows[4].gap_lower_bound, 0.0 if two else np.nan)


@given(helpers.families(k=2), st.sampled_from([0.3, 0.9]))
def test_peskun_rows_are_the_strat_variances(case, hold):
    # each row is the two families' var_lambda_strat at its discount and
    # their var_limit(strat) on the limit row, bit for bit
    fam_a, f = case
    fam_b = make_family(fam_a.pi.weights, [lazy(k, hold) for k in fam_a.kernels])
    rows = check_peskun_ordering(fam_a, fam_b, f, PROPERTY_GRID)
    for row in rows[:4]:
        assert row.var_a == var_lambda_strat(fam_a, f, row.lam)
        assert row.var_b == var_lambda_strat(fam_b, f, row.lam)
        assert np.isnan(row.gap_lower_bound)
    limit = [_limit_or_none(fam, f, "strat") for fam in (fam_a, fam_b)]
    if None in limit:
        assert [r.lam for r in rows] == PROPERTY_GRID[:4]
    else:
        assert [rows[4].lam, rows[4].var_a, rows[4].var_b] == [1.0, *limit]


@given(helpers.families(k=1))
def test_one_kernel_gap_is_exactly_zero(case):
    # the cycle of one kernel is its mixed kernel: both schemes take the
    # same solve, at every discount and in the limit
    fam, f = case
    grid = PROPERTY_GRID if helpers.oracle_near_one_count(fam) == 1 else PROPERTY_GRID[:4]
    for row in check_scan_ordering(fam, f, grid):
        assert row.gap == 0.0 and row.var_a == row.var_b


@given(helpers.families())
def test_gap_at_discount_zero_is_exactly_zero(case):
    # at discount zero every solve returns the centred f bit for bit, so
    # both variances are its squared norm, for any number of kernels
    fam, f = case
    (row,) = check_scan_ordering(fam, f, [0.0])
    assert row.gap == 0.0 and row.var_a == row.var_b


@given(helpers.families(k=2))
def test_lazified_family_is_dominated_and_ordered(case):
    fam, f = case
    for hold in (0.3, 0.9):
        dominated = helpers.lazified(fam, hold)
        assert peskun_dominates(fam, dominated).min_dirichlet_gap_eigenvalue >= -1e-10
        rows = check_peskun_ordering(fam, dominated, f, PROPERTY_GRID)
        assert [r.lam for r in rows[:4]] == PROPERTY_GRID[:4]
        assert all(r.gap >= -NUMERIC_TOL for r in rows)
        path = BetaPath(fam, dominated)
        for lam in (0.5, 0.9, 0.99):
            for beta in (0.0, 0.5, 1.0):
                scale = max(1.0, abs(path.delta(f, lam, beta)))
                assert path.derivative(f, lam, beta) >= -1e-9 * scale


class TestBetaDerivative:
    def test_equal_families_zero(self, e1, e1_f):
        assert BetaPath(e1, e1).derivative(e1_f, 0.5, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_lambda_zero(self, e1, e1_f):
        dominated = helpers.lazified(e1, 0.5)
        assert BetaPath(e1, dominated).derivative(e1_f, 0.0, 0.5) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_matches_central_differences(self, e1, e1_f):
        dominated = helpers.lazified(e1, 0.5)
        path = BetaPath(e1, dominated)
        h = 1e-5
        for lam in (0.3, 0.6, 0.9):
            for beta in (0.0, 0.5, 1.0):
                closed = path.derivative(e1_f, lam, beta)
                fd = (path.delta(e1_f, lam, beta + h) - path.delta(e1_f, lam, beta - h)) / (
                    2 * h
                )
                assert closed >= 0.0
                assert abs(closed - fd) <= 1e-6 * max(abs(closed), abs(fd))

    def test_delta_nondecreasing_for_dominated_pair(self):
        rng = np.random.default_rng(47)
        fam = helpers.random_family(rng, 4, 2)
        dominated = helpers.lazified(fam, 0.4)
        f = helpers.random_centered(rng, fam)
        path = BetaPath(fam, dominated)
        grid = np.linspace(0.0, 1.0, 11)
        values = [path.delta(f, 0.7, float(b)) for b in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_endpoints_reproduce_families(self, e1, e1_f):
        dominated = helpers.lazified(e1, 0.5)
        path = BetaPath(e1, dominated)
        for block, expected in zip(path.blocks(0.0), e1.matrices):
            np.testing.assert_array_equal(block, expected)
        for block, expected in zip(path.blocks(1.0), dominated.matrices):
            np.testing.assert_array_equal(block, expected)
        lam = 0.5
        # delta at the endpoints equals the resolvent form of each family,
        # which carries the cycle variance
        for beta, fam in ((0.0, e1), (1.0, dominated)):
            expected = (var_lambda_strat(fam, e1_f, lam) + 1.0) * fam.k / 2.0
            assert path.delta(e1_f, lam, beta) == pytest.approx(expected, abs=1e-11)


class TestPalindrome:
    def test_two_generators(self):
        rng = np.random.default_rng(48)
        pi = helpers.random_dist(rng, 4)
        gens = [random_reversible(pi, s) for s in (100, 200)]
        f = Observable(rng.standard_normal(4))
        cases = palindrome_check(gens, pi, 0.5, f)
        cycles = {case.cycle for case in cases}
        assert (2, 1, 2) in cycles and (1, 2) in cycles
        for case in cases:
            assert case.max_component_gap <= 1e-11
            assert case.min_derivative >= -1e-9

    def test_three_generators(self):
        rng = np.random.default_rng(49)
        pi = helpers.random_dist(rng, 4)
        gens = [random_reversible(pi, s) for s in (7, 8, 9)]
        f = Observable(rng.standard_normal(4))
        cases = palindrome_check(gens, pi, 0.5, f)
        for case in cases:
            assert case.max_component_gap <= 1e-11
            assert case.min_derivative >= -1e-9
        cycles = {case.cycle for case in cases}
        assert (3, 2, 1, 2, 3) in cycles and (2, 1, 2, 3) in cycles

    def test_identity_generators_zero_derivative(self):
        pi = Dist([0.25, 0.75])
        gens = [Kernel(np.eye(2)), Kernel(np.eye(2))]
        for case in palindrome_check(gens, pi, 0.5, Observable([1.0, -1.0])):
            assert case.min_derivative == pytest.approx(0.0, abs=1e-13)
            assert max(abs(d) for d in case.derivatives) <= 1e-13

    def test_one_resolvent_pair_per_beta(self, monkeypatch):
        rng = np.random.default_rng(48)
        pi = helpers.random_dist(rng, 4)
        gens = [random_reversible(pi, s) for s in (100, 200)]
        f = Observable(rng.standard_normal(4))
        betas = [0.0, 0.5, 1.0]
        # each case's derivatives are BetaPath's, from its one resolvent
        # pair at each blend weight
        monkeypatch.setattr(helpers, "PALINDROME_BETAS", len(betas))
        cases = palindrome_check(gens, pi, 0.5, f)
        monkeypatch.undo()
        for case in cases:
            kernels = [gens[j - 1] for j in case.cycle]
            perturbed = list(kernels)
            index = case.distinguished_index - 1
            perturbed[index] = lazy(perturbed[index], 0.5)
            path = BetaPath(
                make_family(pi.weights, kernels), make_family(pi.weights, perturbed)
            )
            assert case.derivatives == tuple(path.derivative(f, 0.5, b) for b in betas)

    def test_needs_two_generators(self):
        pi = Dist([0.5, 0.5])
        with pytest.raises(ValueError):
            palindrome_check([Kernel(np.eye(2))], pi, 0.5, Observable([1.0, -1.0]))


class TestProjectionVarianceIdentity:
    def test_two_component_gibbs(self):
        rng = np.random.default_rng(50)
        w = rng.random(6) + 0.1
        joint = Dist(w / w.sum())
        fam = make_family(
            joint.weights,
            [gibbs_kernel(joint, (2, 3), 1), gibbs_kernel(joint, (2, 3), 2)],
        )
        f = helpers.random_centered(rng, fam)
        norm_sq = inner(f, f, fam.pi)
        lhs = var_limit(fam, f, "rand")
        rhs = 2.0 * var_limit(fam, f, "strat") - norm_sq
        assert lhs == pytest.approx(rhs, abs=1e-10)
