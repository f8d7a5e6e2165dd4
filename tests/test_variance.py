"""Unit tests for discounted variances, limits, finite-horizon values and laws."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import joint_law_exact, var_lambda_strat_series
from scanvar import variance
from scanvar.embedding import CycleEmbedding
from scanvar.kernels import (
    Dist,
    Observable,
    ReducibilityError,
    SummabilityError,
    ValidationError,
    make_family,
    random_reversible,
    random_scan,
)
from scanvar.variance import (
    finite_m_variance_exact,
    summability_check,
    var_lambda_rand,
    var_lambda_strat,
    var_limit,
)


EPS = float(np.finfo(float).eps)


def identity_family(k=2):
    return make_family([0.5, 0.5], [np.eye(2)] * k)


def step_contraction(mats, pi) -> tuple[float, int]:
    """(alpha, p): a per-step contraction alpha = s^(1 / (p k)) of the
    centred cycle Q = K_1 ... K_k - 1 pi', s = |Q^p|_pi, the smallest over
    p = 1, 2, 4, ... until s < 1/2, or (inf, 0) when no s is below one. Q^p is read in the balanced basis, where the
    pi-norm is the 2-norm, and s carries 8 p (n + k) eps for the rounding
    of the squarings and of the norm."""
    root = np.sqrt(pi)
    prod = helpers.cycle_product(mats, 1, len(mats))
    power = root[:, None] * prod / root[None, :] - np.outer(root, root)
    best, p = (math.inf, 0), 1
    for _ in range(40):
        s = float(np.linalg.norm(power, 2)) + 8.0 * p * (pi.size + len(mats)) * EPS
        if s < 1.0:
            best = min(best, (s ** (1.0 / (p * len(mats))), p))
        if s < 0.5:
            break
        power, p = power @ power, 2 * p
    return best


class TestVarLambdaStrat:
    def test_identity_kernels_geometric(self, e1_f):
        fam = identity_family()
        assert var_lambda_strat(fam, e1_f, 0.5) == pytest.approx(3.0, abs=1e-12)
        for lam in (0.0, 0.3, 0.9):
            expected = (1.0 + lam) / (1.0 - lam)
            assert var_lambda_strat(fam, e1_f, lam) == pytest.approx(expected, abs=1e-9)

    def test_e1_anchor_both_methods(self, e1, e1_f):
        assert var_lambda_strat(e1, e1_f, 0.5) == pytest.approx(
            helpers.E1_VAR_STRAT_HALF, abs=1e-12
        )
        value, bound = var_lambda_strat_series(e1, e1_f, 0.5, terms=200)
        assert value == pytest.approx(helpers.E1_VAR_STRAT_HALF, abs=1e-12)
        assert bound < 1e-30
        exact = helpers.exact_variance(e1, e1_f, 0.5, "strat")
        assert exact == pytest.approx(helpers.E1_VAR_STRAT_HALF, rel=1e-15)

    def test_lambda_zero_norm(self, e1, e1_f):
        assert var_lambda_strat(e1, e1_f, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_centering_is_internal(self, e1, e1_f):
        shifted = Observable(e1_f.values + 5.0)
        assert var_lambda_strat(e1, shifted, 0.5) == pytest.approx(
            var_lambda_strat(e1, e1_f, 0.5), abs=1e-12
        )

    def test_matches_brute_force_series(self):
        rng = np.random.default_rng(30)
        for _ in range(3):
            fam = helpers.random_family(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
            f = helpers.random_centered(rng, fam)
            lam = 0.6
            oracle = helpers.oracle_var_strat(fam, f, lam, terms=120)
            tail = 2.0 * lam**121 / (1 - lam)
            assert abs(var_lambda_strat(fam, f, lam) - oracle) <= tail + 1e-9

    @given(helpers.families())
    def test_series_agrees_with_resolvent_within_bound(self, case):
        fam, f = case
        for lam in (0.0, 0.5, 0.9, 0.99):
            resolvent = var_lambda_strat(fam, f, lam)
            series, bound = var_lambda_strat_series(fam, f, lam, terms=400)
            assert abs(resolvent - series) <= bound + 1e-9 * max(1.0, abs(resolvent))

    def test_invalid_inputs(self, e1, e1_f):
        with pytest.raises(ValueError):
            var_lambda_strat(e1, e1_f, 1.0)


class TestVarLambdaRand:
    def test_e1_anchor(self, e1, e1_f):
        assert var_lambda_rand(e1, e1_f, 0.5) == pytest.approx(
            helpers.E1_VAR_RAND_HALF, abs=1e-12
        )
        exact = helpers.exact_variance(e1, e1_f, 0.5, "rand")
        assert exact == pytest.approx(helpers.E1_VAR_RAND_HALF, rel=1e-15)

    def test_lambda_zero(self, e1, e1_f):
        assert var_lambda_rand(e1, e1_f, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_identity_family_matches_strat(self, e1_f):
        fam = identity_family()
        for lam in (0.2, 0.7):
            assert var_lambda_rand(fam, e1_f, lam) == pytest.approx(
                (1 + lam) / (1 - lam), abs=1e-10
            )

    def test_equal_kernels_schemes_coincide(self, e1_f):
        fam = make_family([0.5, 0.5], [helpers.E1_P1, helpers.E1_P1])
        for lam in (0.0, 0.3, 0.6, 0.9, 0.99):
            assert var_lambda_strat(fam, e1_f, lam) == pytest.approx(
                var_lambda_rand(fam, e1_f, lam), abs=1e-10
            )


def test_nearly_constant_f_near_one_prints_the_exact_digits():
    # a target weight near 1e-12 carries f's only large deviation, and f is
    # constant to 1e-9 elsewhere: at discount 0.999999 the solve multiplies
    # what centring leaves off the mean by about 1e6, so every printed value
    # must still match the exact rational value to 9 significant digits
    wrong = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w = rng.random(7) + 0.05
        w[0] *= 1e-12
        pi = Dist(w / w.sum())
        fam = make_family(pi.weights, [random_reversible(pi, seed), random_reversible(pi, seed + 1)])
        f = 1.0 + 1e-9 * rng.standard_normal(7)
        f[0] = 1.01
        f = Observable(f)
        for scheme, var in (("strat", var_lambda_strat), ("rand", var_lambda_rand)):
            got = format(var(fam, f, 0.999999), ".9g")
            exact = format(helpers.exact_variance(fam, f, 0.999999, scheme), ".9g")
            if got != exact:
                wrong.append((seed, scheme, got, exact))
    assert wrong == []


def test_light_state_carrying_f_prints_the_exact_digits_at_099():
    # f's only large deviation sits on a state of weight near 1e-12, so the
    # solution's largest entry is there while its weighted norm is set by
    # the heavy states: the cycle's factorisation must round with that
    # norm, or its residual exceeds the guard and a right value is refused
    wrong = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        w = rng.random(6) + 0.05
        w[seed % 6] *= 1e-12
        pi = Dist(w / w.sum())
        fam = make_family(pi.weights, [random_reversible(pi, seed), random_reversible(pi, seed + 1)])
        f = 1.0 + 1e-9 * rng.standard_normal(6)
        f[seed % 6] = 1.01
        f = Observable(f)
        for scheme, var in (("strat", var_lambda_strat), ("rand", var_lambda_rand)):
            exact = format(helpers.exact_variance(fam, f, 0.99, scheme), ".9g")
            try:
                got = format(var(fam, f, 0.99), ".9g")
            except np.linalg.LinAlgError:
                got = "refused"
            if got != exact:
                wrong.append((seed, scheme, got, exact))
    assert wrong == []


def test_constant_f_centres_to_zero_on_a_rounded_target():
    # this target's weights sum to 1 - 1.1e-16 in floating point, so the
    # pi-mean of a constant f is not f itself; centring must still give
    # exact zeros, whose variance is zero at every discount and in the limit
    pi = helpers.random_dist(np.random.default_rng(0), 5)
    assert np.dot(pi.weights, np.ones(5)) != 1.0
    fam = make_family(pi.weights, [random_reversible(pi, 0), random_reversible(pi, 1)])
    for value in (1.0, 3.0):
        f = Observable(np.full(5, value))
        for scheme, var in (("strat", var_lambda_strat), ("rand", var_lambda_rand)):
            assert var_limit(fam, f, scheme) == 0.0
            assert var(fam, f, 0.5) == var(fam, f, 0.999999) == 0.0
    # one ulp off constant on a state of weight near 1e-12: returned, not
    # refused, at and near discount one, with the exact digits below one
    w = pi.weights.copy()
    w[0] *= 1e-12
    pi = Dist(w / w.sum())
    fam = make_family(pi.weights, [random_reversible(pi, 0), random_reversible(pi, 1)])
    f = np.full(5, 3.0)
    f[0] = np.nextafter(3.0, 4.0)
    f = Observable(f)
    for scheme, var in (("strat", var_lambda_strat), ("rand", var_lambda_rand)):
        exact = helpers.exact_variance(fam, f, 0.999999, scheme)
        assert format(var(fam, f, 0.999999), ".9g") == format(exact, ".9g")
        assert 0.0 < var_limit(fam, f, scheme) < math.inf


class TestSummability:
    def test_e1_contraction(self, e1):
        report = summability_check(e1)
        assert report.absolutely_summable
        assert report.cycle_contraction == pytest.approx(
            helpers.E1_CYCLE_CONTRACTION, abs=1e-12
        )

    def test_identity_kernels_not_summable(self):
        report = summability_check(identity_family())
        assert not report.absolutely_summable
        assert report.cycle_contraction == pytest.approx(1.0, abs=1e-12)

    def test_periodic_swap_not_summable(self):
        swap = [[0.0, 1.0], [1.0, 0.0]]
        report = summability_check(make_family([0.5, 0.5], [swap, swap]))
        assert not report.absolutely_summable
        assert report.cycle_contraction == pytest.approx(1.0, abs=1e-12)

    def test_oracle_eigenvalue(self):
        rng = np.random.default_rng(32)
        fam = helpers.random_family(rng, 5, 2)
        cycle = helpers.cycle_product(fam.matrices, 1, 2)
        eigs = np.linalg.eigvals(cycle)
        # drop the simple eigenvalue 1 carried by constants
        drop = int(np.argmin(np.abs(eigs - 1.0)))
        rest = np.delete(eigs, drop)
        assert summability_check(fam).cycle_contraction == pytest.approx(
            float(np.abs(rest).max()), abs=1e-9
        )


    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_contraction_shared_by_every_rotation(self, k):
        rng = np.random.default_rng(34 + k)
        fam = helpers.random_family(rng, 6, k)
        centre = np.outer(np.ones(fam.n), fam.pi.weights)
        contraction = summability_check(fam).cycle_contraction
        for q in range(1, k + 1):
            cycle = helpers.cycle_product(fam.matrices, q, k) - centre
            radius = float(np.abs(np.linalg.eigvals(cycle)).max())
            assert contraction == pytest.approx(radius, abs=1e-12)


class TestVarLimit:
    def test_e1_anchors(self, e1, e1_f):
        assert var_limit(e1, e1_f, "strat") == pytest.approx(
            helpers.E1_LIMIT_STRAT, abs=1e-12
        )
        assert var_limit(e1, e1_f, "rand") == pytest.approx(
            helpers.E1_LIMIT_RAND, abs=1e-12
        )

    def test_constant_function_gives_zero(self, e1):
        const = Observable([2.0, 2.0])
        assert var_limit(e1, const, "strat") == pytest.approx(0.0, abs=1e-14)
        assert var_limit(e1, const, "rand") == pytest.approx(0.0, abs=1e-14)

    def test_near_one_discount_approximates_limit(self, e1, e1_f):
        lam = 1.0 - 1e-6
        assert var_lambda_strat(e1, e1_f, lam) == pytest.approx(
            var_limit(e1, e1_f, "strat"), abs=1e-4
        )
        assert var_lambda_rand(e1, e1_f, lam) == pytest.approx(
            var_limit(e1, e1_f, "rand"), abs=1e-4
        )

    @given(helpers.families(scales=helpers.TINY_SCALES))
    def test_discount_rows_near_one_approach_the_limit(self, case):
        # wherever a verdict admits the limit, the rows at 1 - 1e-6 and
        # 1 - 1e-9 solve, and the gap to the limit shrinks with the
        # distance to one, down to the rounding of the values: the
        # centring's rounding scales with the uncentred |f|^2_pi
        fam, f = case
        norm_sq = float(np.dot(fam.pi.weights, f.values * f.values))
        for scheme, admitted, at in (
            ("strat", fam._summable, var_lambda_strat),
            ("rand", fam._unit_count == 1, var_lambda_rand),
        ):
            if not admitted:
                continue
            limit = var_limit(fam, f, scheme)
            gap = [abs(at(fam, f, 1.0 - delta) - limit) for delta in (1e-6, 1e-9)]
            assert gap[1] <= 0.01 * gap[0] + 1e-9 * max(norm_sq, abs(limit))

    def test_richardson_extrapolation_consistency(self):
        rng = np.random.default_rng(33)
        for _ in range(3):
            fam = helpers.random_family(rng, int(rng.integers(3, 8)), int(rng.integers(1, 4)))
            f = helpers.random_centered(rng, fam)
            if not summability_check(fam).absolutely_summable:
                continue
            limit = var_limit(fam, f, "strat")
            hs = np.array([0.1, 0.01, 0.001])
            vals = np.array([var_lambda_strat(fam, f, 1.0 - h) for h in hs])
            # quadratic extrapolation to h = 0
            coeffs = np.polyfit(hs, vals, 2)
            extrapolated = float(np.polyval(coeffs, 0.0))
            assert abs(extrapolated - limit) <= 1e-4 * max(1.0, abs(limit))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_strat_matches_dense_deflated_block_solve(self, k):
        # (I - E + 1 w') y = fbar with w = pi (x) 1 / k on the kn x kn oracle
        rng = np.random.default_rng(35 + k)
        fam = helpers.random_family(rng, 6, k)
        f = helpers.random_centered(rng, fam)
        emb = CycleEmbedding(fam)
        w = np.tile(fam.pi.weights, k)
        system = np.eye(k * fam.n) - emb.realization("embed")
        system += np.outer(np.ones(k * fam.n), w / k)
        fbar = np.tile(f.values, k)
        y = np.linalg.solve(system, fbar)
        norm_sq = float(np.dot(fam.pi.weights, f.values**2))
        expected = (2.0 / k) * float(np.dot(w, fbar * y)) - norm_sq
        assert var_limit(fam, f, "strat") == pytest.approx(expected, rel=1e-12)

    def test_reducible_rand_raises(self, e1_f):
        with pytest.raises(ReducibilityError):
            var_limit(identity_family(), e1_f, "rand")

    def test_unsummable_strat_raises(self, e1_f):
        with pytest.raises(SummabilityError):
            var_limit(identity_family(), e1_f, "strat")

    def test_bad_scheme(self, e1, e1_f):
        with pytest.raises(ValueError):
            var_limit(e1, e1_f, "both")


class TestFiniteM:
    def test_single_step_is_norm(self, e1, e1_f):
        assert finite_m_variance_exact(e1, e1_f, 1, "strat") == pytest.approx(1.0)
        assert finite_m_variance_exact(e1, e1_f, 1, "rand") == pytest.approx(1.0)

    def test_e1_two_steps(self, e1, e1_f):
        assert finite_m_variance_exact(e1, e1_f, 2, "strat") == pytest.approx(
            1.8, abs=1e-14
        )
        assert finite_m_variance_exact(e1, e1_f, 2, "rand") == pytest.approx(
            1.5, abs=1e-14
        )

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(34)
        fam = helpers.random_family(rng, 4, 3)
        f = helpers.random_centered(rng, fam)
        for scheme in ("strat", "rand"):
            for m in (1, 2, 3, 7, 12):
                assert finite_m_variance_exact(fam, f, m, scheme) == pytest.approx(
                    helpers.oracle_finite_m(fam, f, m, scheme), abs=1e-11
                )

    def test_e1_large_horizon_near_limit(self, e1, e1_f):
        value = finite_m_variance_exact(e1, e1_f, 4096, "strat")
        assert abs(value - helpers.E1_LIMIT_STRAT) < 0.01

    def test_error_decays_like_one_over_m(self, e1, e1_f):
        limit = var_limit(e1, e1_f, "strat")
        grid = [2**6, 2**8, 2**10, 2**12]
        errors = [
            abs(finite_m_variance_exact(e1, e1_f, m, "strat") - limit) for m in grid
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        c = errors[0] * grid[0] * 1.5
        for m, err in zip(grid, errors):
            assert err <= c / m

    @given(helpers.families())
    def test_horizon_gap_times_m_settles(self, case):
        # With M = c k and R_q(L) the covariance tail sum_{h > L} c_q(h),
        # M (V_M - V) = -2 sum_q sum_{b < c} R_q(b k + k - 1 - q), so the
        # products at M and 2M differ by the 2 sum_q sum_{c <= b < 2c} terms.
        # |c_q(h)| <= |f|^2 alpha^(h + 2 - k - k p), since the h kernels
        # hold floor((h - lead) / (k p)) p-th powers of the phase-1 cycle,
        # lead < k, so the difference is at most
        # 2 k |f|^2 alpha^(c k + 3 - k - k p) / ((1 - alpha)(1 - alpha^k)).
        # c doubles until that falls below 1e-6 |f|^2: past the mixing
        # scale. The three values each round by about eps times their
        # scale and the mixing time 1 / (1 - alpha), weighted by M, 2M, M.
        fam, f = case
        pi = fam.pi.weights
        fc = f.values - pi @ f.values
        norm_sq = float(pi @ (fc * fc))
        for scheme, admitted in (("strat", fam._summable), ("rand", fam._unit_count == 1)):
            if not admitted:
                continue
            mats = fam.matrices if scheme == "strat" else (random_scan(fam).matrix,)
            k = len(mats)
            alpha, p = step_contraction(mats, pi)
            assert alpha < 1.0

            def log_bound(c):  # alpha > 0, as s >= 8 (n + k) eps
                tail = (1.0 - alpha) * (1.0 - alpha**k)
                exponent = c * k + 3 - k - k * p
                return math.log(2 * k * norm_sq / tail) + exponent * math.log(alpha)

            c = 1
            while log_bound(c) > math.log(1e-6 * norm_sq):
                c *= 2
            m, bound = c * k, math.exp(log_bound(c))
            limit = var_limit(fam, f, scheme)
            short, long = (finite_m_variance_exact(fam, f, h, scheme) for h in (m, 2 * m))
            scale = max(float(pi @ (f.values * f.values)), abs(limit))
            allowance = 16.0 * m * EPS * scale / (1.0 - alpha)
            assert abs(m * (short - limit) - 2 * m * (long - limit)) <= bound + allowance

    def test_rejects_bad_horizon(self, e1, e1_f):
        with pytest.raises(ValidationError, match="^steps must be at least 1, got 0$"):
            finite_m_variance_exact(e1, e1_f, 0, "strat")
        for m in (2**63, 10**400):
            with pytest.raises(ValidationError, match=r"^steps must be below 2\*\*63$"):
                finite_m_variance_exact(e1, e1_f, m, "strat")

    @pytest.mark.parametrize("m", [3.0, True, np.float64(3.0), np.True_, "3"])
    def test_horizon_must_be_an_integer(self, e1, e1_f, m):
        # the count rule SimulationConfig applies: a bool or a float is no count
        message = f"steps must be an integer, got {m!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            finite_m_variance_exact(e1, e1_f, m, "strat")

    @pytest.mark.parametrize("scheme", ["strat", "rand"])
    def test_numpy_integer_horizon_accepted(self, e1, e1_f, scheme):
        for m in (1, 3, 2**62):
            expected = finite_m_variance_exact(e1, e1_f, m, scheme)
            assert finite_m_variance_exact(e1, e1_f, np.int64(m), scheme) == expected

    @pytest.mark.parametrize("scheme", ["strat", "rand"])
    def test_longest_horizon_is_the_limit(self, e1, e1_f, scheme):
        value = finite_m_variance_exact(e1, e1_f, 2**63 - 1, scheme)
        assert value == pytest.approx(var_limit(e1, e1_f, scheme), rel=1e-12)


def route_values(fam, f, m_steps, scheme):
    """(lag loop, stepped, squared, |f|^2): the finite-horizon variance by
    the reference lag loop and by each evaluation of the cycle map, called
    directly, and the scale their tolerance is relative to."""
    if scheme == "rand":
        mats = (random_scan(fam).matrix,)
        prod = mats[0]
    else:
        mats, prod = fam.matrices, fam._cycle
    pi = fam.pi.weights
    fc = f.values - float(np.dot(pi, f.values))
    norm_sq = float(np.dot(pi, fc * fc))
    loop = norm_sq + 2.0 * helpers.lag_sum(mats, pi, fc, m_steps) / m_steps
    cycle_map = variance._cycle_map(mats, pi, fc, m_steps)
    stepped = norm_sq + 2.0 * variance._stepped(prod, *cycle_map) / m_steps
    squared = norm_sq + 2.0 * variance._squared(prod, pi, *cycle_map) / m_steps
    return loop, stepped, squared, norm_sq


def horizons(k):
    """Both sides of every cycle length and of two powers of two."""
    return sorted({1, 2, 3, k + 1, 15, 17, 127, 129, 4096} | ({k - 1, k} - {0}))


def assert_routes_agree(fam, f):
    for scheme in ("strat", "rand"):
        for m in horizons(fam.k):
            loop, stepped, squared, norm_sq = route_values(fam, f, m, scheme)
            for value in (stepped, squared):
                assert abs(value - loop) <= 1e-12 * max(abs(loop), norm_sq), (scheme, m)
            if m <= 5:
                oracle = helpers.oracle_finite_m(fam, f, m, scheme)
                for value in (loop, stepped, squared):
                    assert value == pytest.approx(oracle, rel=1e-11, abs=1e-12 * norm_sq)


def relabelled(fam, f, perm):
    """The family and observable with state perm[i] renamed i."""
    mats = [m[np.ix_(perm, perm)] for m in fam.matrices]
    return make_family(fam.pi.weights[perm], mats), Observable(f.values[perm])


def strat_values(fam, f):
    """var_lambda_strat at 0, 0.5, 0.9 and 0.99, then var_limit(strat) or
    the type of its refusal."""
    values = [var_lambda_strat(fam, f, lam) for lam in (0.0, 0.5, 0.9, 0.99)]
    try:
        values.append(var_limit(fam, f, "strat"))
    except (SummabilityError, np.linalg.LinAlgError) as err:
        values.append(type(err))
    return values


@given(helpers.families(), st.data())
def test_strat_invariant_under_relabelling_rotation_and_reversal(case, data):
    # every phase is summed, so a rotation of the cycle keeps the value; the
    # reversed cycle's windows are the adjoints of the original's
    fam, f = case
    mats = list(fam.matrices)
    shift = data.draw(st.integers(0, fam.k - 1))
    others = {
        "relabelled": relabelled(fam, f, data.draw(st.permutations(range(fam.n)))),
        "rotated": (make_family(fam.pi.weights, mats[shift:] + mats[:shift]), f),
        "reversed": (make_family(fam.pi.weights, mats[::-1]), f),
    }
    pi = fam.pi.weights
    norm_sq = float(np.dot(pi, (f.values - np.dot(pi, f.values)) ** 2))
    values = strat_values(fam, f)
    for name, other in others.items():
        for value, again in zip(values, strat_values(*other)):
            if isinstance(value, type) or isinstance(again, type):
                assert again is value, name
            else:
                assert abs(again - value) <= 1e-12 * max(abs(value), norm_sq), name


class TestFiniteMRoutes:
    """Both evaluations of the cycle map against the lag loop."""

    @settings(max_examples=10)
    @given(helpers.families())
    def test_routes_agree_on_generated_families(self, case):
        assert_routes_agree(*case)

    @pytest.mark.parametrize("k", [2, 3])  # rand is the one-kernel case
    @pytest.mark.parametrize(
        "kernel", [np.eye(2), [[0.0, 1.0], [1.0, 0.0]]], ids=["identity", "swap"]
    )
    def test_routes_agree_on_unit_modulus_families(self, kernel, k):
        weights = [0.3, 0.7] if np.trace(kernel) else [0.5, 0.5]
        fam = make_family(weights, [kernel] * k)
        assert_routes_agree(fam, Observable([1.5, -0.25]))

    # (scheme, n, k, first horizon that is squared); rand runs the
    # one-kernel case, here on a two-kernel family
    @pytest.mark.parametrize(
        "scheme, n, k, first",
        [
            ("rand", 2, 1, 26),
            ("strat", 2, 5, 122),
            ("rand", 30, 1, 57),
            ("strat", 30, 2, 112),
            ("strat", 150, 8, 1826),
            ("strat", 600, 2, 2084),
        ],
    )
    def test_evaluation_switches_at_the_choice(self, monkeypatch, scheme, n, k, first):
        taken = []
        monkeypatch.setattr(variance, "_stepped", lambda *a: taken.append("stepped") or 0.0)
        monkeypatch.setattr(variance, "_squared", lambda *a: taken.append("squared") or 0.0)
        fam = make_family(np.full(n, 1.0 / n), [np.eye(n)] * (k if scheme == "strat" else 2))
        f = Observable(np.arange(n, dtype=float))
        for m in (1, first - 1, first, first + 1, 64 * first):
            finite_m_variance_exact(fam, f, m, scheme)
        assert taken == ["stepped", "stepped", "squared", "squared", "squared"]

    @settings(max_examples=10)
    @given(helpers.families(), st.sampled_from([2, 17, 129, 4096]), st.data())
    def test_invariant_under_relabelling(self, case, m, data):
        fam, f = case
        other = relabelled(fam, f, data.draw(st.permutations(range(fam.n))))
        pi = fam.pi.weights
        norm_sq = float(np.dot(pi, (f.values - np.dot(pi, f.values)) ** 2))
        for scheme in ("strat", "rand"):
            value = finite_m_variance_exact(fam, f, m, scheme)
            again = finite_m_variance_exact(*other, m, scheme)
            assert abs(again - value) <= 1e-12 * max(abs(value), norm_sq), (scheme, m)

    @settings(max_examples=10)
    @given(helpers.families(), st.sampled_from([2, 17, 129, 4096]), st.data())
    def test_rand_bit_identical_under_kernel_reordering(self, case, m, data):
        fam, f = case
        order = data.draw(st.permutations(range(fam.k)))
        other = make_family(fam.pi.weights, [fam.matrices[i] for i in order])
        value = finite_m_variance_exact(fam, f, m, "rand")
        assert finite_m_variance_exact(other, f, m, "rand") == value

    @pytest.mark.parametrize("scheme", ["strat", "rand"])
    def test_matches_spectral_oracle_at_two_to_the_twenty(self, scheme):
        rng = np.random.default_rng(36)
        fam = helpers.random_family(rng, 4, 3)
        cases = [
            (helpers.e1_family(), Observable(helpers.E1_F)),
            (fam, helpers.random_centered(rng, fam)),
        ]
        for fam, f in cases:
            m = 2**20
            value = finite_m_variance_exact(fam, f, m, scheme)
            assert value == pytest.approx(
                helpers.oracle_finite_m_spectral(fam, f, m, scheme), rel=1e-10
            )

    def test_spectral_oracle_matches_pairwise_oracle(self):
        rng = np.random.default_rng(37)
        fam = helpers.random_family(rng, 4, 3)
        f = helpers.random_centered(rng, fam)
        for scheme in ("strat", "rand"):
            for m in (1, 2, 3, 4, 7):
                assert helpers.oracle_finite_m_spectral(fam, f, m, scheme) == pytest.approx(
                    helpers.oracle_finite_m(fam, f, m, scheme), rel=1e-12, abs=1e-14
                )


class TestJointLaw:
    def test_horizon_zero_is_target(self, e1):
        np.testing.assert_allclose(joint_law_exact(e1, 0, "strat"), e1.pi.weights)
        np.testing.assert_allclose(joint_law_exact(e1, 0, "embedded"), e1.pi.weights)

    def test_e1_one_step_value(self, e1):
        table = joint_law_exact(e1, 1, "strat")
        assert table[0, 1] == pytest.approx(0.05, abs=1e-15)
        outer = e1.pi.weights[:, None] * e1.matrices[0]
        np.testing.assert_allclose(table, outer, atol=1e-15)

    def test_tables_are_probabilities(self, e1):
        for m in (1, 2, 3):
            table = joint_law_exact(e1, m, "embedded")
            assert table.min() >= 0.0
            assert table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_embedded_equals_strat_e1(self, e1):
        for m in (1, 2, 3):
            a = joint_law_exact(e1, m, "strat")
            b = joint_law_exact(e1, m, "embedded")
            assert np.abs(a - b).max() <= 1e-12

    def test_embedded_equals_strat_random(self):
        rng = np.random.default_rng(35)
        for _ in range(4):
            fam = helpers.random_family(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)))
            for m in (1, 2, 3):
                a = joint_law_exact(fam, m, "strat")
                b = joint_law_exact(fam, m, "embedded")
                assert np.abs(a - b).max() <= 1e-12

    def test_size_guard(self, e1):
        with pytest.raises(ValueError):
            joint_law_exact(e1, 20, "strat")

    def test_alias_scheme_name(self, e1):
        for scheme in ("embedded-component", "sweep"):
            with pytest.raises(ValueError, match="scheme must be"):
                joint_law_exact(e1, 2, scheme)
