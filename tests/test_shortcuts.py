"""Shortcuts of the limit guards and solves against the nonsymmetric
routes.

The summability certificate must never accept a cycle whose contraction
is one or more and must accept every generated cycle that contracts by
more than 1e-9; the random-scan guard, a Cholesky certificate on the
mixed kernel that falls back to counting eigvalsh's eigenvalues, must
give the verdict of that count always, and the nonsymmetric eigenvalue
problem's count wherever no eigenvalue lies within its radius of the
1e-8 line, with no eigvals call; and every random-scan solve is the LU on
the mixed kernel alone: on property-generated families and on pinned
hostile ones.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from scanvar import embedding, variance
from scanvar.embedding import _cycle_solve
from scanvar.kernels import (
    REVERSIBILITY_TOL,
    Dist,
    Observable,
    ReducibilityError,
    SummabilityError,
    center,
    family_diagnostics,
    gibbs_kernel,
    make_family,
    random_reversible,
    random_scan,
)
from scanvar.variance import (
    SCHEMES,
    _variance,
    summability_check,
    var_lambda_rand,
    var_limit,
)

def no_eigvals(call):
    """call(), failing if it solves a nonsymmetric eigenproblem (a
    hypothesis test cannot take the function-scoped eigvals_calls)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigvals", lambda *a: pytest.fail("eigvals called"))
        return call()


def similar_mixed(fam) -> np.ndarray:
    """S = D^{1/2} K D^{-1/2} for the mixed kernel K, rounded as
    KernelFamily._unit_count rounds it."""
    root = np.sqrt(fam.pi.weights)
    return root[:, None] * random_scan(fam).matrix / root


def unit_radius(fam) -> float:
    """The Bauer-Fike radius of KernelFamily._unit_count."""
    s = similar_mixed(fam)
    return float(np.linalg.norm(s - s.T)) / 2.0 + 16.0 * fam.n * np.finfo(float).eps


def eigvalsh_count(fam) -> int:
    """The count that a refused certificate falls back to: the eigenvalues
    mu of the symmetric part of S with 1 - mu < 1e-8 + radius."""
    s = similar_mixed(fam)
    mu = np.linalg.eigvalsh((s + s.T) / 2.0)
    return int(np.sum(1.0 - mu < 1e-8 + unit_radius(fam)))


@given(helpers.families(scales=helpers.TINY_SCALES))
def test_certificate_never_contradicts_the_contraction(case):
    fam, _ = case
    if fam._summable:
        assert helpers.oracle_cycle_contraction(fam) < 1.0


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1)
)
def test_reducible_cycle_is_never_certified(a, b, k, seed):
    # kernels that all keep the classes {0..a-1} and {a..a+b-1} closed give
    # the centred cycle a unit eigenvalue; without the rounding allowance
    # the squared norms of about 40 % of these fall just below one
    rng = np.random.default_rng(seed)
    n = a + b
    w = rng.random(n) + 0.05
    w /= w.sum()
    mats = []
    for _ in range(k):
        mat = np.zeros((n, n))
        for lo, hi in ((0, a), (a, n)):
            part = Dist(w[lo:hi] / w[lo:hi].sum())
            mat[lo:hi, lo:hi] = random_reversible(part, int(rng.integers(2**62))).matrix
        mats.append(mat)
    assert not make_family(w, mats)._summable


@given(helpers.families(scales=helpers.TINY_SCALES))
def test_rand_guard_count_equals_eigvals_count(case):
    # the two counts may differ only where an eigenvalue lies within the
    # radius of the 1e-8 line, on which the guard counts it
    fam, _ = case
    count = no_eigvals(lambda: fam._unit_count)
    dist = np.abs(np.linalg.eigvals(helpers.fsum_mean(fam)) - 1.0)
    if not np.any(np.abs(dist - 1e-8) <= unit_radius(fam)):
        assert count == helpers.oracle_near_one_count(fam)


@given(helpers.families(scales=helpers.TINY_SCALES))
def test_rand_limit_makes_no_eigvals_call(case):
    fam, f = case
    try:
        no_eigvals(lambda: var_limit(fam, f, "rand"))
    except ReducibilityError:
        assert fam._unit_count > 1


@given(helpers.families(scales=helpers.TINY_SCALES))
def test_limit_decisions_match_the_eigvals_route(case):
    # every contraction below 1 - 1e-9 is certified; within 1e-9 of one
    # eigvals cannot tell a unit radius from its rounding anyway
    fam, _ = case
    if helpers.oracle_cycle_contraction(fam) <= 1.0 - 1e-9:
        assert fam._summable
    assert summability_check(fam).absolutely_summable is fam._summable


@given(helpers.families(holds=(0.0, 0.3, 0.9)))
def test_limit_values_match_dense_oracles(case):
    fam, f = case
    if fam._summable:
        assert var_limit(fam, f, "strat") == pytest.approx(
            helpers.oracle_var_limit(fam, f, "strat"), rel=1e-8, abs=1e-12
        )
    else:
        with pytest.raises(SummabilityError):
            var_limit(fam, f, "strat")
    if helpers.oracle_near_one_count(fam) == 1:
        assert var_limit(fam, f, "rand") == pytest.approx(
            helpers.oracle_var_limit(fam, f, "rand"), rel=1e-8, abs=1e-12
        )
    else:
        with pytest.raises(ReducibilityError):
            var_limit(fam, f, "rand")


def test_tiny_weight_residual_refusal():
    # A valid, irreducible one-kernel family with pi_0 ~ 9e-13. The weighted
    # norm of the centred f is about 1.7e-8, so the guard allows a residual
    # of 1.7e-18. One centring pass leaves pi . f at 1.4e-17, the rounding
    # of the uncentred f (|f|_pi ~ 0.33), which the deflated solve keeps as
    # its residual at discount one: refused. center, which first takes off
    # f's value at the heavy state, leaves 2e-30, the rounding of its own
    # norm: accepted.
    w = np.array([8.9417519e-13, 1.0])
    w /= w.sum()
    kernel = np.zeros((2, 2))
    kernel[0] = [1.28558808e-02, 1.0 - 1.28558808e-02]
    kernel[1, 0] = w[0] * kernel[0, 1] / w[1]
    kernel[1, 1] = 1.0 - kernel[1, 0]
    fam = make_family(w, [kernel])
    f = Observable([-0.31055655, -0.3288239])
    # one kernel: both schemes solve with the mixed kernel alone
    for scheme in SCHEMES:
        assert var_limit(fam, f, scheme) == pytest.approx(
            helpers.oracle_var_limit(fam, f, scheme), rel=1e-8
        )
    one_pass = f.values - float(np.dot(w, f.values))
    # one kernel: the cycle and the mixed kernel are the same one block
    assert fam._cycle is fam._mixed.matrix
    with pytest.raises(np.linalg.LinAlgError):
        _cycle_solve(fam.matrices, 1.0, one_pass[None], w, fam._cycle)
    rhs = center(f, fam.pi).values
    _cycle_solve(fam.matrices, 1.0, rhs[None], w, fam._cycle)


def test_identity_contraction_rounded_below_one():
    # I - 1 pi' has radius exactly 1, which eigvals returns as 1 - 1.1e-16
    # for this target; the verdict asks for a radius below one by the
    # rounding slack, so the strat limit is refused, not attempted.
    w = np.array([1.44590388e-06, 9.99998554e-01])
    fam = make_family(w / w.sum(), [np.eye(2)])
    with pytest.raises(SummabilityError):
        var_limit(fam, Observable([1.0, 2.0]), "strat")


def test_random_family_is_decided_without_eigvals(
    eigvals_calls, eigh_calls, eigvalsh_calls, cholesky_calls
):
    fam = helpers.random_family(np.random.default_rng(61), 7, 2)
    f = helpers.random_centered(np.random.default_rng(62), fam)
    values = {scheme: var_limit(fam, f, scheme) for scheme in ("strat", "rand")}
    assert eigvals_calls == eigh_calls == eigvalsh_calls == []
    assert cholesky_calls == [(7, 7)]  # the rand guard's certificate
    for scheme, value in values.items():
        assert value == pytest.approx(helpers.oracle_var_limit(fam, f, scheme), rel=1e-10)


def test_gibbs_pair_is_certified_without_eigvals(eigvals_calls):
    # each Gibbs update has centred norm one; their cycle contracts
    joint = Dist(np.array([0.1, 0.2, 0.15, 0.25, 0.2, 0.1]))
    fam = make_family(joint.weights, [gibbs_kernel(joint, (2, 3), c) for c in (1, 2)])
    f = Observable([1.0, -2.0, 0.5, 3.0, 0.0, -1.0])
    value = var_limit(fam, f, "strat")
    assert eigvals_calls == []
    assert summability_check(fam).absolutely_summable
    assert value == pytest.approx(helpers.oracle_var_limit(fam, f, "strat"), rel=1e-10)


def test_near_one_lazified_pair_is_certified_without_eigvals(eigvals_calls):
    # holding with probability 1 - 1e-9 leaves a contraction of 1 - 5.4e-10
    fam = helpers.lazified(helpers.random_family(np.random.default_rng(5), 6, 2), 1.0 - 1e-9)
    assert fam._summable
    assert eigvals_calls == []
    assert 1.0 - 1e-9 < helpers.oracle_cycle_contraction(fam) < 1.0


def test_tiny_target_weight_limit_is_certified(eigvals_calls):
    # no pi_max / pi_min enters the verdict, so a weight of 6.6e-14 does
    # not refuse a contraction of 0.913
    fam, f = helpers.tiny_weight_model()
    assert fam._summable
    assert var_limit(fam, f, "strat") == pytest.approx(
        helpers.oracle_var_limit(fam, f, "strat"), rel=1e-8
    )
    assert eigvals_calls == []
    assert summability_check(fam).cycle_contraction == pytest.approx(0.913066, abs=1e-6)


@pytest.mark.parametrize(
    "kernel", [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])], ids=["identity", "swap"]
)
def test_norm_one_families_fall_back_and_raise(kernel, eigvals_calls):
    # refused; only the message computes the radius
    fam = make_family([0.5, 0.5], [kernel, kernel])
    assert not fam._summable
    assert eigvals_calls == []
    with pytest.raises(SummabilityError, match="cycle contraction 1 "):
        var_limit(fam, Observable(helpers.E1_F), "strat")
    assert eigvals_calls == [(2, 2)]


def test_near_reducible_two_state_counted_without_eigvals(
    eigvals_calls, eigh_calls, eigvalsh_calls, cholesky_calls
):
    # the certificate refuses, and only then is the count computed
    sticky = [[1.0 - 1e-9, 1e-9], [1e-9, 1.0 - 1e-9]]
    fam = make_family([0.5, 0.5], [sticky, sticky])
    assert fam._unit_count == 2
    assert eigvals_calls == eigh_calls == []
    assert cholesky_calls == eigvalsh_calls == [(2, 2)]
    with pytest.raises(ReducibilityError, match="within 1e-8 of 1"):
        var_limit(fam, Observable(helpers.E1_F), "rand")


def test_eigenvalue_at_the_boundary_is_refused_without_eigvals(eigvals_calls):
    # eigenvalues 1 and 1 - 2p = 1 - 1e-8: on the 1e-8 line, so within the
    # guard's radius of it, and counted
    p = 5e-9
    kernel = np.array([[1.0 - p, p], [p, 1.0 - p]])
    fam = make_family([0.5, 0.5], [kernel])
    with pytest.raises(ReducibilityError, match="has 2 eigenvalues"):
        var_limit(fam, Observable(helpers.E1_F), "rand")
    assert eigvals_calls == []
    assert fam._unit_count == int(np.sum(np.abs(np.linalg.eigvals(kernel) - 1.0) < 1e-8))


def test_eigenvalue_within_the_radius_of_the_line_is_counted():
    # the second eigenvalue 1 - 2p lies 4e-15 beyond the 1e-8 line, within
    # the radius 16 n eps = 7.1e-15 of it, so it may lie within 1e-8 of 1
    p = 5e-9 + 2e-15
    kernel = np.array([[1.0 - p, p], [p, 1.0 - p]])
    fam = make_family([0.5, 0.5], [kernel])
    assert fam._unit_count == 2
    assert helpers.oracle_near_one_count(fam) == 1


def tiny_weight_family(pi_1: float):
    w = np.array([pi_1, 0.4, 0.6])
    pi = Dist(w / w.sum())
    return make_family(pi.weights, [random_reversible(pi, 3), random_reversible(pi, 13)])


def test_tiny_target_weight_matches_oracle_without_eigvals(
    eigvals_calls, eigh_calls, eigvalsh_calls, cholesky_calls
):
    # no pi_max / pi_min enters the rand guard's radius, so a weight of
    # 1e-12 is certified by one Cholesky, with no eigenproblem
    fam = tiny_weight_family(1e-12)
    f = Observable([5.0, -1.0, 2.0])
    for scheme in ("strat", "rand"):
        assert var_limit(fam, f, scheme) == pytest.approx(
            helpers.oracle_var_limit(fam, f, scheme), rel=1e-9
        )
    assert eigvals_calls == eigh_calls == eigvalsh_calls == []
    assert cholesky_calls == [(3, 3)]


def test_moderate_target_weights_decide_without_eigvals(
    eigvals_calls, eigh_calls, eigvalsh_calls, cholesky_calls
):
    fam = tiny_weight_family(0.1)
    for scheme in ("strat", "rand"):
        var_limit(fam, Observable([5.0, -1.0, 2.0]), scheme)
    assert eigvals_calls == eigh_calls == eigvalsh_calls == []
    assert cholesky_calls == [(3, 3)]


def test_skew_part_counts_in_the_certificate():
    # two reflections of three states, each reversible for the uniform
    # target, compose to a rotation: its symmetric part has centred norm
    # 1/2, its centred norm is 1, and the cycle does not contract; blended
    # half way with resampling from the target, the cycle contracts by 1/2
    flips = [np.eye(3)[[1, 0, 2]], np.eye(3)[[0, 2, 1]]]
    uniform = np.full(3, 1.0 / 3.0)
    assert not make_family(uniform, flips)._summable
    assert make_family(uniform, [0.5 * flips[0] + 0.5 / 3.0, flips[1]])._summable


def test_tiny_weight_kernel_certified_by_one_cholesky(
    eigh_calls, eigvalsh_calls, eigvals_calls, cholesky_calls
):
    # the radius stays near 16 n eps = 1.1e-14 for a weight of 1e-12; the
    # certificate is the only factorisation, and no eigenproblem is solved
    fam = tiny_weight_family(1e-12)
    one = make_family(fam.pi.weights, fam.kernels[:1])
    count = one._unit_count
    assert unit_radius(one) < 2e-14
    assert cholesky_calls == [(3, 3)]
    assert eigh_calls == eigvalsh_calls == eigvals_calls == []
    assert count == int(np.sum(np.abs(np.linalg.eigvals(fam.matrices[0]) - 1.0) < 1e-8))


def near_tolerance_family(eps: float = 2.2e-11, resample=(0.01, 0.03)):
    """Two kernels on three states that resample from pi with probability
    0.01 and 0.03 (by default), each plus a circulation of flow eps around
    the states: pi stays invariant, and the flow's asymmetry is about 0.9
    REVERSIBILITY_TOL of the largest flow."""
    pi = np.array([0.2, 0.3, 0.5])
    circulation = eps * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]) / pi[:, None]
    kernels = [
        (1 - p) * np.eye(3) + p * np.outer(np.ones(3), pi) + circulation for p in resample
    ]
    return make_family(pi, kernels)


def test_skew_part_widens_the_rand_certificate():
    # the circulation is antisymmetric for pi, so the mixed kernel's
    # symmetric part H has the eigenvalue 1 - p twice, and its skew part
    # is 1.8e-10; by Bauer-Fike the kernel's eigenvalues may lie within
    # that of H's, so at p = 1e-8 + skew / 2 the certificate refuses and
    # the count is three, while a p beyond 1e-8 + skew is certified
    skew = unit_radius(near_tolerance_family(resample=(1e-8, 1e-8))) - 48.0 * np.finfo(float).eps
    assert 1e-10 < skew < 1e-9
    assert near_tolerance_family(resample=(1e-8 + skew / 2.0,) * 2)._unit_count == 3
    assert near_tolerance_family(resample=(1e-8 + 2.0 * skew,) * 2)._unit_count == 1


def test_near_tolerance_rand_solves_are_the_one_block_lu(monkeypatch):
    # the mixed kernel's skew part is near the tolerance; every rand solve,
    # at 0.3, at 0.99, where the slow mode amplifies that part, and in the
    # limit, is the LU on the mixed kernel alone, bit for bit
    fam = near_tolerance_family()
    residual = max(family_diagnostics(fam.pi, fam.kernels).relative_balance_residual)
    assert 0.8 * REVERSIBILITY_TOL < residual <= REVERSIBILITY_TOL
    f = Observable([1.0, -1.0, 0.5])
    solves = []
    solve = embedding._cycle_solve

    def counted(*args, **kwargs):
        solves.append((len(args[0]), args[1]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(variance, "_cycle_solve", counted)
    values = [var_lambda_rand(fam, f, lam) for lam in (0.3, 0.99)] + [var_limit(fam, f, "rand")]
    assert solves == [(1, 0.3), (1, 0.99), (1, 1.0)]
    monkeypatch.undo()
    w = fam.pi.weights
    fc = center(f, fam.pi).values[None]
    mixed = fam._mixed.matrix
    lu = [
        _variance(fc, _cycle_solve([mixed], lam, fc, w, mixed), fam.pi)
        for lam in (0.3, 0.99, 1.0)
    ]
    assert values == lu


@st.composite
def certificate_families(draw):
    """helpers.random_family on one to seven states with one to four
    kernels, one draw in three lazified by a hold of 1 - 10^-j, j from 3
    to 9, which puts eigenvalues near the 1e-8 line."""
    n, k = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    fam = helpers.random_family(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, k)
    if draw(st.integers(0, 2)) == 0:
        fam = helpers.lazified(fam, 1.0 - 10.0 ** -draw(st.integers(3, 9)))
    return fam


STICKY = [[1.0 - 1e-9, 1e-9], [1e-9, 1.0 - 1e-9]]


@given(certificate_families())
@example(make_family([0.5, 0.5], [STICKY, STICKY]))
@example(near_tolerance_family())
def test_certificate_verdict_equals_the_eigvalsh_count(fam):
    # the certificate accepts only where the count is one, and a refusal
    # returns the count itself
    assert (fam._unit_count == 1) == (eigvalsh_count(fam) == 1)
    assert fam._unit_count == 1 or fam._unit_count == eigvalsh_count(fam)


def test_refused_certificate_names_the_eigvalsh_count(eigvalsh_calls):
    # a kernel resampling from the target with probability 1e-9 keeps the
    # eigenvalue 1 - 1e-9 twice beside the unit one
    pi = np.array([0.2, 0.3, 0.5])
    kernel = (1.0 - 1e-9) * np.eye(3) + 1e-9 * np.outer(np.ones(3), pi)
    fam = make_family(pi, [kernel])
    with pytest.raises(ReducibilityError, match="mixed kernel has 3 eigenvalues within 1e-8"):
        var_limit(fam, Observable([1.0, -1.0, 0.5]), "rand")
    assert eigvalsh_calls == [(3, 3)]
    assert eigvalsh_count(fam) == 3


@pytest.mark.parametrize("n", [2, 4, 20])
def test_certificate_verdict_on_the_line(n):
    # random kernels lazified so that their second eigenvalue steps across
    # the count's line, 1 - 1e-8 - radius, in steps of at most 1e-16: the
    # rounding of the certificate and of eigvalsh decide there, and only
    # the certificate's margin keeps it from accepting a count of two
    for seed in range(4):
        base = helpers.random_family(np.random.default_rng(seed), n, 1)
        s = similar_mixed(base)
        second = np.linalg.eigvalsh((s + s.T) / 2.0)[-2]
        line = 1.0 - (1e-8 + unit_radius(base)) / (1.0 - second)
        for step in range(-30, 30):
            hold = line + step * 1e-16
            kernel = hold * np.eye(n) + (1.0 - hold) * base.matrices[0]
            fam = make_family(base.pi.weights, [kernel])
            assert (fam._unit_count == 1) == (eigvalsh_count(fam) == 1), (seed, step)
