"""Unit tests for distributions, kernels, families and constructors."""

import itertools
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import helpers
from scanvar.kernels import (
    DegenerateConditionalError,
    Dist,
    Kernel,
    Observable,
    ReducibilityError,
    ValidationError,
    center,
    compose_cycle,
    family_diagnostics,
    gibbs_kernel,
    inner,
    is_irreducible,
    lazy,
    make_family,
    metropolis_kernel,
    random_reversible,
    random_scan,
    _ascending_sum,
)

class TestInnerAndCenter:
    def test_inner_uniform_symmetric(self):
        pi = Dist([0.5, 0.5])
        f = Observable([1.0, -1.0])
        assert inner(f, f, pi) == pytest.approx(1.0, abs=1e-15)

    def test_inner_zero_function(self):
        pi = Dist([0.25, 0.75])
        f = Observable([3.0, -2.0])
        z = Observable([0.0, 0.0])
        assert inner(f, z, pi) == 0.0

    def test_inner_disjoint_supports(self):
        pi = Dist([0.5, 0.5])
        assert inner(Observable([2.0, 0.0]), Observable([0.0, 3.0]), pi) == 0.0

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            inner(Observable([1.0, 2.0, 3.0]), Observable([1.0, 2.0]), Dist([0.5, 0.5]))

    def test_center_constant(self):
        out = center(Observable([1.0, 1.0]), Dist([0.5, 0.5]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0])

    def test_center_already_centered(self):
        out = center(Observable([1.0, -1.0]), Dist([0.5, 0.5]))
        np.testing.assert_allclose(out.values, [1.0, -1.0])

    def test_center_subtracts_mean(self):
        out = center(Observable([2.0, 0.0]), Dist([0.25, 0.75]))
        np.testing.assert_allclose(out.values, [1.5, -0.5])
        assert inner(out, Observable([1.0, 1.0]), Dist([0.25, 0.75])) == pytest.approx(
            0.0, abs=1e-12
        )


class TestTypeInvariants:
    def test_dist_rejects_negative(self):
        with pytest.raises(ValidationError):
            Dist([-0.1, 1.1])

    def test_dist_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Dist([0.5, 0.49])

    def test_kernel_rejects_bad_row(self):
        with pytest.raises(ValidationError):
            Kernel([[0.9, 0.2], [0.5, 0.5]])

    def test_kernel_rejects_negative_entry(self):
        with pytest.raises(ValidationError):
            Kernel([[1.1, -0.1], [0.5, 0.5]])

    def test_family_rejects_zero_pi(self):
        with pytest.raises(ValidationError):
            make_family([0.0, 1.0], [np.eye(2)])

    def test_family_rejects_nonreversible(self):
        with pytest.raises(ValidationError):
            make_family([0.5, 0.5], [[[0.9, 0.1], [0.2, 0.8]]])

    def test_family_rejects_empty(self):
        with pytest.raises(ValidationError):
            make_family([0.5, 0.5], [])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Dist([-0.1, 1.2]),
             "negative entry of magnitude 0.1; weights sum to 1.1 (residual 0.1)"),
            (lambda: Dist([[0.5, 0.5]]), "shape (1, 2) is not that of a nonempty vector"),
            (lambda: Observable([1.0, np.inf]), "non-finite entry inf at [1]"),
            (lambda: Kernel([[1.1, -0.1], [0.5, 0.4]]),
             "negative entry of magnitude 0.1; row 1 sums to 0.9 (residual 0.1)"),
            (lambda: Kernel(np.ones((2, 3)) / 3),
             "shape (2, 3) is not that of a nonempty square matrix"),
            (lambda: make_family([0.0, 1.0], [[[0.9, 0.1], [0.2, 0.8]]]),
             "target has a zero weight, where detailed balance is ill-posed; "
             "kernel 1: relative detailed-balance residual 0.25 > 1e-10"),
            (lambda: make_family([0.5, 0.5], [np.eye(3)]),
             "kernel shape (3, 3) does not match 2 states"),
            (lambda: make_family([0.5, 0.5], []), "a kernel family needs at least one kernel"),
        ],
        ids=[
            "dist", "dist-shape", "observable", "kernel", "kernel-shape", "family",
            "family-size", "family-empty",
        ],
    )
    def test_refusal_names_every_fault(self, build, message):
        # a type's message is its check's words, every fault of one part at once
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == message

    def test_values_are_readonly(self, e1):
        with pytest.raises(ValueError):
            e1.kernels[0].matrix[0, 0] = 0.0
        with pytest.raises(ValueError):
            e1.pi.weights[0] = 0.7


def worst_residual(diag) -> float:
    """The largest row-sum deviation or balance residual: what `scanvar
    validate` compares with its tolerance."""
    return max(*diag.row_sum_deviation, *diag.balance_residual)


class TestValidateFamily:
    def test_identity_kernel_all_zero_residuals(self):
        fam = make_family([0.3, 0.7], [np.eye(2)])
        diag = family_diagnostics(fam.pi, fam.kernels)
        assert worst_residual(diag) <= 1e-12
        assert diag.balance_residual == (0.0,)
        assert diag.row_sum_deviation == (0.0,)

    def test_detailed_balance_residual_value(self):
        # flows 0.5*0.1 and 0.5*0.2 disagree by exactly 0.05
        diag = family_diagnostics([0.5, 0.5], [[[0.9, 0.1], [0.2, 0.8]]])
        assert worst_residual(diag) > 1e-12
        assert diag.balance_residual[0] == pytest.approx(0.05, abs=1e-15)

    def test_e1_passes_tight_tolerance(self, e1):
        assert worst_residual(family_diagnostics(e1.pi, e1.kernels)) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_non_finite_input_measured_without_warnings(self):
        # inf - inf in the flows gives a NaN residual, and a sum past a
        # float's range an inf one, without a RuntimeWarning
        diag = family_diagnostics([math.inf, 0.5], [[[0.9, 0.1], [0.1, 0.9]]])
        assert math.isnan(diag.balance_residual[0]) and diag.pi_sum_deviation == math.inf
        diag = family_diagnostics([1e308, 1e308], [[[1e308, 1e308], [0.1, 0.9]]])
        assert diag.row_sum_deviation == (math.inf,) and diag.pi_sum_deviation == math.inf

    def test_family_keeps_its_diagnosis(self, e1):
        assert e1.diagnostics == family_diagnostics(e1.pi, e1.kernels)

class TestComposeCycle:
    def test_zero_steps_identity(self, e1):
        np.testing.assert_array_equal(compose_cycle(e1, 1, 0).matrix, np.eye(2))

    def test_e1_two_steps(self, e1, e1_f):
        two = compose_cycle(e1, 1, 2)
        expected = np.asarray(helpers.E1_P1) @ np.asarray(helpers.E1_P2)
        np.testing.assert_allclose(two.matrix, expected, atol=1e-15)
        assert inner(e1_f, Observable(two.matrix @ e1_f.values), e1.pi) == pytest.approx(
            0.16, abs=1e-14
        )

    @pytest.mark.parametrize(
        ("q", "s", "message"),
        [
            (1, -1, "cycle length must be nonnegative, got -1"),
            (0, 1, "phase 0 out of range 1..2"),
            (3, 1, "phase 3 out of range 1..2"),
        ],
    )
    def test_refuses_bad_arguments(self, e1, q, s, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compose_cycle(e1, q, s)

    def test_single_step_is_phase_kernel(self, e1):
        np.testing.assert_array_equal(compose_cycle(e1, 2, 1).matrix, e1.kernels[1].matrix)

    def test_concatenation_property(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 5))
            fam = helpers.random_family(rng, n, k)
            for q in range(1, k + 1):
                for s in range(0, 7):
                    for t in range(0, 7):
                        whole = compose_cycle(fam, q, s + t).matrix
                        left = compose_cycle(fam, q, s).matrix
                        right = compose_cycle(fam, (q - 1 + s) % k + 1, t).matrix
                        np.testing.assert_allclose(whole, left @ right, atol=1e-10)

    def test_matches_plain_product(self):
        rng = np.random.default_rng(8)
        fam = helpers.random_family(rng, 5, 3)
        for q in (1, 2, 3):
            for s in (1, 3, 5):
                np.testing.assert_allclose(
                    compose_cycle(fam, q, s).matrix,
                    helpers.cycle_product(fam.matrices, q, s),
                    atol=1e-13,
                )


class TestRandomScan:
    def test_e1_mean(self, e1):
        np.testing.assert_allclose(
            random_scan(e1).matrix, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15
        )

    def test_single_kernel_unchanged(self):
        fam = make_family([0.5, 0.5], [helpers.E1_P1])
        np.testing.assert_array_equal(random_scan(fam).matrix, np.asarray(helpers.E1_P1))

    def test_equal_kernels(self):
        fam = make_family([0.5, 0.5], [helpers.E1_P1, helpers.E1_P1])
        np.testing.assert_allclose(random_scan(fam).matrix, helpers.E1_P1, atol=1e-16)

    @staticmethod
    def assert_same_bits_in_every_order(fam, orders):
        base = random_scan(fam).matrix
        for order in orders:
            shuffled = make_family(fam.pi.weights, [fam.matrices[i] for i in order])
            np.testing.assert_array_equal(
                random_scan(shuffled).matrix.view(np.int64), base.view(np.int64)
            )

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(21)
        fam = helpers.random_family(rng, 6, 3)
        self.assert_same_bits_in_every_order(fam, ((1, 2, 0), (2, 0, 1), (2, 1, 0)))
        fam = helpers.random_family(rng, 20, 8)
        self.assert_same_bits_in_every_order(fam, [rng.permutation(8) for _ in range(6)])
        # every off-diagonal entry holds 0.0 in some kernels and -0.0 in
        # others; entry (0, 2) is zero in all four, so its sum is all ties
        z, m = 0.0, -0.0
        mats = [
            [[1.0, m, m], [m, 1.0, z], [m, z, 1.0]],
            [[0.5, 0.5, z], [0.5, 0.5, m], [z, m, 1.0]],
            [[1.0, z, m], [z, 0.5, 0.5], [m, 0.5, 0.5]],
            [[1.0, m, z], [m, 1.0, m], [z, m, 1.0]],
        ]
        fam = make_family(np.full(3, 1.0 / 3.0), mats)
        self.assert_same_bits_in_every_order(fam, itertools.permutations(range(4)))

    @pytest.mark.parametrize("n, k", [(4, 3), (30, 3), (12, 5), (150, 8)])
    def test_matches_per_entry_fsum(self, n, k):
        # matches to within gamma_{k+1}: the ascending sum and its division
        # lie within gamma_k of the exact mean; fsum_mean, the exact sum and
        # its division each rounded once, is held to one u more
        fam = helpers.random_family(np.random.default_rng(n * k), n, k)
        u = np.finfo(float).eps / 2.0
        oracle = helpers.fsum_mean(fam)
        distance = np.abs(random_scan(fam).matrix - oracle)
        assert np.all(distance <= (k + 1) * u / (1.0 - (k + 1) * u) * oracle)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_every_permutation_same_bits(self, k):
        fam = helpers.random_family(np.random.default_rng(40 + k), 5, k)
        self.assert_same_bits_in_every_order(fam, itertools.permutations(range(k)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_built_once_and_read_only(self, k):
        fam = helpers.random_family(np.random.default_rng(k), 6, k)
        kernel = random_scan(fam)
        assert random_scan(fam) is kernel
        with pytest.raises(ValueError):
            kernel.matrix[0, 0] = 0.5


class TestExactSum:
    """The mixed kernel's ascending sum against the exact sum, math.fsum."""

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 2**-53, 2**-106],  # just above half an ulp: rounds up
            [1.0, 2**-53, -(2**-106)],  # just below: rounds down
            [1.0, -(2**-54), -(2**-107)],  # just beyond half an ulp below 1
            [2**-1000, 2**-1053, 2**-1074],  # just above, with subnormal parts
            [1e16, 1.0, 1e-16],
            [1.0, 2**-53, 2**-106, 0.0],
        ],
    )
    def test_half_way_ties_in_every_order(self, values):
        # one value for every order, within gamma_{k-1} of the exact sum
        # relative to the sum of magnitudes (Higham, ch. 4)
        stack = np.array(list(itertools.permutations(values))).T
        sums = _ascending_sum(stack)
        assert len(set(sums.view(np.int64).tolist())) == 1
        u = np.finfo(float).eps / 2.0
        k = len(values)
        bound = (k - 1) * u / (1.0 - (k - 1) * u) * math.fsum(map(abs, values))
        assert abs(sums[0] - math.fsum(values)) <= bound


class TestGibbsKernel:
    def test_independent_joint_rows_equal_marginal(self):
        mu1 = np.array([0.3, 0.7])
        mu2 = np.array([0.2, 0.3, 0.5])
        joint = Dist(np.outer(mu1, mu2).reshape(-1))
        kern = gibbs_kernel(joint, (2, 3), coordinate=1)
        # resampling coordinate 1 within a slice lands on mu1
        for i2 in range(3):
            idx = np.arange(2) * 3 + i2
            for row in kern.matrix[idx][:, idx]:
                np.testing.assert_allclose(row, mu1, atol=1e-14)

    def test_projection_property(self):
        rng = np.random.default_rng(3)
        w = rng.random(12) + 0.05
        joint = Dist(w / w.sum())
        for coord in (1, 2):
            kern = gibbs_kernel(joint, (3, 4), coordinate=coord)
            np.testing.assert_allclose(
                kern.matrix @ kern.matrix, kern.matrix, atol=1e-12
            )

    def test_hand_conditional(self):
        joint = Dist([0.4, 0.1, 0.1, 0.4])
        kern = gibbs_kernel(joint, (2, 2), coordinate=1)
        # states 0 and 2 share second coordinate 0; conditional is (0.8, 0.2)
        np.testing.assert_allclose(kern.matrix[0, [0, 2]], [0.8, 0.2], atol=1e-15)
        np.testing.assert_allclose(kern.matrix[2, [0, 2]], [0.8, 0.2], atol=1e-15)

    def test_reversible_for_joint(self):
        rng = np.random.default_rng(4)
        w = rng.random(6) + 0.05
        joint = Dist(w / w.sum())
        fam = make_family(
            joint.weights,
            [gibbs_kernel(joint, (2, 3), 1), gibbs_kernel(joint, (2, 3), 2)],
        )
        assert worst_residual(family_diagnostics(fam.pi, fam.kernels)) <= 1e-12

    def test_refuses_a_grid_of_another_size(self):
        with pytest.raises(ValidationError, match=r"^joint has 6 weights, expected 2x2=4$"):
            gibbs_kernel(Dist(np.full(6, 1.0 / 6.0)), (2, 2), 1)

    def test_refuses_coordinate_three(self):
        with pytest.raises(ValueError, match="^coordinate must be 1 or 2, got 3$"):
            gibbs_kernel(Dist([0.25] * 4), (2, 2), 3)

    def test_degenerate_slice(self):
        joint = Dist([0.5, 0.0, 0.5, 0.0])
        with pytest.raises(DegenerateConditionalError):
            gibbs_kernel(joint, (2, 2), coordinate=1)


class TestMetropolisKernel:
    def test_symmetric_proposal_uniform_target(self):
        prop = Kernel([[0.5, 0.5], [0.5, 0.5]])
        out = metropolis_kernel(Dist([0.5, 0.5]), prop)
        np.testing.assert_allclose(out.matrix, prop.matrix, atol=1e-15)

    def test_hand_acceptance(self):
        out = metropolis_kernel(Dist([0.75, 0.25]), Kernel([[0.5, 0.5], [0.5, 0.5]]))
        assert out.matrix[0, 1] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert out.matrix[1, 0] == pytest.approx(0.5, abs=1e-15)

    def test_refuses_a_proposal_of_another_size(self):
        with pytest.raises(ValidationError, match="^proposal is 3x3, target has 2 states$"):
            metropolis_kernel(Dist([0.5, 0.5]), Kernel(np.full((3, 3), 1.0 / 3.0)))

    def test_detailed_balance_by_construction(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(2, 8))
            pi = helpers.random_dist(rng, n)
            prop = Kernel(rng.dirichlet(np.ones(n), size=n))
            out = metropolis_kernel(pi, prop)
            flow = pi.weights[:, None] * out.matrix
            assert np.abs(flow - flow.T).max() < 1e-12


class TestLazy:
    def test_endpoints(self, e1):
        np.testing.assert_array_equal(lazy(e1.kernels[0], 0.0).matrix, e1.kernels[0].matrix)
        np.testing.assert_allclose(lazy(e1.kernels[0], 1.0).matrix, np.eye(2), atol=1e-16)

    def test_half_blend(self, e1):
        np.testing.assert_allclose(
            lazy(e1.kernels[0], 0.5).matrix, [[0.95, 0.05], [0.05, 0.95]], atol=1e-15
        )

    def test_rejects_out_of_range(self, e1):
        with pytest.raises(ValueError):
            lazy(e1.kernels[0], 1.2)
        with pytest.raises(ValueError):
            lazy(e1.kernels[0], -0.1)


class TestRandomReversible:
    def test_deterministic_in_seed(self):
        pi = Dist([0.2, 0.3, 0.5])
        a = random_reversible(pi, 42)
        b = random_reversible(pi, 42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self):
        pi = Dist([0.2, 0.3, 0.5])
        a = random_reversible(pi, 1)
        b = random_reversible(pi, 2)
        assert np.abs(a.matrix - b.matrix).max() > 1e-3

    def test_zero_weight_has_no_irreducible_kernel(self):
        # no flow reaches a state of zero weight, so every try is reducible
        with pytest.raises(ReducibilityError, match="^no irreducible kernel found in 100 "):
            random_reversible(Dist([0.5, 0.0, 0.5]), 3)

    def test_reversible_and_irreducible(self):
        rng = np.random.default_rng(6)
        for seed in rng.integers(0, 2**62, size=5):
            pi = helpers.random_dist(rng, int(rng.integers(2, 10)))
            kern = random_reversible(pi, int(seed))
            assert is_irreducible(kern)
            fam = make_family(pi.weights, [kern])
            assert worst_residual(family_diagnostics(fam.pi, fam.kernels)) <= 1e-11


class TestIrreducibility:
    def test_identity_not_irreducible(self):
        assert not is_irreducible(Kernel(np.eye(3)))

    def test_cycle_is_irreducible(self):
        assert is_irreducible(Kernel([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))

    @given(
        st.integers(1, 9).flatmap(
            lambda n: arrays(bool, (n, n), elements=st.booleans())
        )
    )
    def test_matches_strong_components(self, edges):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        # self-loops keep every row stochastic and change no component
        edges = edges | np.eye(len(edges), dtype=bool)
        kernel = Kernel(edges / edges.sum(axis=1, keepdims=True))
        ncomp, _ = connected_components(
            csr_matrix(kernel.matrix > 0.0), directed=True, connection="strong"
        )
        assert is_irreducible(kernel) == (ncomp == 1)


def test_cli_import_loads_no_scipy():
    import scanvar

    src = os.path.dirname(os.path.dirname(os.path.abspath(scanvar.__file__)))
    code = (
        "import sys; import scanvar.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
