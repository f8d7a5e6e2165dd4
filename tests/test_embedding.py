"""Unit tests for the block-vector oracles, the embedding's realizations and
its resolvent solve. A block vector is a (k, n) array, row q the function
at cycle phase q."""

import numpy as np
import pytest

import helpers
from helpers import (
    BetaPath,
    apply_embedding,
    apply_embedding_adjoint,
    block_inner,
    block_norm,
    diag_apply,
    embedding_power,
    shift,
    skew_part,
    symmetric_part,
)
from scanvar.embedding import (
    CycleEmbedding,
    _cycle_solve,
    embedding_realization,
    resolvent_solve,
    shift_realization,
)
from scanvar.kernels import Observable, ValidationError, compose_cycle, make_family


def random_block(rng, fam):
    return rng.standard_normal((fam.k, fam.n))


def repeat(f: Observable, k: int) -> np.ndarray:
    """The constant block (f, f, ..., f)."""
    return np.tile(f.values, (k, 1))


class TestShift:
    def test_swap_for_two(self):
        phi = np.array([[1.0, 2.0], [3.0, 4.0]])
        for direction in (+1, -1):
            out = shift(phi, direction)
            np.testing.assert_array_equal(out, [[3.0, 4.0], [1.0, 2.0]])

    def test_constant_block_fixed(self, e1_f):
        phi = repeat(e1_f, 3)
        np.testing.assert_array_equal(shift(phi, +1), phi)
        np.testing.assert_array_equal(shift(phi, -1), phi)

    def test_three_cycle(self):
        phi = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(shift(phi, +1), [[2.0], [3.0], [1.0]])
        np.testing.assert_array_equal(shift(phi, -1), [[3.0], [1.0], [2.0]])

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(shift(shift(phi, +1), -1), phi)

    def test_isometry_exact(self):
        rng = np.random.default_rng(1)
        fam = helpers.random_family(rng, 4, 3)
        phi, psi = random_block(rng, fam), random_block(rng, fam)
        assert block_inner(shift(phi, +1), shift(psi, +1), fam.pi) == block_inner(
            phi, psi, fam.pi
        )


class TestDiagAndEmbedding:
    def test_diag_identity_kernels(self):
        fam = make_family([0.5, 0.5], [np.eye(2), np.eye(2)])
        rng = np.random.default_rng(2)
        phi = random_block(rng, fam)
        np.testing.assert_array_equal(diag_apply(fam, phi), phi)

    def test_diag_eigenvector_action(self, e1, e1_f):
        out = diag_apply(e1, repeat(e1_f, 2))
        np.testing.assert_allclose(out[0], 0.8 * e1_f.values, atol=1e-15)
        np.testing.assert_allclose(out[1], 0.2 * e1_f.values, atol=1e-15)

    def test_diag_preserves_constants(self, e1):
        ones = np.ones((2, 2))
        np.testing.assert_allclose(diag_apply(e1, ones), ones, atol=1e-15)

    def test_embedding_two_kernel_formula(self, e1):
        rng = np.random.default_rng(3)
        phi = random_block(rng, e1)
        out = apply_embedding(e1, phi)
        np.testing.assert_allclose(out[0], e1.matrices[0] @ phi[1], atol=1e-15)
        np.testing.assert_allclose(out[1], e1.matrices[1] @ phi[0], atol=1e-15)

    def test_identity_kernels_reduce_to_shift(self):
        fam = make_family([0.25, 0.75], [np.eye(2)] * 3)
        rng = np.random.default_rng(4)
        phi = random_block(rng, fam)
        np.testing.assert_allclose(apply_embedding(fam, phi), shift(phi, +1), atol=1e-16)
        np.testing.assert_allclose(
            apply_embedding_adjoint(fam, phi), shift(phi, -1), atol=1e-16
        )

    def test_factorisation_is_exact(self):
        rng = np.random.default_rng(5)
        fam = helpers.random_family(rng, 5, 4)
        phi = random_block(rng, fam)
        np.testing.assert_array_equal(
            apply_embedding(fam, phi), diag_apply(fam, shift(phi, +1))
        )
        np.testing.assert_array_equal(
            apply_embedding_adjoint(fam, phi), shift(diag_apply(fam, phi), -1)
        )

    def test_adjoint_two_kernel_formula(self, e1):
        rng = np.random.default_rng(6)
        phi = random_block(rng, e1)
        out = apply_embedding_adjoint(e1, phi)
        np.testing.assert_allclose(out[0], e1.matrices[1] @ phi[1], atol=1e-15)
        np.testing.assert_allclose(out[1], e1.matrices[0] @ phi[0], atol=1e-15)


class TestAdjointAlgebra:
    def test_adjoint_identity_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            fam = helpers.random_family(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            for _ in range(10):
                phi, psi = random_block(rng, fam), random_block(rng, fam)
                lhs = block_inner(psi, apply_embedding(fam, phi), fam.pi)
                rhs = block_inner(apply_embedding_adjoint(fam, psi), phi, fam.pi)
                assert abs(lhs - rhs) <= 1e-11

    def test_adjoint_matches_weighted_transpose(self):
        rng = np.random.default_rng(8)
        fam = helpers.random_family(rng, 4, 3)
        emb = CycleEmbedding(fam)
        w = np.tile(fam.pi.weights, fam.k)
        oracle = (emb.realization("embed").T * w[None, :]) / w[:, None]
        np.testing.assert_allclose(
            emb.realization("embed_adjoint"), oracle, atol=1e-13
        )

    def test_shift_conjugation_identity(self):
        rng = np.random.default_rng(9)
        fam = helpers.random_family(rng, 3, 4)
        emb = CycleEmbedding(fam)
        fwd = shift_realization(fam.k, fam.n, +1)
        bwd = shift_realization(fam.k, fam.n, -1)
        conj = bwd @ emb.realization("embed") @ bwd
        np.testing.assert_allclose(conj, emb.realization("embed_adjoint"), atol=1e-14)
        np.testing.assert_allclose(fwd @ bwd, np.eye(fam.k * fam.n), atol=0)

    def test_skew_quadratic_form_vanishes(self):
        rng = np.random.default_rng(10)
        fam = helpers.random_family(rng, 6, 3)
        for _ in range(10):
            phi = random_block(rng, fam)
            assert abs(block_inner(phi, skew_part(fam, phi), fam.pi)) <= 1e-12

    def test_parts_sum_to_embedding(self):
        rng = np.random.default_rng(11)
        fam = helpers.random_family(rng, 4, 2)
        phi = random_block(rng, fam)
        total = symmetric_part(fam, phi) + skew_part(fam, phi)
        np.testing.assert_allclose(total, apply_embedding(fam, phi), atol=1e-15)

    def test_symmetric_part_two_kernels(self, e1):
        rng = np.random.default_rng(12)
        phi = random_block(rng, e1)
        mean = (e1.matrices[0] + e1.matrices[1]) / 2.0
        out = symmetric_part(e1, phi)
        np.testing.assert_allclose(out[0], mean @ phi[1], atol=1e-15)
        np.testing.assert_allclose(out[1], mean @ phi[0], atol=1e-15)

    def test_equal_kernels_make_skew_vanish(self):
        fam = make_family([0.5, 0.5], [helpers.E1_P1, helpers.E1_P1])
        rng = np.random.default_rng(13)
        phi = random_block(rng, fam)
        np.testing.assert_allclose(skew_part(fam, phi), 0.0, atol=1e-15)


class TestPower:
    def test_zero_and_one(self, e1):
        rng = np.random.default_rng(14)
        phi = random_block(rng, e1)
        np.testing.assert_array_equal(embedding_power(e1, phi, 0), phi)
        np.testing.assert_array_equal(embedding_power(e1, phi, 1), apply_embedding(e1, phi))

    def test_e1_square_on_constant_block(self, e1, e1_f):
        out = embedding_power(e1, repeat(e1_f, 2), 2)
        np.testing.assert_allclose(out[0], 0.16 * e1_f.values, atol=1e-15)

    def test_matches_cycle_product_formula(self):
        rng = np.random.default_rng(15)
        fam = helpers.random_family(rng, 4, 3)
        phi = random_block(rng, fam)
        for i in range(7):
            out = embedding_power(fam, phi, i)
            for j in range(1, fam.k + 1):
                expected = compose_cycle(fam, j, i).matrix @ phi[(j - 1 + i) % fam.k]
                np.testing.assert_allclose(out[j - 1], expected, atol=1e-10)


class TestResolvent:
    def test_lambda_zero_is_identity(self, e1):
        rng = np.random.default_rng(16)
        phi = random_block(rng, e1)
        out = resolvent_solve(e1, 0.0, phi)
        np.testing.assert_allclose(out, phi, atol=1e-14)

    def test_identity_kernels_geometric_sum(self, e1_f):
        fam = make_family([0.5, 0.5], [np.eye(2)] * 2)
        fbar = repeat(e1_f, 2)
        out = resolvent_solve(fam, 0.25, fbar)
        np.testing.assert_allclose(out, fbar / 0.75, atol=1e-13)

    def test_e1_quadratic_form_anchor(self, e1, e1_f):
        fbar = repeat(e1_f, 2)
        x = resolvent_solve(e1, 0.5, fbar)
        assert block_inner(fbar, x, e1.pi) == pytest.approx(
            helpers.E1_RESOLVENT_FORM_HALF, abs=1e-12
        )

    def test_agrees_with_neumann_series(self):
        rng = np.random.default_rng(17)
        fam = helpers.random_family(rng, 5, 3)
        phi = random_block(rng, fam)
        for lam in (0.3, 0.9):
            solved = resolvent_solve(fam, lam, phi)
            acc = np.zeros_like(phi)
            term = phi
            for i in range(201):
                acc = acc + (lam**i) * term
                term = apply_embedding(fam, term)
            tail = lam**201 / (1.0 - lam) * block_norm(phi, fam.pi)
            assert block_norm(solved - acc, fam.pi) <= tail + 1e-9

    def test_invalid_discount(self, e1):
        phi = repeat(Observable([1.0, -1.0]), 2)
        with pytest.raises(ValueError):
            resolvent_solve(e1, 1.0, phi)
        with pytest.raises(ValueError):
            resolvent_solve(e1, -0.1, phi)

    @pytest.mark.parametrize("shape", ["n", "k,n+1", "k+1,n"])
    def test_refuses_a_rhs_of_another_shape(self, shape):
        fam = helpers.random_family(np.random.default_rng(22), 4, 3)
        k, n = fam.k, fam.n
        rhs = np.ones({"n": (n,), "k,n+1": (k, n + 1), "k+1,n": (k + 1, n)}[shape])
        with pytest.raises(ValidationError, match=r"right-hand side has shape"):
            resolvent_solve(fam, 0.5, rhs)
        with pytest.raises(ValidationError, match=r"right-hand side has shape"):
            CycleEmbedding(fam).resolvent_solve(0.5, rhs)

    def test_unknown_selector(self, e1):
        with pytest.raises(ValueError, match="unknown operator selector"):
            embedding_realization("inverse", e1.matrices)
        with pytest.raises(ValueError, match="unknown operator selector"):
            CycleEmbedding(e1).realization("inverse")

    def test_selector_consistency(self):
        # a blend path at beta = 0 pairs the family's shift_diag and
        # embed_adjoint resolvents, solved densely; at a constant block the
        # first is the embedding's resolvent shifted forward and the second
        # the reversed cycle's read in reverse phase order, so the one solve
        # gives both; "shift_inv_diag" is no selector
        rng = np.random.default_rng(18)
        fam = helpers.random_family(rng, 3, 3)
        f = Observable(rng.standard_normal(fam.n))
        lam = 0.6
        path = BetaPath(fam, helpers.lazified(fam, 0.5))
        forward, backward, _ = path._resolvents_and_derivative(f, lam, 0.0)
        fbar = repeat(f, fam.k)
        solved = CycleEmbedding(fam).resolvent_solve(lam, fbar)
        np.testing.assert_allclose(shift(solved, +1), forward, atol=1e-14)
        reversed_cycle = make_family(fam.pi.weights, fam.matrices[::-1])
        solved = CycleEmbedding(reversed_cycle).resolvent_solve(lam, fbar)
        np.testing.assert_allclose(solved[-np.arange(fam.k) % fam.k], backward, atol=1e-14)
        with pytest.raises(ValueError, match="unknown operator selector"):
            CycleEmbedding(fam).realization("shift_inv_diag")

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_every_selector_matches_dense_solve(self, k):
        # the embed row, the one that is solved, at every cycle length
        rng = np.random.default_rng(100 + k)
        fam = helpers.random_family(rng, 6, k)
        emb = CycleEmbedding(fam)
        phi = random_block(rng, fam)
        for lam in (0.0, 0.4, 0.99):
            dense = np.linalg.solve(
                np.eye(k * fam.n) - lam * emb.realization("embed"), phi.ravel()
            )
            solved = emb.resolvent_solve(lam, phi)
            assert solved.shape == (k, fam.n)
            assert np.abs(solved.ravel() - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_discount_one_needs_centred_rhs(self):
        rng = np.random.default_rng(21)
        fam = helpers.random_family(rng, 5, 3)
        w = fam.pi.weights
        rhs = rng.standard_normal((3, 5))
        centred = rhs - (rhs @ w)[:, None]
        x = _cycle_solve(fam.matrices, 1.0, centred, w, fam._cycle)
        np.testing.assert_allclose(x @ w, 0.0, atol=1e-14)
        with pytest.raises(np.linalg.LinAlgError):
            _cycle_solve(fam.matrices, 1.0, rhs, w, fam._cycle)

    def test_cycle_product_cached_per_family_and_selector(self, monkeypatch):
        # a four-point sweep with gap bounds and the limit builds one cycle
        # product, the embed row's, and reuses the same object, as does the
        # resolvent solve, and the summability check centres the same product
        import scanvar.kernels as kernels
        from scanvar.ordering import check_scan_ordering

        rng = np.random.default_rng(71)
        fam = helpers.random_family(rng, 6, 2)
        f = helpers.random_centered(np.random.default_rng(72), fam)
        built = []
        product = kernels._cycle_product

        def counted(matrices):
            built.append(len(matrices))
            return product(matrices)

        monkeypatch.setattr(kernels, "_cycle_product", counted)
        check_scan_ordering(fam, f, [0.3, 0.6, 0.9, 0.99, 1.0])
        assert built == [2]
        cached = fam._cycle
        assert not cached.flags.writeable
        np.testing.assert_array_equal(cached, product(fam.matrices))
        np.testing.assert_array_equal(cached, helpers.cycle_product(fam.matrices, 1, 2))
        CycleEmbedding(fam).resolvent_solve(0.5, random_block(rng, fam))
        check_scan_ordering(fam, f, [0.5, 1.0])
        monkeypatch.setattr(kernels, "compose_cycle", None)  # not rebuilt there
        assert fam._cycle_contraction == helpers.oracle_cycle_contraction(fam)
        assert built == [2]

    def test_realization_agrees_with_blockwise_action(self):
        rng = np.random.default_rng(20)
        fam = helpers.random_family(rng, 5, 3)
        emb = CycleEmbedding(fam)
        phi = random_block(rng, fam)
        via_matrix = (emb.realization("embed") @ phi.ravel()).reshape(fam.k, fam.n)
        np.testing.assert_allclose(via_matrix, apply_embedding(fam, phi), atol=1e-14)
        via_adjoint = (emb.realization("embed_adjoint") @ phi.ravel()).reshape(fam.k, fam.n)
        np.testing.assert_allclose(via_adjoint, apply_embedding_adjoint(fam, phi), atol=1e-14)

    def test_symmetric_realization_matches_parts(self):
        rng = np.random.default_rng(19)
        fam = helpers.random_family(rng, 4, 2)
        emb = CycleEmbedding(fam)
        phi = random_block(rng, fam)
        via_matrix = (emb.realization("symmetric") @ phi.ravel()).reshape(fam.k, fam.n)
        np.testing.assert_allclose(via_matrix, symmetric_part(fam, phi), atol=1e-14)
