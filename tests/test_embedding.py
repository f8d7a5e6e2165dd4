"""Unit tests for block vectors, the embedding operator and resolvent solves."""

import numpy as np
import pytest

import helpers
from helpers import embedding_power
from scanvar.embedding import (
    OPERATORS,
    BlockVector,
    CycleEmbedding,
    _cycle_solve,
    apply_embedding,
    apply_embedding_adjoint,
    block_inner,
    block_norm,
    diag_apply,
    resolvent_solve,
    shift,
    shift_realization,
    skew_part,
    symmetric_part,
)
from scanvar.kernels import Observable, compose_cycle, make_family
from scanvar.ordering import BetaPath


def random_block(rng, fam):
    return BlockVector(rng.standard_normal((fam.k, fam.n)))


class TestShift:
    def test_swap_for_two(self):
        phi = BlockVector([[1.0, 2.0], [3.0, 4.0]])
        for direction in (+1, -1):
            out = shift(phi, direction)
            np.testing.assert_array_equal(out.values, [[3.0, 4.0], [1.0, 2.0]])

    def test_constant_block_fixed(self, e1_f):
        phi = BlockVector.repeat(e1_f, 3)
        np.testing.assert_array_equal(shift(phi, +1).values, phi.values)
        np.testing.assert_array_equal(shift(phi, -1).values, phi.values)

    def test_three_cycle(self):
        phi = BlockVector([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(shift(phi, +1).values, [[2.0], [3.0], [1.0]])
        np.testing.assert_array_equal(shift(phi, -1).values, [[3.0], [1.0], [2.0]])

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        phi = BlockVector(rng.standard_normal((4, 3)))
        np.testing.assert_array_equal(shift(shift(phi, +1), -1).values, phi.values)

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
        np.testing.assert_array_equal(diag_apply(fam, phi).values, phi.values)

    def test_diag_eigenvector_action(self, e1, e1_f):
        phi = BlockVector.repeat(e1_f, 2)
        out = diag_apply(e1, phi)
        np.testing.assert_allclose(out.values[0], 0.8 * e1_f.values, atol=1e-15)
        np.testing.assert_allclose(out.values[1], 0.2 * e1_f.values, atol=1e-15)

    def test_diag_preserves_constants(self, e1):
        ones = BlockVector(np.ones((2, 2)))
        np.testing.assert_allclose(diag_apply(e1, ones).values, ones.values, atol=1e-15)

    def test_embedding_two_kernel_formula(self, e1):
        rng = np.random.default_rng(3)
        phi = random_block(rng, e1)
        out = apply_embedding(e1, phi)
        np.testing.assert_allclose(
            out.values[0], e1.matrices[0] @ phi.values[1], atol=1e-15
        )
        np.testing.assert_allclose(
            out.values[1], e1.matrices[1] @ phi.values[0], atol=1e-15
        )

    def test_identity_kernels_reduce_to_shift(self):
        fam = make_family([0.25, 0.75], [np.eye(2)] * 3)
        rng = np.random.default_rng(4)
        phi = random_block(rng, fam)
        np.testing.assert_allclose(
            apply_embedding(fam, phi).values, shift(phi, +1).values, atol=1e-16
        )
        np.testing.assert_allclose(
            apply_embedding_adjoint(fam, phi).values, shift(phi, -1).values, atol=1e-16
        )

    def test_factorisation_is_exact(self):
        rng = np.random.default_rng(5)
        fam = helpers.random_family(rng, 5, 4)
        phi = random_block(rng, fam)
        np.testing.assert_array_equal(
            apply_embedding(fam, phi).values, diag_apply(fam, shift(phi, +1)).values
        )
        np.testing.assert_array_equal(
            apply_embedding_adjoint(fam, phi).values,
            shift(diag_apply(fam, phi), -1).values,
        )

    def test_adjoint_two_kernel_formula(self, e1):
        rng = np.random.default_rng(6)
        phi = random_block(rng, e1)
        out = apply_embedding_adjoint(e1, phi)
        np.testing.assert_allclose(
            out.values[0], e1.matrices[1] @ phi.values[1], atol=1e-15
        )
        np.testing.assert_allclose(
            out.values[1], e1.matrices[0] @ phi.values[0], atol=1e-15
        )


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
        total = symmetric_part(fam, phi).values + skew_part(fam, phi).values
        np.testing.assert_allclose(total, apply_embedding(fam, phi).values, atol=1e-15)

    def test_symmetric_part_two_kernels(self, e1):
        rng = np.random.default_rng(12)
        phi = random_block(rng, e1)
        mean = (e1.matrices[0] + e1.matrices[1]) / 2.0
        out = symmetric_part(e1, phi)
        np.testing.assert_allclose(out.values[0], mean @ phi.values[1], atol=1e-15)
        np.testing.assert_allclose(out.values[1], mean @ phi.values[0], atol=1e-15)

    def test_equal_kernels_make_skew_vanish(self):
        fam = make_family([0.5, 0.5], [helpers.E1_P1, helpers.E1_P1])
        rng = np.random.default_rng(13)
        phi = random_block(rng, fam)
        np.testing.assert_allclose(skew_part(fam, phi).values, 0.0, atol=1e-15)


class TestPower:
    def test_zero_and_one(self, e1):
        rng = np.random.default_rng(14)
        phi = random_block(rng, e1)
        np.testing.assert_array_equal(embedding_power(e1, phi, 0).values, phi.values)
        np.testing.assert_array_equal(
            embedding_power(e1, phi, 1).values, apply_embedding(e1, phi).values
        )

    def test_e1_square_on_constant_block(self, e1, e1_f):
        out = embedding_power(e1, BlockVector.repeat(e1_f, 2), 2)
        np.testing.assert_allclose(out.values[0], 0.16 * e1_f.values, atol=1e-15)

    def test_matches_cycle_product_formula(self):
        rng = np.random.default_rng(15)
        fam = helpers.random_family(rng, 4, 3)
        phi = random_block(rng, fam)
        for i in range(7):
            out = embedding_power(fam, phi, i)
            for j in range(1, fam.k + 1):
                expected = compose_cycle(fam, j, i).matrix @ phi.values[(j - 1 + i) % fam.k]
                np.testing.assert_allclose(out.values[j - 1], expected, atol=1e-10)


class TestResolvent:
    def test_lambda_zero_is_identity(self, e1):
        rng = np.random.default_rng(16)
        phi = random_block(rng, e1)
        out = resolvent_solve("embed", e1, 0.0, phi)
        np.testing.assert_allclose(out.values, phi.values, atol=1e-14)

    def test_identity_kernels_geometric_sum(self, e1_f):
        fam = make_family([0.5, 0.5], [np.eye(2)] * 2)
        fbar = BlockVector.repeat(e1_f, 2)
        out = resolvent_solve("embed", fam, 0.25, fbar)
        np.testing.assert_allclose(out.values, fbar.values / 0.75, atol=1e-13)

    def test_e1_quadratic_form_anchor(self, e1, e1_f):
        fbar = BlockVector.repeat(e1_f, 2)
        x = resolvent_solve("embed", e1, 0.5, fbar)
        assert block_inner(fbar, x, e1.pi) == pytest.approx(
            helpers.E1_RESOLVENT_FORM_HALF, abs=1e-12
        )

    def test_agrees_with_neumann_series(self):
        rng = np.random.default_rng(17)
        fam = helpers.random_family(rng, 5, 3)
        phi = random_block(rng, fam)
        for lam in (0.3, 0.9):
            solved = resolvent_solve("embed", fam, lam, phi)
            acc = np.zeros_like(phi.values)
            term = phi
            for i in range(201):
                acc = acc + (lam**i) * term.values
                term = apply_embedding(fam, term)
            tail = lam**201 / (1.0 - lam) * block_norm(phi, fam.pi)
            diff = BlockVector(solved.values - acc)
            assert block_norm(diff, fam.pi) <= tail + 1e-9

    def test_invalid_discount(self, e1):
        phi = BlockVector.repeat(Observable([1.0, -1.0]), 2)
        with pytest.raises(ValueError):
            resolvent_solve("embed", e1, 1.0, phi)
        with pytest.raises(ValueError):
            resolvent_solve("embed", e1, -0.1, phi)

    def test_unknown_selector(self, e1):
        phi = BlockVector.repeat(Observable([1.0, -1.0]), 2)
        with pytest.raises(ValueError):
            resolvent_solve("inverse", e1, 0.5, phi)

    def test_selector_consistency(self):
        # a blend path at beta = 0 pairs the family's shift_diag and
        # embed_adjoint resolvents, and "shift_inv_diag" is no selector
        rng = np.random.default_rng(18)
        fam = helpers.random_family(rng, 3, 3)
        emb = CycleEmbedding(fam)
        f = Observable(rng.standard_normal(fam.n))
        lam = 0.6
        path = BetaPath(fam, helpers.lazified(fam, 0.5))
        forward, backward, _ = path._resolvents_and_derivative(f, lam, 0.0)
        fbar = BlockVector.repeat(f, fam.k)
        for op, x in (("shift_diag", forward), ("embed_adjoint", backward)):
            np.testing.assert_allclose(
                emb.resolvent_solve(op, lam, fbar).values, x, atol=1e-14
            )
        with pytest.raises(ValueError, match="unknown operator selector"):
            emb.resolvent_solve("shift_inv_diag", lam, fbar)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_every_selector_matches_dense_solve(self, k):
        rng = np.random.default_rng(100 + k)
        fam = helpers.random_family(rng, 6, k)
        emb = CycleEmbedding(fam)
        phi = random_block(rng, fam)
        for op in OPERATORS:
            if op == "symmetric" and k > 2:
                continue
            for lam in (0.0, 0.4, 0.99):
                dense = np.linalg.solve(
                    np.eye(k * fam.n) - lam * emb.realization(op), phi.flat()
                )
                solved = emb.resolvent_solve(op, lam, phi).flat()
                assert np.abs(solved - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_symmetric_needs_at_most_two_kernels(self):
        rng = np.random.default_rng(20)
        fam = helpers.random_family(rng, 3, 3)
        with pytest.raises(ValueError):
            CycleEmbedding(fam).resolvent_solve("symmetric", 0.5, random_block(rng, fam))

    def test_discount_one_needs_centred_rhs(self):
        rng = np.random.default_rng(21)
        fam = helpers.random_family(rng, 5, 3)
        w = fam.pi.weights
        rhs = rng.standard_normal((3, 5))
        centred = rhs - (rhs @ w)[:, None]
        x = _cycle_solve(fam.matrices, 1, 1.0, centred, w)
        np.testing.assert_allclose(x @ w, 0.0, atol=1e-14)
        with pytest.raises(np.linalg.LinAlgError):
            _cycle_solve(fam.matrices, 1, 1.0, rhs, w)

    def test_cycle_product_cached_per_family_and_selector(self, monkeypatch):
        # a four-point sweep with gap bounds and the limit builds one cycle
        # product, the embed row's, and reuses the same object, as does the
        # embed resolvent; the other rows' solves build theirs, and the
        # summability check centres the same embed product
        import scanvar.embedding as embedding
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
        monkeypatch.setattr(embedding, "_cycle_product", counted)
        check_scan_ordering(fam, f, [0.3, 0.6, 0.9, 0.99, 1.0])
        assert built == [2]
        cached = fam._cycle
        assert not cached.flags.writeable
        np.testing.assert_array_equal(cached, product(fam.matrices))
        np.testing.assert_array_equal(cached, helpers.cycle_product(fam.matrices, 1, 2))
        emb, rhs = CycleEmbedding(fam), random_block(rng, fam)
        emb.resolvent_solve("embed", 0.5, rhs)
        assert built == [2]
        for op in ("embed_adjoint", "symmetric", "shift_diag"):
            emb.resolvent_solve(op, 0.5, rhs)
        assert built == [2, 2, 2, 2]
        blocks, step = embedding._cycle_row("symmetric", fam.matrices)
        assert step == 1
        for block in blocks:
            np.testing.assert_array_equal(block, fam._mixed.matrix)
        mats = fam.matrices
        np.testing.assert_array_equal(blocks[1], (mats[1] + mats[0]) / 2.0)
        check_scan_ordering(fam, f, [0.5, 1.0])
        monkeypatch.setattr(kernels, "compose_cycle", None)  # not rebuilt there
        assert fam._cycle_contraction == helpers.oracle_cycle_contraction(fam)
        assert built == [2, 2, 2, 2]

    def test_realization_agrees_with_blockwise_action(self):
        rng = np.random.default_rng(20)
        fam = helpers.random_family(rng, 5, 3)
        emb = CycleEmbedding(fam)
        phi = random_block(rng, fam)
        via_matrix = (emb.realization("embed") @ phi.flat()).reshape(fam.k, fam.n)
        np.testing.assert_allclose(
            via_matrix, apply_embedding(fam, phi).values, atol=1e-14
        )
        via_adjoint = (emb.realization("embed_adjoint") @ phi.flat()).reshape(
            fam.k, fam.n
        )
        np.testing.assert_allclose(
            via_adjoint, apply_embedding_adjoint(fam, phi).values, atol=1e-14
        )

    def test_symmetric_realization_matches_parts(self):
        rng = np.random.default_rng(19)
        fam = helpers.random_family(rng, 4, 2)
        emb = CycleEmbedding(fam)
        phi = random_block(rng, fam)
        via_matrix = (emb.realization("symmetric") @ phi.flat()).reshape(fam.k, fam.n)
        np.testing.assert_allclose(
            via_matrix, symmetric_part(fam, phi).values, atol=1e-14
        )
