"""Operator toolbox tests: bases, twirls, embeddings, exponentials."""

import numpy as np
import pytest

from quditsim import (
    GellMannLabel,
    embed,
    gellmann_basis,
    gellmann_matrix,
    heisenberg_weyl,
    hermitian_exp,
    level_permutation,
    level_sign_flip,
)
from quditsim.operators import LocalUnitary, dagger, is_unitary, twirl

from helpers import hs_inner, kron_unitary, rand_hermitian, rand_traceless

W = GellMannLabel.w
X = GellMannLabel.x
Y = GellMannLabel.y


class TestGellMann:
    def test_w2_qubit(self):
        expected = np.diag([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(gellmann_matrix(2, W(2)), expected)

    def test_w3_qutrit(self):
        expected = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6)
        assert np.allclose(gellmann_matrix(3, W(3)), expected)

    def test_x12_qubit(self):
        expected = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
        assert np.allclose(gellmann_matrix(2, X(1, 2)), expected)

    @pytest.mark.parametrize("d,count", [(2, 3), (3, 8), (4, 15)])
    def test_basis_count(self, d, count):
        assert len(gellmann_basis(d)) == count == d * d - 1

    def test_qubit_basis_labels(self):
        labels = {label for label, _ in gellmann_basis(2)}
        assert labels == {W(2), X(1, 2), Y(1, 2)}

    @pytest.mark.parametrize("d", range(2, 7))
    def test_orthonormality(self, d):
        basis = gellmann_basis(d)
        for i, (_, gi) in enumerate(basis):
            assert abs(np.trace(gi)) < 1e-14
            for j, (_, gj) in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert abs(hs_inner(gi, gj) - want) < 1e-12

    def test_w2_w3_orthogonal_qutrit(self):
        prod = gellmann_matrix(3, W(2)) @ gellmann_matrix(3, W(3))
        assert abs(np.trace(prod)) < 1e-14

    @pytest.mark.parametrize("d", range(2, 7))
    def test_completeness(self, d):
        rng = np.random.default_rng(100 + d)
        basis = gellmann_basis(d)
        for _ in range(20):
            h = rand_hermitian(rng, d)
            recon = (np.trace(h) / d) * np.eye(d)
            for _, g in basis:
                recon = recon + hs_inner(g, h) * g
            assert np.abs(recon - h).max() < 1e-11

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            gellmann_matrix(2, W(3))
        with pytest.raises(ValueError):
            gellmann_matrix(3, X(2, 2))
        with pytest.raises(ValueError):
            gellmann_matrix(3, Y(1, 4))

    def test_label_string_round_trip(self):
        for label in (W(4), X(1, 3), Y(2, 5)):
            assert GellMannLabel.from_string(str(label)) == label
        with pytest.raises(ValueError):
            GellMannLabel.from_string("Q:1")

    def test_ladder_identities(self):
        # -i[W_b, X_{b-1,b}] = sqrt(b/(b-1)) Y_{b-1,b}; vanishes for a > b.
        d = 6
        for b in range(2, 7):
            wb = gellmann_matrix(d, W(b))
            xb = gellmann_matrix(d, X(b - 1, b))
            comm = -1j * (wb @ xb - xb @ wb)
            expected = np.sqrt(b / (b - 1)) * gellmann_matrix(d, Y(b - 1, b))
            assert np.abs(comm - expected).max() < 1e-12
            for a in range(b + 1, 7):
                wa = gellmann_matrix(d, W(a))
                comm = -1j * (wa @ xb - xb @ wa)
                assert np.abs(comm).max() < 1e-13


class TestHeisenbergWeyl:
    def test_identity_first_and_unitary(self):
        for d in range(2, 6):
            group = heisenberg_weyl(d)
            assert len(group) == d * d
            assert np.allclose(group[0], np.eye(d))
            for u in group:
                assert is_unitary(u)

    def test_projector_twirl_qubit(self):
        j = np.diag([1.0, 0.0]).astype(complex)
        acc = sum(u @ j @ dagger(u) for u in heisenberg_weyl(2))
        assert np.abs(acc - 2 * np.eye(2)).max() < 1e-13

    @pytest.mark.parametrize("d", range(2, 6))
    def test_depolarizing_twirl(self, d):
        rng = np.random.default_rng(10 + d)
        group = heisenberg_weyl(d)
        for _ in range(20):
            j = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            acc = sum(u @ j @ dagger(u) for u in group)
            assert np.abs(acc - d * np.trace(j) * np.eye(d)).max() < 1e-11

    @pytest.mark.parametrize("d", range(2, 6))
    def test_traceless_negation(self, d):
        rng = np.random.default_rng(20 + d)
        group = heisenberg_weyl(d)
        for _ in range(20):
            j = rand_traceless(rng, d)
            acc = sum(u @ j @ dagger(u) for u in group[1:])
            assert np.abs(acc + j).max() < 1e-11


class TestSpecialUnitaries:
    def test_sign_flip_qubit(self):
        assert np.allclose(level_sign_flip(2, 1), np.diag([-1.0, 1.0]))

    def test_flip_anticommutes_with_off_diagonal(self):
        z1 = level_sign_flip(3, 1)
        x12 = gellmann_matrix(3, X(1, 2))
        assert np.abs(z1 @ x12 @ z1 + x12).max() < 1e-14

    def test_flip_commutes_with_diagonal(self):
        z3 = level_sign_flip(3, 3)
        w2 = gellmann_matrix(3, W(2))
        assert np.abs(z3 @ w2 @ z3 - w2).max() < 1e-14

    def test_flip_out_of_range(self):
        with pytest.raises(ValueError):
            level_sign_flip(3, 0)
        with pytest.raises(ValueError):
            level_sign_flip(3, 4)

    def test_permutation_prefix(self):
        p = level_permutation(4, (2, 1))
        vecs = np.eye(4)
        assert np.allclose(p @ vecs[:, 0], vecs[:, 1])
        assert np.allclose(p @ vecs[:, 1], vecs[:, 0])
        assert np.allclose(p @ vecs[:, 2], vecs[:, 2])
        assert is_unitary(p)

    def test_permutation_fixes_high_diagonal(self):
        # Elements with all support above the permuted prefix are invariant.
        p = level_permutation(4, (2, 3, 1))
        w4 = gellmann_matrix(4, W(4))
        assert np.abs(p @ w4 @ dagger(p) - w4).max() < 1e-14

    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            level_permutation(3, (1, 3))
        with pytest.raises(ValueError):
            level_permutation(2, (1, 2, 3))


class TestEmbed:
    def test_single_site(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        assert np.allclose(embed((2, 2), {0: z}), np.kron(z, np.eye(2)))

    def test_mixed_dims(self):
        w3 = gellmann_matrix(3, W(3))
        result = embed((2, 3), {1: w3})
        assert result.shape == (6, 6)
        assert np.allclose(result, np.kron(np.eye(2), w3))

    def test_two_factors(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(embed((2, 2), {0: x, 1: x}), np.kron(x, x))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embed((2, 3), {0: np.eye(3, dtype=complex)})

    def test_rejects_qudit_outside_system(self):
        for qudit in (2, 7, -1):
            with pytest.raises(ValueError, match="not in a 2-qudit system"):
                embed((3, 2), {qudit: np.eye(2, dtype=complex)})


class TestHermitianExp:
    def test_zero_time(self):
        rng = np.random.default_rng(5)
        h = rand_hermitian(rng, 4)
        assert np.allclose(hermitian_exp(h, 0.0), np.eye(4))

    def test_diagonal_case(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.abs(hermitian_exp(z, np.pi / 2) - expected).max() < 1e-14

    def test_unitarity(self):
        rng = np.random.default_rng(6)
        for d in (2, 3, 5):
            h = rand_hermitian(rng, d)
            u = hermitian_exp(h, 1.0)
            assert np.abs(u @ dagger(u) - np.eye(d)).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestLocalUnitary:
    def test_matrix_and_inverse(self):
        rng = np.random.default_rng(8)
        h = rand_hermitian(rng, 3)
        u = hermitian_exp(h, 0.7)
        lu = LocalUnitary.from_factors((3, 2), {0: u})
        full = lu.matrix()
        assert np.allclose(full, np.kron(u, np.eye(2)))
        assert np.abs(lu.inverse().matrix() @ full - np.eye(6)).max() < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            LocalUnitary.from_factors((2,), {0: np.array([[1.0, 1.0], [0.0, 1.0]])})

    def test_drops_identity_factors(self):
        rng = np.random.default_rng(9)
        u = hermitian_exp(rand_hermitian(rng, 2), 0.4)
        near_identity = np.eye(3, dtype=complex) + 1e-15
        lu = LocalUnitary.from_factors(
            (2, 3, 3), {2: np.eye(3, dtype=complex), 1: near_identity, 0: u}
        )
        assert [j for j, _ in lu.placed] == [0]
        assert LocalUnitary.from_factors((2, 2), {1: np.eye(2)}).placed == ()

    def test_matrix_is_kron_of_factors(self):
        rng = np.random.default_rng(10)
        dims = (2, 3, 2)
        placed = {j: hermitian_exp(rand_hermitian(rng, dims[j]), 0.3) for j in (2, 0)}
        lu = LocalUnitary.from_factors(dims, placed)
        expected = np.kron(np.kron(placed[0], np.eye(3)), placed[2])
        assert np.abs(lu.matrix() - expected).max() < 1e-15
        assert [j for j, _ in lu.placed] == [0, 2]

    def test_nontrivial_factors_and_inverse(self):
        rng = np.random.default_rng(11)
        u = hermitian_exp(rand_hermitian(rng, 3), 0.9)
        lu = LocalUnitary.from_factors((2, 3), {0: np.eye(2), 1: u})
        factors = dict(lu.placed)
        assert list(factors) == [1] and factors[1] is u
        inverse = lu.inverse()
        assert list(dict(inverse.placed)) == [1]
        assert np.abs(dict(inverse.placed)[1] - dagger(u)).max() == 0.0
        assert np.abs(inverse.matrix() @ lu.matrix() - np.eye(6)).max() < 1e-12

    def test_rejects_bad_placement(self):
        with pytest.raises(ValueError):
            LocalUnitary.from_factors((2, 2), {2: np.eye(2)})
        with pytest.raises(ValueError):
            LocalUnitary.from_factors((2, 2), {0: np.eye(3)})


def _dense_twirl(op, branches):
    out = np.zeros(op.shape, dtype=complex)
    for w, unitary in branches:
        u = kron_unitary(unitary)
        out += w * (u @ op @ dagger(u))
    return out


class TestTwirlKernel:
    """twirl against one dense U @ op @ U† per branch."""

    def unitary(self, rng, dims, sites):
        return LocalUnitary.from_factors(
            dims, {j: hermitian_exp(rand_hermitian(rng, dims[j]), 1.0) for j in sites}
        )

    def check(self, dims, branches, rng):
        op = rand_hermitian(rng, int(np.prod(dims)))
        got = twirl(op, dims, branches)
        expected = _dense_twirl(op, branches)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_single_conjugation(self):
        rng = np.random.default_rng(20)
        dims = (3, 2, 2)
        self.check(dims, [(1.0, self.unitary(rng, dims, (0, 2)))], rng)

    def test_product_weights_split_per_qudit(self):
        rng = np.random.default_rng(21)
        dims = (2, 3, 2)
        per_site = {
            j: [(float(rng.uniform(0.1, 1)), hermitian_exp(rand_hermitian(rng, dims[j]), 1.0))
                for _ in range(3)]
            for j in (0, 1)
        }
        branches = [
            (wa * wb, LocalUnitary.from_factors(dims, {0: ua, 1: ub}))
            for wa, ua in per_site[0]
            for wb, ub in per_site[1]
        ]
        self.check(dims, branches, rng)

    def test_joint_block(self):
        rng = np.random.default_rng(22)
        dims = (3, 3, 2, 2)
        branches = [
            (float(rng.uniform(0.1, 1)), self.unitary(rng, dims, (0, 1))) for _ in range(10)
        ]
        branches.append((2.0, LocalUnitary(dims)))
        self.check(dims, branches, rng)

    def test_branch_by_branch(self):
        rng = np.random.default_rng(23)
        dims = (2, 2, 2)
        branches = [(float(rng.uniform(0.1, 1)), self.unitary(rng, dims, (0, 1, 2)))
                    for _ in range(4)]
        self.check(dims, branches, rng)

    def test_depolarizing_group_twirl(self):
        rng = np.random.default_rng(24)
        dims = (3, 2)
        groups = [heisenberg_weyl(3), heisenberg_weyl(2)]
        branches = [
            (1.0, LocalUnitary.from_factors(dims, {0: a, 1: b}))
            for a in groups[0]
            for b in groups[1]
        ]
        op = rand_hermitian(rng, 6)
        expected = 36 * np.trace(op) / 6 * np.eye(6)
        assert np.abs(twirl(op, dims, branches) - expected).max() < 1e-11

    def test_identity_branches_only_scale(self):
        op = rand_hermitian(np.random.default_rng(25), 4)
        got = twirl(op, (2, 2), [(0.5, LocalUnitary((2, 2))), (1.5, LocalUnitary((2, 2)))])
        assert np.abs(got - 2.0 * op).max() < 1e-15

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            twirl(np.eye(4), (2, 2), [(1.0, LocalUnitary((4,)))])
