"""Majorization, Birkhoff and retargeting tests."""

import numpy as np
import pytest

from quditsim import (
    Commutator,
    Conjugate,
    CouplingTerm,
    GellMannLabel,
    Local,
    MajorizationError,
    Native,
    QuditSystem,
    Sum,
    birkhoff,
    effective_hamiltonian,
    gellmann_matrix,
    retarget_term,
    scale_factor,
    transfer_matrix,
    uhlmann_decompose,
)
from quditsim.program import iter_unique_nodes

from helpers import rand_traceless, weights_all_positive

W = GellMannLabel.w
X = GellMannLabel.x
Y = GellMannLabel.y


def majorizes(big, small, tol=1e-10):
    """Prefix-sum oracle: small is majorized by big (sorted descending)."""
    pa = np.cumsum(small)
    pb = np.cumsum(big)
    return bool(np.all(pa[:-1] <= pb[:-1] + tol) and abs(pa[-1] - pb[-1]) < tol)


def rand_majorized_pair(rng, d):
    """Random (a, target) with a majorized by target, both sorted."""
    target = np.sort(rng.normal(size=d))[::-1]
    target -= target.mean()
    # A convex combination of permutation matrices is doubly stochastic,
    # so mix @ target is majorized by target.
    mix = np.zeros((d, d))
    total = 0.0
    for _ in range(3):
        perm = rng.permutation(d)
        weight = rng.uniform(0.1, 1.0)
        total += weight
        for r, c in enumerate(perm):
            mix[r, c] += weight
    mix /= total
    a = np.sort(mix @ target)[::-1]
    return a, target


class TestScaleFactor:
    def test_prefix_ratio_example(self):
        c = scale_factor(np.array([2.0, -1.0, -1.0]), np.array([1.0, 0.0, -1.0]))
        assert c == pytest.approx(2.0)
        assert majorizes(2.0 * np.array([1.0, 0.0, -1.0]), np.array([2.0, -1.0, -1.0]))

    def test_self_majorization(self):
        a = np.array([0.5, 0.25, -0.75])
        assert scale_factor(a, a) == pytest.approx(1.0)

    def test_zero_spectrum(self):
        assert scale_factor(np.zeros(2), np.array([1.0, -1.0])) == 0.0

    def test_minimality(self):
        rng = np.random.default_rng(40)
        for d in (3, 4, 5):
            for _ in range(20):
                a = np.sort(rng.normal(size=d))[::-1]
                a -= a.mean()
                b = np.sort(rng.normal(size=d))[::-1]
                b -= b.mean()
                c = scale_factor(a, b)
                assert majorizes(c * b, a)
                if c > 1e-9:
                    assert not majorizes(0.999 * c * b, a)

    def test_rejects_zero_reference(self):
        with pytest.raises(MajorizationError):
            scale_factor(np.array([1.0, -1.0]), np.zeros(2))

    def test_rejects_traceful(self):
        with pytest.raises(MajorizationError):
            scale_factor(np.array([1.0, 1.0]), np.array([1.0, -1.0]))


class TestTransferMatrix:
    def test_identity_when_equal(self):
        a = np.array([1.0, 0.0, -1.0])
        assert np.allclose(transfer_matrix(a, a), np.eye(3))

    def test_single_t_transform(self):
        d = transfer_matrix(np.array([0.0, 0.0]), np.array([1.0, -1.0]))
        assert np.allclose(d, np.full((2, 2), 0.5))

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_random_pairs(self, d):
        rng = np.random.default_rng(50 + d)
        for _ in range(25):
            a, target = rand_majorized_pair(rng, d)
            ds = transfer_matrix(a, target)
            assert np.abs(ds @ target - a).max() < 1e-11
            assert np.abs(ds.sum(axis=0) - 1).max() < 1e-11
            assert np.abs(ds.sum(axis=1) - 1).max() < 1e-11
            assert ds.min() >= 0.0
            assert ds.max() <= 1.0 + 1e-12

    def test_reports_violated_prefix(self):
        with pytest.raises(MajorizationError, match="index 1"):
            transfer_matrix(np.array([2.0, -2.0]), np.array([1.0, -1.0]))


class TestBirkhoff:
    def test_permutation_matrix(self):
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        pieces = birkhoff(perm)
        assert len(pieces) == 1
        weight, p = pieces[0]
        assert weight == pytest.approx(1.0)
        assert np.allclose(p, perm)

    def test_half_half(self):
        pieces = birkhoff(np.full((2, 2), 0.5))
        assert len(pieces) == 2
        assert sorted(w for w, _ in pieces) == pytest.approx([0.5, 0.5])
        total = sum(w * p for w, p in pieces)
        assert np.allclose(total, np.full((2, 2), 0.5))

    def test_uniform_three(self):
        pieces = birkhoff(np.full((3, 3), 1.0 / 3.0))
        assert len(pieces) == 3
        for w, _ in pieces:
            assert w == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_doubly_stochastic(self, d):
        rng = np.random.default_rng(60 + d)
        for _ in range(10):
            ds = np.zeros((d, d))
            weights = rng.dirichlet(np.ones(d))
            for w in weights:
                perm = rng.permutation(d)
                for r, c in enumerate(perm):
                    ds[r, c] += w
            pieces = birkhoff(ds)
            assert abs(sum(w for w, _ in pieces) - 1.0) < 1e-10
            recon = sum(w * p for w, p in pieces)
            assert np.abs(recon - ds).max() < 1e-10
            assert len(pieces) <= (d - 1) ** 2 + 1
            for _, p in pieces:
                assert np.all(ds[p > 0.5] > 1e-12)

    def test_rejects_non_stochastic(self):
        bad = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            birkhoff(bad)


class TestUhlmann:
    def test_identity_case(self):
        rng = np.random.default_rng(70)
        a = rand_traceless(rng, 3)
        dec = uhlmann_decompose(a, a)
        assert len(dec.pairs) == 1
        weight, u = dec.pairs[0]
        assert weight == pytest.approx(1.0)
        assert np.abs(u @ a @ u.conj().T - a).max() < 1e-12

    def test_w_from_x_qubit(self):
        a = gellmann_matrix(2, W(2))
        b = gellmann_matrix(2, X(1, 2))
        dec = uhlmann_decompose(a, b)
        assert len(dec.pairs) == 1
        assert dec.pairs[0][0] == pytest.approx(1.0)
        assert np.abs(dec.reconstruct(b) - a).max() < 1e-12

    @pytest.mark.parametrize("d", range(2, 7))
    def test_random_pairs(self, d):
        rng = np.random.default_rng(80 + d)
        for _ in range(25):
            a = rand_traceless(rng, d)
            b = rand_traceless(rng, d)
            dec = uhlmann_decompose(a, b)
            assert len(dec.pairs) <= d * d
            assert all(c > 0 for c, _ in dec.pairs)
            assert np.abs(dec.reconstruct(b) - a).max() < 1e-10

    def test_zero_target_empty(self):
        b = gellmann_matrix(3, W(2))
        assert uhlmann_decompose(np.zeros((3, 3), dtype=complex), b).pairs == ()

    def test_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            uhlmann_decompose(gellmann_matrix(2, W(2)), np.zeros((2, 2), dtype=complex))

    def test_rejects_traceful(self):
        with pytest.raises(ValueError):
            uhlmann_decompose(np.eye(2, dtype=complex), gellmann_matrix(2, W(2)))


class TestRetarget:
    def _effective(self, program, term, coeff, system):
        source = coeff * term.matrix(system)
        return effective_hamiltonian(program, source, system)

    def test_identity_retarget(self):
        system = QuditSystem((2,))
        term = CouplingTerm.of({0: W(2)})
        program = retarget_term(term, 1.0, term, 1.0, system)
        assert isinstance(program, Sum)
        assert len(program.children) == 1
        weight, node = program.children[0]
        assert weight == pytest.approx(1.0)
        assert isinstance(node, Conjugate)
        assert np.abs(node.unitary.matrix() - np.eye(2)).max() < 1e-12

    def test_two_qubit_retarget(self):
        system = QuditSystem((2, 2))
        source = CouplingTerm.of({0: W(2), 1: W(2)})
        target = CouplingTerm.of({0: X(1, 2), 1: Y(1, 2)})
        program = retarget_term(source, 1.0, target, 1.0, system)
        eff = self._effective(program, source, 1.0, system)
        assert np.abs(eff - target.matrix(system)).max() < 1e-10

    def test_sign_flip_single_qutrit(self):
        system = QuditSystem((3,))
        term = CouplingTerm.of({0: W(2)})
        program = retarget_term(term, 1.0, term, -1.0, system)
        assert weights_all_positive(program)
        eff = self._effective(program, term, 1.0, system)
        assert np.abs(eff + term.matrix(system)).max() < 1e-10

    def test_mixed_dims_and_scales(self):
        rng = np.random.default_rng(90)
        system = QuditSystem((3, 4))
        labels0 = [W(2), W(3), X(1, 3), Y(2, 3)]
        labels1 = [W(4), X(1, 2), Y(1, 4), X(3, 4)]
        for _ in range(6):
            src = CouplingTerm.of({0: labels0[rng.integers(4)], 1: labels1[rng.integers(4)]})
            dst = CouplingTerm.of({0: labels0[rng.integers(4)], 1: labels1[rng.integers(4)]})
            hs = float(rng.uniform(0.3, 2.0) * rng.choice([-1, 1]))
            ht = float(rng.uniform(0.3, 2.0) * rng.choice([-1, 1]))
            program = retarget_term(src, hs, dst, ht, system)
            eff = self._effective(program, src, hs, system)
            assert np.abs(eff - ht * dst.matrix(system)).max() < 1e-10

    def test_structure_conjugations_only(self):
        system = QuditSystem((3, 3))
        src = CouplingTerm.of({0: W(2), 1: W(2)})
        dst = CouplingTerm.of({0: X(1, 2), 1: Y(1, 2)})
        program = retarget_term(src, 1.0, dst, 1.0, system)
        assert weights_all_positive(program)
        for node in iter_unique_nodes(program):
            assert isinstance(node, (Sum, Conjugate, Native))
            assert not isinstance(node, (Commutator, Local))

    def test_support_mismatch(self):
        system = QuditSystem((2, 2))
        with pytest.raises(ValueError):
            retarget_term(
                CouplingTerm.of({0: W(2)}), 1.0, CouplingTerm.of({1: W(2)}), 1.0, system
            )

    def test_zero_source_coefficient(self):
        system = QuditSystem((2,))
        term = CouplingTerm.of({0: W(2)})
        with pytest.raises(ValueError):
            retarget_term(term, 0.0, term, 1.0, system)
