"""Expansion, connectivity and classification tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsim import (
    CouplingTerm,
    Expansion,
    GellMannLabel,
    QuditSystem,
    VerdictKind,
    classify,
    effective_hamiltonian,
    expand,
    is_entangling,
    reconstruct,
)
from quditsim.isolation import (
    precondition,
    stage_cartan_filter,
    stage_depolarize,
    stage_full_support_filter,
    stage_ladder,
    stage_permutation_filter,
)
from quditsim.operators import gellmann_labels

from helpers import dense_reconstruct, rand_expansion, rand_hermitian, rand_support, rand_term

W = GellMannLabel.w
X = GellMannLabel.x
Y = GellMannLabel.y

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def exhaustive_partition(expansion, subset):
    """Brute-force witness search over all 2^(n-1) - 1 bipartitions."""
    subset = tuple(sorted(subset))
    supports = [set(t.support) & set(subset) for t in expansion.coefficients]
    for size in range(1, len(subset)):
        for left in itertools.combinations(subset[1:], size):
            left_set = set(left)
            right_set = set(subset) - left_set
            if all(s <= left_set or s <= right_set for s in supports):
                return (tuple(sorted(left_set)), tuple(sorted(right_set)))
    return None


class TestExpand:
    def test_zz_single_term(self):
        system = QuditSystem((2, 2))
        e = expand(np.kron(PAULI_Z, PAULI_Z), system)
        assert e.trace_offset == pytest.approx(0.0, abs=1e-14)
        assert len(e.coefficients) == 1
        term = CouplingTerm.of({0: W(2), 1: W(2)})
        assert e.coefficients[term] == pytest.approx(2.0, abs=1e-12)

    def test_identity(self):
        system = QuditSystem((2, 2))
        e = expand(np.eye(4, dtype=complex), system)
        assert not e.coefficients
        assert e.trace_offset == pytest.approx(1.0)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 2, 2), (4, 3)])
    def test_round_trip(self, dims):
        system = QuditSystem(dims)
        rng = np.random.default_rng(hash(dims) % 2**31)
        for _ in range(13):
            h = rand_hermitian(rng, system.total_dim)
            assert np.abs(reconstruct(expand(h, system)) - h).max() < 1e-11

    def test_rejects_non_hermitian(self):
        system = QuditSystem((2,))
        with pytest.raises(ValueError):
            expand(np.array([[0.0, 1.0], [0.0, 0.0]]), system)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            expand(np.eye(4, dtype=complex), QuditSystem((2, 3)))


class TestReconstruct:
    def test_empty(self):
        e = Expansion(QuditSystem((2, 2)))
        assert np.abs(reconstruct(e)).max() == 0.0

    def test_single_term(self):
        system = QuditSystem((2, 2))
        e = Expansion(system, {CouplingTerm.of({0: X(1, 2)}): 1.0})
        expected = np.kron(PAULI_X / np.sqrt(2), np.eye(2))
        assert np.allclose(reconstruct(e), expected)

    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2)])
    def test_expand_fixed_point(self, dims):
        system = QuditSystem(dims)
        rng = np.random.default_rng(17)
        for _ in range(10):
            e = rand_expansion(rng, system, 4)
            back = expand(reconstruct(e), system)
            assert set(back.coefficients) == set(e.coefficients)
            for term, h in e.coefficients.items():
                assert back.coefficients[term] == pytest.approx(h, abs=1e-11)


class TestEntangling:
    def _expansion(self, dims, supports):
        system = QuditSystem(dims)
        rng = np.random.default_rng(0)
        coeffs = {rand_term(rng, system, s): 1.0 for s in supports}
        return Expansion(system, coeffs)

    def test_partition_witness(self):
        e = self._expansion((2, 2, 2), [(0, 1)])
        conn = is_entangling(e, (0, 1, 2))
        assert not conn
        assert conn.partition == ((0, 1), (2,))

    def test_connected_chain(self):
        e = self._expansion((2, 2, 2), [(0, 1), (1, 2)])
        assert is_entangling(e, (0, 1, 2))

    def test_two_blocks(self):
        e = self._expansion((2, 2, 2, 2), [(0, 1), (2, 3)])
        conn = is_entangling(e, (0, 1, 2, 3))
        assert not conn
        assert set(conn.partition[0]) | set(conn.partition[1]) == {0, 1, 2, 3}
        assert conn.partition == ((0, 1), (2, 3))

    def test_witness_is_valid(self):
        e = self._expansion((2, 3, 2, 2), [(0, 2), (1,), (3,)])
        conn = is_entangling(e, range(4))
        assert not conn
        left, right = conn.partition
        for term in e.coefficients:
            inside = set(term.support)
            assert inside <= set(left) or inside <= set(right)

    def test_empty_subset_rejected(self):
        e = self._expansion((2, 2), [(0, 1)])
        with pytest.raises(ValueError):
            is_entangling(e, ())

    @pytest.mark.parametrize("trial", range(40))
    def test_matches_exhaustive_search(self, trial):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
        system = QuditSystem(dims)
        coeffs = {}
        for _ in range(int(rng.integers(1, 5))):
            coeffs[rand_term(rng, system, rand_support(rng, n))] = 1.0
        e = Expansion(system, coeffs)
        conn = is_entangling(e, range(n))
        witness = exhaustive_partition(e, range(n))
        assert bool(conn) == (witness is None)


class TestClassify:
    def test_odd_qubit_only(self):
        system = QuditSystem((2, 2, 2))
        e = Expansion(system, {CouplingTerm.of({0: X(1, 2), 1: X(1, 2), 2: X(1, 2)}): 1.0})
        assert classify(e).kind is VerdictKind.ODD_QUBIT_ONLY

    def test_even_term_universal(self):
        system = QuditSystem((2, 2))
        e = Expansion(system, {CouplingTerm.of({0: X(1, 2), 1: X(1, 2)}): 1.0})
        assert classify(e).kind is VerdictKind.UNIVERSAL_BY_EVEN_TERM

    def test_non_qubit_constructive(self):
        system = QuditSystem((3, 2))
        e = Expansion(system, {CouplingTerm.of({0: X(1, 2), 1: X(1, 2)}): 1.0})
        assert classify(e).kind is VerdictKind.UNIVERSAL_CONSTRUCTIVE

    def test_non_entangling(self):
        system = QuditSystem((2, 2))
        e = Expansion(system, {CouplingTerm.of({0: W(2)}): 1.0})
        verdict = classify(e)
        assert verdict.kind is VerdictKind.NON_ENTANGLING
        assert verdict.partition is not None
        assert "NonEntangling" in verdict.describe()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify(Expansion(QuditSystem((2, 2))))

    def test_odd_commutator_closure_stays_odd(self):
        # Dense commutator closure of odd couplings never produces an even
        # (in particular 2-local) coupling on three qubits.
        system = QuditSystem((2, 2, 2))
        seeds = [
            CouplingTerm.of({0: X(1, 2), 1: X(1, 2), 2: X(1, 2)}),
            CouplingTerm.of({0: W(2)}),
        ]
        e = Expansion(system, {t: 1.0 for t in seeds})
        assert classify(e).kind is VerdictKind.ODD_QUBIT_ONLY

        known = {t: t.matrix(system) for t in seeds}
        frontier = list(known)
        for _ in range(6):
            new_terms = []
            for a in list(known):
                for b in frontier:
                    comm = 1j * (known[a] @ known[b] - known[b] @ known[a])
                    if np.abs(comm).max() < 1e-12:
                        continue
                    for term, _ in expand(comm, system).terms():
                        if term not in known:
                            known[term] = term.matrix(system)
                            new_terms.append(term)
            if not new_terms:
                break
            frontier = new_terms
        assert all(len(t.support) % 2 == 1 for t in known)
        assert not any(len(t.support) == 2 for t in known)


class TestCouplingTerm:
    def test_sorting_and_string(self):
        t = CouplingTerm.of({1: X(1, 2), 0: W(2)})
        assert t.support == (0, 1)
        assert str(t) == "0:W:2,1:X:1:2"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CouplingTerm(())

    def test_validate_against_system(self):
        t = CouplingTerm.of({0: W(3)})
        with pytest.raises(ValueError):
            t.validate(QuditSystem((2, 2)))


class TestQuditSystem:
    def test_basic_properties(self):
        system = QuditSystem((3, 2, 4))
        assert system.total_dim == 24
        assert system.qubits() == (1,)
        assert system.non_qubits() == (0, 2)

    def test_rejects_small_dims(self):
        with pytest.raises(ValueError):
            QuditSystem((2, 1))
        with pytest.raises(ValueError):
            QuditSystem(())

    def test_policy_cap_on_total_dimension(self):
        QuditSystem((4, 4, 4, 4))  # 256 is allowed
        with pytest.raises(ValueError):
            QuditSystem((4, 4, 4, 4, 2))


def _rel_error(actual, expected):
    return float(np.abs(actual - expected).max()) / max(float(np.abs(expected).max()), 1e-300)


def _assert_stage_output(after, evaluated, identity_image, input_scale):
    """A stage's symbolic output on a traceless input against dense evaluation.

    ``evaluated`` and ``identity_image`` are the stage program evaluated on
    the input and on the identity.  The traceless part must agree to 1e-10
    of the output's largest entry.  Dense twirls leave roundoff on the
    identity, which stage T multiplies by d_m^2 (d_j^2 - 1) per pair while
    full-support terms grow by d_j^2 only, so the evaluated trace is held
    to 1e-10 of the identity's gain (or of the input, for the commutator
    ladder, which has no such gain).
    """
    big_d = after.system.total_dim
    offset = np.trace(evaluated).real / big_d
    assert _rel_error(evaluated - offset * np.eye(big_d), dense_reconstruct(after)) < 1e-10
    gain = np.trace(identity_image).real / big_d
    assert abs(offset) <= 1e-10 * max(abs(gain), 1.0) * input_scale


mixed_dims = st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=4).filter(
    lambda dims: math.prod(dims) <= 64
)


class TestCoefficientArray:
    """The coefficient-array layout, its dict view and its site-wise maps."""

    def test_layout(self):
        system = QuditSystem((3, 2))
        term = CouplingTerm.of({0: X(1, 2), 1: W(2)})
        e = Expansion(system, {term: 0.7}, trace_offset=0.25)
        assert e.coeffs.shape == (9, 4)
        assert e.coeffs[0, 0] == 0.25
        k = gellmann_labels(3).index(X(1, 2)) + 1
        assert e.coeffs[k, 1] == 0.7
        assert np.count_nonzero(e.coeffs) == 2
        assert dict(e.coefficients) == {term: 0.7}
        assert e.coefficient(term) == 0.7
        assert e.coefficient(CouplingTerm.of({1: W(2)})) == 0.0
        assert Expansion.from_array(system, e.coeffs).coefficients == e.coefficients

    def test_dict_view_and_array_are_read_only(self):
        system = QuditSystem((2, 2))
        e = Expansion(system, {CouplingTerm.of({0: W(2)}): 1.0})
        with pytest.raises(TypeError):
            e.coefficients[CouplingTerm.of({1: W(2)})] = 2.0
        with pytest.raises(ValueError):
            e.coeffs[0, 0] = 1.0

    def test_from_array_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Expansion.from_array(QuditSystem((2, 3)), np.zeros((4, 4)))

    def test_rejects_term_outside_system(self):
        with pytest.raises(ValueError):
            Expansion(QuditSystem((2, 2)), {CouplingTerm.of({0: W(3)}): 1.0})

    def test_stages_scale_the_trace_offset_like_dense_evaluation(self):
        system = QuditSystem((2, 3, 4))
        offset_only = Expansion(system, {}, trace_offset=0.5)
        eye = np.eye(system.total_dim)
        for stage, arg in (
            (stage_depolarize, (1,)),
            (stage_full_support_filter, (0, 1, 2)),
            (stage_cartan_filter, (0, 1, 2)),
            (stage_permutation_filter, {1: 3, 2: 4}),
        ):
            program, out = stage(offset_only, arg)
            gain = np.trace(effective_hamiltonian(program, eye, system)).real / system.total_dim
            assert out.trace_offset == pytest.approx(0.5 * gain, rel=1e-12)
            assert out.term_count() == 0

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(dims=mixed_dims, seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6))
    def test_array_maps_match_dense_references(self, dims, seed, size):
        rng = np.random.default_rng(seed)
        system = QuditSystem(tuple(dims))
        shape = tuple(d * d for d in dims)
        coeffs = np.zeros(shape)
        for flat in rng.choice(coeffs.size, size=min(size, coeffs.size), replace=False):
            coeffs.flat[flat] = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        coeffs.flat[int(rng.integers(1, coeffs.size))] = 0.9
        coeffs.flat[0] = rng.uniform(-1.0, 1.0)
        e = Expansion.from_array(system, coeffs)

        dense = reconstruct(e)
        assert _rel_error(dense, dense_reconstruct(e)) < 1e-12
        assert _rel_error(expand(dense, system).coeffs, e.coeffs) < 1e-11

        target = min(e.coefficients, key=lambda t: (-abs(e.coefficients[t]), t))
        canon, rotated = precondition(e, target)
        u = canon.conjugation.matrix()
        assert _rel_error(dense_reconstruct(rotated), u @ dense @ u.conj().T) < 1e-10
        current = rotated.without_offset()
        stages = (
            lambda x: stage_depolarize(x, target.support),
            lambda x: stage_full_support_filter(x, target.support),
            lambda x: stage_cartan_filter(x, target.support),
            lambda x: stage_permutation_filter(x, canon.cartan_indices),
            lambda x: stage_ladder(x, canon.cartan_indices),
        )
        for stage in stages:
            program, after = stage(current)
            evaluated = effective_hamiltonian(program, dense_reconstruct(current), system)
            identity_image = effective_hamiltonian(program, np.eye(system.total_dim), system)
            _assert_stage_output(after, evaluated, identity_image, np.abs(current.coeffs).max())
            current = after.thresholded()
