"""Program IR semantics, negation, Trotter compilation and verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsim import (
    BranchCapExceeded,
    Commutator,
    Conjugate,
    CouplingTerm,
    GellMannLabel,
    Local,
    Native,
    QuditSystem,
    Sum,
    effective_hamiltonian,
    graft,
    heisenberg_weyl,
    hermitian_exp,
    negate_isolated_term,
    trotter_compile,
    verify,
)
from quditsim.operators import LocalUnitary, dagger
from quditsim.program import (
    _count_factors,
    iter_unique_nodes,
    product_unitary,
    weights_all_positive,
)
from quditsim.serialize import matrix_to_json, program_from_json, program_to_json

from helpers import dense_effective_hamiltonian, rand_hermitian

W = GellMannLabel.w
X = GellMannLabel.x

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestEffectiveHamiltonian:
    def test_conjugate_rotates(self):
        system = QuditSystem((2, 2))
        source = np.kron(PAULI_Z, PAULI_Z)
        program = Conjugate(
            LocalUnitary.from_factors(system.dims, {0: HADAMARD}), Native(1.0)
        )
        eff = effective_hamiltonian(program, source, system)
        assert np.abs(eff - np.kron(PAULI_X, PAULI_Z)).max() < 1e-12

    def test_sum_scales(self):
        system = QuditSystem((2,))
        source = PAULI_Z
        program = Sum(((2.0, Native(1.0)),))
        assert np.allclose(effective_hamiltonian(program, source, system), 2 * source)

    def test_commutator_of_locals(self):
        system = QuditSystem((2, 2))
        program = Commutator(Local(0, PAULI_Z), Local(0, PAULI_X))
        eff = effective_hamiltonian(program, np.zeros((4, 4), dtype=complex), system)
        assert np.abs(eff - np.kron(-2 * PAULI_Y, np.eye(2))).max() < 1e-12

    def test_linearity_for_commutator_free(self):
        rng = np.random.default_rng(200)
        system = QuditSystem((2, 3))
        u = hermitian_exp(rand_hermitian(rng, 3), 0.3)
        program = Sum(
            (
                (0.7, Conjugate(LocalUnitary.from_factors(system.dims, {1: u}), Native(1.0))),
                (1.3, Native(2.0)),
            )
        )
        for _ in range(20):
            h1 = rand_hermitian(rng, 6)
            h2 = rand_hermitian(rng, 6)
            a, b = rng.normal(), rng.normal()
            lhs = effective_hamiltonian(program, a * h1 + b * h2, system)
            rhs = a * effective_hamiltonian(program, h1, system) + b * effective_hamiltonian(
                program, h2, system
            )
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_hermitian_output(self):
        rng = np.random.default_rng(201)
        system = QuditSystem((2, 2))
        h = rand_hermitian(rng, 4)
        program = Commutator(Native(1.0), Local(1, PAULI_X))
        eff = effective_hamiltonian(program, h, system)
        assert np.abs(eff - dagger(eff)).max() < 1e-11

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Native(0.0)
        with pytest.raises(ValueError):
            Sum(((-1.0, Native(1.0)),))
        with pytest.raises(ValueError):
            Local(0, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestNegation:
    def test_single_qubit(self):
        system = QuditSystem((2,))
        term = CouplingTerm.of({0: W(2)})
        program = negate_isolated_term(term, system)
        eff = effective_hamiltonian(program, term.matrix(system), system)
        assert np.abs(eff + term.matrix(system)).max() < 1e-12
        assert weights_all_positive(program)

    def test_two_qutrits(self):
        system = QuditSystem((3, 3))
        term = CouplingTerm.of({0: X(1, 2), 1: X(1, 2)})
        program = negate_isolated_term(term, system)
        eff = effective_hamiltonian(program, term.matrix(system), system)
        assert np.abs(eff + term.matrix(system)).max() < 1e-12

    def test_involution(self):
        system = QuditSystem((3,))
        term = CouplingTerm.of({0: W(3)})
        once = negate_isolated_term(term, system)
        twice = graft(negate_isolated_term(term, system), once)
        eff = effective_hamiltonian(twice, term.matrix(system), system)
        assert np.abs(eff - term.matrix(system)).max() < 1e-11


class TestTrotter:
    def test_native_single_step_exact(self):
        rng = np.random.default_rng(202)
        system = QuditSystem((2, 2))
        h = rand_hermitian(rng, 4)
        factors = trotter_compile(Native(1.0), h, system, 1.0, 1)
        assert len(factors) == 1
        assert np.abs(factors[0] - hermitian_exp(h, 1.0)).max() < 1e-12

    def test_first_order_halving(self):
        system = QuditSystem((2,))
        program = Sum(((1.0, Local(0, PAULI_X)), (1.0, Local(0, PAULI_Z))))
        report = verify(program, np.zeros((2, 2), dtype=complex), system, 1.0, [64, 128, 256, 512])
        errors = [err for _, err in report.trotter_errors]
        for e1, e2 in zip(errors, errors[1:]):
            assert 0.4 < e2 / e1 < 0.6
        assert 0.8 < report.order_estimate < 1.2

    def test_commutator_error_shrinks_with_steps(self):
        system = QuditSystem((2,))
        program = Commutator(Local(0, PAULI_Z), Local(0, PAULI_X))
        report = verify(program, np.zeros((2, 2), dtype=complex), system, 0.1, [4, 16, 64, 256])
        errors = [err for _, err in report.trotter_errors]
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_commutator_approaches_target(self):
        system = QuditSystem((2,))
        program = Commutator(Local(0, PAULI_Z), Local(0, PAULI_X))
        target = hermitian_exp(-2 * PAULI_Y, 0.1)
        factors = trotter_compile(program, np.zeros((2, 2), dtype=complex), system, 0.1, 400)
        total = product_unitary(factors, 2)
        assert np.linalg.norm(total - target, 2) < 0.02

    def test_nested_commutator_error_vanishes_with_time(self):
        # The inner group commutator converges like t^(3/4), so the decay
        # is monotone only once t is below an order-one threshold.
        system = QuditSystem((2,))
        inner = Commutator(Local(0, PAULI_Z), Local(0, PAULI_X))
        program = Commutator(inner, Local(0, PAULI_Z))
        source = np.zeros((2, 2), dtype=complex)
        errors = []
        for t in (0.2, 0.1, 0.05, 0.025, 0.0125):
            report = verify(program, source, system, t, [4])
            errors.append(report.trotter_errors[0][1])
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] < 0.3

    def test_branch_cap(self):
        system = QuditSystem((2,))
        program = Sum(tuple((1.0, Local(0, PAULI_X)) for _ in range(8)))
        with pytest.raises(BranchCapExceeded):
            trotter_compile(program, np.zeros((2, 2), dtype=complex), system, 1.0, 600)

    def test_rejects_bad_steps(self):
        system = QuditSystem((2,))
        with pytest.raises(ValueError):
            trotter_compile(Native(1.0), PAULI_Z, system, 1.0, 0)
        with pytest.raises(ValueError):
            trotter_compile(Native(1.0), PAULI_Z, system, float("inf"), 4)


class TestVerify:
    def test_pure_conjugation_exact(self):
        rng = np.random.default_rng(203)
        system = QuditSystem((2, 2))
        h = rand_hermitian(rng, 4)
        program = Conjugate(
            LocalUnitary.from_factors(system.dims, {0: HADAMARD}), Native(1.0)
        )
        report = verify(program, h, system, 1.0, [1])
        assert report.trotter_errors[0][1] < 1e-10

    def test_negative_time(self):
        system = QuditSystem((2,))
        program = Commutator(Local(0, PAULI_Z), Local(0, PAULI_X))
        report = verify(program, np.zeros((2, 2), dtype=complex), system, -0.1, [64, 256])
        assert report.trotter_errors[0][1] < 0.1
        assert report.trotter_errors[1][1] < report.trotter_errors[0][1]


class TestGraft:
    def test_composes_effectives(self):
        rng = np.random.default_rng(204)
        system = QuditSystem((2, 2))
        h = rand_hermitian(rng, 4)
        inner = Sum(((0.5, Native(1.0)),))
        outer = Conjugate(
            LocalUnitary.from_factors(system.dims, {1: HADAMARD}), Native(3.0)
        )
        combined = graft(outer, inner)
        expected = effective_hamiltonian(
            outer, effective_hamiltonian(inner, h, system), system
        )
        assert np.abs(effective_hamiltonian(combined, h, system) - expected).max() < 1e-12

    def test_preserves_sharing(self):
        shared = Native(1.0)
        outer = Sum(((1.0, Conjugate(LocalUnitary.from_factors((2,), {}), shared)),
                     (1.0, Conjugate(LocalUnitary.from_factors((2,), {}), shared))))
        inner = Local(0, PAULI_X)
        rebuilt = graft(outer, inner)
        children = [child for _, child in rebuilt.children]
        assert children[0].child is children[1].child


def _shared_dag():
    """A Commutator and a Sum whose children repeat, listed children first."""
    shared = Native(1.0)
    local = Local(0, PAULI_Z)
    conj = Conjugate(LocalUnitary.from_factors((2, 2), {0: HADAMARD}), shared)
    comm = Commutator(conj, local)
    root = Sum(((1.0, comm), (2.0, shared), (0.5, comm), (1.5, local)))
    return [shared, conj, local, comm, root]


class TestDeepAndSharedPrograms:
    DEPTH = 3000

    def deep_chain(self):
        """Conjugations by diag(1, e^{i theta}) stacked DEPTH times on Native."""
        theta = 0.37
        unit = LocalUnitary.from_factors((2,), {0: np.diag([1.0, np.exp(1j * theta)])})
        program = Native(1.0)
        for _ in range(self.DEPTH):
            program = Conjugate(unit, program)
        phase = np.exp(1j * self.DEPTH * theta)
        expected = np.array([[0.0, np.conj(phase)], [phase, 0.0]])
        return program, expected

    def test_deep_chain_evaluates(self):
        program, expected = self.deep_chain()
        eff = effective_hamiltonian(program, PAULI_X, QuditSystem((2,)))
        assert np.abs(eff - expected).max() < 1e-9

    def test_deep_chain_grafts(self):
        program, expected = self.deep_chain()
        grafted = graft(program, Sum(((2.0, Native(1.0)),)))
        eff = effective_hamiltonian(grafted, PAULI_X, QuditSystem((2,)))
        assert np.abs(eff - 2.0 * expected).max() < 1e-9

    def test_deep_chain_counts_factors(self):
        program, _ = self.deep_chain()
        assert _count_factors(program) == 1 + 2 * self.DEPTH

    def test_deep_chain_serializes(self):
        program, _ = self.deep_chain()
        data = program_to_json(program)
        assert data["root"] == self.DEPTH
        assert data["nodes"][0] == {"type": "native", "weight": 1.0}
        assert [n["child"] for n in data["nodes"][1:]] == list(range(self.DEPTH))

    def test_shared_dag_node_table(self):
        *_, root = _shared_dag()
        assert program_to_json(root) == {
            "format": "program-dag",
            "nodes": [
                {"type": "native", "weight": 1.0},
                {"type": "conjugate", "unitaries": {"0": matrix_to_json(HADAMARD)}, "child": 0},
                {"type": "local", "qudit": 0, "operator": matrix_to_json(PAULI_Z)},
                {"type": "commutator", "left": 1, "right": 2},
                {"type": "sum", "children": [[1.0, 3], [2.0, 0], [0.5, 3], [1.5, 2]]},
            ],
            "root": 4,
        }

    def test_nodes_come_after_their_children(self):
        nodes = _shared_dag()
        assert [id(n) for n in iter_unique_nodes(nodes[-1])] == [id(n) for n in nodes]


def _rand_unitary(rng, d):
    return hermitian_exp(rand_hermitian(rng, d), 1.0)


def _rand_local_unitary(rng, dims, min_sites=0):
    """Random product unitary on a random subset of qudits (possibly none)."""
    count = int(rng.integers(min_sites, len(dims) + 1))
    sites = rng.choice(len(dims), size=count, replace=False)
    return LocalUnitary.from_factors(dims, {int(j): _rand_unitary(rng, dims[j]) for j in sites})


def _rand_local(rng, dims):
    j = int(rng.integers(len(dims)))
    h = rand_hermitian(rng, dims[j])
    return Local(j, h / np.linalg.norm(h, 2))


def _random_dag(rng, dims, size):
    """A random program mixing every node kind and every sharing pattern.

    Sums draw from a few shared bases, bare or under a conjugation, with
    repeats; commutator operands are often conjugations; the root is
    sometimes a conjugation.  Sum weights add up to one and operands are
    normalised, so values stay of order one.
    """
    pool = [Native(float(rng.uniform(0.5, 1.5))), _rand_local(rng, dims)]

    def pick():
        return pool[int(rng.integers(len(pool)))]

    def maybe_conjugated(node):
        return Conjugate(_rand_local_unitary(rng, dims), node) if rng.random() < 0.6 else node

    for _ in range(size):
        kind = int(rng.integers(4))
        if kind == 0:
            node = Conjugate(_rand_local_unitary(rng, dims), pick())
        elif kind in (1, 2):
            bases = [pick() for _ in range(int(rng.integers(1, 4)))]
            children = []
            for _ in range(int(rng.integers(1, 7))):
                base = bases[int(rng.integers(len(bases)))]
                children.append(maybe_conjugated(base) if rng.random() < 0.7 else base)
            if rng.random() < 0.5:
                children.append(children[0])
            weights = rng.uniform(0.1, 1.0, size=len(children))
            weights /= weights.sum()
            node = Sum(tuple((float(w), c) for w, c in zip(weights, children)))
        else:
            node = Sum(((0.25, Commutator(maybe_conjugated(pick()), maybe_conjugated(pick()))),))
        pool.append(node)
    root = pool[-1]
    if rng.random() < 0.3:
        root = Conjugate(_rand_local_unitary(rng, dims, min_sites=1), root)
    return root


def _assert_matches_dense(program, dims, rng):
    system = QuditSystem(dims)
    h = rand_hermitian(rng, system.total_dim)
    source = h / np.linalg.norm(h, 2)
    fused = effective_hamiltonian(program, source, system)
    reference = dense_effective_hamiltonian(program, source, system)
    # Relative to the reference, floored at the unit scale of the inputs
    # so exactly cancelling commutators do not divide by zero.
    scale = max(float(np.linalg.norm(reference)), 1.0)
    assert float(np.linalg.norm(fused - reference)) <= 1e-12 * scale


small_dims = st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=4).filter(
    lambda dims: math.prod(dims) <= 64
)


class TestFusedEvaluation:
    """effective_hamiltonian against the dense kron-per-conjugation reference."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(dims=small_dims, seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8))
    def test_random_dags_match_dense_reference(self, dims, seed, size):
        rng = np.random.default_rng(seed)
        _assert_matches_dense(_random_dag(rng, tuple(dims), size), tuple(dims), rng)

    def test_multi_site_conjugation(self):
        rng = np.random.default_rng(301)
        dims = (3, 2, 2)
        unit = LocalUnitary.from_factors(
            dims, {0: _rand_unitary(rng, 3), 2: _rand_unitary(rng, 2)}
        )
        _assert_matches_dense(Sum(((1.0, Conjugate(unit, Native(1.0))),)), dims, rng)

    def test_sum_mixing_bases_with_repeats(self):
        rng = np.random.default_rng(302)
        dims = (2, 3, 2)
        a, b = Native(1.0), _rand_local(rng, dims)
        u1 = _rand_local_unitary(rng, dims, min_sites=2)
        u2 = _rand_local_unitary(rng, dims, min_sites=1)
        twice = Conjugate(u1, a)
        program = Sum(
            (
                (0.5, a),
                (1.0, twice),
                (0.3, b),
                (0.7, Conjugate(u2, b)),
                (0.4, a),
                (0.2, twice),
                (0.6, Conjugate(u2, a)),
            )
        )
        _assert_matches_dense(program, dims, rng)

    def test_nested_conjugations(self):
        rng = np.random.default_rng(303)
        dims = (3, 3)
        inner = Conjugate(_rand_local_unitary(rng, dims, min_sites=2), Native(1.0))
        outer = Conjugate(_rand_local_unitary(rng, dims, min_sites=1), inner)
        program = Sum(((1.0, outer), (0.5, Conjugate(_rand_local_unitary(rng, dims), outer))))
        _assert_matches_dense(program, dims, rng)

    def test_commutator_of_pending_conjugations(self):
        rng = np.random.default_rng(304)
        dims = (2, 4)
        left = Conjugate(_rand_local_unitary(rng, dims, min_sites=1), Native(1.0))
        right = Conjugate(_rand_local_unitary(rng, dims, min_sites=2), _rand_local(rng, dims))
        program = Sum(((1.0, Commutator(left, right)), (1.0, left)))
        _assert_matches_dense(program, dims, rng)

    def test_conjugation_as_root(self):
        rng = np.random.default_rng(305)
        dims = (2, 2, 3)
        child = Sum(((1.0, Native(1.0)), (1.0, _rand_local(rng, dims))))
        _assert_matches_dense(
            Conjugate(_rand_local_unitary(rng, dims, min_sites=3), child), dims, rng
        )

    def test_twirl_stages_match_dense_reference(self):
        from quditsim.isolation import (
            stage_cartan_filter,
            stage_depolarize,
            stage_full_support_filter,
        )

        from helpers import rand_expansion

        rng = np.random.default_rng(306)
        system = QuditSystem((3, 2, 2, 2))
        expansion = rand_expansion(rng, system, 6)
        for stage in (
            lambda e: stage_depolarize(e, (0, 1)),
            lambda e: stage_full_support_filter(e, (0, 1, 2, 3)),
            lambda e: stage_cartan_filter(e, (0, 2)),
        ):
            program, _ = stage(expansion)
            _assert_matches_dense(program, system.dims, rng)


class TestReprAndFlatProgramFiles:
    def test_repr_does_not_expand_shared_subtrees(self):
        chain = Native(1.0)
        for _ in range(20):
            chain = Sum(((1.0, chain), (1.0, chain)))
        conj = Conjugate(LocalUnitary.from_factors((2,), {0: HADAMARD}), chain)
        for node in (chain, conj, Commutator(conj, chain)):
            assert len(repr(node)) < 1000
        assert repr(chain) == "Sum(children=2, weights=[1.0, 1.0])"

    @staticmethod
    def flat_file(rows):
        """A program file with one flat Sum of conjugations of the native node.

        ``rows`` holds ``(weight, {qudit: matrix})`` pairs, one per branch;
        an empty dict is the identity branch.
        """
        nodes = [{"type": "native", "weight": 1.0}]
        for _, placed in rows:
            unitaries = {str(q): matrix_to_json(u) for q, u in placed.items()}
            nodes.append({"type": "conjugate", "unitaries": unitaries, "child": 0})
        children = [[w, k + 1] for k, (w, _) in enumerate(rows)]
        nodes.append({"type": "sum", "children": children})
        return {"format": "program-dag", "nodes": nodes, "root": len(nodes) - 1}

    def test_flat_product_twirl_file(self):
        dims = (3, 2, 2)
        rows = [(1.0, {0: a, 2: b}) for a in heisenberg_weyl(3) for b in heisenberg_weyl(2)]
        program = program_from_json(self.flat_file(rows), QuditSystem(dims))
        assert len(program.children) == 36
        _assert_matches_dense(program, dims, np.random.default_rng(310))

    def test_flat_identity_plus_product_file(self):
        dims = (3, 2, 2)
        rows = [(3.0, {})]
        rows += [
            (1.0, {0: a, 1: b}) for a in heisenberg_weyl(3)[1:] for b in heisenberg_weyl(2)[1:]
        ]
        program = program_from_json(self.flat_file(rows), QuditSystem(dims))
        assert len(program.children) == 25
        _assert_matches_dense(program, dims, np.random.default_rng(311))
