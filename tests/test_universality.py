"""Partner recipes, qudit elimination, star reduction and certificates."""

import numpy as np
import pytest

from quditsim import (
    CouplingTerm,
    Expansion,
    GellMannLabel,
    NotConstructiveError,
    NotEntanglingError,
    QuditSystem,
    VerdictKind,
    ZeroCommutatorError,
    commutator_expansion,
    connect_all,
    drop_isolated,
    drop_qudit,
    isolate_term,
    effective_hamiltonian,
    partner_term,
    reconstruct,
    reduce_to_two_body,
)

from quditsim import universality
from quditsim.program import Commutator, Sum, measure

from helpers import rel_residual, widest_shared_twirl

W = GellMannLabel.w
X = GellMannLabel.x
Y = GellMannLabel.y


def recipe_pair(system, support):
    """Commutator recipe pair differing on every support qudit.

    Non-qubit factors: X:1:2 against X:1:3; qubit factors: X against Y.
    """
    alpha = CouplingTerm.of({j: X(1, 2) for j in support})
    beta = CouplingTerm.of(
        {
            j: (Y(1, 2) if system.dims[j] == 2 else X(1, 3))
            for j in support
        }
    )
    return alpha, beta


class TestPartnerTerm:
    def test_two_qutrits(self):
        system = QuditSystem((3, 3))
        alpha = CouplingTerm.of({0: X(1, 2), 1: X(1, 2)})
        beta = partner_term(alpha, 0, system)
        assert beta == CouplingTerm.of({0: X(1, 2), 1: X(1, 3)})

    def test_mixed_system(self):
        system = QuditSystem((3, 2, 2))
        alpha = CouplingTerm.of({0: X(1, 2), 1: X(1, 2), 2: X(1, 2)})
        beta = partner_term(alpha, 1, system)
        assert beta == CouplingTerm.of({0: X(1, 3), 1: X(1, 2), 2: Y(1, 2)})

    def test_all_qubit_remainder_rejected(self):
        system = QuditSystem((3, 2))
        alpha = CouplingTerm.of({0: X(1, 2), 1: X(1, 2)})
        with pytest.raises(ValueError):
            partner_term(alpha, 0, system)


class TestCommutatorExpansion:
    def test_qutrit_x_pair(self):
        system = QuditSystem((3,))
        e = commutator_expansion(
            CouplingTerm.of({0: X(1, 2)}), CouplingTerm.of({0: X(1, 3)}), system
        )
        assert set(e.coefficients) == {CouplingTerm.of({0: Y(2, 3)})}
        assert e.coefficients[CouplingTerm.of({0: Y(2, 3)})] == pytest.approx(
            -1 / np.sqrt(2)
        )

    @pytest.mark.parametrize("dims", [(3, 3), (3, 2), (4, 3), (3, 2, 2), (2, 2, 3)])
    def test_recipe_full_support(self, dims):
        system = QuditSystem(dims)
        support = tuple(range(len(dims)))
        alpha, beta = recipe_pair(system, support)
        e = commutator_expansion(alpha, beta, system)
        assert e.coefficients
        assert all(t.support == support for t in e.coefficients)

    def test_qubit_even_pair_vanishes(self):
        system = QuditSystem((2, 2))
        alpha = CouplingTerm.of({0: X(1, 2), 1: X(1, 2)})
        beta = CouplingTerm.of({0: Y(1, 2), 1: Y(1, 2)})
        with pytest.raises(ZeroCommutatorError):
            commutator_expansion(alpha, beta, system)

    def test_support_mismatch(self):
        system = QuditSystem((3, 3))
        with pytest.raises(ValueError):
            commutator_expansion(
                CouplingTerm.of({0: X(1, 2)}), CouplingTerm.of({1: X(1, 2)}), system
            )


def check_effective_term(program, expansion, term, tol=1e-9):
    system = expansion.system
    eff = effective_hamiltonian(program, reconstruct(expansion), system)
    target = term.matrix(system)
    scale = float((np.sum(target.conj() * eff) / np.sum(target.conj() * target)).real)
    assert scale > 0
    assert rel_residual(eff, scale * target) < tol
    return scale


class TestDropQudit:
    def test_two_qutrits(self):
        system = QuditSystem((3, 3))
        alpha = CouplingTerm.of({0: X(1, 2), 1: X(1, 2)})
        e = Expansion(system, {alpha: 1.0})
        result = drop_qudit(e, alpha, 0)
        assert result.term == CouplingTerm.of({1: Y(2, 3)})
        assert result.term.support == (1,)
        scale = check_effective_term(result.program, e, result.term)
        assert scale == pytest.approx(result.scale, rel=1e-9)

    def test_three_body_drop(self):
        system = QuditSystem((3, 2, 2))
        alpha = CouplingTerm.of({0: X(1, 2), 1: W(2), 2: Y(1, 2)})
        e = Expansion(system, {alpha: 0.9, CouplingTerm.of({0: W(2)}): 0.4})
        result = drop_qudit(e, alpha, 2)
        assert set(result.term.support) == {0, 1}
        check_effective_term(result.program, e, result.term)

    def test_rejects_qudit_outside_support(self):
        system = QuditSystem((3, 3))
        alpha = CouplingTerm.of({0: X(1, 2), 1: X(1, 2)})
        e = Expansion(system, {alpha: 1.0})
        with pytest.raises(ValueError):
            drop_qudit(e, alpha, 5)

    def test_rejects_all_qubit_remainder(self):
        system = QuditSystem((3, 2))
        alpha = CouplingTerm.of({0: X(1, 2), 1: X(1, 2)})
        e = Expansion(system, {alpha: 1.0})
        with pytest.raises(ValueError):
            drop_qudit(e, alpha, 0)


def scale_gap(program, expansion, term, scale):
    """Relative gap between the measured and the symbolic scale."""
    source = reconstruct(expansion.without_offset())
    measured, resid, _ = measure(program, source, expansion.system, term)
    assert resid < 1e-12
    return abs(measured - scale) / scale


def probe_q():
    """(3,3,2,2) input whose full-support term keeps two non-qubits."""
    system = QuditSystem((3, 3, 2, 2))
    full = CouplingTerm.of({0: X(1, 2), 1: Y(2, 3), 2: X(1, 2), 3: W(2)})
    e = Expansion(
        system,
        {
            full: 0.9,
            CouplingTerm.of({1: W(3)}): -0.6,
            CouplingTerm.of({0: X(1, 3), 2: Y(1, 2)}): 0.4,
        },
    )
    return e, full


def count_isolations(monkeypatch):
    """Record the expansions ``universality`` isolates terms of."""
    calls = []

    def spy(expansion, term, *args, **kwargs):
        calls.append(expansion)
        return isolate_term(expansion, term, *args, **kwargs)

    monkeypatch.setattr(universality, "isolate_term", spy)
    return calls


def remainder_coefficient(system, support, qudit):
    alpha = CouplingTerm.of({j: X(1, 2) for j in support})
    beta = partner_term(alpha, qudit, system)
    remainder = commutator_expansion(alpha.without(qudit), beta.without(qudit), system)
    ((gamma, h),) = remainder.coefficients.items()
    return gamma, system.dims[qudit] * h


class TestDropIsolated:
    def test_negative_one_term_remainder_is_retargeted(self, monkeypatch):
        system = QuditSystem((3, 2, 2))
        alpha = CouplingTerm.of({0: X(1, 2), 1: W(2), 2: Y(1, 2)})
        e = Expansion(system, {alpha: 0.9, CouplingTerm.of({0: W(2)}): 0.4})
        gamma, h = remainder_coefficient(system, alpha.support, 2)
        assert h < 0
        iso = isolate_term(e, alpha)
        calls = count_isolations(monkeypatch)
        result = drop_isolated(iso.program, iso.scale, alpha, 2, system)
        assert calls == []
        assert result.term == gamma
        assert result.scale == -h
        assert scale_gap(result.program, e, gamma, result.scale) < 1e-12

    def test_positive_one_term_remainder_is_the_twirl(self, monkeypatch):
        system = QuditSystem((3, 2, 2, 2))
        alpha = CouplingTerm.of({0: W(3), 1: X(1, 2), 2: W(2), 3: Y(1, 2)})
        e = Expansion(system, {alpha: -0.7, CouplingTerm.of({1: W(2), 3: W(2)}): 0.5})
        gamma, h = remainder_coefficient(system, alpha.support, 3)
        assert h > 0
        iso = isolate_term(e, alpha)
        calls = count_isolations(monkeypatch)
        result = drop_isolated(iso.program, iso.scale, alpha, 3, system)
        assert calls == []
        assert result.term == gamma
        assert result.scale == h
        assert isinstance(result.program, Sum)
        assert isinstance(result.program.children[0][1], Commutator)
        assert scale_gap(result.program, e, gamma, result.scale) < 1e-12

    def test_two_term_remainder_falls_back_to_isolation(self, monkeypatch):
        e, full = probe_q()
        calls = count_isolations(monkeypatch)
        result = drop_qudit(e, full, 3)
        assert calls[0] is e
        assert [c.term_count() for c in calls[1:]] == [2]
        assert set(result.term.support) == {0, 1, 2}
        assert scale_gap(result.program, e, result.term, result.scale) < 1e-12

    def test_probe_q_connects(self):
        e, _ = probe_q()
        cert = connect_all(e)
        assert [edge.pair for edge in cert.edges] == [(0, 1), (0, 2), (0, 3)]
        for edge in cert.edges:
            assert scale_gap(edge.program, e, edge.term, edge.scale) < 1e-12


class TestReduceToTwoBody:
    def test_two_body_term_is_isolation_only(self):
        system = QuditSystem((3, 2))
        term = CouplingTerm.of({0: W(2), 1: W(2)})
        e = Expansion(system, {term: 1.0, CouplingTerm.of({1: W(2)}): 0.5})
        edges = reduce_to_two_body(e, term, 0)
        assert len(edges) == 1
        assert edges[0].pair == (0, 1)
        check_effective_term(edges[0].program, e, edges[0].term)

    def test_three_qudit_star(self):
        system = QuditSystem((3, 2, 2))
        term = CouplingTerm.of({0: X(1, 2), 1: X(1, 2), 2: X(1, 2)})
        e = Expansion(system, {term: 0.8})
        edges = reduce_to_two_body(e, term, 0)
        assert [edge.pair for edge in edges] == [(0, 1), (0, 2)]
        for edge in edges:
            assert set(edge.term.support) == set(edge.pair)
            check_effective_term(edge.program, e, edge.term)

    def test_mixed_dims_star(self):
        system = QuditSystem((4, 3, 2))
        term = CouplingTerm.of({0: W(2), 1: W(3), 2: X(1, 2)})
        e = Expansion(system, {term: 1.0})
        edges = reduce_to_two_body(e, term, 0)
        assert [edge.pair for edge in edges] == [(0, 1), (0, 2)]
        for edge in edges:
            assert set(edge.term.support) == set(edge.pair)
            check_effective_term(edge.program, e, edge.term)

    def test_star_from_multi_term_background(self):
        # Chained drops carry each drop's program into the next; this
        # guards the relative-tolerance handling in the retarget lift.
        from helpers import rand_expansion, rel_residual

        rng = np.random.default_rng(5150)
        system = QuditSystem((4, 3, 2))
        term = CouplingTerm.of({0: W(4), 1: X(2, 3), 2: Y(1, 2)})
        e = rand_expansion(rng, system, 5, ensure_term=term)
        source = reconstruct(e)
        for edge in reduce_to_two_body(e, term, 0):
            eff = effective_hamiltonian(edge.program, source, system)
            target = edge.term.matrix(system)
            scale = float(
                (np.sum(target.conj() * eff) / np.sum(target.conj() * target)).real
            )
            assert scale > 0
            assert rel_residual(eff, scale * target) < 1e-9

    def test_anchor_must_not_be_qubit(self):
        system = QuditSystem((3, 2, 2))
        term = CouplingTerm.of({0: X(1, 2), 1: X(1, 2), 2: X(1, 2)})
        e = Expansion(system, {term: 1.0})
        with pytest.raises(ValueError):
            reduce_to_two_body(e, term, 1)


class TestConnectAll:
    def test_edges_keep_reduction_scales(self):
        system = QuditSystem((3, 2, 2))
        term = CouplingTerm.of({0: X(1, 2), 1: X(1, 2), 2: X(1, 2)})
        e = Expansion(system, {term: 0.8})
        cert = connect_all(e)
        reduced = reduce_to_two_body(e, term, 0)
        assert [edge.pair for edge in cert.edges] == [edge.pair for edge in reduced]
        assert [edge.scale for edge in cert.edges] == [edge.scale for edge in reduced]

    def test_edge_programs_twirl_one_qudit_at_a_time(self):
        system = QuditSystem((3, 2, 2, 2))
        e = Expansion(
            system,
            {
                CouplingTerm.of({0: X(1, 3), 1: X(1, 2), 2: Y(1, 2), 3: W(2)}): 0.7,
                CouplingTerm.of({1: X(1, 2), 2: X(1, 2)}): -0.4,
            },
        )
        cert = connect_all(e)
        assert len(cert.edges) == 3
        for edge in cert.edges:
            assert widest_shared_twirl(edge.program) <= 1

    def test_single_pair_system(self):
        system = QuditSystem((3, 2))
        term = CouplingTerm.of({0: X(1, 3), 1: Y(1, 2)})
        e = Expansion(system, {term: 1.0})
        cert = connect_all(e)
        assert cert.anchor == 0
        assert len(cert.edges) == 1
        assert cert.edges[0].pair == (0, 1)
        assert cert.iterations == 1

    def test_case_b_qubit_qubit_bridge(self):
        system = QuditSystem((3, 2, 2))
        x12 = X(1, 2)
        e = Expansion(
            system,
            {
                CouplingTerm.of({0: x12, 1: x12}): 0.8,
                CouplingTerm.of({1: x12, 2: x12}): -0.5,
            },
        )
        cert = connect_all(e)
        assert cert.iterations <= 2
        pairs = {edge.pair for edge in cert.edges}
        assert (0, 1) in pairs
        covered = set()
        for edge in cert.edges:
            covered |= set(edge.pair)
        assert covered == {0, 1, 2}
        for edge in cert.edges:
            assert set(edge.term.support) == set(edge.pair)
            assert edge.scale > 0

    def test_all_qubit_refused_with_classification(self):
        system = QuditSystem((2, 2, 2))
        odd = Expansion(
            system, {CouplingTerm.of({0: X(1, 2), 1: X(1, 2), 2: X(1, 2)}): 1.0}
        )
        with pytest.raises(NotConstructiveError) as info:
            connect_all(odd)
        assert info.value.verdict.kind is VerdictKind.ODD_QUBIT_ONLY

        even = Expansion(
            system,
            {
                CouplingTerm.of({0: X(1, 2), 1: X(1, 2)}): 1.0,
                CouplingTerm.of({1: W(2), 2: W(2)}): 1.0,
            },
        )
        with pytest.raises(NotConstructiveError) as info:
            connect_all(even)
        assert info.value.verdict.kind is VerdictKind.UNIVERSAL_BY_EVEN_TERM

    def test_non_entangling_refused_with_witness(self):
        system = QuditSystem((3, 2))
        e = Expansion(system, {CouplingTerm.of({0: W(2)}): 1.0})
        with pytest.raises(NotEntanglingError) as info:
            connect_all(e)
        left, right = info.value.partition
        assert set(left) | set(right) == {0, 1}

    def test_dim_four_anchor_with_bridge(self):
        system = QuditSystem((2, 4, 2))
        e = Expansion(
            system,
            {
                CouplingTerm.of({0: X(1, 2), 1: W(3)}): 0.9,
                CouplingTerm.of({0: Y(1, 2), 2: X(1, 2)}): 0.4,
            },
        )
        cert = connect_all(e)
        assert cert.anchor == 1
        assert {edge.pair for edge in cert.edges} >= {(0, 1)}
        covered = set()
        for edge in cert.edges:
            covered |= set(edge.pair)
        assert covered == {0, 1, 2}

    def test_case_b_with_three_qubit_crossing_term(self):
        # The bridge commutator spans four qudits and needs two drops.
        system = QuditSystem((3, 2, 2, 2))
        x12 = X(1, 2)
        e = Expansion(
            system,
            {
                CouplingTerm.of({0: x12, 1: x12}): 1.0,
                CouplingTerm.of({1: x12, 2: x12, 3: x12}): 0.6,
            },
        )
        cert = connect_all(e)
        covered = set()
        for edge in cert.edges:
            covered |= set(edge.pair)
            assert set(edge.term.support) == set(edge.pair)
            assert edge.scale > 0
        assert covered == {0, 1, 2, 3}
        assert cert.iterations <= system.size - 1

    def test_qubits_keep_non_qubit_links(self):
        system = QuditSystem((2, 3, 2))
        x12 = X(1, 2)
        e = Expansion(
            system,
            {
                CouplingTerm.of({0: x12, 1: x12}): 1.0,
                CouplingTerm.of({0: Y(1, 2), 2: x12}): 0.7,
            },
        )
        cert = connect_all(e)
        assert cert.anchor == 1
        covered = set()
        for edge in cert.edges:
            covered |= set(edge.pair)
        assert covered == {0, 1, 2}
        for qubit in (0, 2):
            assert any(
                qubit in edge.pair
                and system.dims[edge.pair[0] + edge.pair[1] - qubit] > 2
                for edge in cert.edges
            )
        assert cert.iterations <= system.size - 1
