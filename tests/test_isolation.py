"""Term-isolation stage and pipeline tests."""

import numpy as np
import pytest

from quditsim import (
    CouplingTerm,
    Expansion,
    GellMannLabel,
    QuditSystem,
    effective_hamiltonian,
    gellmann_matrix,
    heisenberg_weyl,
    isolate_term,
    reconstruct,
)
from quditsim.isolation import (
    NegligibleTermError,
    TermNotFoundError,
    precondition,
    stage_cartan_filter,
    stage_depolarize,
    stage_full_support_filter,
    stage_ladder,
    stage_permutation_filter,
)
from quditsim.operators import dagger
from quditsim.program import Commutator, Conjugate, Sum, iter_unique_nodes

from helpers import (
    cosine,
    rand_expansion,
    rand_term,
    rel_residual,
    run_staged_pipeline,
    weights_all_positive,
    widest_shared_twirl,
)

W = GellMannLabel.w
X = GellMannLabel.x
Y = GellMannLabel.y


class TestPrecondition:
    def test_already_diagonal(self):
        system = QuditSystem((2, 3))
        target = CouplingTerm.of({0: W(2), 1: W(3)})
        e = Expansion(system, {target: 1.0})
        canon, rotated = precondition(e, target)
        assert canon.cartan_indices == {0: 2, 1: 3}
        assert np.allclose(canon.conjugation.matrix(), np.eye(6))
        assert rotated.coefficients[target] == pytest.approx(1.0, abs=1e-12)

    def test_x_factor_rotates_to_w2(self):
        system = QuditSystem((3,))
        target = CouplingTerm.of({0: X(1, 2)})
        e = Expansion(system, {target: 0.9})
        canon, rotated = precondition(e, target)
        assert canon.cartan_indices == {0: 2}
        u = canon.conjugation.matrix()
        image = u @ gellmann_matrix(3, X(1, 2)) @ dagger(u)
        assert np.abs(image - gellmann_matrix(3, W(2))).max() < 1e-12
        w_term = CouplingTerm.of({0: W(2)})
        assert rotated.coefficients[w_term] == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("dims", [(3, 2), (4, 3), (2, 2, 3)])
    def test_dense_round_trip(self, dims):
        rng = np.random.default_rng(hash(dims) % 2**31)
        system = QuditSystem(dims)
        for _ in range(5):
            target = rand_term(rng, system, (0, len(dims) - 1))
            e = rand_expansion(rng, system, 4, ensure_term=target)
            canon, rotated = precondition(e, target)
            u = canon.conjugation.matrix()
            expected = u @ reconstruct(e) @ dagger(u)
            assert np.abs(reconstruct(rotated) - expected).max() < 1e-11

    def test_missing_target(self):
        system = QuditSystem((2,))
        e = Expansion(system, {CouplingTerm.of({0: W(2)}): 1.0})
        with pytest.raises(TermNotFoundError):
            precondition(e, CouplingTerm.of({0: X(1, 2)}))


class TestStageDepolarize:
    def test_outside_term_eliminated(self):
        system = QuditSystem((2, 2, 2))
        e = Expansion(system, {CouplingTerm.of({2: W(2)}): 1.0})
        _, out = stage_depolarize(e, (0, 1))
        assert not out.coefficients

    def test_inside_term_scaled(self):
        system = QuditSystem((2, 2, 2))
        term = CouplingTerm.of({0: W(2), 1: W(2)})
        e = Expansion(system, {term: 1.0})
        program, out = stage_depolarize(e, (0, 1))
        assert out.coefficients[term] == pytest.approx(4.0)
        eff = effective_hamiltonian(program, reconstruct(e), system)
        assert rel_residual(eff, reconstruct(out)) < 1e-10

    def test_full_support_is_identity(self):
        system = QuditSystem((2, 3))
        e = Expansion(system, {CouplingTerm.of({0: W(2)}): 0.3})
        _, out = stage_depolarize(e, (0, 1))
        assert out.coefficients == e.coefficients


class TestTwirlStructure:
    """The builders nest single-qudit twirls instead of flat product tables."""

    def test_depolarize_nests_one_twirl_per_outside_qudit(self):
        system = QuditSystem((3, 2, 2, 2))
        e = Expansion(system, {CouplingTerm.of({0: W(2)}): 1.0})
        program, _ = stage_depolarize(e, (0,))
        nodes = list(iter_unique_nodes(program))
        assert sum(isinstance(n, Conjugate) for n in nodes) == 9
        assert sum(isinstance(n, Sum) for n in nodes) == 3
        assert widest_shared_twirl(program) == 1

    def test_full_support_filter_conjugates_one_qudit_per_sum(self):
        system = QuditSystem((3, 2, 2))
        e = Expansion(system, {CouplingTerm.of({0: W(2), 1: X(1, 2), 2: Y(1, 2)}): 1.0})
        program, _ = stage_full_support_filter(e, (0, 1, 2))
        assert widest_shared_twirl(program) == 1
        # Per ordered pair (m, j): (d_m^2 - 1) + (d_j^2 - 1) conjugations.
        conjugations = sum(isinstance(n, Conjugate) for n in iter_unique_nodes(program))
        assert conjugations == 4 * (8 + 3) + 2 * (3 + 3)

    @pytest.mark.parametrize("dims", [(3, 2, 2, 2), (3, 3, 2), (2, 4)])
    def test_isolation_programs_twirl_one_qudit_at_a_time(self, dims):
        rng = np.random.default_rng(sum(dims) * 7)
        system = QuditSystem(dims)
        for support in [tuple(range(len(dims))), (0, len(dims) - 1)]:
            target = rand_term(rng, system, support)
            e = rand_expansion(rng, system, 8, ensure_term=target)
            result = isolate_term(e, target)
            assert widest_shared_twirl(result.program) <= 1
            eff = effective_hamiltonian(result.program, reconstruct(e), system)
            assert 1.0 - cosine(eff, target.matrix(system)) < 1e-9


class TestStageFullSupport:
    def test_strict_subset_eliminated(self):
        system = QuditSystem((3, 3))
        small = CouplingTerm.of({0: W(2)})
        big = CouplingTerm.of({0: W(2), 1: W(2)})
        e = Expansion(system, {small: 1.0, big: 1.0})
        program, out = stage_full_support_filter(e, (0, 1))
        assert small not in out.coefficients
        assert big in out.coefficients
        assert out.coefficients[big] > 0
        eff = effective_hamiltonian(program, reconstruct(e), system)
        assert rel_residual(eff, reconstruct(out)) < 1e-10

    def test_single_qudit_support_unchanged(self):
        system = QuditSystem((3,))
        e = Expansion(system, {CouplingTerm.of({0: W(2)}): 1.0})
        _, out = stage_full_support_filter(e, (0,))
        assert out.coefficients == e.coefficients

    def test_mixed_dims_kill_all_subsets(self):
        system = QuditSystem((4, 2, 3))
        full = CouplingTerm.of({0: W(2), 1: W(2), 2: W(2)})
        e = Expansion(
            system,
            {
                full: 0.5,
                CouplingTerm.of({0: W(2)}): 1.0,
                CouplingTerm.of({1: W(2)}): 1.0,
                CouplingTerm.of({2: X(1, 2)}): 1.0,
                CouplingTerm.of({0: W(2), 1: W(2)}): 1.0,
                CouplingTerm.of({1: W(2), 2: W(2)}): 1.0,
                CouplingTerm.of({0: X(1, 4), 2: Y(2, 3)}): 1.0,
            },
        )
        program, out = stage_full_support_filter(e, (0, 1, 2))
        assert set(out.coefficients) == {full}
        assert out.coefficients[full] > 0
        eff = effective_hamiltonian(program, reconstruct(e), system)
        assert rel_residual(eff, reconstruct(out)) < 1e-10

    def test_matches_anchored_variant_on_uniform_dims(self):
        # With equal dimensions the single-anchor filter from the paper
        # leaves the same surviving support set as the all-pairs filter.
        system = QuditSystem((3, 3))
        rng = np.random.default_rng(31)
        e = rand_expansion(rng, system, 5)
        _, ours = stage_full_support_filter(e, (0, 1))

        dense = reconstruct(e)
        anchor, other = 0, 1
        d2 = 9
        acc = (d2 - 1) * dense
        group = heisenberg_weyl(3)
        for ua in group[1:]:
            for ub in group[1:]:
                u = np.kron(ua, ub)
                acc = acc + u @ dense @ dagger(u)
        from quditsim import expand

        anchored = expand(acc, system)
        assert {t.support for t in anchored.coefficients} == {
            t.support for t in ours.coefficients
        }

    def test_rejects_terms_outside_support(self):
        system = QuditSystem((2, 2, 2))
        e = Expansion(system, {CouplingTerm.of({2: W(2)}): 1.0})
        with pytest.raises(ValueError):
            stage_full_support_filter(e, (0, 1))


class TestStageCartan:
    def test_off_diagonal_eliminated(self):
        system = QuditSystem((3, 3))
        term = CouplingTerm.of({0: X(1, 2), 1: X(1, 2)})
        e = Expansion(system, {term: 1.0})
        program, out = stage_cartan_filter(e, (0, 1))
        assert not out.coefficients
        eff = effective_hamiltonian(program, reconstruct(e), system)
        assert np.abs(eff).max() < 1e-10

    def test_diagonal_scaled(self):
        system = QuditSystem((3, 3))
        term = CouplingTerm.of({0: W(2), 1: W(3)})
        e = Expansion(system, {term: 1.0})
        program, out = stage_cartan_filter(e, (0, 1))
        assert out.coefficients[term] == pytest.approx(64.0)
        eff = effective_hamiltonian(program, reconstruct(e), system)
        assert rel_residual(eff, reconstruct(out)) < 1e-10

    def test_single_qubit(self):
        system = QuditSystem((2,))
        term = CouplingTerm.of({0: W(2)})
        e = Expansion(system, {term: 1.0})
        _, out = stage_cartan_filter(e, (0,))
        assert out.coefficients[term] == pytest.approx(4.0)


class TestStagePermutation:
    def test_b2_is_identity(self):
        system = QuditSystem((3,))
        e = Expansion(system, {CouplingTerm.of({0: W(2)}): 1.0})
        _, out = stage_permutation_filter(e, {0: 2})
        assert out.coefficients == e.coefficients

    def test_low_w_eliminated_high_w_scaled(self):
        system = QuditSystem((3,))
        low = CouplingTerm.of({0: W(2)})
        high = CouplingTerm.of({0: W(3)})
        e = Expansion(system, {low: 1.0, high: 1.0})
        program, out = stage_permutation_filter(e, {0: 3})
        assert low not in out.coefficients
        assert out.coefficients[high] == pytest.approx(2.0)
        eff = effective_hamiltonian(program, reconstruct(e), system)
        assert rel_residual(eff, reconstruct(out)) < 1e-10

    def test_w_above_block_survives(self):
        system = QuditSystem((4,))
        term = CouplingTerm.of({0: W(4)})
        e = Expansion(system, {term: 1.0})
        program, out = stage_permutation_filter(e, {0: 3})
        assert out.coefficients[term] == pytest.approx(2.0)
        eff = effective_hamiltonian(program, reconstruct(e), system)
        assert rel_residual(eff, reconstruct(out)) < 1e-10

    def test_cyclic_shifts_kill_every_low_w(self):
        system = QuditSystem((6,))
        low = {CouplingTerm.of({0: W(a)}): 0.3 * a for a in range(2, 5)}
        high = CouplingTerm.of({0: W(5)})
        above = CouplingTerm.of({0: W(6)})
        e = Expansion(system, {**low, high: 1.0, above: -0.5})
        program, out = stage_permutation_filter(e, {0: 5})
        assert set(out.coefficients) == {high, above}
        assert out.coefficients[high] == pytest.approx(4.0)
        assert out.coefficients[above] == pytest.approx(-2.0)
        assert isinstance(program, Sum) and len(program.children) == 4
        eff = effective_hamiltonian(program, reconstruct(e), system)
        assert rel_residual(eff, reconstruct(out)) < 1e-12

    def test_rejects_off_diagonal_factor_in_block(self):
        system = QuditSystem((3,))
        e = Expansion(system, {CouplingTerm.of({0: X(1, 2)}): 1.0})
        with pytest.raises(ValueError, match="needs diagonal factors, got X:1:2"):
            stage_permutation_filter(e, {0: 3})


class TestStageLadder:
    def test_qubit_w_to_y(self):
        system = QuditSystem((2,))
        e = Expansion(system, {CouplingTerm.of({0: W(2)}): 1.0})
        program, out = stage_ladder(e, {0: 2})
        y_term = CouplingTerm.of({0: Y(1, 2)})
        assert out.coefficients[y_term] == pytest.approx(np.sqrt(2.0))
        eff = effective_hamiltonian(program, reconstruct(e), system)
        assert rel_residual(eff, reconstruct(out)) < 1e-10

    def test_two_qutrit_scale(self):
        system = QuditSystem((3, 3))
        e = Expansion(system, {CouplingTerm.of({0: W(2), 1: W(2)}): 0.7})
        program, out = stage_ladder(e, {0: 2, 1: 2})
        y_term = CouplingTerm.of({0: Y(1, 2), 1: Y(1, 2)})
        assert out.coefficients[y_term] == pytest.approx(1.4)
        eff = effective_hamiltonian(program, reconstruct(e), system)
        assert rel_residual(eff, reconstruct(out)) < 1e-10

    def test_high_w_eliminated(self):
        system = QuditSystem((3,))
        e = Expansion(
            system, {CouplingTerm.of({0: W(3)}): 1.0, CouplingTerm.of({0: W(2)}): 1.0}
        )
        program, out = stage_ladder(e, {0: 2})
        assert set(out.coefficients) == {CouplingTerm.of({0: Y(1, 2)})}
        eff = effective_hamiltonian(program, reconstruct(e), system)
        assert rel_residual(eff, reconstruct(out)) < 1e-11

    def test_commutator_node_count(self):
        system = QuditSystem((3, 3))
        e = Expansion(system, {CouplingTerm.of({0: W(2), 1: W(2)}): 1.0})
        program, _ = stage_ladder(e, {0: 2, 1: 2})
        comms = [n for n in iter_unique_nodes(program) if isinstance(n, Commutator)]
        assert len(comms) == 2

    def test_rejects_low_or_off_diagonal_factors(self):
        system = QuditSystem((3,))
        for label in (W(2), X(2, 3)):
            e = Expansion(system, {CouplingTerm.of({0: label}): 1.0})
            with pytest.raises(ValueError, match=f"a >= 3, got {label}"):
                stage_ladder(e, {0: 3})


SYSTEMS = [(3, 3), (3, 2, 2), (4, 2), (2, 2, 3)]


class TestPipeline:
    @pytest.mark.parametrize("dims", SYSTEMS)
    def test_staged_invariants_and_dense_oracle(self, dims):
        rng = np.random.default_rng(sum(dims) * 101)
        system = QuditSystem(dims)
        for trial in range(6):
            target = rand_term(rng, system, rand_nonempty_support(rng, system.size))
            e = rand_expansion(rng, system, 5, ensure_term=target)
            worst = run_staged_pipeline(e, target)
            assert worst < 1e-10

    def test_single_term_scale_is_product_of_stage_scales(self):
        system = QuditSystem((3, 2))
        target = CouplingTerm.of({0: W(2), 1: W(2)})
        e = Expansion(system, {target: 1.0})
        result = isolate_term(e, target)
        product = 1.0
        for report in result.stage_reports:
            assert report.target_scale > 0
            product *= report.target_scale
        assert result.scale == pytest.approx(product)
        eff = effective_hamiltonian(result.program, reconstruct(e), system)
        assert rel_residual(eff, result.scale * target.matrix(system)) < 1e-10

    def test_reports_list_four_stages(self):
        system = QuditSystem((4, 2, 2))
        target = CouplingTerm.of({0: W(3), 1: X(1, 2)})
        e = Expansion(system, {target: 0.7, CouplingTerm.of({0: W(2), 2: W(2)}): 0.4})
        result = isolate_term(e, target)
        assert [r.stage for r in result.stage_reports] == ["D", "Z", "P", "X"]

    def test_end_to_end_positive_multiple(self):
        rng = np.random.default_rng(77)
        system = QuditSystem((3, 2, 2))
        target = CouplingTerm.of({0: W(2), 1: W(2)})
        e = rand_expansion(rng, system, 6, ensure_term=target)
        result = isolate_term(e, target)
        eff = effective_hamiltonian(result.program, reconstruct(e), system)
        assert cosine(eff, target.matrix(system)) > 1 - 1e-9
        assert result.scale > 0
        assert weights_all_positive(result.program)
        # Measured proportionality agrees with the symbolic stage product.
        tmat = target.matrix(system)
        measured = float((np.sum(tmat.conj() * eff) / np.sum(tmat.conj() * tmat)).real)
        assert measured == pytest.approx(result.scale, rel=1e-9)
        stage_product = abs(e.coefficients[target])
        for report in result.stage_reports:
            stage_product *= report.target_scale
        assert result.scale == pytest.approx(stage_product, rel=1e-12)

    def test_negative_coefficient_sign_absorbed(self):
        system = QuditSystem((3, 2))
        target = CouplingTerm.of({0: X(1, 3), 1: Y(1, 2)})
        e = Expansion(
            system,
            {target: -0.8, CouplingTerm.of({0: W(3)}): 0.6},
        )
        result = isolate_term(e, target)
        eff = effective_hamiltonian(result.program, reconstruct(e), system)
        assert cosine(eff, target.matrix(system)) > 1 - 1e-9

    def test_trace_offset_is_stripped(self):
        system = QuditSystem((2, 2))
        target = CouplingTerm.of({0: W(2), 1: W(2)})
        with_offset = Expansion(system, {target: 1.0}, trace_offset=3.0)
        plain = Expansion(system, {target: 1.0})
        r1 = isolate_term(with_offset, target)
        r2 = isolate_term(plain, target)
        assert r1.scale == pytest.approx(r2.scale)
        eff = effective_hamiltonian(r1.program, reconstruct(with_offset), system)
        assert rel_residual(eff, r1.scale * target.matrix(system)) < 1e-10

    def test_absent_term_raises(self):
        system = QuditSystem((2, 2))
        e = Expansion(system, {CouplingTerm.of({0: W(2)}): 1.0})
        with pytest.raises(TermNotFoundError):
            isolate_term(e, CouplingTerm.of({1: W(2)}))

    def test_negligible_term_raises(self):
        system = QuditSystem((2, 2))
        tiny = CouplingTerm.of({0: W(2)})
        e = Expansion(system, {tiny: 1e-15, CouplingTerm.of({1: W(2)}): 1.0})
        with pytest.raises(NegligibleTermError):
            isolate_term(e, tiny)


def rand_nonempty_support(rng, n):
    size = int(rng.integers(1, n + 1))
    return tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
