"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import numpy as np
import pytest

from quditsim import (
    Commutator,
    CouplingTerm,
    Expansion,
    GellMannLabel,
    Local,
    NotConstructiveError,
    QuditSystem,
    Sum,
    VerdictKind,
    ZeroCommutatorError,
    commutator_expansion,
    connect_all,
    drop_qudit,
    effective_hamiltonian,
    gellmann_basis,
    heisenberg_weyl,
    is_entangling,
    isolate_term,
    reconstruct,
    reduce_to_two_body,
    uhlmann_decompose,
    verify,
)
from quditsim.operators import dagger

from helpers import (
    cosine,
    hs_inner,
    rand_expansion,
    rand_hermitian,
    rand_support,
    rand_term,
    rand_traceless,
    rel_residual,
    run_staged_pipeline,
)
from test_model import exhaustive_partition

W = GellMannLabel.w
X = GellMannLabel.x
Y = GellMannLabel.y


def report(number, text):
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_gellmann_orthonormality_and_completeness():
    worst_ortho = 0.0
    worst_recon = 0.0
    for d in range(2, 7):
        rng = np.random.default_rng(1000 + d)
        basis = gellmann_basis(d)
        for i, (_, gi) in enumerate(basis):
            for j, (_, gj) in enumerate(basis):
                want = 1.0 if i == j else 0.0
                worst_ortho = max(worst_ortho, abs(hs_inner(gi, gj) - want))
        for _ in range(20):
            h = rand_hermitian(rng, d)
            recon = (np.trace(h) / d) * np.eye(d)
            for _, g in basis:
                recon = recon + hs_inner(g, h) * g
            worst_recon = max(worst_recon, float(np.abs(recon - h).max()))
    assert worst_ortho < 1e-12
    assert worst_recon < 1e-11
    report(1, f"orthonormality {worst_ortho:.1e}, completeness {worst_recon:.1e}")


def test_criterion_2_twirl_identities():
    worst_dep = 0.0
    worst_neg = 0.0
    for d in range(2, 6):
        rng = np.random.default_rng(2000 + d)
        group = heisenberg_weyl(d)
        for _ in range(20):
            j = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            total = sum(u @ j @ dagger(u) for u in group)
            worst_dep = max(
                worst_dep, float(np.abs(total - d * np.trace(j) * np.eye(d)).max())
            )
            j -= (np.trace(j) / d) * np.eye(d)
            partial = sum(u @ j @ dagger(u) for u in group[1:])
            worst_neg = max(worst_neg, float(np.abs(partial + j).max()))
    assert worst_dep < 1e-11
    assert worst_neg < 1e-11
    report(2, f"depolarizing {worst_dep:.1e}, negation {worst_neg:.1e}")


def test_criterion_3_constructive_decomposition_bound():
    worst = 0.0
    biggest = {}
    for d in range(2, 7):
        rng = np.random.default_rng(3000 + d)
        biggest[d] = 0
        for _ in range(100):
            a = rand_traceless(rng, d)
            b = rand_traceless(rng, d)
            dec = uhlmann_decompose(a, b)
            assert all(c > 0 for c, _ in dec.pairs)
            assert len(dec.pairs) <= d * d
            biggest[d] = max(biggest[d], len(dec.pairs))
            worst = max(worst, float(np.abs(dec.reconstruct(b) - a).max()))
    assert worst < 1e-10
    counts = ", ".join(f"d={d}:{n}<= {d*d}" for d, n in biggest.items())
    report(3, f"reconstruction {worst:.1e}; max pair counts {counts}")


ISOLATION_SYSTEMS = [(3, 3), (3, 2, 2), (4, 2), (2, 2, 3)]


def test_criterion_4_term_isolation_end_to_end():
    worst_stage = 0.0
    worst_cos_dev = 0.0
    for dims in ISOLATION_SYSTEMS:
        system = QuditSystem(dims)
        rng = np.random.default_rng(sum(dims) * 977)
        for _ in range(20):
            e = rand_expansion(rng, system, int(rng.integers(2, 7)))
            terms = sorted(e.coefficients)
            target = terms[int(rng.integers(len(terms)))]

            worst_stage = max(worst_stage, run_staged_pipeline(e, target))

            result = isolate_term(e, target)
            eff = effective_hamiltonian(result.program, reconstruct(e), system)
            worst_cos_dev = max(
                worst_cos_dev, 1.0 - cosine(eff, target.matrix(system))
            )
            assert result.scale > 0
    assert worst_stage < 1e-10
    assert worst_cos_dev < 1e-9
    report(4, f"stage oracle {worst_stage:.1e}, cosine deviation {worst_cos_dev:.1e}")


def test_criterion_5_commutator_recipe_and_drop():
    # Full-support recipe commutators on mixed systems.
    for dims in [(3, 3), (3, 2), (3, 2, 2), (2, 2, 3), (4, 3)]:
        system = QuditSystem(dims)
        support = tuple(range(len(dims)))
        alpha = CouplingTerm.of({j: X(1, 2) for j in support})
        beta = CouplingTerm.of(
            {j: (Y(1, 2) if dims[j] == 2 else X(1, 3)) for j in support}
        )
        expansion = commutator_expansion(alpha, beta, system)
        assert expansion.coefficients
        assert all(t.support == support for t in expansion.coefficients)

    # Qubit-only even contrast: the recipe commutator vanishes outright.
    system22 = QuditSystem((2, 2))
    with pytest.raises(ZeroCommutatorError):
        commutator_expansion(
            CouplingTerm.of({0: X(1, 2), 1: X(1, 2)}),
            CouplingTerm.of({0: Y(1, 2), 1: Y(1, 2)}),
            system22,
        )

    # Verified drops on representative systems.
    worst = 0.0
    for dims, q in [((3, 3), 0), ((3, 2), 1), ((3, 2, 2), 2), ((4, 3), 1)]:
        system = QuditSystem(dims)
        support = tuple(range(len(dims)))
        alpha = CouplingTerm.of({j: X(1, 2) for j in support})
        e = Expansion(system, {alpha: 1.0})
        result = drop_qudit(e, alpha, q)
        assert set(result.term.support) == set(support) - {q}
        eff = effective_hamiltonian(result.program, reconstruct(e), system)
        worst = max(
            worst, rel_residual(eff, result.scale * result.term.matrix(system))
        )
    assert worst < 1e-9
    report(5, f"recipe supports full; drop residual {worst:.1e}")


def test_criterion_6_star_reduction():
    worst = 0.0
    for dims in [(3, 2, 2), (4, 3, 2)]:
        system = QuditSystem(dims)
        term = rand_term(np.random.default_rng(6000 + dims[0]), system, tuple(range(len(dims))))
        e = Expansion(system, {term: 0.9})
        edges = reduce_to_two_body(e, term, 0)
        assert len(edges) == len(dims) - 1
        source = reconstruct(e)
        for edge in edges:
            assert set(edge.term.support) == set(edge.pair)
            assert edge.scale > 0
            eff = effective_hamiltonian(edge.program, source, system)
            measured = float(
                (
                    np.sum(edge.term.matrix(system).conj() * eff)
                    / np.sum(edge.term.matrix(system).conj() * edge.term.matrix(system))
                ).real
            )
            assert measured > 0
            worst = max(worst, rel_residual(eff, measured * edge.term.matrix(system)))
    assert worst < 1e-9
    report(6, f"star edges verified, residual {worst:.1e}")


def test_criterion_7_spanning_certificate_and_refusals():
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
    covered = set()
    for edge in cert.edges:
        covered |= set(edge.pair)
    assert covered == {0, 1, 2}
    source = reconstruct(e)
    worst = 0.0
    for edge in cert.edges:
        eff = effective_hamiltonian(edge.program, source, system)
        worst = max(worst, rel_residual(eff, edge.scale * edge.term.matrix(system)))
    assert worst < 1e-9

    qubits = QuditSystem((2, 2, 2))
    odd = Expansion(
        qubits, {CouplingTerm.of({0: x12, 1: x12, 2: x12}): 1.0}
    )
    with pytest.raises(NotConstructiveError) as info:
        connect_all(odd)
    assert info.value.verdict.kind is VerdictKind.ODD_QUBIT_ONLY
    assert not info.value.verdict.universal()

    even = Expansion(
        qubits,
        {
            CouplingTerm.of({0: x12, 1: x12}): 1.0,
            CouplingTerm.of({1: x12, 2: x12}): 1.0,
        },
    )
    with pytest.raises(NotConstructiveError) as info:
        connect_all(even)
    assert info.value.verdict.kind is VerdictKind.UNIVERSAL_BY_EVEN_TERM
    assert info.value.verdict.universal()
    report(7, f"certificate spans in {cert.iterations} iterations, residual {worst:.1e}")


def test_criterion_8_trotter_contract():
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    pauli_z = np.diag([1.0, -1.0]).astype(complex)
    system = QuditSystem((2,))
    source = np.zeros((2, 2), dtype=complex)

    two_term = Sum(((1.0, Local(0, pauli_x)), (1.0, Local(0, pauli_z))))
    rep = verify(two_term, source, system, 1.0, [64, 128, 256, 512])
    errors = dict(rep.trotter_errors)
    ratios = [errors[2 * n] / errors[n] for n in (64, 128, 256)]
    assert all(0.4 <= r <= 0.6 for r in ratios)

    comm = Commutator(Local(0, pauli_z), Local(0, pauli_x))
    rep_c = verify(comm, source, system, 0.1, [4, 16, 64, 256])
    comm_errors = [err for _, err in rep_c.trotter_errors]
    assert all(e2 < e1 for e1, e2 in zip(comm_errors, comm_errors[1:]))
    report(
        8,
        "halving ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + "; commutator errors "
        + ", ".join(f"{e:.4f}" for e in comm_errors),
    )


def test_criterion_9_connectivity_oracle_equivalence():
    rng = np.random.default_rng(9000)
    agreements = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
        system = QuditSystem(dims)
        coeffs = {}
        for _ in range(int(rng.integers(1, 6))):
            coeffs[rand_term(rng, system, rand_support(rng, n))] = 1.0
        e = Expansion(system, coeffs)
        fast = is_entangling(e, range(n))
        witness = exhaustive_partition(e, range(n))
        assert bool(fast) == (witness is None)
        if not fast:
            left, right = fast.partition
            for term in e.coefficients:
                inside = set(term.support)
                assert inside <= set(left) or inside <= set(right)
        agreements += 1
    assert agreements == 200
    report(9, "union-find matches exhaustive bipartition search on 200 term sets")
