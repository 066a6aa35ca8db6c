"""Shared randomized-input builders and dense oracles for the test suite."""

import numpy as np

from quditsim import (
    Commutator,
    Conjugate,
    CouplingTerm,
    Expansion,
    GellMannLabel,
    Local,
    Native,
    Sum,
    effective_hamiltonian,
    reconstruct,
)
from quditsim.isolation import (
    precondition,
    stage_cartan_filter,
    stage_depolarize,
    stage_ladder,
    stage_permutation_filter,
)
from quditsim.operators import gellmann_labels
from quditsim.program import iter_unique_nodes


def rand_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def rand_traceless(rng, d):
    h = rand_hermitian(rng, d)
    return h - (np.trace(h) / d) * np.eye(d)


def rand_label(rng, d):
    labels = gellmann_labels(d)
    return labels[rng.integers(len(labels))]


def rand_term(rng, system, support):
    return CouplingTerm.of({j: rand_label(rng, system.dims[j]) for j in support})


def rand_coeff(rng):
    return float(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]))


def rand_support(rng, n):
    size = int(rng.integers(1, n + 1))
    return tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))


def rand_expansion(rng, system, n_terms, ensure_term=None):
    """Random expansion; optionally guarantees one given term is present."""
    coeffs = {}
    if ensure_term is not None:
        coeffs[ensure_term] = rand_coeff(rng)
    while len(coeffs) < n_terms:
        support = rand_support(rng, system.size)
        coeffs.setdefault(rand_term(rng, system, support), rand_coeff(rng))
    return Expansion(system, coeffs)


def hs_inner(a, b):
    """Hilbert-Schmidt inner product tr(a† b)."""
    return complex(np.sum(a.conj() * b))


def weights_all_positive(program):
    for node in iter_unique_nodes(program):
        if isinstance(node, Native) and not node.weight > 0:
            return False
        if isinstance(node, Sum) and any(not w > 0 for w, _ in node.children):
            return False
    return True


def cosine(a, b):
    """Real Hilbert-Schmidt cosine between two operators."""
    num = float(np.sum(a.conj() * b).real)
    return num / (np.linalg.norm(a) * np.linalg.norm(b))


def rel_residual(actual, expected):
    scale = max(np.linalg.norm(expected), np.linalg.norm(actual), 1e-300)
    return float(np.linalg.norm(actual - expected) / scale)


def dense_reconstruct(expansion):
    """Reference reconstruction: one Kronecker-embedded matrix per term."""
    system = expansion.system
    out = expansion.trace_offset * np.eye(system.total_dim, dtype=complex)
    for term, h in expansion.coefficients.items():
        out += h * term.matrix(system)
    return out


def kron_unitary(unitary):
    """Dense matrix of a LocalUnitary, one np.kron per qudit."""
    placed = dict(unitary.placed)
    out = np.ones((1, 1), dtype=complex)
    for j, d in enumerate(unitary.dims):
        out = np.kron(out, placed.get(j, np.eye(d, dtype=complex)))
    return out


def dense_effective_hamiltonian(program, source, system):
    """Reference evaluator: every conjugation as a dense ``U @ X @ U†``.

    Recursive and memoized by node identity, so it suits the shallow
    programs it checks ``effective_hamiltonian`` against.
    """
    memo = {}

    def ev(node):
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, Native):
            out = node.weight * source
        elif isinstance(node, Local):
            out = np.ones((1, 1), dtype=complex)
            for j, d in enumerate(system.dims):
                out = np.kron(out, node.operator if j == node.qudit else np.eye(d))
        elif isinstance(node, Conjugate):
            u = kron_unitary(node.unitary)
            out = u @ ev(node.child) @ u.conj().T
        elif isinstance(node, Sum):
            out = sum(w * ev(child) for w, child in node.children)
        elif isinstance(node, Commutator):
            left, right = ev(node.left), ev(node.right)
            out = 1j * (left @ right - right @ left)
        memo[id(node)] = out
        return out

    return ev(program)


def widest_shared_twirl(program):
    """Most qudits any Sum conjugates one shared child over.

    Each Sum's children are grouped by the node under their conjugation
    (a bare child is its own node, conjugated on no qudit); a group of two
    or more branches is one twirl.  Returns the largest number of qudits
    such a twirl touches, 0 when there is none.
    """
    widest = 0
    for node in iter_unique_nodes(program):
        if not isinstance(node, Sum):
            continue
        groups = {}
        for _, child in node.children:
            base, qudits = child, set()
            if isinstance(child, Conjugate):
                base, qudits = child.child, {j for j, _ in child.unitary.placed}
            group = groups.setdefault(id(base), [0, set()])
            group[0] += 1
            group[1] |= qudits
        widest = max([widest] + [len(qudits) for count, qudits in groups.values() if count > 1])
    return widest


def run_staged_pipeline(expansion, target):
    """Drive the isolation stages one by one against the dense oracle.

    Checks, per stage, that the symbolic per-term factors agree with the
    dense evaluation of the emitted stage program (relative residual), and
    that the stage postconditions on surviving supports/factors hold.
    Returns the worst dense-vs-symbolic residual seen.
    """
    system = expansion.system
    support = set(target.support)
    canon, current = precondition(expansion.without_offset(), target)
    worst = 0.0

    canonical = CouplingTerm.of(
        {j: GellMannLabel.w(b) for j, b in canon.cartan_indices.items()}
    )
    ladder = CouplingTerm.of(
        {j: GellMannLabel.y(b - 1, b) for j, b in canon.cartan_indices.items()}
    )
    stages = (
        ("D", lambda e: stage_depolarize(e, target.support)),
        ("Z", lambda e: stage_cartan_filter(e, target.support)),
        ("P", lambda e: stage_permutation_filter(e, canon.cartan_indices)),
        ("X", lambda e: stage_ladder(e, canon.cartan_indices)),
    )
    tracked = canonical
    for name, fn in stages:
        before = current.coefficients[tracked]
        dense_before = reconstruct(current)
        program, current = fn(current)
        dense_after = effective_hamiltonian(program, dense_before, system)
        worst = max(worst, rel_residual(dense_after, reconstruct(current)))
        current = current.thresholded()
        if name == "X":
            tracked = ladder
        assert current.coefficients[tracked] / before > 0

        supports = [set(t.support) for t in current.coefficients]
        if name == "D":
            assert all(s <= support for s in supports)
        elif name == "Z":
            assert all(
                label.kind == "W"
                for t in current.coefficients
                for _, label in t.factors
            )
        elif name == "P":
            assert all(
                label.a >= canon.cartan_indices[q]
                for t in current.coefficients
                for q, label in t.factors
            )
        else:
            assert len(current.coefficients) == 1
            ((survivor, _),) = current.coefficients.items()
            expected = CouplingTerm.of(
                {
                    q: GellMannLabel.y(b - 1, b)
                    for q, b in canon.cartan_indices.items()
                }
            )
            assert survivor == expected
    return worst
