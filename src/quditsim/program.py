"""Simulation-program intermediate representation and its semantics.

A program is a finite tree (shared subtrees allowed, so effectively a DAG)
whose leaves evolve either the source Hamiltonian (``Native``) or a free
local Hamiltonian (``Local``), combined by conjugation with local
unitaries, positively weighted sums, and commutators.  Its meaning is an
effective Hamiltonian:

* ``Native(w)``            ->  w * H
* ``Local(j, A)``          ->  A embedded on qudit j
* ``Conjugate(U, p)``      ->  U eff(p) U†
* ``Sum((w_i, p_i), ...)`` ->  sum_i w_i eff(p_i)
* ``Commutator(l, r)``     ->  i [eff(l), eff(r)]

Programs compile to unitary sequences with first-order product formulas:
sums interleave their children per step, commutators use the four-factor
group-commutator sequence with a square-root time slice.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .model import CouplingTerm, QuditSystem
from .operators import (
    LocalUnitary,
    dagger,
    embed,
    heisenberg_weyl,
    hermitian_exp,
    max_abs,
    require_hermitian,
    twirl,
)

DEFAULT_BRANCH_CAP = 4096


class BranchCapExceeded(RuntimeError):
    """Raised when flat Trotter expansion would exceed the factor cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"compilation needs {required} unitary factors, above the cap of {cap}; "
            "verify via the effective-Hamiltonian path instead"
        )
        self.required = required
        self.cap = cap


@dataclass(frozen=True, eq=False)
class Native:
    """Evolve the source Hamiltonian, scaled by a positive weight."""

    weight: float = 1.0

    def __post_init__(self):
        if not 0 < self.weight < math.inf:
            raise ValueError("native weight must be finite and strictly positive")


@dataclass(frozen=True, eq=False)
class Local:
    """Evolve a Hermitian single-qudit Hamiltonian (a free resource)."""

    qudit: int
    operator: np.ndarray

    def __post_init__(self):
        require_hermitian(self.operator, "local Hamiltonian")


@dataclass(frozen=True, eq=False)
class Conjugate:
    unitary: LocalUnitary
    child: "SimulationProgram"


@dataclass(frozen=True, eq=False)
class Sum:
    children: tuple[tuple[float, "SimulationProgram"], ...]

    def __post_init__(self):
        if any(not 0 < w < math.inf for w, _ in self.children):
            raise ValueError("sum weights must be finite and strictly positive")


@dataclass(frozen=True, eq=False)
class Commutator:
    left: "SimulationProgram"
    right: "SimulationProgram"


SimulationProgram = Union[Native, Local, Conjugate, Sum, Commutator]


@dataclass(frozen=True)
class VerificationReport:
    """Trotter error per step count plus an empirical convergence order."""

    best_error: float
    trotter_errors: tuple[tuple[int, float], ...]
    order_estimate: float


def effective_hamiltonian(
    program: SimulationProgram, source: np.ndarray, system: QuditSystem
) -> np.ndarray:
    """Evaluate a program's effective Hamiltonian on a dense source.

    Shared subtrees are evaluated once (results memoized by node
    identity).  A conjugation is held as a pending (unitary, child) pair;
    a Sum groups its children by the node under their conjugations and
    applies each group as one local twirl, so the hundreds of branches of
    an isolation stage around one shared child cost one superoperator.
    A pending conjugation is applied on its own only when a commutator,
    another conjugation or the caller consumes it.
    """
    big_d = system.total_dim
    if source.shape != (big_d, big_d):
        raise ValueError(f"source shape {source.shape} does not match dimension {big_d}")
    require_hermitian(source, "source Hamiltonian")
    dims = system.dims
    identity = LocalUnitary(dims)
    values: dict[int, np.ndarray] = {}
    pending: dict[int, tuple[LocalUnitary, SimulationProgram]] = {}

    def force(node: SimulationProgram) -> np.ndarray:
        if id(node) in pending:
            unitary, child = pending.pop(id(node))
            values[id(node)] = twirl(values[id(child)], dims, [(1.0, unitary)])
        return values[id(node)]

    for node in iter_unique_nodes(program):
        if isinstance(node, Conjugate):
            if node.unitary.dims != dims:
                raise ValueError("conjugation unitary does not match the system")
            force(node.child)
            pending[id(node)] = (node.unitary, node.child)
            continue
        if isinstance(node, Native):
            out = node.weight * source
        elif isinstance(node, Local):
            out = embed(dims, {node.qudit: node.operator})
        elif isinstance(node, Sum):
            groups: dict[int, tuple[SimulationProgram, list]] = {}
            for w, child in node.children:
                unitary, base = pending.get(id(child), (identity, child))
                groups.setdefault(id(base), (base, []))[1].append((w, unitary))
            out = np.zeros((big_d, big_d), dtype=complex)
            for base, branches in groups.values():
                out += twirl(values[id(base)], dims, branches)
        elif isinstance(node, Commutator):
            left, right = force(node.left), force(node.right)
            out = 1j * (left @ right - right @ left)
        else:
            raise TypeError(f"not a program node: {node!r}")
        values[id(node)] = out
    return force(program)


class Measurement(NamedTuple):
    """How well a program's effective Hamiltonian matches one coupling term."""

    scale: float
    relative_residual: float
    cosine: float


def measure(
    program: SimulationProgram, source: np.ndarray, system: QuditSystem, term: CouplingTerm
) -> Measurement:
    """Project a program's effective Hamiltonian onto a coupling term.

    ``scale`` is the least-squares coefficient of the term, the residual
    is the leftover norm relative to the effective Hamiltonian's, and the
    cosine is that of the Hilbert-Schmidt angle between the two operators.
    All three use the effective Hamiltonian divided by its largest entry,
    so the norms stay finite for any finite input.
    """
    eff = effective_hamiltonian(program, source, system)
    peak = max_abs(eff) or 1.0
    eff, target = eff / peak, term.matrix(system)
    overlap = float(np.sum(target.conj() * eff).real)
    scale = overlap / float(np.sum(target.conj() * target).real)
    norm_eff = float(np.linalg.norm(eff))
    residual = float(np.linalg.norm(eff - scale * target) / max(norm_eff, 1e-300))
    cosine = overlap / max(float(np.linalg.norm(target)) * norm_eff, 1e-300)
    return Measurement(scale * peak, residual, cosine)


def graft(outer: SimulationProgram, inner: SimulationProgram) -> SimulationProgram:
    """Substitute ``inner`` for every Native leaf of ``outer``.

    Native weights are preserved as an explicit scaling.  Rebuilding is
    memoized so subtree sharing in ``outer`` survives the substitution.
    """
    rebuilt: dict[int, SimulationProgram] = {}
    for node in iter_unique_nodes(outer):
        if isinstance(node, Native):
            out = inner if node.weight == 1.0 else Sum(((node.weight, inner),))
        elif isinstance(node, Local):
            out = node
        elif isinstance(node, Conjugate):
            out = Conjugate(node.unitary, rebuilt[id(node.child)])
        elif isinstance(node, Sum):
            out = Sum(tuple((w, rebuilt[id(child)]) for w, child in node.children))
        else:
            out = Commutator(rebuilt[id(node.left)], rebuilt[id(node.right)])
        rebuilt[id(node)] = out
    return rebuilt[id(outer)]


def iter_unique_nodes(program: SimulationProgram):
    """Yield each distinct node of a program DAG once, children first.

    The walk is an iterative post-order: children are visited left to
    right (a Sum's in order, a Commutator's left before right) and every
    node comes after all of its children.  A loop over it can therefore
    read child results from a dict keyed by ``id``, and deep programs
    never reach the interpreter's recursion limit.
    """
    done: set[int] = set()
    stack = [(program, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        if expanded:
            done.add(id(node))
            yield node
            continue
        stack.append((node, True))
        if isinstance(node, Conjugate):
            stack.append((node.child, False))
        elif isinstance(node, Sum):
            stack.extend((child, False) for _, child in reversed(node.children))
        elif isinstance(node, Commutator):
            stack.append((node.right, False))
            stack.append((node.left, False))


def weights_all_positive(program: SimulationProgram) -> bool:
    for node in iter_unique_nodes(program):
        if isinstance(node, Native) and not node.weight > 0:
            return False
        if isinstance(node, Sum) and any(not w > 0 for w, _ in node.children):
            return False
    return True


def negate_isolated_term(term: CouplingTerm, system: QuditSystem) -> SimulationProgram:
    """Program whose effective Hamiltonian is minus the given term.

    Sums the non-identity Pauli-group conjugations on the lowest support
    qudit; for a traceless factor the twirl minus the identity branch
    flips the sign, leaving positive weights only.
    """
    term.validate(system)
    qudit = min(term.support)
    child = Native(1.0)
    branches = []
    for u in heisenberg_weyl(system.dims[qudit])[1:]:
        unit = LocalUnitary.from_factors(system.dims, {qudit: u})
        branches.append((1.0, Conjugate(unit, child)))
    return Sum(tuple(branches))


def _count_factors(program: SimulationProgram) -> int:
    """Flat unitary-factor count for one Trotter step."""
    counts: dict[int, int] = {}
    for node in iter_unique_nodes(program):
        if isinstance(node, (Native, Local)):
            out = 1
        elif isinstance(node, Conjugate):
            out = counts[id(node.child)] + 2
        elif isinstance(node, Sum):
            out = sum(counts[id(child)] for _, child in node.children)
        else:
            out = 2 * (counts[id(node.left)] + counts[id(node.right)])
        counts[id(node)] = out
    return counts[id(program)]


def trotter_compile(
    program: SimulationProgram,
    source: np.ndarray,
    system: QuditSystem,
    t: float,
    steps: int,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> list[np.ndarray]:
    """Compile a program into unitary factors approximating exp(-i H_eff t).

    Factors are returned in application order (index 0 acts first on the
    state).  Sums interleave children once per step (first-order);
    commutator nodes emit the four-factor group commutator with time slice
    sqrt(t / steps).
    """
    if not isinstance(steps, int) or steps < 1:
        raise ValueError("steps must be a positive integer")
    if not math.isfinite(t):
        raise ValueError("evolution time must be finite")
    require_hermitian(source, "source Hamiltonian")
    required = steps * _count_factors(program)
    if required > branch_cap:
        raise BranchCapExceeded(required, branch_cap)
    dims = system.dims
    # Exponentials and conjugation matrices are shared between the places
    # a node recurs at the same time slice (the branches of a twirl).
    exps: dict[tuple[int, float], np.ndarray] = {}
    conjugations: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    out: list[np.ndarray] = []
    # Work items are a (node, time) pair to expand or a bare factor to emit,
    # popped last-in first-out, so children are pushed in reverse.
    work: list = [(program, t / steps)]
    while work:
        item = work.pop()
        if isinstance(item, np.ndarray):
            out.append(item)
            continue
        node, tau = item
        if isinstance(node, (Native, Local)):
            key = (id(node), tau)
            if key not in exps:
                if isinstance(node, Native):
                    exps[key] = hermitian_exp(source, node.weight * tau)
                else:
                    exps[key] = hermitian_exp(embed(dims, {node.qudit: node.operator}), tau)
            out.append(exps[key])
        elif isinstance(node, Conjugate):
            if id(node) not in conjugations:
                u = node.unitary.matrix()
                conjugations[id(node)] = (dagger(u), u)
            u_dag, u = conjugations[id(node)]
            work += [u, (node.child, tau), u_dag]
        elif isinstance(node, Sum):
            work += [(child, w * tau) for w, child in reversed(node.children)]
        elif isinstance(node, Commutator):
            if tau == 0.0:
                continue
            left, right = node.left, node.right
            if tau < 0.0:
                # i[R, L] = -i[L, R]: swapping operands evolves backwards.
                left, right, tau = right, left, -tau
            delta = math.sqrt(tau)
            work += [(left, delta), (right, -delta), (left, -delta), (right, delta)]
        else:
            raise TypeError(f"not a program node: {node!r}")
    return out * steps


def product_unitary(factors: list[np.ndarray], dim: int) -> np.ndarray:
    """Total unitary of a factor list given in application order."""
    out = np.eye(dim, dtype=complex)
    for factor in factors:
        out = factor @ out
    return out


def verify(
    program: SimulationProgram,
    source: np.ndarray,
    system: QuditSystem,
    t: float,
    steps_list,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> VerificationReport:
    """Compare compiled products against exact effective evolution.

    For each step count the operator-norm (spectral) distance between the
    compiled product and ``exp(-i H_eff t)`` is recorded; the order
    estimate is the mean log-ratio of consecutive errors.
    """
    eff = effective_hamiltonian(program, source, system)
    target = hermitian_exp(eff, t)
    one_step = _count_factors(program)
    errors = []
    for steps in steps_list:
        factors = trotter_compile(program, source, system, t, steps, branch_cap)
        step_product = product_unitary(factors[:one_step], system.total_dim)
        total = np.linalg.matrix_power(step_product, steps)
        errors.append((int(steps), float(np.linalg.norm(total - target, 2))))

    ratios = []
    for (n1, e1), (n2, e2) in zip(errors, errors[1:]):
        if e1 > 1e-14 and e2 > 1e-14 and n2 != n1:
            ratios.append(math.log(e1 / e2) / math.log(n2 / n1))
    order = sum(ratios) / len(ratios) if ratios else 0.0
    best = min(e for _, e in errors) if errors else 0.0
    return VerificationReport(best, tuple(errors), order)
