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
from functools import lru_cache
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
# Largest |t|·‖H‖₂ that verify accepts.  Beyond it the round-off in the
# phases exp(-i λ t) exceeds about 1e-8 and swamps the Trotter error.
MAX_PHASE = 1e8


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


# The composite nodes print their children's types only: a full repr would
# print a shared subtree once per reference, exponentially often.
@dataclass(frozen=True, eq=False, repr=False)
class Conjugate:
    unitary: LocalUnitary
    child: "SimulationProgram"

    def __repr__(self) -> str:
        qudits = [j for j, _ in self.unitary.placed]
        return f"Conjugate(qudits={qudits}, child={type(self.child).__name__})"


@dataclass(frozen=True, eq=False, repr=False)
class Sum:
    children: tuple[tuple[float, "SimulationProgram"], ...]

    def __post_init__(self):
        if any(not 0 < w < math.inf for w, _ in self.children):
            raise ValueError("sum weights must be finite and strictly positive")

    def __repr__(self) -> str:
        weights = [w for w, _ in self.children]
        return f"Sum(children={len(self.children)}, weights={weights})"


@dataclass(frozen=True, eq=False, repr=False)
class Commutator:
    left: "SimulationProgram"
    right: "SimulationProgram"

    def __repr__(self) -> str:
        return f"Commutator({type(self.left).__name__}, {type(self.right).__name__})"


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
    applies each group with one ``twirl`` call, so a one-qudit twirl of a
    shared child costs one superoperator.  A pending conjugation is
    applied on its own only when a commutator, another conjugation or the
    caller consumes it.
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


@lru_cache(maxsize=None)
def _pauli_unitaries(dims: tuple[int, ...], qudit: int) -> tuple[LocalUnitary, ...]:
    """The non-identity Heisenberg-Weyl elements on one qudit, built once."""
    return tuple(LocalUnitary(dims, ((qudit, u),)) for u in heisenberg_weyl(dims[qudit])[1:])


def pauli_branches(dims, qudit: int, child: SimulationProgram) -> tuple:
    """Unit-weight branches conjugating ``child`` by each non-identity Pauli on one qudit.

    With the bare child added as the identity branch they form the full
    depolarizing twirl ``sum_p U_p J U_p† = d tr_q(J) (x) I_q`` on that qudit.
    """
    return tuple((1.0, Conjugate(u, child)) for u in _pauli_unitaries(tuple(dims), qudit))


def negate_isolated_term(term: CouplingTerm, system: QuditSystem) -> SimulationProgram:
    """Program whose effective Hamiltonian is minus the given term.

    Sums the non-identity Pauli-group conjugations on the lowest support
    qudit; for a traceless factor the twirl minus the identity branch
    flips the sign, leaving positive weights only.
    """
    term.validate(system)
    return Sum(pauli_branches(system.dims, min(term.support), Native(1.0)))


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


def _check_steps(steps, one_step: int, branch_cap: int) -> None:
    if not isinstance(steps, int) or steps < 1:
        raise ValueError("steps must be a positive integer")
    if steps * one_step > branch_cap:
        raise BranchCapExceeded(steps * one_step, branch_cap)


def _evolution(evals: np.ndarray, evecs: np.ndarray):
    """``s -> exp(-i s H)`` for ``H = V diag(evals) V†``, memoised per slice ``s``."""
    evecs_dag = dagger(evecs)
    slices: dict[float, np.ndarray] = {}

    def evolve(s: float) -> np.ndarray:
        if s not in slices:
            slices[s] = (evecs * np.exp(-1j * evals * s)) @ evecs_dag
        return slices[s]

    return evolve


def _step_factors(program: SimulationProgram, dims: tuple[int, ...], tau: float):
    """Yield one first-order Trotter step's factors in application order.

    A float ``s`` stands for the Native slice ``exp(-i s H)`` of the source.
    Every other factor is a local product unitary given as ``(qudit,
    matrix)`` pairs: a Local leaf's ``d x d`` exponential, or a
    conjugation's ``U†`` before its child's factors and ``U`` after them.
    Sums interleave their children; a commutator emits the four-factor
    group commutator with slice ``sqrt(|tau|)``.  Each Local exponential
    (per time slice) and each inverse conjugation is built once, so a
    factor that recurs is the same object.
    """
    local_exps: dict[tuple[int, float], tuple] = {}
    inverses: dict[int, tuple] = {}
    # Work items are a (node, time) pair to expand or a (None, factor) pair
    # to emit, popped last-in first-out, so children are pushed in reverse.
    work: list = [(program, tau)]
    while work:
        node, value = work.pop()
        if node is None:
            yield value
        elif isinstance(node, Native):
            yield node.weight * value
        elif isinstance(node, Local):
            key = (id(node), value)
            if key not in local_exps:
                local_exps[key] = ((node.qudit, hermitian_exp(node.operator, value)),)
            yield local_exps[key]
        elif isinstance(node, Conjugate):
            if node.unitary.dims != dims:
                raise ValueError("conjugation unitary does not match the system")
            if id(node) not in inverses:
                inverses[id(node)] = tuple((j, dagger(u)) for j, u in node.unitary.placed)
            work += [(None, node.unitary.placed), (node.child, value), (None, inverses[id(node)])]
        elif isinstance(node, Sum):
            work += [(child, w * value) for w, child in reversed(node.children)]
        elif isinstance(node, Commutator):
            if value == 0.0:
                continue
            left, right = node.left, node.right
            if value < 0.0:
                # i[R, L] = -i[L, R]: swapping operands evolves backwards.
                left, right, value = right, left, -value
            delta = math.sqrt(value)
            work += [(left, delta), (right, -delta), (left, -delta), (right, delta)]
        else:
            raise TypeError(f"not a program node: {node!r}")


def _step_unitary(program: SimulationProgram, dims: tuple[int, ...], tau: float, native):
    """One Trotter step's unitary; ``native(s)`` gives the source slice ``exp(-i s H)``.

    Only Native slices are multiplied in as D x D matrices.  A local factor
    acts on its qudit's row axis of the running product, viewed as
    ``(left, d, rest)``, at ``d`` times ``D²`` cost.
    """
    big_d = math.prod(dims)
    out = np.eye(big_d, dtype=complex)
    for factor in _step_factors(program, dims, tau):
        if isinstance(factor, float):
            out = native(factor) @ out
            continue
        for j, u in factor:
            out = (u @ out.reshape(math.prod(dims[:j]), dims[j], -1)).reshape(big_d, big_d)
    return out


def trotter_compile(
    program: SimulationProgram,
    source: np.ndarray,
    system: QuditSystem,
    t: float,
    steps: int,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> list[np.ndarray]:
    """Compile a program into dense unitary factors approximating exp(-i H_eff t).

    Factors are returned in application order (index 0 acts first on the
    state), one step's factors repeated ``steps`` times.  Sums interleave
    children once per step (first-order); commutator nodes emit the
    four-factor group commutator with time slice sqrt(t / steps).  The
    source is diagonalised once, and factors that recur are shared.
    """
    _check_steps(steps, _count_factors(program), branch_cap)
    if not math.isfinite(t):
        raise ValueError("evolution time must be finite")
    require_hermitian(source, "source Hamiltonian")
    native = _evolution(*np.linalg.eigh(source))
    dims = system.dims
    dense: dict[int, np.ndarray] = {}
    out: list[np.ndarray] = []
    for factor in _step_factors(program, dims, float(t) / steps):
        if isinstance(factor, float):
            out.append(native(factor))
        else:
            if id(factor) not in dense:
                dense[id(factor)] = embed(dims, dict(factor))
            out.append(dense[id(factor)])
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
    estimate is the mean log-ratio of consecutive errors.  The source and
    the effective Hamiltonian are each diagonalised once; one step's
    product is built with local factors applied per qudit and raised to
    the step count.  Times with ``|t|·‖H‖₂`` above ``MAX_PHASE`` for
    either Hamiltonian are refused: their errors would be phase round-off.
    """
    if not math.isfinite(t):
        raise ValueError("evolution time must be finite")
    one_step = _count_factors(program)
    for steps in steps_list:
        _check_steps(steps, one_step, branch_cap)
    eff = effective_hamiltonian(program, source, system)
    require_hermitian(eff, "evolution generator")
    eff_vals, eff_vecs = np.linalg.eigh(eff)
    src_vals, src_vecs = np.linalg.eigh(source)
    phase = abs(t) * max(max_abs(eff_vals), max_abs(src_vals))
    if phase > MAX_PHASE:
        raise ValueError(
            f"|t|·‖H‖ = {phase:.3g} exceeds {MAX_PHASE:g}; "
            "Trotter errors at this time would be phase round-off"
        )
    target = _evolution(eff_vals, eff_vecs)(t)
    native = _evolution(src_vals, src_vecs)
    errors = []
    for steps in steps_list:
        step_product = _step_unitary(program, system.dims, float(t) / steps, native)
        total = np.linalg.matrix_power(step_product, steps)
        errors.append((int(steps), float(np.linalg.norm(total - target, 2))))

    ratios = []
    for (n1, e1), (n2, e2) in zip(errors, errors[1:]):
        if e1 > 1e-14 and e2 > 1e-14 and n2 != n1:
            ratios.append(math.log(e1 / e2) / math.log(n2 / n1))
    order = sum(ratios) / len(ratios) if ratios else 0.0
    best = min(e for _, e in errors) if errors else 0.0
    return VerificationReport(best, tuple(errors), order)
