"""Term isolation: simulate one chosen coupling term of an expansion.

The pipeline composes four stages, each a sum of local-unitary
conjugations (or, in the last stage, commutators with free local
Hamiltonians), every one acting diagonally on the coupling-term basis:

* ``D``  depolarize the qudits outside the target support, killing every
         term that leaks outside,
* ``Z``  level-reflection filters, killing every off-diagonal factor,
* ``P``  cyclic-shift averages, killing diagonal factors below the
         target's level index,
* ``X``  a commutator ladder mapping the lone survivor onto a fixed
         off-diagonal product; its commutators also vanish on every
         term that is the identity on a support qudit.

The ladder already removes strict-subset terms, so the pairwise
full-support filter ``stage_full_support_filter`` is a library function
outside the pipeline: its filters scale the identity and subset terms by
more than the target, so their round-off can outgrow the target.

A final per-factor retargeting step plus the inverse of the initial
canonicalizing conjugation turn the survivor back into the requested
term, scaled by a positive constant.
"""

import math
from dataclasses import dataclass

import numpy as np

from .majorization import retarget_term, spectrum
from .model import EPS_ZERO, CouplingTerm, Expansion, site_stacks, term_at
from .model import reconstruct  # noqa: F401  (perfbench traces calls through this binding)
from .operators import (
    GellMannLabel,
    LocalUnitary,
    dagger,
    gellmann_labels,
    gellmann_matrix,
    level_permutation,
    level_sign_flip,
)
from .program import (
    Commutator,
    Conjugate,
    Local,
    Native,
    SimulationProgram,
    Sum,
    graft,
    pauli_branches,
)


class TermNotFoundError(ValueError):
    """The requested coupling term is not present in the expansion."""


class NegligibleTermError(ValueError):
    """The target coefficient is (or became) numerically negligible."""


@dataclass(frozen=True)
class CanonicalTarget:
    """Local conjugation mapping the target onto diagonal factors.

    ``cartan_indices[j] = b_j`` names the diagonal element the target's
    factor on qudit j becomes: b_j = m for a ``W:m`` factor and 2 for any
    off-diagonal factor (same spectrum as ``W:2``).
    """

    conjugation: LocalUnitary
    cartan_indices: dict[int, int]


@dataclass(frozen=True)
class StageReport:
    stage: str
    surviving_terms: int
    target_scale: float


@dataclass(frozen=True)
class IsolationResult:
    """Compiled isolation program with its verified positive scale.

    The program's effective Hamiltonian on the expansion's operator equals
    ``scale * target`` (embedded), with ``scale > 0``.
    """

    program: SimulationProgram
    scale: float
    target: CouplingTerm
    canonical_term: CouplingTerm
    stage_reports: tuple[StageReport, ...]
    canonical: CanonicalTarget


def _descending_w_frame(dim: int, m: int) -> np.ndarray:
    """Columns = eigenvectors of ``W:m`` ordered by descending eigenvalue."""
    frame = np.zeros((dim, dim), dtype=complex)
    for k in range(m - 1):
        frame[k, k] = 1.0
    for k in range(m - 1, dim - 1):
        frame[k + 1, k] = 1.0
    frame[m - 1, dim - 1] = 1.0
    return frame


def precondition(
    expansion: Expansion, target: CouplingTerm
) -> tuple[CanonicalTarget, Expansion]:
    """Conjugate the whole expansion so the target becomes diagonal.

    Per support qudit: diagonal factors are left alone (b_j is their own
    index); off-diagonal factors share the spectrum of ``W:2`` and are
    rotated onto it, eigenvalues sorted descending with ties keeping the
    eigensolver's order.  Each rotated qudit's coefficient axis is mapped
    by the real adjoint matrix ``tr(dual_k^dagger U primal_l U^dagger)``.
    """
    if expansion.coefficient(target) == 0.0:
        raise TermNotFoundError(f"term {target} not present in the expansion")
    system = expansion.system
    factors: dict[int, np.ndarray] = {}
    cartan: dict[int, int] = {}
    coeffs = expansion.coeffs
    for qudit, label in target.factors:
        d = system.dims[qudit]
        if label.kind == "W":
            cartan[qudit] = label.a
            continue
        cartan[qudit] = 2
        spec = spectrum(gellmann_matrix(d, label))
        u = factors[qudit] = _descending_w_frame(d, 2) @ dagger(spec.vectors)
        primal, dual = site_stacks(d)
        adjoint = np.einsum("kab,lab->kl", dual.conj(), u @ primal @ dagger(u)).real
        coeffs = _map_axis(coeffs, qudit, adjoint)
    conjugation = LocalUnitary.from_factors(system.dims, factors)
    return CanonicalTarget(conjugation, cartan), Expansion.from_array(system, coeffs).thresholded()


def _map_axis(coeffs: np.ndarray, axis: int, matrix: np.ndarray) -> np.ndarray:
    """Apply a linear map to one site axis of a coefficient array."""
    return np.moveaxis(np.tensordot(matrix, coeffs, axes=([1], [axis])), 0, axis)


def _multiply(coeffs: np.ndarray, axes: tuple[int, ...], multiplier: np.ndarray) -> np.ndarray:
    """Scale a coefficient array entrywise by a multiplier indexed by ``axes``."""
    others = [a for a in range(coeffs.ndim) if a not in axes]
    return coeffs * np.expand_dims(multiplier.transpose(np.argsort(axes)), others)


def _require_factors(coeffs: np.ndarray, dim: int, axis: int, allowed: np.ndarray, message: str):
    """Raise ``message`` plus the label if a present term's factor on ``axis`` is not allowed."""
    hits = np.argwhere(_multiply(coeffs, (axis,), ~allowed))
    if len(hits):
        raise ValueError(f"{message}{gellmann_labels(dim)[hits[0][axis] - 1]}")


def stage_depolarize(
    expansion: Expansion, support
) -> tuple[SimulationProgram, Expansion]:
    """Full Pauli-group twirl of every qudit outside the support.

    The program nests one single-qudit twirl per outside qudit: the bare
    child (the identity branch) plus its d^2 - 1 non-identity Pauli
    conjugations.  Terms leaking outside acquire a vanished traceless
    factor; terms inside are scaled by the product of the squared outside
    dimensions.
    """
    system = expansion.system
    support = frozenset(support)
    outside = sorted(set(range(system.size)) - support)
    coeffs = expansion.coeffs
    program: SimulationProgram = Native(1.0)
    for j in outside:
        d2 = system.dims[j] ** 2
        coeffs = _multiply(coeffs, (j,), d2 * (np.arange(d2) == 0))
        program = Sum(((1.0, program),) + pauli_branches(system.dims, j, program))
    return program, Expansion.from_array(system, coeffs)


def stage_full_support_filter(
    expansion: Expansion, support
) -> tuple[SimulationProgram, Expansion]:
    """Pairwise filters killing every strict-subset term.

    For each ordered pair (m, j) of distinct support qudits the filter
    adds ``(d_j^2 - 1)`` times the identity to the double twirl over
    non-identity Pauli elements on m and j, built as nested single-qudit
    sums: ``(d_j^2 - 1) child + sum_{u_m != I} u_m (sum_{u_j != I} u_j
    child u_j†) u_m†``.  A term traceless on m but trivial on j picks up
    a zero there; composing over all ordered pairs therefore removes
    every term whose support is a strict subset, with only positive
    program weights.  Full-support terms survive with factor
    ``prod d_j^(2(k-1))``.
    """
    system = expansion.system
    support = sorted(set(support))
    leaked = expansion.coeffs.copy()
    leaked[tuple(slice(None) if j in support else 0 for j in range(system.size))] = 0.0
    if leaked.any():
        term = term_at(system.dims, np.argwhere(leaked)[0])
        raise ValueError(f"term {term} lies outside the filter support {support}")
    if len(support) <= 1:
        return Native(1.0), expansion

    coeffs = expansion.coeffs
    child: SimulationProgram = Native(1.0)
    for m in support:
        for j in support:
            if m == j:
                continue
            dm2 = system.dims[m] ** 2
            dj2 = system.dims[j] ** 2
            inner = Sum(pauli_branches(system.dims, j, child))
            child = Sum(((float(dj2 - 1), child),) + pauli_branches(system.dims, m, inner))

            # The factor depends on whether a term is traceless on m and on j.
            corners = np.array([[dm2 * (dj2 - 1), dj2 - dm2], [0.0, dj2]])
            table = corners[np.minimum(np.arange(dm2), 1)[:, None], np.minimum(np.arange(dj2), 1)]
            coeffs = _multiply(coeffs, (m, j), table)
    return child, Expansion.from_array(system, coeffs)


def stage_cartan_filter(
    expansion: Expansion, support
) -> tuple[SimulationProgram, Expansion]:
    """Reflection filters killing every off-diagonal factor.

    ``I - 2|a><a|`` anticommutes with the X/Y elements touching level a
    and commutes with every diagonal element, so composing
    ``H + Z H Z`` over all levels and support qudits removes X/Y factors
    and scales diagonal survivors by ``prod 2^(d_j)``.
    """
    system = expansion.system
    child: SimulationProgram = Native(1.0)
    coeffs = expansion.coeffs
    for j in sorted(set(support)):
        d = system.dims[j]
        for a in range(1, d + 1):
            flip = LocalUnitary.from_factors(system.dims, {j: level_sign_flip(d, a)})
            child = Sum(((1.0, child), (1.0, Conjugate(flip, child))))
        diagonal = [1.0] + [float(label.kind == "W") for label in gellmann_labels(d)]
        coeffs = _multiply(coeffs, (j,), 2.0**d * np.array(diagonal))
    return child, Expansion.from_array(system, coeffs)


def stage_permutation_filter(
    expansion: Expansion, cartan_indices: dict[int, int]
) -> tuple[SimulationProgram, Expansion]:
    """Cyclic-shift averages killing low diagonal factors.

    The ``b_j - 1`` cyclic shifts of levels ``1..b_j - 1`` act
    transitively on that block, so averaging over them distributes the
    diagonal of any ``W:a`` with ``a < b_j`` evenly over a traceless
    block, eliminating it; factors with ``a >= b_j`` are invariant and
    get scaled by ``b_j - 1``.  For ``b_j <= 3`` the shifts are all the
    permutations of the block.  Requires diagonal factors (or factors
    entirely above the shifted block) on the filtered qudits.
    """
    system = expansion.system
    child: SimulationProgram = Native(1.0)
    coeffs = expansion.coeffs
    for j in sorted(cartan_indices):
        b = cartan_indices[j]
        if b <= 2:
            continue
        d = system.dims[j]
        branches = []
        for shift in range(b - 1):
            images = tuple(1 + (k + shift) % (b - 1) for k in range(b - 1))
            perm = LocalUnitary.from_factors(system.dims, {j: level_permutation(d, images)})
            branches.append((1.0, Conjugate(perm, child)))
        child = Sum(tuple(branches))

        labels = gellmann_labels(d)
        allowed = np.array([True] + [label.kind == "W" or label.a >= b for label in labels])
        message = f"permutation filter on qudit {j} needs diagonal factors, got "
        _require_factors(coeffs, d, j, allowed, message)
        invariant = [1.0] + [float(label.a >= b) for label in labels]
        coeffs = _multiply(coeffs, (j,), (b - 1) * np.array(invariant))
    return child, Expansion.from_array(system, coeffs)


def stage_ladder(
    expansion: Expansion, cartan_indices: dict[int, int]
) -> tuple[SimulationProgram, Expansion]:
    """Commutator ladder selecting the exact target levels.

    Per support qudit j, commuting with the free local Hamiltonian
    ``X:(b_j-1):b_j`` annihilates every ``W:a`` with ``a > b_j`` (and the
    identity), while ``W:b_j`` maps onto ``Y:(b_j-1):b_j`` scaled by
    ``sqrt(b_j / (b_j - 1))``; exactly one term survives the full ladder.
    """
    system = expansion.system
    child: SimulationProgram = Native(1.0)
    coeffs = expansion.coeffs
    for j in sorted(cartan_indices):
        b = cartan_indices[j]
        d = system.dims[j]
        xmat = gellmann_matrix(d, GellMannLabel.x(b - 1, b))
        child = Commutator(Local(j, xmat), child)

        labels = gellmann_labels(d)
        allowed = np.array([True] + [label.kind == "W" and label.a >= b for label in labels])
        message = f"ladder stage on qudit {j} expects W:a factors with a >= {b}, got "
        _require_factors(coeffs, d, j, allowed, message)
        ladder = np.zeros((d * d, d * d))
        w_b = 1 + labels.index(GellMannLabel.w(b))
        y_b = 1 + labels.index(GellMannLabel.y(b - 1, b))
        ladder[y_b, w_b] = np.sqrt(b / (b - 1))
        coeffs = _map_axis(coeffs, j, ladder)
    if not coeffs.any():
        raise NegligibleTermError("commutator ladder eliminated every term")
    return child, Expansion.from_array(system, coeffs)


def isolate_term(
    expansion: Expansion, target: CouplingTerm, eps: float = EPS_ZERO
) -> IsolationResult:
    """Compile a program simulating a positive multiple of one term.

    Composes preconditioning, the D/Z/P/X stages and a final
    retargeting (plus the inverse preconditioning conjugation); the
    ``stage_reports`` name these four stages in order.  The
    stages run on the expansion divided by its largest coefficient, so
    their scale factors cannot overflow; the returned scale is the
    absolute survivor coefficient times that maximum: the product of the
    per-stage scale factors times ``|h_target|``.
    """
    h_target = expansion.coefficient(target)
    if h_target == 0.0:
        raise TermNotFoundError(f"term {target} not present in the expansion")
    peak = expansion.max_coefficient()
    if abs(h_target) <= eps * peak:
        raise NegligibleTermError(
            f"coefficient of {target} is below the relative threshold {eps:g}"
        )
    system = expansion.system
    support = target.support
    normalised = Expansion.from_array(system, expansion.without_offset().coeffs / peak)
    canon, current = precondition(normalised.thresholded(eps), target)
    canonical_term = CouplingTerm.of(
        {j: GellMannLabel.w(b) for j, b in canon.cartan_indices.items()}
    )
    ladder_term = CouplingTerm.of(
        {j: GellMannLabel.y(b - 1, b) for j, b in canon.cartan_indices.items()}
    )

    program: SimulationProgram = Conjugate(canon.conjugation, Native(1.0))
    stages = (
        ("D", lambda e: stage_depolarize(e, support)),
        ("Z", lambda e: stage_cartan_filter(e, support)),
        ("P", lambda e: stage_permutation_filter(e, canon.cartan_indices)),
        ("X", lambda e: stage_ladder(e, canon.cartan_indices)),
    )
    reports = []
    tracked = canonical_term
    for name, fn in stages:
        before = current.coefficient(tracked)
        stage_program, current = fn(current)
        current = current.thresholded(eps)
        program = graft(stage_program, program)
        if name == "X":
            tracked = ladder_term
        after = current.coefficient(tracked)
        if before == 0.0 or after == 0.0:
            raise NegligibleTermError(f"target lost in stage {name}")
        reports.append(StageReport(name, current.term_count(), after / before))

    leftovers = set(current.coefficients) - {tracked}
    if leftovers:
        raise RuntimeError(f"isolation left extra terms: {sorted(map(str, leftovers))}")

    survivor_coeff = current.coefficient(tracked)
    scale = abs(survivor_coeff) * peak
    if not math.isfinite(scale):
        raise ValueError(f"isolation scale overflows: {abs(survivor_coeff):.3e} x {peak:.3e}")
    program = graft(
        retarget_term(tracked, survivor_coeff, canonical_term, abs(survivor_coeff), system),
        program,
    )
    program = Conjugate(canon.conjugation.inverse(), program)
    return IsolationResult(
        program, scale, target, canonical_term, tuple(reports), canon
    )
