"""Multi-qudit systems, Hamiltonian expansions and universality verdicts.

A Hamiltonian is represented either densely or as an expansion over
coupling terms: tensor products of Gell-Mann matrices on a support set of
qudits, identity elsewhere, with real coefficients plus a trace offset
``tr(H)/D``.  Connectivity of the coupling hypergraph decides whether the
Hamiltonian entangles a qudit set, and the classifier sorts expansions
into the four simulation-universality classes.
"""

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .operators import (
    GellMannLabel,
    embed,
    gellmann_basis,
    gellmann_labels,
    gellmann_matrix,
    require_hermitian,
)

# Coefficients below EPS_ZERO times the largest coefficient magnitude are
# treated as floating-point dust and dropped.
EPS_ZERO = 1e-12

# Dense-matrix policy cap; everything here is desk scale by design.
MAX_TOTAL_DIM = 256


@dataclass(frozen=True)
class QuditSystem:
    """An ordered collection of finite-dimensional systems."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 2 for d in self.dims):
            raise ValueError(f"every qudit dimension must be >= 2, got {self.dims}")
        if math.prod(self.dims) > MAX_TOTAL_DIM:
            raise ValueError(
                f"total dimension {math.prod(self.dims)} exceeds the supported "
                f"dense-matrix cap of {MAX_TOTAL_DIM}"
            )

    @property
    def size(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def qubits(self) -> tuple[int, ...]:
        return tuple(j for j, d in enumerate(self.dims) if d == 2)

    def non_qubits(self) -> tuple[int, ...]:
        return tuple(j for j, d in enumerate(self.dims) if d > 2)


@dataclass(frozen=True, order=True)
class CouplingTerm:
    """A tensor product of Gell-Mann factors on a support set of qudits.

    Stored as a sorted tuple of (qudit, label) pairs so terms are hashable
    dictionary keys with a deterministic order.
    """

    factors: tuple[tuple[int, GellMannLabel], ...]

    def __post_init__(self):
        pairs = tuple(sorted(self.factors))
        if not pairs:
            raise ValueError("a coupling term must touch at least one qudit")
        if len({q for q, _ in pairs}) != len(pairs):
            raise ValueError("duplicate qudit index in coupling term")
        object.__setattr__(self, "factors", pairs)

    @classmethod
    def of(cls, mapping: dict[int, GellMannLabel]) -> "CouplingTerm":
        return cls(tuple(mapping.items()))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.factors)

    def label_at(self, qudit: int) -> GellMannLabel:
        for q, label in self.factors:
            if q == qudit:
                return label
        raise KeyError(f"qudit {qudit} not in support {self.support}")

    def without(self, qudit: int) -> "CouplingTerm":
        kept = tuple((q, lab) for q, lab in self.factors if q != qudit)
        return CouplingTerm(kept)

    def validate(self, system: QuditSystem) -> None:
        for q, label in self.factors:
            if not 0 <= q < system.size:
                raise ValueError(f"qudit index {q} out of range for {system.dims}")
            label.validate(system.dims[q])

    def matrix(self, system: QuditSystem) -> np.ndarray:
        self.validate(system)
        placed = {q: gellmann_matrix(system.dims[q], lab) for q, lab in self.factors}
        return embed(system.dims, placed)

    def __str__(self) -> str:
        return ",".join(f"{q}:{label}" for q, label in self.factors)


class Expansion:
    """Real coefficients over coupling terms plus a trace offset.

    The represented operator is ``trace_offset * I + sum h_a T_a``, held as
    one read-only real array ``coeffs`` of shape ``(d_0^2, ..., d_{n-1}^2)``.
    On axis j, index 0 is the identity and index k >= 1 the Gell-Mann
    element ``gellmann_labels(d_j)[k - 1]``; an entry is its term's ``h_a``
    (identity factors unnormalised) and entry ``(0, ..., 0)`` is the trace
    offset.  Helpers return new instances.
    """

    def __init__(self, system: QuditSystem, coefficients: dict | None = None, trace_offset=0.0):
        coeffs = np.zeros([d * d for d in system.dims])
        for term, h in (coefficients or {}).items():
            coeffs[_term_index(system, term)] = h
        coeffs.flat[0] = trace_offset
        self.system = system
        self.coeffs = coeffs
        coeffs.flags.writeable = False

    @classmethod
    def from_array(cls, system: QuditSystem, coeffs: np.ndarray) -> "Expansion":
        """Expansion holding a copy of a coefficient array in the ``coeffs`` layout."""
        if np.shape(coeffs) != tuple(d * d for d in system.dims):
            raise ValueError(f"coefficient shape {np.shape(coeffs)} does not fit {system.dims}")
        out = cls.__new__(cls)
        out.system = system
        out.coeffs = np.array(coeffs, dtype=float)
        out.coeffs.flags.writeable = False
        return out

    @property
    def trace_offset(self) -> float:
        return float(self.coeffs.flat[0])

    @cached_property
    def coefficients(self) -> MappingProxyType:
        """Read-only ``{term: h}`` view of the nonzero terms, in array order."""
        nonzero = np.nonzero(self.coeffs)
        pairs = zip(zip(*nonzero), self.coeffs[nonzero].tolist())
        return MappingProxyType({term_at(self.system.dims, i): h for i, h in pairs if any(i)})

    def coefficient(self, term: CouplingTerm) -> float:
        """Coefficient of one term (0.0 when absent)."""
        return float(self.coeffs[_term_index(self.system, term)])

    def terms(self) -> list[tuple[CouplingTerm, float]]:
        return sorted(self.coefficients.items())

    def term_count(self) -> int:
        return int(np.count_nonzero(self.coeffs)) - int(self.coeffs.flat[0] != 0.0)

    def max_coefficient(self) -> float:
        return float(np.abs(self.coeffs.ravel()[1:]).max(initial=0.0))

    def thresholded(self, eps_rel: float = EPS_ZERO) -> "Expansion":
        cutoff = eps_rel * max(self.max_coefficient(), abs(self.trace_offset))
        kept = np.where(np.abs(self.coeffs) > cutoff, self.coeffs, 0.0)
        kept.flat[0] = self.trace_offset
        return Expansion.from_array(self.system, kept)

    def without_offset(self) -> "Expansion":
        stripped = self.coeffs.copy()
        stripped.flat[0] = 0.0
        return Expansion.from_array(self.system, stripped)


def _term_index(system: QuditSystem, term: CouplingTerm) -> tuple[int, ...]:
    """Index of a coupling term in the ``Expansion.coeffs`` layout."""
    term.validate(system)
    index = [0] * system.size
    for q, label in term.factors:
        index[q] = gellmann_labels(system.dims[q]).index(label) + 1
    return tuple(index)


def term_at(dims: tuple[int, ...], index) -> CouplingTerm:
    """Coupling term at a (not all-zero) index of the ``Expansion.coeffs`` layout."""
    labels = tuple((j, gellmann_labels(dims[j])[k - 1]) for j, k in enumerate(index) if k)
    return CouplingTerm(labels)


@lru_cache(maxsize=None)
def site_stacks(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-site basis ``I, G_1, ...`` and its dual ``I/d, G_1, ...``.

    ``tr(dual_k^dagger primal_l) = delta_kl``.
    """
    gells = [g for _, g in gellmann_basis(dim)]
    eye = np.eye(dim, dtype=complex)
    return np.stack([eye] + gells), np.stack([eye / dim] + gells)


def expand(ham: np.ndarray, system: QuditSystem, eps_rel: float = EPS_ZERO) -> Expansion:
    """Project a dense Hermitian operator onto the coupling-term basis.

    Coefficients are Hilbert-Schmidt projections on the dual site bases:
    since Gell-Mann factors have unit norm and identity factors contribute
    their dimension, a term with support S gets
    ``h = tr(T H) / prod_{j not in S} d_j``.
    """
    dims = system.dims
    n = system.size
    big_d = system.total_dim
    if ham.shape != (big_d, big_d):
        raise ValueError(f"operator shape {ham.shape} does not match dimension {big_d}")
    require_hermitian(ham, "expanded operator")

    # Contract one site at a time; the invariant keeps site j's row axis at
    # position j and its column axis at position n.
    coeff = ham.reshape(*dims, *dims)
    for j, d in enumerate(dims):
        dual = site_stacks(d)[1]
        coeff = np.moveaxis(np.tensordot(dual.conj(), coeff, axes=([1, 2], [j, n])), 0, j)

    imag_resid = float(np.abs(coeff.imag).max())
    if imag_resid > 1e-12 * max(1.0, float(np.abs(coeff).max())):
        raise ValueError(f"expansion produced non-real coefficients ({imag_resid:.2e})")
    return Expansion.from_array(system, coeff.real).thresholded(eps_rel)


def reconstruct(expansion: Expansion) -> np.ndarray:
    """Dense operator of an expansion; terms are contracted site by site."""
    system = expansion.system
    out = expansion.without_offset().coeffs
    for d in system.dims:
        out = np.tensordot(out, site_stacks(d)[0], axes=([0], [0]))
    # Axes are now (row_0, col_0, row_1, col_1, ...).
    rows_then_cols = [*range(0, 2 * system.size, 2), *range(1, 2 * system.size, 2)]
    terms = out.transpose(rows_then_cols).reshape(system.total_dim, -1)
    return expansion.trace_offset * embed(system.dims, {}) + terms


@dataclass(frozen=True)
class Connectivity:
    """Result of a hypergraph connectivity check.

    Truthy when connected; otherwise ``partition`` is a witness bipartition
    (S, S-bar) that no term support crosses.
    """

    connected: bool
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __bool__(self) -> bool:
        return self.connected


def is_entangling(expansion: Expansion, subset) -> Connectivity:
    """Whether the coupling hypergraph connects ``subset``.

    Vertices are the qudits of ``subset``; each term contributes its
    support intersected with ``subset`` as a hyperedge.  Two qudits are
    linked when some term touches both, and the component of the first
    qudit grows along links until it stops changing.
    """
    subset = tuple(sorted(set(subset)))
    if not subset:
        raise ValueError("connectivity of an empty qudit set is undefined")
    for q in subset:
        if not 0 <= q < expansion.system.size:
            raise ValueError(f"qudit {q} outside the system")
    touched = (np.argwhere(expansion.coeffs)[:, subset] != 0).astype(int)
    linked = touched.T @ touched > 0
    reached = np.arange(len(subset)) == 0
    for _ in subset:
        reached = reached | linked[reached].any(axis=0)
    if reached.all():
        return Connectivity(True)
    component = tuple(q for q, r in zip(subset, reached) if r)
    rest = tuple(q for q, r in zip(subset, reached) if not r)
    return Connectivity(False, (component, rest))


class VerdictKind(enum.Enum):
    NON_ENTANGLING = "NonEntangling"
    ODD_QUBIT_ONLY = "OddQubitOnly"
    UNIVERSAL_BY_EVEN_TERM = "UniversalByEvenTerm"
    UNIVERSAL_CONSTRUCTIVE = "UniversalConstructive"


@dataclass(frozen=True)
class Verdict:
    """Simulation-universality class of an expansion."""

    kind: VerdictKind
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def universal(self) -> bool:
        return self.kind in (
            VerdictKind.UNIVERSAL_BY_EVEN_TERM,
            VerdictKind.UNIVERSAL_CONSTRUCTIVE,
        )

    def describe(self) -> str:
        if self.kind is VerdictKind.NON_ENTANGLING and self.partition:
            left, right = self.partition
            return (
                f"{self.kind.value} {{{','.join(map(str, left))}}}"
                f"|{{{','.join(map(str, right))}}}"
            )
        return self.kind.value


def classify(expansion: Expansion) -> Verdict:
    """Classify an expansion by its universality class.

    Non-entangling Hamiltonians are rejected with a witness partition.
    All-qubit Hamiltonians split into the odd class (every support has odd
    cardinality, not universal) and the even class (universal, by
    classification only).  Any entangling Hamiltonian touching a non-qubit
    is universal with a constructive certificate available.
    """
    if not expansion.coefficients:
        raise ValueError("cannot classify an expansion with no coupling terms")
    system = expansion.system
    conn = is_entangling(expansion, range(system.size))
    if not conn:
        return Verdict(VerdictKind.NON_ENTANGLING, conn.partition)
    if all(d == 2 for d in system.dims):
        if all(len(t.support) % 2 == 1 for t in expansion.coefficients):
            return Verdict(VerdictKind.ODD_QUBIT_ONLY)
        return Verdict(VerdictKind.UNIVERSAL_BY_EVEN_TERM)
    return Verdict(VerdictKind.UNIVERSAL_CONSTRUCTIVE)
