"""Dense operator toolbox for multi-qudit systems.

Provides the generalized Gell-Mann matrices (the traceless Hermitian
operator basis), the qudit Pauli group used for twirling, level
reflections and permutations, tensor embedding and Hermitian matrix
exponentials.

Conventions used throughout the package:

* basis levels are 1-based (``|1> .. |d>``), matching the usual operator
  definitions; qudit indices are 0-based,
* every Gell-Mann matrix is Hermitian, traceless and has unit
  Hilbert-Schmidt norm, ``tr(G G) = 1``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Relative tolerance for Hermiticity checks, absolute for unitarity.
HERMITIAN_RTOL = 1e-12
UNITARY_ATOL = 1e-12


def dagger(op: np.ndarray) -> np.ndarray:
    return op.conj().T


def max_abs(op: np.ndarray) -> float:
    return float(np.abs(op).max()) if op.size else 0.0


def is_hermitian(op: np.ndarray, rtol: float = HERMITIAN_RTOL) -> bool:
    return max_abs(op - dagger(op)) < rtol * max(1.0, max_abs(op))


def require_hermitian(op: np.ndarray, what: str = "operator") -> None:
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {op.shape}")
    if not is_hermitian(op):
        raise ValueError(f"{what} is not Hermitian within tolerance")


def is_unitary(op: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    return max_abs(dagger(op) @ op - np.eye(op.shape[0])) < atol


@dataclass(frozen=True, order=True)
class GellMannLabel:
    """Label of one Gell-Mann basis matrix.

    ``kind`` is ``"W"`` (diagonal family, index ``a = m``), ``"X"``
    (symmetric off-diagonal) or ``"Y"`` (antisymmetric off-diagonal); for
    X/Y the pair ``(a, b)`` holds the two coupled levels with ``a < b``.
    The dataclass ordering (kind, a, b) gives a stable, readable sort.
    """

    kind: str
    a: int
    b: int = 0

    @classmethod
    def w(cls, m: int) -> "GellMannLabel":
        return cls("W", m)

    @classmethod
    def x(cls, a: int, b: int) -> "GellMannLabel":
        return cls("X", a, b)

    @classmethod
    def y(cls, a: int, b: int) -> "GellMannLabel":
        return cls("Y", a, b)

    @classmethod
    def from_string(cls, text: str) -> "GellMannLabel":
        """Parse ``"W:<m>"``, ``"X:<a>:<b>"`` or ``"Y:<a>:<b>"``."""
        parts = text.strip().split(":")
        kind = parts[0].upper() if parts else ""
        try:
            if kind == "W" and len(parts) == 2:
                return cls.w(int(parts[1]))
            if kind in ("X", "Y") and len(parts) == 3:
                return cls(kind, int(parts[1]), int(parts[2]))
        except ValueError:
            pass
        raise ValueError(f"invalid Gell-Mann label {text!r}")

    def __str__(self) -> str:
        if self.kind == "W":
            return f"W:{self.a}"
        return f"{self.kind}:{self.a}:{self.b}"

    def validate(self, dim: int) -> None:
        if self.kind == "W":
            if not 2 <= self.a <= dim:
                raise ValueError(f"label {self} out of range for dimension {dim}")
        elif self.kind in ("X", "Y"):
            if not 1 <= self.a < self.b <= dim:
                raise ValueError(f"label {self} out of range for dimension {dim}")
        else:
            raise ValueError(f"unknown label kind {self.kind!r}")


def gellmann_matrix(dim: int, label: GellMannLabel) -> np.ndarray:
    """Dense matrix of one Gell-Mann basis element in dimension ``dim``."""
    label.validate(dim)
    out = np.zeros((dim, dim), dtype=complex)
    if label.kind == "W":
        m = label.a
        norm = 1.0 / np.sqrt(m * (m - 1))
        for level in range(1, m):
            out[level - 1, level - 1] = norm
        out[m - 1, m - 1] = -(m - 1) * norm
    else:
        a, b = label.a - 1, label.b - 1
        if label.kind == "X":
            out[a, b] = out[b, a] = 1.0 / np.sqrt(2)
        else:
            out[a, b] = -1j / np.sqrt(2)
            out[b, a] = 1j / np.sqrt(2)
    return out


@lru_cache(maxsize=None)
def gellmann_labels(dim: int) -> tuple[GellMannLabel, ...]:
    """All d^2 - 1 labels for dimension ``dim``, in sorted order."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    labels = [GellMannLabel.w(m) for m in range(2, dim + 1)]
    labels += [GellMannLabel.x(a, b) for a in range(1, dim) for b in range(a + 1, dim + 1)]
    labels += [GellMannLabel.y(a, b) for a in range(1, dim) for b in range(a + 1, dim + 1)]
    return tuple(sorted(labels))


def gellmann_basis(dim: int) -> list[tuple[GellMannLabel, np.ndarray]]:
    """The full traceless Hermitian operator basis for dimension ``dim``.

    Returns the d^2 - 1 pairs (label, matrix); the matrices are pairwise
    orthonormal under the Hilbert-Schmidt inner product.
    """
    return [(label, gellmann_matrix(dim, label)) for label in gellmann_labels(dim)]


@lru_cache(maxsize=None)
def heisenberg_weyl(dim: int) -> tuple[np.ndarray, ...]:
    """Phase-class representatives of the qudit Pauli group.

    Returns the d^2 unitaries ``X^a Z^b`` where ``X`` is the cyclic level
    shift and ``Z = diag(w^j)`` with ``w = exp(2 pi i / d)``; the identity
    comes first.  Conjugation sums over the full set form a depolarizing
    twirl: ``sum_p U_p J U_p† = d tr(J) I`` for any ``J``.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    shift = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        shift[(j + 1) % dim, j] = 1.0
    omega = np.exp(2j * np.pi / dim)
    clock = np.diag(omega ** np.arange(dim))
    out = []
    for a in range(dim):
        for b in range(dim):
            out.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return tuple(out)


def level_sign_flip(dim: int, a: int) -> np.ndarray:
    """The unitary, Hermitian reflection ``I - 2|a><a|`` (1-based level)."""
    if not 1 <= a <= dim:
        raise ValueError(f"level {a} out of range for dimension {dim}")
    out = np.eye(dim, dtype=complex)
    out[a - 1, a - 1] = -1.0
    return out


def level_permutation(dim: int, images: tuple[int, ...]) -> np.ndarray:
    """Unitary permuting a prefix of basis levels.

    ``images[i-1]`` is the image of level ``i`` for ``i = 1..len(images)``;
    levels beyond the prefix are untouched.  ``images`` must be a
    permutation of ``1..len(images)``.
    """
    r = len(images)
    if r > dim or sorted(images) != list(range(1, r + 1)):
        raise ValueError(f"{images} is not a permutation of a level prefix of 1..{dim}")
    out = np.zeros((dim, dim), dtype=complex)
    for i, image in enumerate(images, start=1):
        out[image - 1, i - 1] = 1.0
    for i in range(r + 1, dim + 1):
        out[i - 1, i - 1] = 1.0
    return out


def embed(dims: tuple[int, ...], placements: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker-embed per-qudit operators, identity on unplaced qudits.

    Qudit 0 is the leftmost tensor factor.  A placement on a qudit the
    system does not have is an error.
    """
    outside = sorted(j for j in placements if j not in range(len(dims)))
    if outside:
        raise ValueError(f"qudits {outside} are not in a {len(dims)}-qudit system")
    out = np.ones((1, 1), dtype=complex)
    for j, d in enumerate(dims):
        factor = placements.get(j)
        if factor is None:
            factor = np.eye(d, dtype=complex)
        elif factor.shape != (d, d):
            raise ValueError(
                f"operator for qudit {j} has shape {factor.shape}, expected ({d}, {d})"
            )
        out = np.kron(out, factor)
    return out


def hermitian_exp(ham: np.ndarray, t: float) -> np.ndarray:
    """Evolution unitary ``exp(-i H t)`` via eigendecomposition."""
    require_hermitian(ham, "evolution generator")
    evals, evecs = np.linalg.eigh(ham)
    return (evecs * np.exp(-1j * evals * t)) @ dagger(evecs)


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """A product unitary on a multi-qudit system, stored by its non-identity factors.

    ``placed`` holds ``(qudit, matrix)`` pairs sorted by qudit; every other
    qudit carries the identity.
    """

    dims: tuple[int, ...]
    placed: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        previous = -1
        for j, u in self.placed:
            if not previous < j < len(self.dims):
                raise ValueError(
                    f"factor qudits must be increasing and below {len(self.dims)}, got {j}"
                )
            previous = j
            d = self.dims[j]
            if u.shape != (d, d):
                raise ValueError(f"factor {j} has shape {u.shape}, expected ({d}, {d})")
            if not is_unitary(u):
                raise ValueError(f"factor {j} is not unitary within tolerance")

    @classmethod
    def from_factors(
        cls, dims: tuple[int, ...], placed: dict[int, np.ndarray]
    ) -> "LocalUnitary":
        """Product of per-qudit factors; factors within 1e-14 of the identity are dropped."""
        dims = tuple(dims)
        kept = []
        for j, u in sorted(placed.items()):
            trivial = (
                0 <= j < len(dims)
                and u.shape == (dims[j], dims[j])
                and max_abs(u - np.eye(dims[j])) <= 1e-14
            )
            if not trivial:
                kept.append((j, u))
        return cls(dims, tuple(kept))

    def matrix(self) -> np.ndarray:
        return embed(self.dims, dict(self.placed))

    def inverse(self) -> "LocalUnitary":
        return LocalUnitary(self.dims, tuple((j, dagger(u)) for j, u in self.placed))


def twirl(op: np.ndarray, dims: tuple[int, ...], branches) -> np.ndarray:
    """Weighted conjugation sum ``sum_k w_k U_k op U_k†`` over local unitaries.

    ``branches`` holds ``(w_k, U_k)`` pairs, each ``U_k`` a ``LocalUnitary``
    on ``dims``.  When the branches touch one qudit between them (a twirl
    over one qudit's group, a single-qudit conjugation), the sum is applied
    as one ``d^2 x d^2`` superoperator ``sum_k w_k U_k (x) conj(U_k)`` (the
    Pauli-transfer view of a twirl).  Anything else (a multi-qudit
    conjugation, a hand-written multi-qudit table) is applied branch by
    branch, factor by factor.  Program builders nest one-qudit twirls, so
    only the first path sees many branches.
    """
    dims = tuple(dims)
    if any(unitary.dims != dims for _, unitary in branches):
        raise ValueError("conjugation unitary does not match the system")
    t = op.reshape(dims + dims)
    sites = {j for _, unitary in branches for j, _ in unitary.placed}
    if len(sites) == 1:
        (j,) = sites
        eye = np.eye(dims[j], dtype=complex)
        stack = np.stack([dict(unitary.placed).get(j, eye) for _, unitary in branches])
        weights = np.array([w for w, _ in branches], dtype=float)
        return _apply_superop(t, j, _superop(stack, weights)).reshape(op.shape)
    out = np.zeros(op.shape, dtype=complex)
    for w, unitary in branches:
        term = t
        for j, u in unitary.placed:
            term = _apply_superop(term, j, _superop(u[None], np.ones(1)))
        out += w * term.reshape(op.shape)
    return out


def _superop(stack: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_k w_k U_k (x) conj(U_k)`` for the single-qudit unitaries ``stack[k]``.

    Rows index ``(i, j)`` and columns ``(a, b)`` of ``U[i, a] conj(U[j, b])``.
    """
    d = stack.shape[1]
    m = np.tensordot(weights[:, None, None] * stack, stack.conj(), axes=(0, 0))
    return m.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _apply_superop(t: np.ndarray, site: int, m: np.ndarray) -> np.ndarray:
    """Apply a superoperator on one qudit to an operator with axes ``dims + dims``."""
    n = t.ndim // 2
    perm = [site, n + site] + [a for a in range(2 * n) if a not in (site, n + site)]
    moved = t.transpose(perm)
    out = (m @ moved.reshape(m.shape[1], -1)).reshape(moved.shape)
    return out.transpose(np.argsort(perm))
