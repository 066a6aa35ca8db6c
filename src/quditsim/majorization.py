"""Constructive operator decomposition A = sum_n c_n U_n B U_n†.

For traceless Hermitian A and nonzero traceless Hermitian B in dimension
d, the decomposition is built from three classical pieces:

1. a minimal scale c with spectrum(A) majorized by c * spectrum(B),
   obtained from prefix-sum ratios,
2. a doubly stochastic transfer matrix mapping the scaled target spectrum
   onto A's, assembled from at most d - 1 T-transforms,
3. a greedy Birkhoff decomposition of the transfer matrix into
   permutations.

The pair count never exceeds d^2.  Lifted factor-wise over tensor
products, the decomposition retargets one coupling term onto any other
term with the same support, using only conjugations and positive weights.
"""

from dataclasses import dataclass

import numpy as np

from .model import CouplingTerm, QuditSystem
from .operators import dagger, gellmann_matrix, max_abs, require_hermitian, LocalUnitary
from .program import Conjugate, Native, SimulationProgram, Sum


class MajorizationError(ValueError):
    """A required majorization relation fails, or inputs are malformed."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending with column-aligned eigenvectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def spectrum(op: np.ndarray) -> Spectrum:
    """Descending eigdecomposition of a Hermitian operator.

    Ties keep the ascending-order position produced by ``eigh`` (stable
    sort), so repeated runs give identical output.
    """
    require_hermitian(op, "spectrum input")
    evals, evecs = np.linalg.eigh(op)
    order = np.argsort(-evals, kind="stable")
    return Spectrum(evals[order], evecs[:, order])


def _check_traceless(values: np.ndarray, name: str) -> None:
    # Relative to the spectrum's own magnitude: the pipelines feed spectra
    # spanning many orders of magnitude and an absolute floor would either
    # reject huge inputs or wave through traceful tiny ones.
    scale = float(np.abs(values).max()) if values.size else 0.0
    if abs(float(values.sum())) > 1e-10 * scale:
        raise MajorizationError(f"{name} spectrum is not traceless")


def scale_factor(a: np.ndarray, b: np.ndarray) -> float:
    """Minimal c >= 0 with a majorized by c * b (descending spectra).

    Equals the maximum ratio of strict-prefix sums; for a sorted traceless
    nonzero b every strict-prefix sum is strictly positive, so the ratios
    are well defined.  Returns 0 exactly when a is the zero spectrum.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise MajorizationError("spectra must be 1-d arrays of equal length")
    _check_traceless(a, "first")
    _check_traceless(b, "second")
    if float(np.abs(b).max()) == 0.0:
        raise MajorizationError("second spectrum is identically zero")
    prefix_a = np.cumsum(a)[:-1]
    prefix_b = np.cumsum(b)[:-1]
    tol = 1e-13 * float(np.abs(a).max())
    c = 0.0
    for sa, sb in zip(prefix_a, prefix_b):
        if sa <= tol:
            continue
        if sb <= 0:
            raise MajorizationError("prefix sums of the target spectrum are not positive")
        c = max(c, sa / sb)
    return c


def transfer_matrix(a: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Doubly stochastic D with a = D @ target, built from T-transforms.

    Both arguments are descending spectra with equal totals and the first
    majorized by the second.  Each T-transform mixes the largest index
    where the working vector still exceeds ``a`` with the next index where
    it falls short, fixing at least one coordinate, so at most d - 1
    transforms are needed.
    """
    a = np.asarray(a, dtype=float)
    target = np.asarray(target, dtype=float)
    d = a.size
    scale = max(float(np.abs(target).max()), float(np.abs(a).max()))
    if scale == 0.0:
        return np.eye(d)
    tol = 1e-11 * scale

    prefix_a = np.cumsum(a)
    prefix_t = np.cumsum(target)
    for k in range(d - 1):
        if prefix_a[k] > prefix_t[k] + tol:
            raise MajorizationError(f"majorization violated at prefix index {k + 1}")
    if abs(prefix_a[-1] - prefix_t[-1]) > tol:
        raise MajorizationError("spectra have different totals")

    out = np.eye(d)
    work = target.astype(float).copy()
    for _ in range(d + 1):
        diff = work - a
        if float(np.abs(diff).max()) <= tol:
            break
        over = np.nonzero(diff > tol)[0]
        if over.size == 0:
            raise MajorizationError("T-transform repair failed to converge")
        j = int(over.max())
        under = np.nonzero(-diff[j + 1 :] > tol)[0]
        if under.size == 0:
            raise MajorizationError("T-transform repair failed to converge")
        k = j + 1 + int(under.min())
        delta = min(work[j] - a[j], a[k] - work[k])
        lam = 1.0 - delta / (work[j] - work[k])
        t = np.eye(d)
        t[j, j] = t[k, k] = lam
        t[j, k] = t[k, j] = 1.0 - lam
        work = t @ work
        out = t @ out
    else:
        raise MajorizationError("T-transform repair exceeded the d - 1 bound")

    out[out < 0] = 0.0
    return out


def birkhoff(ds: np.ndarray, tol: float = 1e-12) -> list[tuple[float, np.ndarray]]:
    """Greedy Birkhoff decomposition of a doubly stochastic matrix.

    Repeatedly finds a perfect matching on the positive-support pattern,
    subtracts its minimum entry and records the permutation.  Every step
    zeroes at least one entry, giving at most d^2 - d + 1 terms.
    """
    ds = np.asarray(ds, dtype=float)
    d = ds.shape[0]
    if ds.shape != (d, d):
        raise ValueError("input must be a square matrix")
    residual = ds.copy()
    pieces: list[tuple[float, np.ndarray]] = []
    for _ in range(d * d - d + 2):
        if float(residual.sum()) <= d * 1e-10:
            break
        assignment = _perfect_matching(residual > tol)
        if assignment is None:
            raise ValueError(
                "no positive-support perfect matching; input is not doubly stochastic"
            )
        weight = float(min(residual[r, c] for r, c in enumerate(assignment)))
        perm = np.zeros((d, d))
        for r, c in enumerate(assignment):
            perm[r, c] = 1.0
        pieces.append((weight, perm))
        residual -= weight * perm
        residual[residual < 0] = 0.0
    else:
        raise ValueError("Birkhoff extraction failed to exhaust the matrix")
    return pieces


def _perfect_matching(support: np.ndarray) -> list[int] | None:
    """Kuhn's augmenting-path matching on a boolean bipartite pattern."""
    d = support.shape[0]
    col_owner = [-1] * d

    def assign(row: int, seen: list[bool]) -> bool:
        for col in range(d):
            if support[row, col] and not seen[col]:
                seen[col] = True
                if col_owner[col] == -1 or assign(col_owner[col], seen):
                    col_owner[col] = row
                    return True
        return False

    for row in range(d):
        if not assign(row, [False] * d):
            return None
    result = [-1] * d
    for col, row in enumerate(col_owner):
        result[row] = col
    return result


@dataclass(frozen=True)
class UhlmannDecomposition:
    """Positive weights and unitaries with sum c_n U_n B U_n† = A."""

    pairs: tuple[tuple[float, np.ndarray], ...]

    def reconstruct(self, b: np.ndarray) -> np.ndarray:
        out = np.zeros_like(b, dtype=complex)
        for c, u in self.pairs:
            out += c * (u @ b @ dagger(u))
        return out


def uhlmann_decompose(a: np.ndarray, b: np.ndarray) -> UhlmannDecomposition:
    """Express A as a positive combination of unitary conjugates of B.

    Both operators must be traceless Hermitian of the same dimension and B
    nonzero.  A zero A yields an empty decomposition.  The pair count is
    bounded by d^2.
    """
    require_hermitian(a, "first operator")
    require_hermitian(b, "second operator")
    if a.shape != b.shape:
        raise ValueError("operators must share a dimension")
    if max_abs(b) == 0.0:
        raise ValueError("the reference operator B must be nonzero")
    for op, name in ((a, "A"), (b, "B")):
        if abs(complex(np.trace(op)).real) > 1e-10 * max_abs(op):
            raise ValueError(f"operator {name} is not traceless")
    if max_abs(a) == 0.0:
        return UhlmannDecomposition(())

    sa = spectrum(a)
    sb = spectrum(b)
    c = scale_factor(sa.eigenvalues, sb.eigenvalues)
    if c == 0.0:
        return UhlmannDecomposition(())
    transfer = transfer_matrix(sa.eigenvalues, c * sb.eigenvalues)
    pairs = []
    for weight, perm in birkhoff(transfer):
        unitary = sa.vectors @ perm @ dagger(sb.vectors)
        pairs.append((c * weight, unitary))
    return UhlmannDecomposition(tuple(pairs))


def retarget_term(
    source: CouplingTerm,
    source_coeff: float,
    target: CouplingTerm,
    target_coeff: float,
    system: QuditSystem,
) -> SimulationProgram:
    """Program turning one coupling term into another on the same support.

    The returned program's Native leaves stand for the source Hamiltonian
    ``source_coeff * source``; its effective Hamiltonian is exactly
    ``target_coeff * target``.  The decomposition is applied per tensor
    factor, as one ``Sum`` of single-qudit conjugations per support qudit
    (the first support qudit outermost), so each path's weights multiply
    to the weight of the matching branch of the flat product.  The
    coefficient ratio is folded into the first factor, so every weight
    stays positive regardless of signs.
    """
    if source.support != target.support:
        raise ValueError(
            f"support mismatch: {source.support} vs {target.support}"
        )
    if abs(source_coeff) < 1e-300:
        raise ValueError("source coefficient must be nonzero")
    source.validate(system)
    target.validate(system)

    ratio = target_coeff / source_coeff
    program: SimulationProgram = Native(1.0)
    for position, qudit in reversed(list(enumerate(source.support))):
        d = system.dims[qudit]
        b = gellmann_matrix(d, source.label_at(qudit))
        a = gellmann_matrix(d, target.label_at(qudit))
        if position == 0:
            a = ratio * a
        program = Sum(
            tuple(
                (c, Conjugate(LocalUnitary.from_factors(system.dims, {qudit: u}), program))
                for c, u in uhlmann_decompose(a, b).pairs
            )
        )
    return program
