"""Independent dense oracle for the benchmark's output checks.

Everything here works from the emitted JSON artifacts and the generated
input data, never from quditsim objects or functions, so a defect in the
library cannot hide itself by agreeing with its own check:

* ``gellmann`` and ``term_matrix`` build coupling terms from the README's
  label definitions with ``np.kron``,
* ``evaluate_program`` walks a serialized program's node table once, in
  table order, and evaluates every node as a dense D x D matrix, with no
  fusion across nodes.  The table already holds each shared subtree
  once; a tree walk would be hopeless, since an isolation program on five
  qudits flattens to about 1e39 factors.  Conjugations apply each
  nontrivial single-qudit factor to its own tensor axis (``conjugate``)
  instead of multiplying by the D x D Kronecker product as the library
  does: the same operator by a different route, at a quarter of the
  cost, so checking a job costs less than running it,
* ``trotter_errors`` multiplies out a plain first-order product formula
  node by node and measures it against the exact evolution.

Only numpy is imported.
"""

import math

import numpy as np


def gellmann(dim: int, label: str) -> np.ndarray:
    """``W:m``, ``X:a:b`` or ``Y:a:b`` (1-based levels, unit HS norm)."""
    kind, *levels = label.split(":")
    out = np.zeros((dim, dim), dtype=complex)
    if kind == "W":
        (m,) = map(int, levels)
        out[np.arange(m - 1), np.arange(m - 1)] = 1.0
        out[m - 1, m - 1] = -(m - 1)
        return out / math.sqrt(m * (m - 1))
    a, b = (int(x) - 1 for x in levels)
    if kind == "X":
        out[a, b] = out[b, a] = 1.0
    elif kind == "Y":
        out[a, b], out[b, a] = -1j, 1j
    else:
        raise ValueError(f"unknown label {label!r}")
    return out / math.sqrt(2.0)


def kron_all(dims, placed: dict) -> np.ndarray:
    """Kronecker product over all qudits, identity where nothing is placed."""
    out = np.ones((1, 1), dtype=complex)
    for j, d in enumerate(dims):
        out = np.kron(out, placed.get(j, np.eye(d, dtype=complex)))
    return out


def term_matrix(dims, factors: dict) -> np.ndarray:
    """Dense coupling term from ``{qudit: label}``."""
    return kron_all(dims, {int(q): gellmann(dims[int(q)], lab) for q, lab in factors.items()})


def hamiltonian_matrix(dims, terms) -> np.ndarray:
    """Dense operator of ``[(coeff, {qudit: label}), ...]``."""
    big_d = math.prod(dims)
    out = np.zeros((big_d, big_d), dtype=complex)
    for coeff, factors in terms:
        out += coeff * term_matrix(dims, factors)
    return out


def _matrix(pairs) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def _children(record) -> list[int]:
    kind = record["type"]
    if kind == "conjugate":
        return [record["child"]]
    if kind == "sum":
        return [i for _, i in record["children"]]
    if kind == "commutator":
        return [record["left"], record["right"]]
    return []


def _rows(u: np.ndarray, op: np.ndarray, dims, q: int) -> np.ndarray:
    """``(I x u x I) op``: ``u`` acts on qudit ``q``'s row index only."""
    big_d = op.shape[0]
    left = math.prod(dims[:q])
    return np.matmul(u, op.reshape(left, dims[q], -1)).reshape(big_d, big_d)


def conjugate(op: np.ndarray, dims, placed: dict) -> np.ndarray:
    """``U op U†`` for ``U`` the tensor product of ``placed`` factors.

    Per factor ``u``: ``u op u† = (u (u op)†)†``, two row-axis products.
    """
    out = op
    for q, u in placed.items():
        out = _rows(u, _rows(u, out, dims, q).conj().T, dims, q).conj().T
    return out


def _placed(record) -> dict:
    return {int(q): _matrix(m) for q, m in record["unitaries"].items()}


def evaluate_program(program: dict, source: np.ndarray, dims) -> np.ndarray:
    """Effective Hamiltonian of a serialized program on a dense source.

    Each node matrix is dropped after its last consumer, so the oracle's
    own memory stays far below the library's, whose per-node memo the
    benchmark measures through peak RSS.
    """
    nodes = program["nodes"]
    uses = [0] * len(nodes)
    for record in nodes:
        for child in _children(record):
            uses[child] += 1
    values: dict[int, np.ndarray] = {}

    def take(index: int) -> np.ndarray:
        uses[index] -= 1
        return values[index] if uses[index] else values.pop(index)

    big_d = source.shape[0]
    for index, record in enumerate(nodes):
        kind = record["type"]
        if kind == "native":
            out = record["weight"] * source
        elif kind == "local":
            out = kron_all(dims, {record["qudit"]: _matrix(record["operator"])})
        elif kind == "conjugate":
            out = conjugate(take(record["child"]), dims, _placed(record))
        elif kind == "sum":
            out = np.zeros((big_d, big_d), dtype=complex)
            for w, child in record["children"]:
                out += w * take(child)
        elif kind == "commutator":
            left, right = take(record["left"]), take(record["right"])
            out = 1j * (left @ right - right @ left)
        else:
            raise ValueError(f"unknown node type {kind!r}")
        values[index] = out
    return values[program["root"]]


def count_factors(program: dict) -> int:
    """Unitary factors in one flat first-order Trotter step (exact int)."""
    counts: list[int] = []
    for record in program["nodes"]:
        kind = record["type"]
        if kind in ("native", "local"):
            counts.append(1)
        elif kind == "conjugate":
            counts.append(counts[record["child"]] + 2)
        elif kind == "sum":
            counts.append(sum(counts[i] for _, i in record["children"]))
        else:
            counts.append(2 * (counts[record["left"]] + counts[record["right"]]))
    return counts[program["root"]]


def evolution(ham: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i H t)`` for Hermitian ``H``."""
    evals, evecs = np.linalg.eigh(ham)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def trotter_step(program: dict, source: np.ndarray, dims, tau: float) -> np.ndarray:
    """One step of the first-order product formula, as a unitary.

    Sums run their children in order with weighted time; a conjugation
    is ``U S_child(tau) U†``; a commutator node is the group commutator
    ``S_L(d) S_R(-d) S_L(-d) S_R(d)`` (rightmost acts first) with
    ``d = sqrt(tau)``, operands swapped for negative time.  Native
    evolutions reuse one eigendecomposition of the source, and a local
    evolution is the embedded single-qudit exponential.
    """
    nodes = program["nodes"]
    big_d = source.shape[0]
    evals, evecs = np.linalg.eigh(source)

    def step(index: int, t: float) -> np.ndarray:
        record = nodes[index]
        kind = record["type"]
        if kind == "native":
            return (evecs * np.exp(-1j * evals * record["weight"] * t)) @ evecs.conj().T
        if kind == "local":
            return kron_all(dims, {record["qudit"]: evolution(_matrix(record["operator"]), t)})
        if kind == "conjugate":
            return conjugate(step(record["child"], t), dims, _placed(record))
        if kind == "sum":
            out = np.eye(big_d, dtype=complex)
            for w, child in record["children"]:
                out = step(child, w * t) @ out
            return out
        if kind == "commutator":
            left, right = record["left"], record["right"]
            if t == 0.0:
                return np.eye(big_d, dtype=complex)
            if t < 0.0:
                left, right, t = right, left, -t
            d = math.sqrt(t)
            return step(left, d) @ step(right, -d) @ step(left, -d) @ step(right, d)
        raise ValueError(f"unknown node type {kind!r}")

    return step(program["root"], tau)


def trotter_errors(program: dict, source: np.ndarray, dims, t: float, steps_list):
    """Spectral-norm distance of ``step(t/n)^n`` from ``exp(-i H_eff t)``."""
    exact = evolution(evaluate_program(program, source, dims), t)
    errors = []
    for n in steps_list:
        total = np.linalg.matrix_power(trotter_step(program, source, dims, t / n), n)
        errors.append((n, float(np.linalg.norm(total - exact, 2))))
    return errors


def projection(eff: np.ndarray, target: np.ndarray) -> tuple[float, float, float]:
    """``(scale, relative residual, cosine deviation)`` of eff against target."""
    overlap = np.vdot(target, eff).real
    scale = float(overlap / np.vdot(target, target).real)
    norm_eff = float(np.linalg.norm(eff))
    residual = float(np.linalg.norm(eff - scale * target) / max(norm_eff, 1e-300))
    cosine = overlap / max(float(np.linalg.norm(target)) * norm_eff, 1e-300)
    return scale, residual, float(1.0 - cosine)


def spans_with_qutrit_links(dims, pairs) -> tuple[bool, bool]:
    """Whether edges connect all qudits, and every qubit has an edge to a non-qubit."""
    reach = {0}
    frontier = [0]
    while frontier:
        q = frontier.pop()
        for i, j in pairs:
            for a, b in ((i, j), (j, i)):
                if a == q and b not in reach:
                    reach.add(b)
                    frontier.append(b)
    connected = len(reach) == len(dims)
    linked = all(
        any(dims[b] > 2 for i, j in pairs for a, b in ((i, j), (j, i)) if a == q)
        for q, d in enumerate(dims)
        if d == 2
    )
    return connected, linked
