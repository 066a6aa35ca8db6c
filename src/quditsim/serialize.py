"""JSON schemas for Hamiltonians, programs and certificates.

Hamiltonian files carry ``dims`` plus either a ``terms`` list
(``{"coeff": h, "factors": {"0": "W:2", ...}}``, with an optional
``trace_offset``) or a dense Hermitian ``matrix`` of ``[re, im]`` pairs.
Programs serialize as a flat node table (``nodes`` + ``root`` index) so
subtrees shared between twirl branches are written once; node types are
tagged native | local | conjugate | sum | commutator.
"""

import numpy as np

from .model import EPS_ZERO, CouplingTerm, Expansion, QuditSystem, expand
from .operators import GellMannLabel, LocalUnitary, dagger, max_abs
from .program import (
    Commutator,
    Conjugate,
    Local,
    Native,
    SimulationProgram,
    Sum,
    iter_unique_nodes,
)
from .universality import UniversalityCertificate


class FileFormatError(ValueError):
    """The input file does not follow the documented schema."""


def matrix_to_json(matrix: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in matrix]


def matrix_from_json(rows, what: str = "matrix") -> np.ndarray:
    try:
        out = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{what} must be nested [re, im] pairs: {exc}") from exc
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise FileFormatError(f"{what} must be square, got shape {out.shape}")
    return out


def parse_term_spec(text: str, system: QuditSystem) -> CouplingTerm:
    """Parse ``"0:W:2,1:X:1:2"`` into a coupling term."""
    factors: dict[int, GellMannLabel] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        qudit_text, _, label_text = piece.partition(":")
        try:
            qudit = int(qudit_text)
        except ValueError as exc:
            raise FileFormatError(f"bad qudit index in term factor {piece!r}") from exc
        try:
            label = GellMannLabel.from_string(label_text)
        except ValueError as exc:
            raise FileFormatError(str(exc)) from exc
        if qudit in factors:
            raise FileFormatError(f"duplicate qudit {qudit} in term spec {text!r}")
        factors[qudit] = label
    if not factors:
        raise FileFormatError(f"term spec {text!r} names no factors")
    term = CouplingTerm.of(factors)
    try:
        term.validate(system)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
    return term


def parse_hamiltonian(data: dict, eps: float = EPS_ZERO) -> Expansion:
    """Validate and load a Hamiltonian file into an expansion."""
    if not isinstance(data, dict):
        raise FileFormatError("input must be a JSON object")
    dims = data.get("dims")
    if not isinstance(dims, list) or not dims:
        raise FileFormatError("missing or empty 'dims' list")
    try:
        system = QuditSystem(tuple(int(d) for d in dims))
    except (TypeError, ValueError) as exc:
        raise FileFormatError(str(exc)) from exc

    if ("terms" in data) == ("matrix" in data):
        raise FileFormatError("provide exactly one of 'terms' or 'matrix'")

    if "matrix" in data:
        matrix = matrix_from_json(data["matrix"])
        if matrix.shape[0] != system.total_dim:
            raise FileFormatError(
                f"matrix dimension {matrix.shape[0]} does not match dims product "
                f"{system.total_dim}"
            )
        asym = np.abs(matrix - dagger(matrix))
        worst = float(asym.max())
        if worst > 1e-10 * max(1.0, max_abs(matrix)):
            i, j = np.unravel_index(int(asym.argmax()), asym.shape)
            raise FileFormatError(
                f"matrix is not Hermitian: max asymmetry {worst:.3e} at entry ({i}, {j})"
            )
        return expand((matrix + dagger(matrix)) / 2.0, system, eps_rel=eps)

    coefficients: dict[CouplingTerm, float] = {}
    terms = data["terms"]
    if not isinstance(terms, list):
        raise FileFormatError("'terms' must be a list")
    for entry in terms:
        if not isinstance(entry, dict) or "coeff" not in entry or "factors" not in entry:
            raise FileFormatError(f"term entry {entry!r} needs 'coeff' and 'factors'")
        try:
            coeff = float(entry["coeff"])
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"bad coefficient {entry['coeff']!r}") from exc
        factors = {}
        for key, label_text in entry["factors"].items():
            try:
                qudit = int(key)
            except ValueError as exc:
                raise FileFormatError(f"bad qudit index {key!r}") from exc
            try:
                factors[qudit] = GellMannLabel.from_string(str(label_text))
            except ValueError as exc:
                raise FileFormatError(str(exc)) from exc
        try:
            term = CouplingTerm.of(factors)
            term.validate(system)
        except ValueError as exc:
            raise FileFormatError(str(exc)) from exc
        coefficients[term] = coefficients.get(term, 0.0) + coeff
    offset = float(data.get("trace_offset", 0.0))
    # Keep tiny coefficients the file spells out explicitly; only exact
    # zeros are dropped.  Downstream thresholds report their own errors.
    coefficients = {t: h for t, h in coefficients.items() if h != 0.0}
    return Expansion(system, coefficients, offset)


def expansion_to_json(expansion: Expansion) -> dict:
    return {
        "dims": list(expansion.system.dims),
        "terms": [
            {
                "coeff": float(h),
                "factors": {str(q): str(label) for q, label in term.factors},
            }
            for term, h in expansion.terms()
        ],
        "trace_offset": float(expansion.trace_offset),
    }


def program_to_json(program: SimulationProgram) -> dict:
    """Flat node table preserving shared subtrees."""
    index: dict[int, int] = {}
    nodes: list[dict] = []
    for node in iter_unique_nodes(program):
        if isinstance(node, Native):
            record = {"type": "native", "weight": float(node.weight)}
        elif isinstance(node, Local):
            record = {
                "type": "local",
                "qudit": node.qudit,
                "operator": matrix_to_json(node.operator),
            }
        elif isinstance(node, Conjugate):
            record = {
                "type": "conjugate",
                "unitaries": {
                    str(q): matrix_to_json(u)
                    for q, u in node.unitary.nontrivial_factors().items()
                },
                "child": index[id(node.child)],
            }
        elif isinstance(node, Sum):
            record = {
                "type": "sum",
                "children": [[float(w), index[id(child)]] for w, child in node.children],
            }
        elif isinstance(node, Commutator):
            record = {
                "type": "commutator",
                "left": index[id(node.left)],
                "right": index[id(node.right)],
            }
        else:
            raise TypeError(f"not a program node: {node!r}")
        index[id(node)] = len(nodes)
        nodes.append(record)
    return {"format": "program-dag", "nodes": nodes, "root": index[id(program)]}


def program_from_json(data: dict, system: QuditSystem) -> SimulationProgram:
    if not isinstance(data, dict) or data.get("format") != "program-dag":
        raise FileFormatError("program file must have format 'program-dag'")
    records = data.get("nodes")
    root = data.get("root")
    if not isinstance(records, list) or not isinstance(root, int):
        raise FileFormatError("program file needs a 'nodes' list and integer 'root'")
    built: list[SimulationProgram] = []

    def ref(value, record) -> SimulationProgram:
        if not isinstance(value, int) or not 0 <= value < len(built):
            raise FileFormatError(f"bad node reference {value!r} in {record!r}")
        return built[value]

    for record in records:
        kind = record.get("type")
        try:
            if kind == "native":
                node: SimulationProgram = Native(float(record["weight"]))
            elif kind == "local":
                node = Local(int(record["qudit"]), matrix_from_json(record["operator"]))
            elif kind == "conjugate":
                placed = {
                    int(q): matrix_from_json(mat, f"unitary on qudit {q}")
                    for q, mat in record["unitaries"].items()
                }
                node = Conjugate(
                    LocalUnitary.from_factors(system.dims, placed),
                    ref(record["child"], record),
                )
            elif kind == "sum":
                node = Sum(
                    tuple((float(w), ref(i, record)) for w, i in record["children"])
                )
            elif kind == "commutator":
                node = Commutator(ref(record["left"], record), ref(record["right"], record))
            else:
                raise FileFormatError(f"unknown node type {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, FileFormatError):
                raise
            raise FileFormatError(f"malformed node {record!r}: {exc}") from exc
        built.append(node)
    return ref(root, {"root": root})


def certificate_to_json(cert: UniversalityCertificate) -> dict:
    return {
        "anchor": cert.anchor,
        "verdict": cert.verdict.kind.value,
        "iterations": cert.iterations,
        "edges": [
            {
                "i": edge.i,
                "j": edge.j,
                "scale": float(edge.scale),
                "term": {str(q): str(label) for q, label in edge.term.factors},
                "program": program_to_json(edge.program),
            }
            for edge in cert.edges
        ],
    }
