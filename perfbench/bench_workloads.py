"""The benchmark's four workloads.

Each workload has a seeded input generator, the job a CLI user runs
(compile, dense-verify, serialize; timed), and an output check against
the independent oracle in ``bench_oracle`` (untimed).  Job ``index`` of
seed ``s`` always gets the same input, and every job gets a fresh one, so
no cross-call cache in the library can turn a repeated input into a hit.

Generators fix each input's *shape* (support sizes, which factors have
Cartan index above 2, term counts) and draw everything else: qudit
placement, labels, coefficients, matrices.  Every seed therefore compiles
DAGs of the same size, and the seed moves timings only through data.
Library exceptions are never retried: a job that raises counts as failed.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import quditsim as qs
from quditsim import cli, serialize

import bench_oracle as oracle

TOL = 1e-9


def labels(dim: int) -> list[str]:
    """All Gell-Mann labels of one qudit."""
    out = [f"W:{m}" for m in range(2, dim + 1)]
    pairs = [(a, b) for a in range(1, dim) for b in range(a + 1, dim + 1)]
    return out + [f"{k}:{a}:{b}" for k in "XY" for a, b in pairs]


def cartan2_labels(dim: int) -> list[str]:
    """Labels that isolation canonicalizes to ``W:2`` (all but ``W:m``, m > 2)."""
    return [lab for lab in labels(dim) if lab == "W:2" or not lab.startswith("W")]


def pick(rng, items):
    return items[int(rng.integers(len(items)))]


def coefficient(rng) -> float:
    """Magnitude in [0.5, 1.5), random sign: never negligible."""
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))


def random_terms(rng, dims, count, qudits, sizes, existing=()):
    """``count`` distinct random terms on ``qudits`` with support sizes in ``sizes``."""
    seen = {tuple(sorted(f.items())) for _, f in existing}
    out = []
    while len(out) < count:
        support = sorted(int(q) for q in rng.choice(qudits, pick(rng, sizes), replace=False))
        factors = {q: pick(rng, labels(dims[q])) for q in support}
        key = tuple(sorted(factors.items()))
        if key not in seen:
            seen.add(key)
            out.append((coefficient(rng), factors))
    return out


def term_of(factors: dict) -> qs.CouplingTerm:
    return qs.CouplingTerm.of(
        {int(q): qs.GellMannLabel.from_string(lab) for q, lab in factors.items()}
    )


def write_json(path: Path, data) -> str:
    text = json.dumps(data, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")
    return text


@dataclass
class Input:
    dims: tuple
    terms: list = field(default_factory=list)  # [(coeff, {qudit: label})]
    matrix: np.ndarray | None = None
    target: dict | None = None
    program: dict | None = None

    def source(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return oracle.hamiltonian_matrix(self.dims, self.terms)


class Workload:
    name = ""
    why = ""
    # Seconds one job took at the seed commit on a 2-core x86_64 VM; it fixes
    # how many jobs a traced run makes, so every commit runs the same inputs.
    nominal_job_s = 1.0

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def generate(self, seed: int, index: int) -> Input:
        raise NotImplementedError

    def prepare(self, inp: Input):
        """Untimed: hand the generated data to the library's entry types."""
        raise NotImplementedError

    def job(self, prepared) -> dict:
        raise NotImplementedError

    def check(self, inp: Input, out: dict) -> list[str]:
        raise NotImplementedError

    def programs(self, inp: Input, out: dict) -> list[dict]:
        """Serialized programs whose size the benchmark reports."""
        raise NotImplementedError

    def sizes(self, inp: Input, out: dict) -> list[tuple[int, float]]:
        """(unique nodes, log10 flat factors per Trotter step) per program."""
        return [
            (len(p["nodes"]), math.log10(oracle.count_factors(p)))
            for p in self.programs(inp, out)
        ]

    def properties(self, inp: Input) -> dict:
        big_d = math.prod(inp.dims)
        return {
            "D": big_d,
            "dims": list(inp.dims),
            "terms": len(inp.terms) if inp.terms else big_d * big_d - 1,
            "target_support": len(inp.target) if inp.target else None,
        }


class IsolateWorkload(Workload):
    """``quditsim isolate -o``: expand, isolate_term, dense check, program_to_json."""

    def prepare(self, inp: Input):
        return inp.source(), qs.QuditSystem(inp.dims), term_of(inp.target)

    def job(self, prepared) -> dict:
        matrix, system, target = prepared
        expansion = qs.expand(matrix, system)
        result = qs.isolate_term(expansion, target)
        source = qs.reconstruct(expansion.without_offset())
        eff = qs.effective_hamiltonian(result.program, source, system)
        check = oracle.projection(eff, target.matrix(system))
        text = write_json(self.workdir / "program.json", serialize.program_to_json(result.program))
        return {"scale": result.scale, "verification": check, "program": text}

    def check(self, inp: Input, out: dict) -> list[str]:
        problems = []
        program = json.loads(out["program"])
        eff = oracle.evaluate_program(program, inp.source(), inp.dims)
        target = oracle.term_matrix(inp.dims, inp.target)
        scale, _, deviation = oracle.projection(eff, target)
        if not deviation < TOL:
            problems.append(f"oracle cosine deviation {deviation:.3e}")
        if not scale > 0:
            problems.append(f"oracle scale {scale:.3e} not positive")
        if not abs(scale - out["scale"]) <= TOL * abs(out["scale"]):
            problems.append(f"oracle scale {scale!r} != reported {out['scale']!r}")
        _, _, reported = out["verification"]
        if not reported < TOL:
            problems.append(f"job's own check: cosine deviation {reported!r}")
        return problems

    def programs(self, inp: Input, out: dict) -> list[dict]:
        return [json.loads(out["program"])]


class IsolateDense(IsolateWorkload):
    name = "isolate_dense"
    why = ("dense random Hermitian matrix on (3,3,3,3), all 6560 terms present, "
           "two-body target: per-term work (kron-per-term reconstruct) is maximal, DAG small")
    nominal_job_s = 2.2
    dims = (3, 3, 3, 3)

    def generate(self, seed: int, index: int) -> Input:
        rng = np.random.default_rng([seed, index])
        big_d = math.prod(self.dims)
        a = rng.normal(size=(big_d, big_d)) + 1j * rng.normal(size=(big_d, big_d))
        # One W:3 factor (so the permutation stage runs) and one factor
        # that canonicalizes to W:2, on a random ordered pair of qudits.
        w3, other = (int(q) for q in rng.choice(len(self.dims), 2, replace=False))
        target = {w3: "W:3", other: pick(rng, cartan2_labels(self.dims[other]))}
        return Input(self.dims, matrix=(a + a.conj().T) / 2, target=target)


class IsolateDeep(IsolateWorkload):
    name = "isolate_deep"
    why = ("sparse 8-term expansion on (3,3,3,3,2) with a full-support 5-body target: "
           "about 1000 DAG nodes make effective_hamiltonian and its memory dominate")
    nominal_job_s = 2.0
    dims = (3, 3, 3, 3, 2)

    def generate(self, seed: int, index: int) -> Input:
        rng = np.random.default_rng([seed, index])
        target = {q: pick(rng, cartan2_labels(d)) for q, d in enumerate(self.dims)}
        terms = [(coefficient(rng), target)]
        terms += random_terms(rng, self.dims, 7, len(self.dims), [2, 3, 4, 5], terms)
        return Input(self.dims, terms=terms, target=target,
                     matrix=oracle.hamiltonian_matrix(self.dims, terms))


class ConnectMixed(Workload):
    """``quditsim connect -o``: connect_all, a dense check per edge, certificate_to_json."""

    name = "connect_mixed"
    why = ("6-term expansion on (3,2,2,2,2), constructive by construction: many small "
           "isolate_term/drop_qudit calls and thousands of LocalUnitary krons")
    nominal_job_s = 1.7
    dims = (3, 2, 2, 2, 2)

    def generate(self, seed: int, index: int) -> Input:
        # The chain: two 4-body terms through the qutrit whose qubit
        # triples overlap in two places, so together they span every
        # qudit.  connect_all picks terms touching qudit 0 first, so it
        # reduces exactly these two, in either order, at equal cost.
        # The extra terms avoid the qutrit and never get picked.
        rng = np.random.default_rng([seed, index])
        p = [int(q) for q in rng.permutation([1, 2, 3, 4])]
        terms = []
        for qubits in (p[:3], p[1:]):
            factors = {0: pick(rng, cartan2_labels(3))}
            factors.update({q: pick(rng, labels(2)) for q in qubits})
            terms.append((coefficient(rng), factors))
        terms += random_terms(rng, self.dims, 4, [1, 2, 3, 4], [2, 3], terms)
        return Input(self.dims, terms=terms)

    def prepare(self, inp: Input):
        system = qs.QuditSystem(inp.dims)
        return qs.Expansion(system, {term_of(f): c for c, f in inp.terms})

    def job(self, expansion) -> dict:
        cert = qs.connect_all(expansion)
        system = expansion.system
        source = qs.reconstruct(expansion.without_offset())
        checks = [
            oracle.projection(
                qs.effective_hamiltonian(edge.program, source, system),
                edge.term.matrix(system),
            )
            for edge in cert.edges
        ]
        text = write_json(self.workdir / "certificate.json", serialize.certificate_to_json(cert))
        return {"certificate": text, "verification": checks}

    def check(self, inp: Input, out: dict) -> list[str]:
        problems = []
        cert = json.loads(out["certificate"])
        source = inp.source()
        pairs = []
        for edge in cert["edges"]:
            i, j = edge["i"], edge["j"]
            pairs.append((i, j))
            if sorted(int(q) for q in edge["term"]) != sorted((i, j)):
                problems.append(f"edge ({i},{j}) term {edge['term']} is not on its pair")
                continue
            eff = oracle.evaluate_program(edge["program"], source, inp.dims)
            scale, residual, _ = oracle.projection(eff, oracle.term_matrix(inp.dims, edge["term"]))
            if not (scale > 0 and residual < TOL):
                problems.append(f"edge ({i},{j}): scale {scale:.3e}, residual {residual:.3e}")
            if not abs(scale - edge["scale"]) <= TOL * abs(edge["scale"]):
                problems.append(f"edge ({i},{j}): oracle scale {scale!r} != {edge['scale']!r}")
        connected, linked = oracle.spans_with_qutrit_links(inp.dims, pairs)
        if not connected:
            problems.append(f"edges {pairs} do not span all qudits")
        if not linked:
            problems.append(f"edges {pairs} leave a qubit without a non-qubit partner")
        for _, residual, _ in out["verification"]:
            if not residual < TOL:
                problems.append(f"job's own check: residual {residual!r}")
        return problems

    def programs(self, inp: Input, out: dict) -> list[dict]:
        return [edge["program"] for edge in json.loads(out["certificate"])["edges"]]

    def properties(self, inp: Input) -> dict:
        return {**super().properties(inp), "target_support": [4, 4]}


def _heisenberg_weyl(dim: int) -> list[np.ndarray]:
    """``X^a Z^b`` for a, b in 0..d-1, identity first."""
    shift = np.roll(np.eye(dim), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(dim)
        for b in range(dim)
    ]


def _pairs(matrix: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in matrix]


class VerifyTrotter(Workload):
    """``quditsim verify`` in-process, on files written before the job."""

    name = "verify_trotter"
    why = ("in-process quditsim verify --steps 32,64,128 of a shallow 28-factor program on "
           "(3,3,3,3,3): the only trotter_compile/hermitian_exp and JSON read-side load")
    nominal_job_s = 1.0
    dims = (3, 3, 3, 3, 3)
    time = 0.5
    steps = (32, 64, 128)

    def generate(self, seed: int, index: int) -> Input:
        rng = np.random.default_rng([seed, index])
        terms = random_terms(rng, self.dims, 8, len(self.dims), [2, 3])
        # The twirl negate_isolated_term builds (all non-identity Pauli
        # conjugations of the source on the first term's lowest qudit),
        # summed with i[A_j, H] for a random traceless local A_j.
        qudit = min(int(q) for q in terms[0][1])
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        local = (a + a.conj().T) / 2
        local -= np.trace(local) / 3 * np.eye(3)
        nodes = [{"type": "native", "weight": 1.0}]
        for u in _heisenberg_weyl(self.dims[qudit])[1:]:
            nodes.append({"type": "conjugate", "unitaries": {str(qudit): _pairs(u)}, "child": 0})
        twirl = len(nodes)
        nodes.append({"type": "sum", "children": [[1.0, i] for i in range(1, twirl)]})
        nodes.append({"type": "local", "qudit": int(rng.integers(len(self.dims))),
                      "operator": _pairs(local)})
        nodes.append({"type": "commutator", "left": twirl + 1, "right": 0})
        nodes.append({"type": "sum",
                      "children": [[1.0, twirl], [float(rng.uniform(0.5, 1.5)), twirl + 2]]})
        program = {"format": "program-dag", "nodes": nodes, "root": len(nodes) - 1}
        return Input(self.dims, terms=terms, program=program)

    def prepare(self, inp: Input):
        ham = {"dims": list(inp.dims), "terms": [
            {"coeff": c, "factors": {str(q): lab for q, lab in f.items()}} for c, f in inp.terms
        ]}
        paths = [self.workdir / n for n in ("ham.json", "program.json", "report.json")]
        write_json(paths[0], ham)
        write_json(paths[1], inp.program)
        paths[2].unlink(missing_ok=True)
        return ["verify", "-i", str(paths[0]), "-p", str(paths[1]), "--time", str(self.time),
                "--steps", ",".join(map(str, self.steps)), "-o", str(paths[2])]

    def job(self, argv) -> dict:
        return {"exit": cli.main(argv), "report": argv[-1]}

    def check(self, inp: Input, out: dict) -> list[str]:
        if out["exit"] != 0:
            return [f"quditsim verify exited {out['exit']}"]
        report = json.loads(Path(out["report"]).read_text(encoding="utf-8"))
        expected = oracle.trotter_errors(
            inp.program, inp.source(), inp.dims, self.time, self.steps
        )
        got = [tuple(pair) for pair in report["errors"]]
        if [n for n, _ in got] != [n for n, _ in expected]:
            return [f"step counts {got} != {list(self.steps)}"]
        return [
            f"steps {n}: error {e!r} != oracle {ref!r}"
            for (n, e), (_, ref) in zip(got, expected)
            if not abs(e - ref) <= TOL * abs(ref)
        ]

    def programs(self, inp: Input, out: dict) -> list[dict]:
        return [inp.program]


WORKLOADS = {cls.name: cls for cls in (IsolateDense, IsolateDeep, ConnectMixed, VerifyTrotter)}
