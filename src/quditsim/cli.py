"""Batch command-line front end.

Commands: expand | classify | isolate | reduce | connect | verify | demo.
Reports are deterministic JSON on stdout (or -o); wall time is only
included when --timing is passed so repeated runs stay byte-identical.
Exit codes: 0 success or universal verdict, 1 negative verdict or
verification failure, 2 input or usage error.
"""

import argparse
import json
import sys
import time

from .isolation import NegligibleTermError, TermNotFoundError, isolate_term
from .model import EPS_ZERO, classify, reconstruct
from .program import DEFAULT_BRANCH_CAP, measure, verify
from .serialize import (
    FileFormatError,
    certificate_to_json,
    expansion_to_json,
    parse_hamiltonian,
    parse_term_spec,
    program_from_json,
    program_to_json,
)
from .universality import (
    NotConstructiveError,
    NotEntanglingError,
    connect_all,
    reduce_to_two_body,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def _load_hamiltonian(args):
    """The ``-i`` Hamiltonian file, thresholded at ``--eps``."""
    if not 0.0 <= args.eps < 1.0:
        raise FileFormatError(f"--eps must be a finite number in [0, 1), got {args.eps!r}")
    return parse_hamiltonian(_load_json(args.input), eps=args.eps)


def _emit(report: dict, args) -> None:
    if getattr(args, "timing", False):
        report["wall_time_ms"] = round((time.perf_counter() - args._t0) * 1000.0, 3)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_artifact(args, report: dict, key: str, payload) -> None:
    """Write ``payload()`` as JSON to ``-o``; the report then goes to stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload(), handle, sort_keys=True)
            handle.write("\n")
        report[key] = args.output
        args.output = None


def _edge_rows(cert) -> list[dict]:
    return [{"i": e.i, "j": e.j, "term": str(e.term), "scale": e.scale} for e in cert.edges]


def cmd_expand(args) -> int:
    expansion = _load_hamiltonian(args)
    report = {"command": "expand"}
    report.update(expansion_to_json(expansion))
    _emit(report, args)
    return EXIT_OK


def cmd_classify(args) -> int:
    expansion = _load_hamiltonian(args)
    verdict = classify(expansion)
    report = {
        "command": "classify",
        "verdict": verdict.kind.value,
        "description": verdict.describe(),
    }
    if verdict.partition is not None:
        report["partition"] = [list(side) for side in verdict.partition]
    _emit(report, args)
    return EXIT_OK if verdict.universal() else EXIT_NEGATIVE


def cmd_isolate(args) -> int:
    expansion = _load_hamiltonian(args)
    term = parse_term_spec(args.term, expansion.system)
    result = isolate_term(expansion, term, eps=args.eps)
    source = reconstruct(expansion.without_offset())
    check = measure(result.program, source, expansion.system, term)._asdict()
    report = {
        "command": "isolate",
        "term": str(term),
        "scale": result.scale,
        "stages": [
            {
                "stage": r.stage,
                "surviving_terms": r.surviving_terms,
                "target_scale": r.target_scale,
            }
            for r in result.stage_reports
        ],
        "verification": check,
    }
    _write_artifact(args, report, "program_file", lambda: program_to_json(result.program))
    _emit(report, args)
    return EXIT_OK


def cmd_reduce(args) -> int:
    expansion = _load_hamiltonian(args)
    term = parse_term_spec(args.term, expansion.system)
    if expansion.coefficient(term) == 0.0:
        raise TermNotFoundError(f"term {term} not present in the expansion")
    edges = reduce_to_two_body(expansion, term, args.anchor)
    source = reconstruct(expansion.without_offset())
    report = {
        "command": "reduce",
        "term": str(term),
        "anchor": args.anchor,
        "edges": [],
    }
    for edge in edges:
        check = measure(edge.program, source, expansion.system, edge.term)._asdict()
        report["edges"].append(
            {"i": edge.i, "j": edge.j, "term": str(edge.term), **check}
        )

    def payload():
        return {
            "edges": [
                {
                    "i": edge.i,
                    "j": edge.j,
                    "term": {str(q): str(label) for q, label in edge.term.factors},
                    "program": program_to_json(edge.program),
                }
                for edge in edges
            ]
        }

    _write_artifact(args, report, "edges_file", payload)
    _emit(report, args)
    return EXIT_OK


def cmd_connect(args) -> int:
    expansion = _load_hamiltonian(args)
    cert = connect_all(expansion)
    report = {
        "command": "connect",
        "verdict": cert.verdict.kind.value,
        "anchor": cert.anchor,
        "iterations": cert.iterations,
        "edges": _edge_rows(cert),
    }
    _write_artifact(args, report, "certificate_file", lambda: certificate_to_json(cert))
    _emit(report, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    expansion = _load_hamiltonian(args)
    program = program_from_json(_load_json(args.program), expansion.system)
    steps_list = [int(s) for s in args.steps.split(",") if s.strip()]
    if not steps_list or any(s < 1 for s in steps_list):
        raise FileFormatError(f"--steps must list positive integers, got {args.steps!r}")
    if args.branch_cap < 1:
        raise FileFormatError(f"--branch-cap must be a positive integer, got {args.branch_cap}")
    source = reconstruct(expansion.without_offset())
    report_data = verify(
        program, source, expansion.system, args.time, steps_list, args.branch_cap
    )
    report = {
        "command": "verify",
        "time": args.time,
        "errors": [[n, err] for n, err in report_data.trotter_errors],
        "order_estimate": report_data.order_estimate,
        "best_error": report_data.best_error,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_demo(args) -> int:
    """Built-in walkthrough on a three-qudit example."""
    from .model import CouplingTerm, Expansion, QuditSystem
    from .operators import GellMannLabel

    system = QuditSystem((3, 2, 2))
    x12 = GellMannLabel.x(1, 2)
    expansion = Expansion(
        system,
        {
            CouplingTerm.of({0: x12, 1: x12}): 0.8,
            CouplingTerm.of({1: x12, 2: x12}): -0.5,
        },
    )
    verdict = classify(expansion)
    cert = connect_all(expansion)
    report = {
        "command": "demo",
        "dims": list(system.dims),
        "terms": [str(t) for t, _ in expansion.terms()],
        "verdict": verdict.kind.value,
        "edges": _edge_rows(cert),
        "iterations": cert.iterations,
    }
    _emit(report, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditsim",
        description="Classify many-qudit Hamiltonians and compile simulation protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("-i", "--input", required=True, help="Hamiltonian JSON file")
            p.add_argument("--eps", type=float, default=EPS_ZERO,
                           help="relative coefficient threshold (default %(default)g)")
        p.add_argument("-o", "--output", help="write the main artifact to this file")
        p.add_argument("--timing", action="store_true",
                       help="include wall time in the report (breaks byte-identity)")

    p = sub.add_parser("expand", help="project a Hamiltonian onto coupling terms")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("classify", help="report the universality class")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("isolate", help="compile a single-term simulation program")
    common(p)
    p.add_argument("--term", required=True, help='target term, e.g. "0:W:2,1:X:1:2"')
    p.set_defaults(func=cmd_isolate)

    p = sub.add_parser("reduce", help="reduce a coupling term to two-body star edges")
    common(p)
    p.add_argument("--term", required=True, help="full-support term to reduce")
    p.add_argument("--anchor", required=True, type=int, help="non-qubit star center")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("connect", help="build a spanning two-body certificate")
    common(p)
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("verify", help="Trotter error scaling of a program file")
    common(p)
    p.add_argument("-p", "--program", required=True, help="program JSON file")
    p.add_argument("--time", type=float, default=1.0, help="evolution time")
    p.add_argument("--steps", default="64,128,256", help="comma-separated step counts")
    p.add_argument("--branch-cap", type=int, default=DEFAULT_BRANCH_CAP,
                   help="flat Trotter factor cap (default %(default)s)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="run the built-in three-qudit walkthrough")
    common(p, needs_input=False)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except (FileFormatError, TermNotFoundError, NegligibleTermError, ValueError) as exc:
        if isinstance(exc, (NotEntanglingError, NotConstructiveError)):
            print(f"refused: {exc}", file=sys.stderr)
            return EXIT_NEGATIVE
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
