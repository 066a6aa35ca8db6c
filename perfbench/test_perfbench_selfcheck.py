"""Self-test of the benchmark's oracle and tracer.

    python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import quditsim as qs  # noqa: E402
import quditsim.isolation  # noqa: E402
from quditsim.serialize import program_to_json  # noqa: E402

import bench_oracle as oracle  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

DIMS = (2, 3)


def tiny_program(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    local = (a + a.conj().T) / 2
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    unit = qs.LocalUnitary.from_factors(DIMS, {0: q})
    native = qs.Native(1.0)
    return qs.Sum(((0.7, qs.Conjugate(unit, native)),
                   (1.3, qs.Commutator(qs.Local(1, local), native))))


def tiny_source(rng):
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    return (a + a.conj().T) / 2


def test_oracle_matches_library_on_tiny_program():
    rng = np.random.default_rng(7)
    program, source = tiny_program(rng), tiny_source(rng)
    system = qs.QuditSystem(DIMS)
    data = json.loads(json.dumps(program_to_json(program)))

    expected = qs.effective_hamiltonian(program, source, system)
    got = oracle.evaluate_program(data, source, DIMS)
    assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()

    report = qs.verify(program, source, system, 0.4, [8, 16])
    errors = oracle.trotter_errors(data, source, DIMS, 0.4, [8, 16])
    for (n, e), (m, ref) in zip(report.trotter_errors, errors):
        assert n == m and e == pytest.approx(ref, rel=1e-9)
    assert oracle.count_factors(data) == 2 + 1 + 2 * (1 + 1)


def test_check_flags_wrong_sum_weight(tmp_path):
    workload = bench_workloads.IsolateDense(tmp_path)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    inp = bench_workloads.Input(DIMS, matrix=(a + a.conj().T) / 2,
                                target={0: "X:1:2", 1: "W:3"})
    out = workload.job(workload.prepare(inp))
    assert workload.check(inp, out) == []

    program = json.loads(out["program"])
    last_sum = max(i for i, r in enumerate(program["nodes"]) if r["type"] == "sum")
    program["nodes"][last_sum]["children"][0][0] *= 2.0
    wrong = {**out, "program": json.dumps(program)}
    assert workload.check(inp, wrong)


def test_call_through_isolation_binding_lands_in_model_span():
    system = qs.QuditSystem(DIMS)
    term = qs.CouplingTerm.of({0: qs.GellMannLabel.x(1, 2), 1: qs.GellMannLabel.w(3)})
    expansion = qs.Expansion(system, {term: 0.5})
    original = quditsim.isolation.reconstruct

    tracer = bench_trace.Tracer()
    tracer.job = 1
    tracer.install()
    try:
        quditsim.isolation.reconstruct(expansion)
    finally:
        tracer.uninstall()
    calls, self_s, total_s = tracer.aggregate({1})

    assert quditsim.isolation.reconstruct is original
    assert calls["model.reconstruct"] == 1
    assert calls["operators.embed"] >= 1
    name, start, end, parent, job = tracer.spans[0]
    assert (name, parent, job) == ("model.reconstruct", -1, 1) and end >= start
    assert all(value >= 0 for value in self_s.values())
    assert total_s["model.reconstruct"] >= total_s["operators.embed"] > 0
