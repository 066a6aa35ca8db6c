"""Command-line integration tests: exit codes, schemas, determinism."""

import json

import numpy as np
import pytest

from quditsim import (
    CouplingTerm,
    Expansion,
    GellMannLabel,
    QuditSystem,
    effective_hamiltonian,
    reconstruct,
)
from quditsim import universality
from quditsim.cli import main
from quditsim.serialize import (
    FileFormatError,
    parse_hamiltonian,
    program_from_json,
    program_to_json,
)

W = GellMannLabel.w
X = GellMannLabel.x

PAULI_Z = [[1.0, 0.0], [0.0, -1.0]]


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def zz_matrix_file(tmp_path):
    z = np.diag([1.0, -1.0])
    zz = np.kron(z, z)
    matrix = [[[float(x), 0.0] for x in row] for row in zz]
    return write_json(tmp_path / "zz.json", {"dims": [2, 2], "matrix": matrix})


def terms_file(tmp_path, name, dims, terms):
    return write_json(tmp_path / name, {"dims": dims, "terms": terms})


def demo_input(tmp_path):
    return terms_file(
        tmp_path,
        "demo.json",
        [3, 2, 2],
        [
            {"coeff": 0.8, "factors": {"0": "X:1:2", "1": "X:1:2"}},
            {"coeff": -0.5, "factors": {"1": "X:1:2", "2": "X:1:2"}},
        ],
    )


class TestExpandCommand:
    def test_zz_matrix(self, tmp_path, capsys):
        code = main(["expand", "-i", zz_matrix_file(tmp_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["terms"]) == 1
        assert report["terms"][0]["factors"] == {"0": "W:2", "1": "W:2"}
        assert report["terms"][0]["coeff"] == pytest.approx(2.0, abs=1e-12)
        assert report["trace_offset"] == 0.0

    def test_identity_matrix(self, tmp_path, capsys):
        matrix = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        path = write_json(tmp_path / "id.json", {"dims": [2, 2], "matrix": matrix})
        assert main(["expand", "-i", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["terms"] == []
        assert report["trace_offset"] == pytest.approx(1.0)

    def test_default_eps_keeps_small_term(self, tmp_path, capsys):
        z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        ham = np.kron(z, z) + 1e-10 * np.kron(x, x)
        matrix = [[[float(v), 0.0] for v in row] for row in ham]
        path = write_json(tmp_path / "small.json", {"dims": [2, 2], "matrix": matrix})
        assert main(["expand", "-i", path]) == 0
        coeffs = {
            json.dumps(t["factors"], sort_keys=True): t["coeff"]
            for t in json.loads(capsys.readouterr().out)["terms"]
        }
        big, small = coeffs['{"0": "W:2", "1": "W:2"}'], coeffs['{"0": "X:1:2", "1": "X:1:2"}']
        assert small / big == pytest.approx(1e-10, rel=1e-6)
        assert main(["expand", "-i", path, "--eps", "1e-9"]) == 0
        assert len(json.loads(capsys.readouterr().out)["terms"]) == 1

    def test_non_hermitian_diagnostic(self, tmp_path, capsys):
        matrix = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        path = write_json(tmp_path / "bad.json", {"dims": [2], "matrix": matrix})
        assert main(["expand", "-i", path]) == 2
        err = capsys.readouterr().err
        assert "not Hermitian" in err and "(0, 1)" in err

    def test_output_reingests_to_same_matrix(self, tmp_path, capsys):
        rng = np.random.default_rng(400)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) / 2
        matrix = [[[float(x.real), float(x.imag)] for x in row] for row in h]
        path = write_json(tmp_path / "h.json", {"dims": [2, 3], "matrix": matrix})
        out = tmp_path / "expanded.json"
        assert main(["expand", "-i", path, "-o", str(out)]) == 0
        expansion = parse_hamiltonian(json.loads(out.read_text()))
        assert np.abs(reconstruct(expansion) - h).max() < 1e-10


class TestClassifyCommand:
    def test_odd_qubit_exit_1(self, tmp_path, capsys):
        path = terms_file(
            tmp_path,
            "odd.json",
            [2, 2, 2],
            [{"coeff": 1.0, "factors": {"0": "X:1:2", "1": "X:1:2", "2": "X:1:2"}}],
        )
        assert main(["classify", "-i", path]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "OddQubitOnly"

    def test_constructive_exit_0(self, tmp_path, capsys):
        path = terms_file(
            tmp_path,
            "mix.json",
            [3, 2],
            [{"coeff": 1.0, "factors": {"0": "X:1:2", "1": "X:1:2"}}],
        )
        assert main(["classify", "-i", path]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "UniversalConstructive"

    def test_non_entangling_exit_1_with_partition(self, tmp_path, capsys):
        path = terms_file(
            tmp_path, "loc.json", [2, 2], [{"coeff": 1.0, "factors": {"0": "W:2"}}]
        )
        assert main(["classify", "-i", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "NonEntangling"
        assert report["partition"] == [[0], [1]]


class TestIsolateCommand:
    def test_success_writes_program(self, tmp_path, capsys):
        path = demo_input(tmp_path)
        prog_path = tmp_path / "prog.json"
        code = main(["isolate", "-i", path, "--term", "0:X:1:2,1:X:1:2", "-o", str(prog_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scale"] > 0
        assert report["verification"]["cosine"] > 1 - 1e-9
        assert report["verification"]["relative_residual"] < 1e-9

        expansion = parse_hamiltonian(json.loads((tmp_path / "demo.json").read_text()))
        program = program_from_json(json.loads(prog_path.read_text()), expansion.system)
        eff = effective_hamiltonian(program, reconstruct(expansion), expansion.system)
        term = CouplingTerm.of({0: X(1, 2), 1: X(1, 2)})
        target = report["scale"] * term.matrix(expansion.system)
        assert np.abs(eff - target).max() / report["scale"] < 1e-9

    def test_huge_coefficient_verifies(self, tmp_path, capsys):
        path = terms_file(
            tmp_path, "h.json", [3, 2], [{"coeff": 1e300, "factors": {"0": "X:1:2", "1": "X:1:2"}}]
        )
        assert main(["isolate", "-i", path, "--term", "0:X:1:2,1:X:1:2"]) == 0
        check = json.loads(capsys.readouterr().out)["verification"]
        assert check["relative_residual"] < 1e-9
        assert check["cosine"] > 1 - 1e-9

    def test_sixteen_level_target(self, tmp_path, capsys):
        path = terms_file(
            tmp_path,
            "h.json",
            [16, 2],
            [
                {"coeff": 0.9, "factors": {"0": "W:16", "1": "X:1:2"}},
                {"coeff": 0.5, "factors": {"0": "W:3", "1": "X:1:2"}},
                {"coeff": -0.7, "factors": {"0": "X:1:2"}},
            ],
        )
        assert main(["isolate", "-i", path, "--term", "0:W:16,1:X:1:2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [s["stage"] for s in report["stages"]] == ["D", "Z", "P", "X"]
        assert report["stages"][2]["target_scale"] == 15.0
        assert report["verification"]["cosine"] > 1 - 1e-9

    def test_absent_term_exit_2(self, tmp_path, capsys):
        path = demo_input(tmp_path)
        assert main(["isolate", "-i", path, "--term", "0:W:2"]) == 2
        assert "not present" in capsys.readouterr().err

    def test_below_threshold_exit_2(self, tmp_path, capsys):
        path = terms_file(
            tmp_path,
            "tiny.json",
            [2, 2],
            [
                {"coeff": 1e-15, "factors": {"0": "W:2"}},
                {"coeff": 1.0, "factors": {"0": "W:2", "1": "W:2"}},
            ],
        )
        assert main(["isolate", "-i", path, "--term", "0:W:2"]) == 2
        assert "threshold" in capsys.readouterr().err


class TestOptions:
    """Options a subcommand would ignore are not registered on it."""

    def test_branch_cap_only_on_verify(self, tmp_path, capsys):
        path = demo_input(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["isolate", "-i", path, "--term", "0:X:1:2,1:X:1:2", "--branch-cap", "5"])
        assert exc.value.code == 2
        assert "--branch-cap" in capsys.readouterr().err

    def test_demo_takes_no_eps(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--eps", "1e-9"])
        assert exc.value.code == 2
        assert "--eps" in capsys.readouterr().err


class TestConnectAndReduce:
    def test_connect_writes_certificate(self, tmp_path, capsys):
        path = demo_input(tmp_path)
        cert_path = tmp_path / "cert.json"
        assert main(["connect", "-i", path, "-o", str(cert_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "UniversalConstructive"
        pairs = {(e["i"], e["j"]) for e in report["edges"]}
        assert pairs == {(0, 1), (0, 2)}
        cert = json.loads(cert_path.read_text())
        assert len(cert["edges"]) == 2
        for entry in cert["edges"]:
            assert entry["program"]["format"] == "program-dag"

    def test_connect_at_size_cap(self, tmp_path, capsys, monkeypatch):
        # D = 192, one 7-qudit term and five one- or two-qudit terms.
        path = terms_file(
            tmp_path,
            "b.json",
            [3, 2, 2, 2, 2, 2, 2],
            [
                {
                    "coeff": 1.100100525965654,
                    "factors": {
                        "0": "Y:1:3", "1": "W:2", "2": "W:2", "3": "W:2",
                        "4": "X:1:2", "5": "Y:1:2", "6": "X:1:2",
                    },
                },
                {"coeff": 0.5551466273330682, "factors": {"5": "Y:1:2"}},
                {"coeff": -1.0622656627804279, "factors": {"3": "W:2"}},
                {"coeff": 0.9227846732701278, "factors": {"1": "X:1:2", "6": "Y:1:2"}},
                {"coeff": 1.1830648223096252, "factors": {"4": "Y:1:2"}},
                {"coeff": -0.8459606655717331, "factors": {"2": "W:2"}},
            ],
        )
        measured = []
        original = universality.measure

        def spy(*args):
            result = original(*args)
            measured.append(result.scale)
            return result

        monkeypatch.setattr(universality, "measure", spy)
        assert main(["connect", "-i", path]) == 0
        edges = json.loads(capsys.readouterr().out)["edges"]
        assert len(edges) == len(measured) == 6
        for edge, scale in zip(edges, measured):
            assert abs(scale - edge["scale"]) <= 1e-12 * edge["scale"]

    def test_connect_all_qubit_exit_1(self, tmp_path, capsys):
        path = terms_file(
            tmp_path,
            "qubits.json",
            [2, 2],
            [{"coeff": 1.0, "factors": {"0": "X:1:2", "1": "X:1:2"}}],
        )
        assert main(["connect", "-i", path]) == 1
        assert "UniversalByEvenTerm" in capsys.readouterr().err

    def test_reduce_star(self, tmp_path, capsys):
        path = terms_file(
            tmp_path,
            "star.json",
            [3, 2, 2],
            [{"coeff": 0.8, "factors": {"0": "X:1:2", "1": "X:1:2", "2": "X:1:2"}}],
        )
        code = main(["reduce", "-i", path, "--term", "0:X:1:2,1:X:1:2,2:X:1:2", "--anchor", "0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [(e["i"], e["j"]) for e in report["edges"]] == [(0, 1), (0, 2)]
        for entry in report["edges"]:
            assert entry["relative_residual"] < 1e-9


class TestVerifyCommand:
    def test_error_scaling_table(self, tmp_path, capsys):
        path = terms_file(
            tmp_path, "h.json", [2], [{"coeff": 1.0, "factors": {"0": "W:2"}}]
        )
        system = QuditSystem((2,))
        from quditsim import Local, Sum

        program = Sum(
            (
                (1.0, Local(0, np.array(PAULI_Z, dtype=complex))),
                (1.0, Local(0, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))),
            )
        )
        prog_path = write_json(tmp_path / "prog.json", program_to_json(program))
        code = main(
            ["verify", "-i", path, "-p", prog_path, "--time", "1.0", "--steps", "64,128"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        (n1, e1), (n2, e2) = report["errors"]
        assert (n1, n2) == (64, 128)
        assert e1 / e2 == pytest.approx(2.0, rel=0.05)
        assert report["order_estimate"] == pytest.approx(1.0, abs=0.2)

    def test_branch_cap_exit_1(self, tmp_path, capsys):
        path = demo_input(tmp_path)
        prog_path = tmp_path / "prog.json"
        main(["isolate", "-i", path, "--term", "0:X:1:2,1:X:1:2", "-o", str(prog_path)])
        capsys.readouterr()
        code = main(
            ["verify", "-i", path, "-p", str(prog_path), "--time", "1.0", "--steps", "4"]
        )
        assert code == 1
        assert "effective-Hamiltonian" in capsys.readouterr().err

    def test_deep_program_exits_without_traceback(self, tmp_path, capsys):
        path = terms_file(
            tmp_path, "h.json", [2], [{"coeff": 1.0, "factors": {"0": "W:2"}}]
        )
        nodes = [{"type": "native", "weight": 1.0}]
        nodes += [{"type": "sum", "children": [[1.0, k]]} for k in range(3000)]
        prog_path = write_json(
            tmp_path / "deep.json", {"format": "program-dag", "nodes": nodes, "root": 3000}
        )
        code = main(["verify", "-i", path, "-p", prog_path, "--steps", "4"])
        assert code in (0, 1)
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("verification failed: ")
            assert err.count("\n") == 1


    def test_deep_program_reports_trotter_errors(self, tmp_path, capsys):
        path = terms_file(
            tmp_path, "h.json", [2], [{"coeff": 1.0, "factors": {"0": "W:2"}}]
        )
        nodes = [{"type": "native", "weight": 1.0}]
        nodes += [{"type": "sum", "children": [[1.0, k]]} for k in range(3000)]
        prog_path = write_json(
            tmp_path / "deep.json", {"format": "program-dag", "nodes": nodes, "root": 3000}
        )
        code = main(["verify", "-i", path, "-p", prog_path, "--steps", "4,8"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [n for n, _ in report["errors"]] == [4, 8]
        assert all(err < 1e-12 for _, err in report["errors"])


def _assert_input_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert err.count("\n") == 1


class TestMalformedInputs:
    """Malformed files exit 2 with a one-line message, never a traceback."""

    XX = {"0": "X:1:2", "1": "X:1:2"}

    def test_factors_given_as_list(self, tmp_path, capsys):
        path = terms_file(tmp_path, "h.json", [2, 2], [{"coeff": 1.0, "factors": ["X:1:2"]}])
        _assert_input_error(capsys, ["classify", "-i", path])

    def test_non_finite_coefficient(self, tmp_path, capsys):
        for value in (float("nan"), float("inf")):
            path = terms_file(tmp_path, "h.json", [2, 2], [{"coeff": value, "factors": self.XX}])
            _assert_input_error(capsys, ["classify", "-i", path])

    def test_non_finite_trace_offset(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "h.json",
            {
                "dims": [2, 2],
                "terms": [{"coeff": 1.0, "factors": self.XX}],
                "trace_offset": float("inf"),
            },
        )
        _assert_input_error(capsys, ["classify", "-i", path])

    def test_non_integer_dims(self, tmp_path, capsys):
        for dims in ([2.7, 2], [2.0, 2], ["2", 2], [True, 2]):
            path = terms_file(tmp_path, "h.json", dims, [{"coeff": 1.0, "factors": self.XX}])
            _assert_input_error(capsys, ["classify", "-i", path])

    def test_overflowing_isolation_scale(self, tmp_path, capsys):
        path = terms_file(tmp_path, "h.json", [3, 2], [{"coeff": 1e308, "factors": self.XX}])
        assert main(["isolate", "-i", path, "--term", "0:X:1:2,1:X:1:2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: isolation scale overflows")
        assert err.count("\n") == 1

    def verify_program(self, tmp_path, capsys, program):
        path = terms_file(
            tmp_path, "h.json", [2], [{"coeff": 1.0, "factors": {"0": "W:2"}}]
        )
        prog_path = write_json(tmp_path / "prog.json", program)
        _assert_input_error(capsys, ["verify", "-i", path, "-p", prog_path])

    def test_non_object_program_node(self, tmp_path, capsys):
        self.verify_program(
            tmp_path, capsys, {"format": "program-dag", "nodes": [5], "root": 0}
        )

    def test_non_finite_native_weight(self, tmp_path, capsys):
        nodes = [{"type": "native", "weight": float("inf")}]
        self.verify_program(
            tmp_path, capsys, {"format": "program-dag", "nodes": nodes, "root": 0}
        )

    def test_non_finite_sum_weight(self, tmp_path, capsys):
        nodes = [
            {"type": "native", "weight": 1.0},
            {"type": "sum", "children": [[float("nan"), 0]]},
        ]
        self.verify_program(
            tmp_path, capsys, {"format": "program-dag", "nodes": nodes, "root": 1}
        )

    def test_unitaries_given_as_list(self, tmp_path, capsys):
        nodes = [
            {"type": "native", "weight": 1.0},
            {"type": "conjugate", "unitaries": [], "child": 0},
        ]
        self.verify_program(
            tmp_path, capsys, {"format": "program-dag", "nodes": nodes, "root": 1}
        )

    def test_non_finite_matrix_entry(self, tmp_path, capsys):
        nan_z = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        nodes = [{"type": "local", "qudit": 0, "operator": nan_z}]
        self.verify_program(
            tmp_path, capsys, {"format": "program-dag", "nodes": nodes, "root": 0}
        )

    def test_local_node_outside_system(self, tmp_path, capsys):
        path = terms_file(tmp_path, "h.json", [3, 2], [{"coeff": 1.0, "factors": self.XX}])
        z2 = [[[x, 0.0] for x in row] for row in PAULI_Z]
        z3 = [[[x, 0.0] for x in row] for row in np.diag([1.0, -1.0, 0.0])]
        for qudit, operator in ((7, z2), (-1, z2), (2, z2), (True, z2), (1, z3)):
            nodes = [{"type": "local", "qudit": qudit, "operator": operator}]
            prog_path = write_json(
                tmp_path / "prog.json", {"format": "program-dag", "nodes": nodes, "root": 0}
            )
            _assert_input_error(capsys, ["verify", "-i", path, "-p", prog_path])

    def test_eps_outside_unit_interval(self, tmp_path, capsys):
        path = terms_file(tmp_path, "h.json", [2, 2], [{"coeff": 1.0, "factors": self.XX}])
        nodes = [{"type": "native", "weight": 1.0}]
        prog_path = write_json(
            tmp_path / "prog.json", {"format": "program-dag", "nodes": nodes, "root": 0}
        )
        for eps in ("nan", "-1", "1", "inf"):
            _assert_input_error(capsys, ["classify", "-i", path, "--eps", eps])
            _assert_input_error(capsys, ["verify", "-i", path, "-p", prog_path, "--eps", eps])
        assert main(["classify", "-i", path, "--eps", "0"]) == 0

    def test_time_beyond_phase_round_off(self, tmp_path, capsys):
        path = terms_file(tmp_path, "h.json", [2, 2], [{"coeff": 1.0, "factors": self.XX}])
        nodes = [{"type": "native", "weight": 1.0}]
        prog_path = write_json(
            tmp_path / "prog.json", {"format": "program-dag", "nodes": nodes, "root": 0}
        )
        for time in ("1e308", "-1e9"):
            _assert_input_error(
                capsys, ["verify", "-i", path, "-p", prog_path, f"--time={time}", "--steps", "4"]
            )

    def test_branch_cap_below_one(self, tmp_path, capsys):
        path = terms_file(tmp_path, "h.json", [2, 2], [{"coeff": 1.0, "factors": self.XX}])
        nodes = [{"type": "native", "weight": 1.0}]
        prog_path = write_json(
            tmp_path / "prog.json", {"format": "program-dag", "nodes": nodes, "root": 0}
        )
        for cap in ("0", "-5"):
            _assert_input_error(
                capsys, ["verify", "-i", path, "-p", prog_path, "--branch-cap", cap]
            )

    def test_unitary_on_missing_qudit(self, tmp_path, capsys):
        x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        nodes = [
            {"type": "native", "weight": 1.0},
            {"type": "conjugate", "unitaries": {"3": x}, "child": 0},
        ]
        self.verify_program(
            tmp_path, capsys, {"format": "program-dag", "nodes": nodes, "root": 1}
        )


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path, capsys):
        path = demo_input(tmp_path)
        outputs = []
        for _ in range(2):
            assert main(["connect", "-i", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_program_files_are_byte_identical(self, tmp_path):
        path = demo_input(tmp_path)
        blobs = []
        for name in ("a.json", "b.json"):
            prog_path = tmp_path / name
            assert (
                main(["isolate", "-i", path, "--term", "0:X:1:2,1:X:1:2", "-o", str(prog_path)])
                == 0
            )
            blobs.append(prog_path.read_bytes())
        assert blobs[0] == blobs[1]


class TestProgramSerialization:
    def test_round_trip_preserves_semantics(self, tmp_path):
        from quditsim import isolate_term

        system = QuditSystem((3, 2))
        term = CouplingTerm.of({0: W(2), 1: W(2)})
        e = Expansion(system, {term: 1.0, CouplingTerm.of({0: W(3)}): -0.4})
        result = isolate_term(e, term)
        data = program_to_json(result.program)
        rebuilt = program_from_json(json.loads(json.dumps(data)), system)
        h = reconstruct(e)
        eff1 = effective_hamiltonian(result.program, h, system)
        eff2 = effective_hamiltonian(rebuilt, h, system)
        assert np.abs(eff1 - eff2).max() < 1e-12

    def test_shared_matrices_encoded_once(self):
        from quditsim import Conjugate, LocalUnitary, Native, Sum
        from quditsim.serialize import matrix_to_json

        dims = (2, 3)
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        unit = LocalUnitary.from_factors(dims, {0: flip})
        program = Sum(((1.0, Conjugate(unit, Native(1.0))), (0.5, Conjugate(unit, Native(2.0)))))
        nodes = program_to_json(program)["nodes"]
        first, second = (n["unitaries"]["0"] for n in nodes if n["type"] == "conjugate")
        assert first is second
        assert first == matrix_to_json(flip)

    def test_rejects_malformed(self):
        system = QuditSystem((2,))
        with pytest.raises(FileFormatError):
            program_from_json({"format": "nope"}, system)
        with pytest.raises(FileFormatError):
            program_from_json(
                {"format": "program-dag", "nodes": [{"type": "widget"}], "root": 0},
                system,
            )

    def test_parse_rejects_bad_files(self):
        with pytest.raises(FileFormatError):
            parse_hamiltonian({"terms": []})
        with pytest.raises(FileFormatError):
            parse_hamiltonian({"dims": [2], "terms": [], "matrix": []})
        with pytest.raises(FileFormatError):
            parse_hamiltonian(
                {"dims": [2], "terms": [{"coeff": 1.0, "factors": {"0": "W:5"}}]}
            )
