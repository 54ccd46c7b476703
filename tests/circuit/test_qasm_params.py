"""QASM round trips and diagnostics for symbolic parameter expressions.

The ``// repro:params`` pragma declares free parameters; angle
expressions over them parse into exact :class:`ParamExpr` values and the
writer re-emits them canonically, so writer→parser→writer is a fixpoint.
Nonlinear uses are rejected with located caret errors, and files without
the pragma stay bit-for-bit on the plain float path.
"""

import math
from fractions import Fraction

import pytest

from repro.circuit import (
    QuantumCircuit,
    circuit_from_qasm,
    circuit_to_qasm,
)
from repro.circuit.qasm import QasmError
from repro.circuit.symbolic import ParamExpr, circuit_parameters, symbol


def _symbolic_circuit() -> QuantumCircuit:
    theta = symbol("theta")
    phi = symbol("phi")
    circuit = QuantumCircuit(2, name="ansatz")
    circuit.add("rz", [0], params=[theta])
    circuit.add("ry", [1], params=[-theta])
    circuit.add("rx", [0], params=[theta / 2])
    circuit.add("p", [1], params=[3 * phi / 2 + math.pi / 4])
    circuit.cx(0, 1)
    circuit.add("rz", [1], params=[2 * theta - phi])
    return circuit


class TestPragmaRoundTrip:
    def test_writer_parser_writer_fixpoint(self):
        text = circuit_to_qasm(_symbolic_circuit())
        parsed = circuit_from_qasm(text)
        assert circuit_to_qasm(parsed) == text

    def test_pragma_emitted_with_sorted_parameters(self):
        text = circuit_to_qasm(_symbolic_circuit())
        assert "// repro:params phi theta" in text

    def test_parameters_survive_exactly(self):
        parsed = circuit_from_qasm(circuit_to_qasm(_symbolic_circuit()))
        assert circuit_parameters(parsed) == ("phi", "theta")
        ops = list(parsed)
        assert ops[0].params[0] == symbol("theta")
        assert ops[2].params[0].terms == (("theta", Fraction(1, 2)),)
        # The dyadic-π constant offset survives as an exact float.
        last = ops[3].params[0]
        assert last.terms == (("phi", Fraction(3, 2)),)
        assert last.const == math.pi / 4

    def test_concrete_circuit_emits_no_pragma(self):
        circuit = QuantumCircuit(1)
        circuit.add("rz", [0], params=[0.5])
        text = circuit_to_qasm(circuit)
        assert "repro:params" not in text
        assert circuit_to_qasm(circuit_from_qasm(text)) == text

    def test_concrete_angles_stay_float_under_pragma(self):
        text = (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[1];\n"
            "// repro:params theta\n"
            "rz(0.5) q[0];\n"
            "rz(theta) q[0];\n"
        )
        ops = list(circuit_from_qasm(text))
        assert type(ops[0].params[0]) is float
        assert ops[0].params[0] == 0.5
        assert isinstance(ops[1].params[0], ParamExpr)

    def test_integer_literals_scale_exactly(self):
        text = (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[1];\n"
            "// repro:params theta\n"
            "rz(3*theta/4) q[0];\n"
        )
        (op,) = list(circuit_from_qasm(text))
        assert op.params[0].terms == (("theta", Fraction(3, 4)),)

    def test_pi_times_parameter_is_rejected(self):
        # pi parses to a float, so pi*theta is fine; theta*theta is not.
        text = (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[1];\n"
            "// repro:params theta\n"
            "rz(pi*theta) q[0];\n"
        )
        (op,) = list(circuit_from_qasm(text))
        assert isinstance(op.params[0], ParamExpr)


def _qasm(body: str) -> str:
    return (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "// repro:params theta phi\n"
        f"{body}\n"
    )


class TestNonlinearDiagnostics:
    def _expect_caret(self, text: str, fragment: str) -> None:
        with pytest.raises(QasmError) as excinfo:
            circuit_from_qasm(text)
        message = str(excinfo.value)
        assert fragment in message
        assert "line " in message and "^" in message

    def test_product_of_parameters(self):
        self._expect_caret(
            _qasm("rz(theta*phi) q[0];"),
            "cannot multiply two parameter expressions",
        )

    def test_division_by_parameter(self):
        self._expect_caret(
            _qasm("rz(1/theta) q[0];"),
            "cannot divide by a parameter expression",
        )

    def test_parameter_inside_function(self):
        self._expect_caret(
            _qasm("rz(sin(theta)) q[0];"),
            "only linear expressions are supported",
        )

    def test_parameter_in_exponent(self):
        self._expect_caret(
            _qasm("rz(theta^2) q[0];"),
            "cannot exponentiate a parameter expression",
        )

    def test_invalid_pragma_name(self):
        text = (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[1];\n"
            "// repro:params 2bad\n"
            "rz(0.5) q[0];\n"
        )
        with pytest.raises(QasmError):
            circuit_from_qasm(text)

    def test_reserved_pragma_name(self):
        text = (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[1];\n"
            "// repro:params pi\n"
            "rz(0.5) q[0];\n"
        )
        with pytest.raises(QasmError):
            circuit_from_qasm(text)


class TestIntegerOffsets:
    """The symbolic reader's integer literals are exact Fractions, and a
    ParamExpr adds and subtracts them like the float they equal."""

    @pytest.mark.parametrize(
        "expression, float_form",
        [
            ("theta + 1", "theta + 1.0"),
            ("1 - theta", "1.0 - theta"),
            ("theta - 1", "theta - 1.0"),
            ("theta + 1/2", "theta + 0.5"),
        ],
    )
    def test_parses_like_its_float_form(self, expression, float_form):
        def angle(text):
            circuit = circuit_from_qasm(
                "// repro:params theta\nOPENQASM 2.0;\nqreg q[1];\n"
                f"rz({text}) q[0];\n"
            )
            return circuit[0].params[0]

        parsed = angle(expression)
        assert isinstance(parsed, ParamExpr)
        assert parsed == angle(float_form)

    def test_verify_returns_a_verdict(self, tmp_path, capsys):
        from repro.cli import main

        paths = []
        for name, expression in (("a", "theta + 1"), ("b", "1 + theta")):
            path = tmp_path / f"{name}.qasm"
            path.write_text(
                "// repro:params theta\nOPENQASM 2.0;\nqreg q[1];\n"
                f"rz({expression}) q[0];\n"
            )
            paths.append(str(path))
        code = main(["verify", *paths, "--strategy", "parameterized"])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_the_writer_refuses_them(self, value):
        circuit = QuantumCircuit(1).rz(float(value), 0)
        with pytest.raises(QasmError, match="cannot serialize 'rz'"):
            circuit_to_qasm(circuit)

    def test_a_symbolic_offset_is_checked_too(self):
        circuit = QuantumCircuit(1)
        circuit.add("rz", [0], params=[symbol("theta") + float("inf")])
        with pytest.raises(QasmError, match="cannot serialize 'rz'"):
            circuit_to_qasm(circuit)

    def test_a_service_client_fails_before_it_sends(self):
        from repro.service.server import circuit_to_payload

        with pytest.raises(QasmError):
            circuit_to_payload(QuantumCircuit(1).rz(float("nan"), 0))
