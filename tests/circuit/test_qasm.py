"""Unit tests for the OpenQASM 2.0 reader/writer (`repro.circuit.qasm`)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    QasmError,
    QuantumCircuit,
    circuit_from_qasm,
    circuit_to_qasm,
    circuit_unitary,
    unitaries_equivalent,
)
from repro.circuit.qasm import (
    MACRO_EXPANSION_PER_CHAR,
    MAX_MACRO_EXPANSION,
    layout_from_json,
)
from tests.conftest import random_circuit

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


class TestParserBasics:
    def test_empty_program(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[3];")
        assert circuit.num_qubits == 3
        assert len(circuit) == 0

    def test_simple_gates(self):
        circuit = circuit_from_qasm(
            HEADER + "qreg q[2];\nh q[0];\ncx q[0],q[1];\n"
        )
        assert circuit[0].name == "h"
        assert circuit[1].name == "x"
        assert circuit[1].controls == (0,)

    def test_comments_ignored(self):
        circuit = circuit_from_qasm(
            HEADER + "qreg q[1]; // register\n// a comment\nx q[0]; // flip\n"
        )
        assert len(circuit) == 1

    def test_measure_barrier_reset_skipped(self):
        text = (
            HEADER
            + "qreg q[2]; creg c[2];\nh q[0];\nbarrier q;\n"
            + "measure q[0] -> c[0];\nreset q[1];\n"
        )
        circuit = circuit_from_qasm(text)
        assert len(circuit) == 1

    def test_multiple_registers_flattened(self):
        text = HEADER + "qreg a[2]; qreg b[2];\ncx a[1],b[0];\n"
        circuit = circuit_from_qasm(text)
        assert circuit.num_qubits == 4
        assert circuit[0].controls == (1,)
        assert circuit[0].targets == (2,)

    def test_register_broadcast(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[3];\nh q;\n")
        assert len(circuit) == 3
        assert {op.targets[0] for op in circuit} == {0, 1, 2}

    def test_broadcast_two_registers(self):
        text = HEADER + "qreg a[2]; qreg b[2];\ncx a,b;\n"
        circuit = circuit_from_qasm(text)
        assert len(circuit) == 2

    def test_parameter_expressions(self):
        circuit = circuit_from_qasm(
            HEADER + "qreg q[1];\nrz(pi/2) q[0];\nrz(-3*pi/4) q[0];\n"
            "rz(2*pi/8+0.25) q[0];\nrz(cos(0)) q[0];\n"
        )
        assert circuit[0].params[0] == pytest.approx(math.pi / 2)
        assert circuit[1].params[0] == pytest.approx(-3 * math.pi / 4)
        assert circuit[2].params[0] == pytest.approx(math.pi / 4 + 0.25)
        assert circuit[3].params[0] == pytest.approx(1.0)

    def test_u_gates(self):
        circuit = circuit_from_qasm(
            HEADER + "qreg q[1];\nu1(0.5) q[0];\nu2(0.1,0.2) q[0];\n"
            "u3(0.1,0.2,0.3) q[0];\nu(0.1,0.2,0.3) q[0];\n"
        )
        assert [op.name for op in circuit] == ["p", "u2", "u3", "u3"]

    def test_multi_controlled_builtins(self):
        circuit = circuit_from_qasm(
            HEADER + "qreg q[5];\nccx q[0],q[1],q[2];\nc3x q[0],q[1],q[2],q[3];\n"
            "c4x q[0],q[1],q[2],q[3],q[4];\nmcx_3 q[1],q[2],q[3],q[0];\n"
        )
        assert [len(op.controls) for op in circuit] == [2, 3, 4, 3]


class TestParserErrors:
    def test_unknown_gate(self):
        with pytest.raises(QasmError):
            circuit_from_qasm(HEADER + "qreg q[1];\nfrob q[0];\n")

    def test_unknown_register(self):
        with pytest.raises(QasmError):
            circuit_from_qasm(HEADER + "qreg q[1];\nx r[0];\n")

    def test_index_out_of_range(self):
        with pytest.raises(QasmError):
            circuit_from_qasm(HEADER + "qreg q[1];\nx q[4];\n")

    def test_duplicate_register(self):
        with pytest.raises(QasmError):
            circuit_from_qasm(HEADER + "qreg q[1]; qreg q[2];\n")

    def test_wrong_qubit_count(self):
        with pytest.raises(QasmError):
            circuit_from_qasm(HEADER + "qreg q[2];\ncx q[0];\n")

    def test_wrong_param_count(self):
        with pytest.raises(QasmError):
            circuit_from_qasm(HEADER + "qreg q[1];\nrz q[0];\n")

    def test_garbage_token(self):
        with pytest.raises(QasmError):
            circuit_from_qasm(HEADER + "qreg q[1];\nx q[0]; @\n")

    def test_mismatched_broadcast(self):
        with pytest.raises(QasmError):
            circuit_from_qasm(HEADER + "qreg a[2]; qreg b[3];\ncx a,b;\n")

    @pytest.mark.parametrize(
        "text, line, column, operation",
        [
            ("qreg q[2];\ncx q[0],q[0];\n", 4, 1, "cx [0, 0]"),
            ("qreg q[2];\ncx q[0], q[0];\n", 4, 1, "cx [0, 0]"),
            ("qreg q[2];\nccx q[0],q[1],q[1];\n", 4, 1, "ccx [0, 1, 1]"),
            ("qreg q[2];\ncx q, q;\n", 4, 1, "cx [0, 0]"),
            ("qreg q[2];\ngate g a { cx a, a; }\ng q[0];\n", 4, 12, "cx [0, 0]"),
        ],
        ids=["canonical", "parsed", "toffoli", "broadcast", "macro-body"],
    )
    def test_a_qubit_named_twice_is_located(self, text, line, column, operation):
        with pytest.raises(QasmError) as info:
            circuit_from_qasm(HEADER + text)
        source_line = (HEADER + text).splitlines()[line - 1]
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value).splitlines() == [
            f"line {line}, column {column}: duplicate qubits in operation: "
            f"{operation}",
            f"  {source_line}",
            "  " + " " * (column - 1) + "^",
        ]


class TestGateMacros:
    def test_simple_macro_expansion(self):
        text = (
            HEADER
            + "qreg q[2];\n"
            + "gate bell a,b { h a; cx a,b; }\n"
            + "bell q[0],q[1];\n"
        )
        circuit = circuit_from_qasm(text)
        assert [op.name for op in circuit] == ["h", "x"]

    def test_parameterized_macro(self):
        text = (
            HEADER
            + "qreg q[1];\n"
            + "gate wiggle(t) a { rz(t/2) a; rx(-t) a; }\n"
            + "wiggle(0.8) q[0];\n"
        )
        circuit = circuit_from_qasm(text)
        assert circuit[0].params[0] == pytest.approx(0.4)
        assert circuit[1].params[0] == pytest.approx(-0.8)

    def test_nested_macros(self):
        text = (
            HEADER
            + "qreg q[2];\n"
            + "gate inner a { h a; }\n"
            + "gate outer a,b { inner a; cx a,b; inner b; }\n"
            + "outer q[0],q[1];\n"
        )
        circuit = circuit_from_qasm(text)
        assert [op.name for op in circuit] == ["h", "x", "h"]

    def test_macro_semantics_match_inline(self):
        text = (
            HEADER
            + "qreg q[2];\n"
            + "gate entangle(t) a,b { h a; cx a,b; rz(t) b; }\n"
            + "entangle(1.1) q[0],q[1];\n"
        )
        inline = QuantumCircuit(2).h(0).cx(0, 1).rz(1.1, 1)
        assert unitaries_equivalent(
            circuit_unitary(circuit_from_qasm(text)), circuit_unitary(inline)
        )


class TestRoundtrip:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuit_roundtrip(self, seed):
        circuit = random_circuit(4, 30, seed=seed)
        parsed = circuit_from_qasm(circuit_to_qasm(circuit))
        assert parsed.num_qubits == circuit.num_qubits
        assert unitaries_equivalent(
            circuit_unitary(parsed), circuit_unitary(circuit)
        )

    def test_mcx_roundtrip(self):
        circuit = QuantumCircuit(7).mcx([0, 1, 2, 3, 4, 5], 6)
        parsed = circuit_from_qasm(circuit_to_qasm(circuit))
        assert parsed[0].controls == (0, 1, 2, 3, 4, 5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_roundtrip_property(self, seed):
        circuit = random_circuit(3, 12, seed=seed)
        parsed = circuit_from_qasm(circuit_to_qasm(circuit))
        assert parsed.operations == circuit.operations


class TestExpressionEdgeCases:
    def test_power_operator(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[1];\nrz(2^3) q[0];\n")
        assert circuit[0].params[0] == pytest.approx(8.0)

    def test_nested_parentheses(self):
        circuit = circuit_from_qasm(
            HEADER + "qreg q[1];\nrz(((pi))/((2))) q[0];\n"
        )
        assert circuit[0].params[0] == pytest.approx(math.pi / 2)

    def test_unary_plus_and_minus(self):
        circuit = circuit_from_qasm(
            HEADER + "qreg q[1];\nrz(+0.5) q[0];\nrz(--0.5) q[0];\n"
        )
        assert circuit[0].params[0] == pytest.approx(0.5)
        assert circuit[1].params[0] == pytest.approx(0.5)

    def test_scientific_notation(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[1];\nrz(1e-2) q[0];\n")
        assert circuit[0].params[0] == pytest.approx(0.01)

    def test_function_composition(self):
        circuit = circuit_from_qasm(
            HEADER + "qreg q[1];\nrz(sqrt(cos(0)+3)) q[0];\n"
        )
        assert circuit[0].params[0] == pytest.approx(2.0)

    def test_unknown_identifier_rejected(self):
        with pytest.raises(QasmError):
            circuit_from_qasm(HEADER + "qreg q[1];\nrz(tau) q[0];\n")

    def test_u0_is_identity(self):
        circuit = circuit_from_qasm(HEADER + "qreg q[1];\nu0(3) q[0];\n")
        assert circuit[0].name == "id"
        assert circuit[0].params == ()


class TestMacroEdgeCases:
    def test_empty_gate_body(self):
        text = HEADER + "qreg q[1];\ngate nop a { }\nnop q[0];\n"
        assert len(circuit_from_qasm(text)) == 0

    def test_barrier_inside_gate_body_skipped(self):
        text = (
            HEADER
            + "qreg q[2];\n"
            + "gate g a,b { h a; barrier a,b; cx a,b; }\n"
            + "g q[0],q[1];\n"
        )
        assert [op.name for op in circuit_from_qasm(text)] == ["h", "x"]

    def test_macro_wrong_arity_rejected(self):
        text = HEADER + "qreg q[2];\ngate g a { h a; }\ng q[0],q[1];\n"
        with pytest.raises(QasmError):
            circuit_from_qasm(text)

    def test_macro_param_expression_uses_binding(self):
        text = (
            HEADER
            + "qreg q[1];\n"
            + "gate g(x,y) a { rz(x*y+pi) a; }\n"
            + "g(2,3) q[0];\n"
        )
        circuit = circuit_from_qasm(text)
        assert circuit[0].params[0] == pytest.approx(6 + math.pi)

    def test_cnot_alias(self):
        # "CX" is the OpenQASM built-in spelling
        circuit = circuit_from_qasm(HEADER + "qreg q[2];\nCX q[0],q[1];\n")
        assert circuit[0].name == "x"
        assert circuit[0].controls == (0,)


def _exact(circuit):
    """Width and operations, float parameters as hex so that the sign of
    zero and the last bit count."""
    return circuit.num_qubits, [
        (op.name, op.targets, op.controls, tuple(
            p.hex() if isinstance(p, float) else str(p) for p in op.params
        ))
        for op in circuit
    ]


def _circuit(width, *ops):
    """The :func:`_exact` form of ``(name, targets, controls, params)``."""
    return width, [
        (name, targets, controls, tuple(
            p.hex() if isinstance(p, float) else p for p in params
        ))
        for name, targets, controls, params in ops
    ]


#: Statement-boundary and literal edge cases of the reader, each with
#: the circuit it reads or its located error (first message line, line,
#: column).
_EDGE_CASES = {
    "semicolon-in-include": (
        'OPENQASM 2.0;\ninclude "a;b.inc";\nqreg q[1];\nx q[0];\n',
        _circuit(1, ("x", (0,), (), ())),
    ),
    "semicolon-in-comment": (
        HEADER + "qreg q[1];\nx q[0]; // one; two\nh q[0];\n",
        _circuit(1, ("x", (0,), (), ()), ("h", (0,), (), ())),
    ),
    "gatex-macro": (
        HEADER + "qreg q[2];\ngate gatex a { x a; }\ngatex q;\n",
        _circuit(2, ("x", (0,), (), ()), ("x", (1,), (), ())),
    ),
    "measurex-macro": (
        HEADER + "qreg q[1];\ngate measurex a { h a; }\nmeasurex q[0];\n",
        _circuit(1, ("h", (0,), (), ())),
    ),
    "gate-then-application": (
        HEADER + "qreg q[2];\ngate g a, b { cx a, b; } g q[1], q[0];\n",
        _circuit(2, ("x", (0,), (1,), ())),
    ),
    "no-space-after-name": (
        HEADER + "qreg q[1];\nxq[0];\n",
        ("line 4, column 3: expected ID, got '['", 4, 3),
    ),
    "spaced-application": (
        HEADER + "qreg q[2];\ncx q [ 0 ] , q[1] ;\n",
        _circuit(2, ("x", (1,), (0,), ())),
    ),
    "params-touch-qubit": (
        HEADER + "qreg q[1];\nrz(0.5)q[0];\n",
        _circuit(1, ("rz", (0,), (), (0.5,))),
    ),
    "missing-semicolon": (
        HEADER + "qreg q[2];\nx q[0]\ny q[1];\n",
        ("line 5, column 1: expected ';', got 'y'", 5, 1),
    ),
    "unterminated-last": (
        HEADER + "qreg q[1];\nx q[0]",
        ("line 4, column 7: expected ';', got 'end of input'", 4, 7),
    ),
    "broadcast-one": (
        HEADER + "qreg q[3];\nh q;\n",
        _circuit(3, *(("h", (i,), (), ()) for i in range(3))),
    ),
    "broadcast-two": (
        HEADER + "qreg a[2];\nqreg b[2];\ncx a, b;\n",
        _circuit(4, ("x", (2,), (0,), ()), ("x", (3,), (1,), ())),
    ),
    "broadcast-mixed": (
        HEADER + "qreg a[1];\nqreg b[3];\ncx a[0], b;\n",
        _circuit(4, *(("x", (i,), (0,), ()) for i in (1, 2, 3))),
    ),
    "index-out-of-range": (
        HEADER + "qreg q[2];\ncx q[0],q[2];\n",
        ("line 4, column 11: index 2 out of range for 'q' (size 2)", 4, 11),
    ),
    "unknown-register": (
        HEADER + "qreg q[2];\ncx q[0],r[1];\n",
        ("line 4, column 9: unknown register 'r'", 4, 9),
    ),
    "wide-register": (
        HEADER + "qreg q[1000000];\n",
        ("line 3, column 8: registers, broadcasts and gate macros expand to "
         "more than 65536 units plus 16 per character of the file", 3, 8),
    ),
    "wide-broadcast": (
        HEADER + "qreg q[200000];\nh q;",
        ("line 3, column 8: registers, broadcasts and gate macros expand to "
         "more than 65536 units plus 16 per character of the file", 3, 8),
    ),
    "unknown-gate": (
        HEADER + "qreg q[1];\nfrob q[0];\n",
        ("line 4, column 1: unknown gate 'frob'", 4, 1),
    ),
    "wrong-arity": (
        HEADER + "qreg q[2];\ncx q[0];\n",
        ("line 4, column 1: gate 'cx' expects 2 qubits, got 1", 4, 1),
    ),
    "wrong-param-count": (
        HEADER + "qreg q[1];\nrz(0.1,0.2) q[0];\n",
        ("line 4, column 1: gate 'rz' expects 1 params, got 2", 4, 1),
    ),
    "nan": (
        HEADER + "qreg q[1];\nrz(nan) q[0];\n",
        ("line 4, column 4: unknown identifier 'nan' in expression", 4, 4),
    ),
    "negative-zero": (
        HEADER + "qreg q[1];\nrz(-0) q[0];\n",
        _circuit(1, ("rz", (0,), (), (-0.0,))),
    ),
    "unary-plus": (
        HEADER + "qreg q[1];\nrz(+1.5) q[0];\n",
        _circuit(1, ("rz", (0,), (), (1.5,))),
    ),
    "capital-exponent": (
        HEADER + "qreg q[1];\nrz(1E-3) q[0];\n",
        _circuit(1, ("rz", (0,), (), (1e-3,))),
    ),
    "canonical-literals": (
        HEADER + "qreg q[2];\nu3(-0.5,1e-05,-3) q[1];\nrz(1e400) q[0];\n"
        "cx q[0], q[1];\n",
        _circuit(
            2,
            ("u3", (1,), (), (-0.5, 1e-05, -3.0)),
            ("rz", (0,), (), (math.inf,)),
            ("x", (1,), (0,), ()),
        ),
    ),
    "params-file": (
        "// repro:params theta\n" + HEADER + "qreg q[1];\nrz(0.5) q[0];\n"
        "rz(3) q[0];\nrz(-2) q[0];\nrz(3*theta/4 + pi/4) q[0];\n"
        "rz(-theta - 0.5) q[0];\n",
        _circuit(
            1,
            ("rz", (0,), (), (0.5,)),
            ("rz", (0,), (), (3.0,)),
            ("rz", (0,), (), (-2.0,)),
            ("rz", (0,), (), ("(3/4)*theta+0.7853981633974483",)),
            ("rz", (0,), (), ("-theta-0.5",)),
        ),
    ),
}


class TestStatementReader:
    @pytest.mark.parametrize(
        "text, expected", _EDGE_CASES.values(), ids=_EDGE_CASES.keys()
    )
    def test_edge_case(self, text, expected):
        if isinstance(expected[0], str):
            message, line, column = expected
            with pytest.raises(QasmError) as info:
                circuit_from_qasm(text)
            assert str(info.value).splitlines()[0] == message
            assert (info.value.line, info.value.column) == (line, column)
        else:
            assert _exact(circuit_from_qasm(text)) == expected

    @pytest.mark.parametrize("block", ["compiled", "optimized"])
    def test_table1_round_trip_is_exact(self, block):
        from repro.bench.suite import compiled_benchmarks, optimized_benchmarks

        build = compiled_benchmarks if block == "compiled" else optimized_benchmarks
        circuits = [
            circuit
            for instance in build(scale="small", seed=0)
            for circuit in (instance.original, *instance.variants.values())
        ]
        assert len(circuits) == 24
        for circuit in circuits:
            parsed = circuit_from_qasm(circuit_to_qasm(circuit))
            assert _exact(parsed) == _exact(circuit), circuit.name

    def test_canonical_lines_skip_the_tokenizer(self, monkeypatch):
        """Only the header reaches the tokenizer; a change to the writer's
        float format that made every line fall back would fail here."""
        from repro.circuit import qasm

        statements = []
        tokenize = qasm._tokenize

        def counting(text, start, end):
            statements.append(text[start:end])
            return tokenize(text, start, end)

        monkeypatch.setattr(qasm, "_tokenize", counting)
        circuit = random_circuit(6, 294, seed=3)
        circuit.rz(-0.0, 0).rz(1e-05, 1).rz(-1e16, 2).u3(1e-300, -2.5, 3.0, 3)
        circuit.mcx([0, 1, 2, 3, 4], 5).cp(-math.pi / 3, 4, 5)
        assert len(circuit) == 300
        parsed = circuit_from_qasm(circuit_to_qasm(circuit))
        assert _exact(parsed) == _exact(circuit)
        assert statements == [
            "OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[6];"
        ]


class TestExpressionNesting:
    """Nesting is bounded, so no input can exhaust the parser's stack."""

    @pytest.mark.parametrize(
        "expression",
        ["(" * 2000 + "1" + ")" * 2000, "-" * 5000 + "1", "2^" * 3000 + "1",
         "sin(" * 2000 + "1" + ")" * 2000],
        ids=["parentheses", "unary-minus", "exponents", "functions"],
    )
    def test_deep_nesting_is_a_located_error(self, expression):
        with pytest.raises(QasmError) as info:
            circuit_from_qasm(
                HEADER + "qreg q[1];\nrz(" + expression + ") q[0];\n"
            )
        assert info.value.line == 4
        assert info.value.column is not None
        assert "nested more than" in str(info.value)

    def test_the_bound_is_exact(self):
        from repro.circuit.qasm import MAX_EXPRESSION_DEPTH

        def nested(depth):
            return (
                HEADER + "qreg q[1];\nrz("
                + "(" * depth + "1" + ")" * depth + ") q[0];\n"
            )

        # The argument itself is one level; each parenthesis adds one.
        circuit = circuit_from_qasm(nested(MAX_EXPRESSION_DEPTH - 1))
        assert circuit[0].params == (1.0,)
        with pytest.raises(QasmError):
            circuit_from_qasm(nested(MAX_EXPRESSION_DEPTH))


def _doubling_chain(depth, base="x a;", qubits="a"):
    """Macros ``g0`` (body ``base``) .. ``g<depth>`` (two applications of
    the one before) on the gate arguments ``qubits``, over a register
    ``q`` as wide: one application of ``g<depth>`` is ``2**depth``
    applications of ``g0``."""
    lines = [f"qreg q[{qubits.count(',') + 1}];", f"gate g0 {qubits} {{ {base} }}"]
    lines += [
        f"gate g{k} {qubits} {{ g{k - 1} {qubits}; g{k - 1} {qubits}; }}"
        for k in range(1, depth + 1)
    ]
    return HEADER + "\n".join(lines) + "\n"


def _padded(text, length):
    """``text`` and a trailing comment, ``length`` characters in all."""
    return text + "//" + "." * (length - len(text) - 3) + "\n"


#: qelib1.inc's definitions, as a file that inlines its header would.
QELIB1_DEFINITIONS = """\
gate u3(theta,phi,lambda) q { U(theta,phi,lambda) q; }
gate u2(phi,lambda) q { U(pi/2,phi,lambda) q; }
gate u1(lambda) q { U(0,0,lambda) q; }
gate cx c,t { CX c,t; }
gate id a { U(0,0,0) a; }
gate u0(gamma) q { U(0,0,0) q; }
gate x a { u3(pi,0,pi) a; }
gate y a { u3(pi,pi/2,pi/2) a; }
gate z a { u1(pi) a; }
gate h a { u2(0,pi) a; }
gate s a { u1(pi/2) a; }
gate sdg a { u1(-pi/2) a; }
gate t a { u1(pi/4) a; }
gate tdg a { u1(-pi/4) a; }
gate rx(theta) a { u3(theta, -pi/2,pi/2) a; }
gate ry(theta) a { u3(theta,0,0) a; }
gate rz(phi) a { u1(phi) a; }
gate cz a,b { h b; cx a,b; h b; }
gate cy a,b { sdg b; cx a,b; s b; }
gate swap a,b { cx a,b; cx b,a; cx a,b; }
gate ch a,b { h b; sdg b; cx a,b; h b; t b; cx a,b; t b; h b; s b; x b; s a; }
gate ccx a,b,c { h c; cx b,c; tdg c; cx a,c; t c; cx b,c; tdg c; cx a,c; t b; t c; h c; cx a,b; t a; tdg b; cx a,b; }
gate crz(lambda) a,b { u1(lambda/2) b; cx a,b; u1(-lambda/2) b; cx a,b; }
gate cu1(lambda) a,b { u1(lambda/2) a; cx a,b; u1(lambda/2) b; cx a,b; u1(lambda/2) b; }
gate cu3(theta,phi,lambda) c, t { u1((lambda-phi)/2) t; cx c,t; u1((lambda+phi)/2) c; u3(-theta/2,0,-(phi+lambda)/2) t; cx c,t; u3(theta/2,phi,0) t; }
"""


class TestMalformedMacros:
    """A gate body applies builtins and earlier gates to its own qubit
    arguments only (OpenQASM 2.0); anything else is a located error at
    definition, whether or not the gate is applied."""

    @pytest.mark.parametrize(
        "definitions, line, column, message",
        [
            ("gate g a { g a; }", 4, 12, "'g' applies 'g'"),
            ("gate g a { h2 a; }\ngate h2 a { g a; }", 4, 12,
             "'g' applies 'h2'"),
            ("gate g a { h2 a; } gate h2 a { h a; }", 4, 12,
             "'g' applies 'h2'"),
            ("gate g a { x b; }", 4, 14,
             "'b' is not a qubit argument of gate 'g'"),
            ("gate g a, b { cx a, c; }", 4, 21,
             "'c' is not a qubit argument of gate 'g'"),
            ("gate g a { cx a; }", 4, 12, "gate 'cx' expects 2 qubits"),
            ("gate g a { rz a; }", 4, 12, "gate 'rz' expects 1 params"),
            ("gate k a { x a; }\ngate g a { k(1) a; }", 5, 12,
             "gate 'k' expects 1 qubits and 0 params"),
        ],
        ids=["self", "mutual", "forward", "free-qubit", "free-control",
             "qubit-count", "param-count", "macro-arity"],
    )
    def test_located_error(self, definitions, line, column, message):
        text = HEADER + "qreg q[2];\n" + definitions + "\ng q[0];\n"
        with pytest.raises(QasmError) as info:
            circuit_from_qasm(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert message in str(info.value)

    def test_qelib1_definitions_parse_inline(self):
        """The spec's primitives ``U`` and ``CX`` are builtins, so a file
        that pastes in qelib1.inc's definitions parses, and the builtins
        win at application as they do for the include."""
        applications = (
            "u3(0.1,0.2,0.3) q[0];\nU(0.1,0.2,0.3) q[1];\nCX q[0],q[1];\n"
            "ccx q[0],q[1],q[2];\ncu3(0.1,0.2,0.3) q[2],q[0];\n"
            "rx(pi/3) q[1];\nswap q[0],q[2];\n"
        )
        inline = circuit_from_qasm(
            "OPENQASM 2.0;\nqreg q[3];\n" + QELIB1_DEFINITIONS + applications
        )
        included = circuit_from_qasm(HEADER + "qreg q[3];\n" + applications)
        assert _exact(inline) == _exact(included)
        assert [op.name for op in inline][:3] == ["u3", "u3", "x"]

    def test_a_long_chain_expands_without_recursion(self):
        depth = 3000
        lines = ["qreg q[1];", "gate g0 a { x a; }"]
        lines += [f"gate g{k} a {{ g{k - 1} a; }}" for k in range(1, depth)]
        circuit = circuit_from_qasm(
            HEADER + "\n".join(lines) + f"\ng{depth - 1} q[0];\n"
        )
        assert [op.name for op in circuit] == ["x"]


class TestMacroExpansionBound:
    """One file expands at most ``MAX_MACRO_EXPANSION`` units plus
    ``MACRO_EXPANSION_PER_CHAR`` per character of the file: one unit per
    declared qubit, per operation a broadcast adds, per body statement
    walked and per expression token evaluated."""

    @pytest.mark.parametrize(
        "base, units, operations",
        [
            # g0's X, then at each level two applications of the level
            # below, each a statement itself.
            ("x a;", 3 * 2 ** 16 - 2, 2 ** 16),
            # An empty body walks nothing, but applying it still costs.
            ("", 2 ** 17 - 2, 0),
            ("barrier a;", 2 ** 17 - 2, 0),
        ],
        ids=["x", "empty", "barrier-only"],
    )
    def test_the_bound_is_exact(self, base, units, operations):
        text = _doubling_chain(16, base) + "g16 q[0];\n"
        units += 1  # the register's one qubit
        length = -(-(units - MAX_MACRO_EXPANSION) // MACRO_EXPANSION_PER_CHAR)
        assert len(circuit_from_qasm(_padded(text, length))) == operations
        with pytest.raises(QasmError) as info:
            circuit_from_qasm(_padded(text, length - 1))
        assert (info.value.line, info.value.column) == (16 + 5, 1)
        assert (
            f"more than {MAX_MACRO_EXPANSION} units plus "
            f"{MACRO_EXPANSION_PER_CHAR} per character of the file"
        ) in str(info.value)

    @pytest.mark.parametrize(
        "base", ["x a;", "", "barrier a;"], ids=["x", "empty", "barrier-only"]
    )
    def test_an_exponential_chain_is_refused_before_it_expands(self, base):
        # 2**40 applications of g0: only a refusal before expansion returns.
        with pytest.raises(QasmError, match="more than"):
            circuit_from_qasm(_doubling_chain(40, base) + "g40 q[0];\n")

    @pytest.mark.parametrize(
        "base, qubits",
        [
            # Each of the 2**12 rotations evaluates a 2,001-token sum.
            ("rz(" + "+".join(["1"] * 1001) + ") a;", "a"),
            # Each statement binds 64 qubits.
            ("mcx_63 " + ", ".join(f"a{i}" for i in range(64)) + ";",
             ", ".join(f"a{i}" for i in range(64))),
        ],
        ids=["tokens", "qubits"],
    )
    def test_tokens_and_qubits_are_charged(self, base, qubits):
        # g12's 3 * 2**12 - 2 statements alone would fit the budget.
        text = _doubling_chain(12, base, qubits)
        arguments = ",".join(f"q[{i}]" for i in range(qubits.count(",") + 1))
        assert 3 * 2 ** 12 - 2 < MAX_MACRO_EXPANSION
        with pytest.raises(QasmError, match="more than"):
            circuit_from_qasm(text + f"g12 {arguments};\n")

    def test_registers_and_broadcasts_spend_the_budget(self):
        """One unit per declared qubit and one per operation a broadcast
        emits beyond its first: a register of ``w`` qubits and ``h`` on
        all of it cost ``2w - 1``."""
        width = 40000
        text = HEADER + f"qreg q[{width}];\nh q;\n"
        length = -(
            -(2 * width - 1 - MAX_MACRO_EXPANSION) // MACRO_EXPANSION_PER_CHAR
        )
        assert len(circuit_from_qasm(_padded(text, length))) == width
        with pytest.raises(QasmError) as info:
            circuit_from_qasm(_padded(text, length - 1))
        assert (info.value.line, info.value.column) == (4, 1)
        assert "registers, broadcasts and gate macros expand to more than" in str(
            info.value
        )

    def test_a_register_of_65536_qubits_parses(self):
        circuit = circuit_from_qasm(HEADER + f"qreg q[{MAX_MACRO_EXPANSION}];\n")
        assert circuit.num_qubits == MAX_MACRO_EXPANSION

    def test_macros_that_do_not_amplify_have_no_total_cap(self):
        """``ecr`` exported as two ``rzx`` applications, applied until it
        emits more than ``MAX_MACRO_EXPANSION`` operations, parses as the
        same gates written out."""
        text = HEADER + "qreg q[2];\n" + (
            "gate rzx(theta) a, b { h b; cx a, b; rz(theta) b; cx a, b; h b; }\n"
            "gate ecr a, b { rzx(pi/4) a, b; x a; rzx(-pi/4) a, b; }\n"
        )
        written_out = circuit_from_qasm(
            HEADER + "qreg q[2];\n"
            "h q[1];\ncx q[0],q[1];\nrz(pi/4) q[1];\ncx q[0],q[1];\nh q[1];\n"
            "x q[0];\n"
            "h q[1];\ncx q[0],q[1];\nrz(-pi/4) q[1];\ncx q[0],q[1];\nh q[1];\n"
        )
        applications = 6000
        circuit = circuit_from_qasm(text + "ecr q[0],q[1];\n" * applications)
        assert len(circuit) == 11 * applications > MAX_MACRO_EXPANSION
        width, operations = _exact(circuit)
        assert (width, operations[:11]) == _exact(written_out)
        assert operations == operations[:11] * applications


class TestLayoutFromJson:
    """The one decoder of layout sidecars and service payloads."""

    def test_json_keys_and_python_keys_decode_alike(self):
        sidecar = {"initial_layout": {"0": 2, "1": 0, "2": 1},
                   "output_permutation": {"-1": 0}}
        payload = {"qasm": "ignored", "initial_layout": {0: 2, 1: 0, 2: 1},
                   "output_permutation": {-1: 0}}
        expected = ({0: 2, 1: 0, 2: 1}, {-1: 0})
        assert layout_from_json(sidecar) == expected
        assert layout_from_json(payload) == expected

    @pytest.mark.parametrize(
        "document",
        [{}, {"initial_layout": None, "output_permutation": None}],
        ids=["absent", "null"],
    )
    def test_absent_or_null_sections_are_empty(self, document):
        assert layout_from_json(document) == ({}, {})

    @pytest.mark.parametrize(
        "document, message",
        [
            ([1, 2], "layout must be an object, not list"),
            (None, "layout must be an object, not NoneType"),
            ({"initial_layout": [0, 1]},
             "initial_layout must be an object or null, not list"),
            ({"output_permutation": "0:1"},
             "output_permutation must be an object or null, not str"),
            ({"initial_layout": {"x": 0}}, "initial_layout: key 'x' is not"),
            ({"initial_layout": {"01": 0}}, "initial_layout: key '01' is not"),
            ({"initial_layout": {"1.0": 0}}, "initial_layout: key '1.0' is not"),
            ({"initial_layout": {True: 0}}, "initial_layout: key True is not"),
            ({"initial_layout": {"0": 1.9, "1": 0.2}},
             "initial_layout: value 1.9 of key '0' is not an integer"),
            ({"initial_layout": {"0": 1.0}},
             "initial_layout: value 1.0 of key '0' is not an integer"),
            ({"output_permutation": {"0": True}},
             "output_permutation: value True of key '0' is not an integer"),
            ({"output_permutation": {"0": "1"}},
             "output_permutation: value '1' of key '0' is not an integer"),
        ],
    )
    def test_malformed_layout_is_a_value_error(self, document, message):
        with pytest.raises(ValueError) as raised:
            layout_from_json(document)
        assert str(raised.value).startswith(message)
