"""OpenQASM 2.0 reader and writer.

The paper's case study exchanges all benchmarks as QASM files ("All
benchmarks are provided in the form of QASM files, which serves as a common
language for both tools").  This module provides the same interchange layer
for the reproduction: a recursive-descent parser covering the OpenQASM 2.0
constructs our benchmark suite emits (including user-defined ``gate``
macros, which are expanded inline) and a writer producing files any
OpenQASM 2.0 consumer understands.

Supported statements: ``OPENQASM``, ``include`` (the standard library is
built in), ``qreg``, ``creg``, ``gate`` definitions, gate applications with
register broadcasting, ``barrier`` and ``measure`` (both ignored for the
unitary semantics), and ``//`` comments.

The reader takes one statement at a time.  A statement ends at its first
``;`` outside a ``//`` comment or a string; a ``gate`` definition ends at
its first ``}``.  A gate application in the canonical shape, every line
:func:`circuit_to_qasm` writes after its header::

    name(lit,lit,...) reg[i],reg[j],...;

(numeric literals with an optional leading ``-``, indexed qubits only)
is matched by one compiled pattern and emitted directly.  Every other
statement (declarations, ``gate`` definitions, broadcasts, parameter
expressions, anything malformed) is tokenized on its own, with absolute
offsets, and handed to the recursive-descent parser, so error messages
and caret locations are those of a whole-file parse.  When a file holds
several errors, the first in reading order is reported.  Expressions may
nest at most :data:`MAX_EXPRESSION_DEPTH` levels deep.  A ``gate`` body
applies builtins and gates defined before it, to its own qubits, and
one file's registers, broadcasts and macros expand within
:data:`MAX_MACRO_EXPANSION`.

Parameterized circuits use a small dialect extension: a pragma comment

    // repro:params theta phi

declares free parameter names, after which gate arguments may mention
them in *linear* expressions (``rz((1/2)*theta) q[0];``).  Declared
programs are evaluated with exact rational arithmetic for integer
literals so that coefficients survive the round trip unchanged, and
every statement of such a file goes through the parser.  Files without
the pragma take the plain float path: a literal read by the canonical
pattern is ``float(text)``, the same bits as the parser's unary minus on
``float(text)``.  Nonlinear uses of a parameter (products of two parameters,
division by a parameter, parameters inside functions or powers) are
rejected with located caret errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Operation
from repro.circuit.symbolic import ParamExpr, circuit_parameters, symbol


class QasmError(ValueError):
    """Raised on malformed OpenQASM input.

    When the error location is known, ``line`` and ``column`` are
    1-based source coordinates, ``source_line`` is the offending line of
    the input, and the rendered message points a caret at the column::

        line 3, column 9: unknown register 'r'
          cx q[0],r[1];
                  ^
    """

    def __init__(
        self,
        message: str,
        *,
        line: Optional[int] = None,
        column: Optional[int] = None,
        source_line: Optional[str] = None,
    ) -> None:
        self.line = line
        self.column = column
        self.source_line = source_line
        if line is not None and column is not None:
            rendered = f"line {line}, column {column}: {message}"
            if source_line is not None:
                rendered += f"\n  {source_line}\n  {' ' * (column - 1)}^"
        else:
            rendered = message
        super().__init__(rendered)

    @classmethod
    def at(cls, message: str, source: str, offset: int) -> "QasmError":
        """Build a located error from a character offset into ``source``."""
        offset = max(0, min(offset, len(source)))
        line_start = source.rfind("\n", 0, offset) + 1
        line_end = source.find("\n", offset)
        if line_end == -1:
            line_end = len(source)
        return cls(
            message,
            line=source.count("\n", 0, offset) + 1,
            column=offset - line_start + 1,
            source_line=source[line_start:line_end],
        )


class Token(NamedTuple):
    """One lexed token plus its character offset into the source."""

    kind: str
    text: str
    pos: int


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>//[^\n]*)
  | (?P<REAL>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<INT>\d+)
  | (?P<ID>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>->|==|[{}()\[\];,+\-*/^])
  | (?P<STRING>"[^"]*")
    """,
    re.VERBOSE,
)


def _tokenize(text: str, start: int, end: int) -> List[Token]:
    """Lex ``text[start:end]``; each token keeps its offset into ``text``."""
    tokens: List[Token] = []
    pos = start
    while pos < end:
        match = _TOKEN_RE.match(text, pos, end)
        if match is None:
            raise QasmError.at(
                f"unexpected character {text[pos]!r}", text, pos
            )
        kind = match.lastgroup
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(Token("EOF", "", end))
    return tokens


# ---------------------------------------------------------------------------
# statement scanning
# ---------------------------------------------------------------------------
#: Whitespace and ``//`` comments between two statements.
_GAP_RE = re.compile(r"(?:\s|//[^\n]*)*")


def _scan_to(stop: str) -> "re.Pattern[str]":
    """A statement's text up to its first ``stop`` outside strings and
    comments; group 1 is empty when the text has none.  The lookahead
    keeps a comment whole, so backtracking never ends it at a ``stop``
    inside it."""
    return re.compile(
        rf'(?:"[^"]*"|//[^\n]*(?![^\n])|/(?!/)|[^"/{stop}])*({stop}?)'
    )


_TO_SEMICOLON_RE = _scan_to(";")
_TO_BRACE_RE = _scan_to(r"\}")
_GATE_KEYWORD_RE = re.compile(r"gate(?![A-Za-z0-9_])")

#: A numeric literal as the tokenizer reads it (``REAL`` or ``INT``),
#: with an optional leading ``-``.
_LITERAL = (
    r"-?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
)
_QUBIT = r"[A-Za-z_][A-Za-z0-9_]*\[\d+\]"

#: The canonical gate application ``name(lit,...) reg[i],...;`` and the
#: gap after it.
_GATE_LINE_RE = re.compile(
    rf"([A-Za-z_][A-Za-z0-9_]*)(?:\(({_LITERAL}(?:,[ \t]*{_LITERAL})*)\))?"
    rf"[ \t]+({_QUBIT}(?:,[ \t]*{_QUBIT})*);" + _GAP_RE.pattern
)
_QUBIT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]")

#: Statement keywords; a canonical-looking line that starts with one
#: (``qreg q[2];``, ``reset q[0];``) is not a gate application.
_KEYWORDS = frozenset(
    ("OPENQASM", "include", "qreg", "creg", "gate", "barrier", "measure",
     "reset")
)


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------
_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "asin": math.asin,
    "acos": math.acos,
    "atan": math.atan,
}


#: Deepest nesting of parentheses, function calls, unary signs and
#: exponents in one expression.  Past it the parser raises a located
#: :class:`QasmError` rather than exhausting the interpreter's stack.
MAX_EXPRESSION_DEPTH = 64

#: One file may expand ``MAX_MACRO_EXPANSION + MACRO_EXPANSION_PER_CHAR
#: * len(text)`` units: one per qubit a ``qreg`` declares, one per
#: operation a broadcast emits beyond its first, and, for ``gate``
#: macros, one per qubit a body statement binds, nested applications
#: included (so every statement costs one), and one per expression token
#: it evaluates.  A unit took 1 to 7.5 us on one core, so expansion stays
#: under about 0.5 s plus 120 us a character; the densest macros
#: measured, qelib1's ``ch`` built down to ``U`` and ``CX``, cost 6.6
#: units a character of their application.  A register of up to 65,536
#: qubits always parses.  The statement that would cross the budget is a
#: located :class:`QasmError` before it expands.
MAX_MACRO_EXPANSION = 1 << 16
MACRO_EXPANSION_PER_CHAR = 16


class _Parser:
    """Recursive-descent parser over the token stream.

    ``source`` is the original program text; it turns every parse error
    into a located :class:`QasmError` (line, column, offending line).

    With ``symbolic=True`` (set when a ``repro:params`` pragma declared
    free parameters) integer literals evaluate to exact
    :class:`~fractions.Fraction` values and expressions may produce
    :class:`~repro.circuit.symbolic.ParamExpr` results; without it the
    evaluator is the original all-float one.
    """

    def __init__(
        self,
        tokens: List[Token],
        source: str = "",
        symbolic: bool = False,
    ) -> None:
        self._tokens = tokens
        self._index = 0
        self._source = source
        self._symbolic = symbolic
        self._depth = 0

    # -- token helpers --------------------------------------------------
    def peek(self) -> Token:
        return self._tokens[self._index]

    def next(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> QasmError:
        """A located error at ``token`` (default: the upcoming token)."""
        if token is None:
            token = self.peek()
        return QasmError.at(message, self._source, token.pos)

    def expect(self, value: str) -> str:
        token = self.next()
        if token.text != value:
            raise self.error(
                f"expected {value!r}, got {token.text or 'end of input'!r}",
                token,
            )
        return token.text

    def expect_kind(self, kind: str) -> str:
        token = self.next()
        if token.kind != kind:
            raise self.error(
                f"expected {kind}, got {token.text or 'end of input'!r}",
                token,
            )
        return token.text

    def accept(self, value: str) -> bool:
        if self.peek().text == value:
            self.next()
            return True
        return False

    # -- expressions ----------------------------------------------------
    # In symbolic mode values are Union[float, Fraction, ParamExpr]; the
    # plain mode only ever sees floats.
    def parse_expression(self, env: Dict[str, object]) -> object:
        return self._parse_additive(env)

    def _parse_additive(self, env: Dict[str, object]) -> object:
        value = self._parse_multiplicative(env)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self._parse_multiplicative(env)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _parse_multiplicative(self, env: Dict[str, object]) -> object:
        value = self._parse_unary(env)
        while self.peek()[1] in ("*", "/"):
            op_token = self.next()
            rhs = self._parse_unary(env)
            if op_token.text == "*":
                if isinstance(value, ParamExpr) and isinstance(rhs, ParamExpr):
                    raise self.error(
                        "nonlinear parameter expression: cannot multiply "
                        "two parameter expressions",
                        op_token,
                    )
                value = value * rhs
            else:
                if isinstance(rhs, ParamExpr):
                    raise self.error(
                        "cannot divide by a parameter expression", op_token
                    )
                value = value / rhs
        return value

    def _parse_unary(self, env: Dict[str, object]) -> object:
        # Every recursion of the grammar passes through here, so this one
        # counter bounds the stack.  An error abandons the parser, so the
        # count is only unwound on success.
        if self._depth == MAX_EXPRESSION_DEPTH:
            raise self.error(
                f"expression nested more than {MAX_EXPRESSION_DEPTH} "
                "levels deep"
            )
        self._depth += 1
        if self.accept("-"):
            value = -self._parse_unary(env)
        elif self.accept("+"):
            value = self._parse_unary(env)
        else:
            value = self._parse_power(env)
        self._depth -= 1
        return value

    def _parse_power(self, env: Dict[str, object]) -> object:
        base = self._parse_atom(env)
        op_token = self.peek()
        if self.accept("^"):
            exponent = self._parse_unary(env)
            if isinstance(base, ParamExpr) or isinstance(exponent, ParamExpr):
                raise self.error(
                    "cannot exponentiate a parameter expression", op_token
                )
            return base**exponent
        return base

    def _parse_atom(self, env: Dict[str, object]) -> object:
        token = self.next()
        kind, text = token.kind, token.text
        if text == "(":
            value = self.parse_expression(env)
            self.expect(")")
            return value
        if kind == "REAL":
            return float(text)
        if kind == "INT":
            return Fraction(int(text)) if self._symbolic else float(text)
        if kind == "ID":
            if text == "pi":
                return math.pi
            if text in _FUNCTIONS:
                self.expect("(")
                arg = self.parse_expression(env)
                self.expect(")")
                if isinstance(arg, ParamExpr):
                    raise self.error(
                        f"cannot apply {text!r} to a parameter expression "
                        "(only linear expressions are supported)",
                        token,
                    )
                return _FUNCTIONS[text](float(arg))
            if text in env:
                return env[text]
            raise self.error(
                f"unknown identifier {text!r} in expression", token
            )
        raise self.error(
            f"unexpected token {text or 'end of input'!r} in expression", token
        )


# ---------------------------------------------------------------------------
# gate application table
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _BuiltinGate:
    """Shape of a built-in QASM gate: base gate + implicit controls."""

    base: str
    num_controls: int
    num_params: int
    num_targets: int = 1


_BUILTINS: Dict[str, _BuiltinGate] = {
    "id": _BuiltinGate("id", 0, 0),
    "u0": _BuiltinGate("id", 0, 1),
    "x": _BuiltinGate("x", 0, 0),
    "y": _BuiltinGate("y", 0, 0),
    "z": _BuiltinGate("z", 0, 0),
    "h": _BuiltinGate("h", 0, 0),
    "s": _BuiltinGate("s", 0, 0),
    "sdg": _BuiltinGate("sdg", 0, 0),
    "t": _BuiltinGate("t", 0, 0),
    "tdg": _BuiltinGate("tdg", 0, 0),
    "sx": _BuiltinGate("sx", 0, 0),
    "sxdg": _BuiltinGate("sxdg", 0, 0),
    "rx": _BuiltinGate("rx", 0, 1),
    "ry": _BuiltinGate("ry", 0, 1),
    "rz": _BuiltinGate("rz", 0, 1),
    "p": _BuiltinGate("p", 0, 1),
    "u1": _BuiltinGate("p", 0, 1),
    "u2": _BuiltinGate("u2", 0, 2),
    "u3": _BuiltinGate("u3", 0, 3),
    "u": _BuiltinGate("u3", 0, 3),
    "U": _BuiltinGate("u3", 0, 3),
    "cx": _BuiltinGate("x", 1, 0),
    "CX": _BuiltinGate("x", 1, 0),
    "cy": _BuiltinGate("y", 1, 0),
    "cz": _BuiltinGate("z", 1, 0),
    "ch": _BuiltinGate("h", 1, 0),
    "csx": _BuiltinGate("sx", 1, 0),
    "cs": _BuiltinGate("s", 1, 0),
    "csdg": _BuiltinGate("sdg", 1, 0),
    "crx": _BuiltinGate("rx", 1, 1),
    "cry": _BuiltinGate("ry", 1, 1),
    "crz": _BuiltinGate("rz", 1, 1),
    "cp": _BuiltinGate("p", 1, 1),
    "cu1": _BuiltinGate("p", 1, 1),
    "cu3": _BuiltinGate("u3", 1, 3),
    "ccx": _BuiltinGate("x", 2, 0),
    "ccz": _BuiltinGate("z", 2, 0),
    "c3x": _BuiltinGate("x", 3, 0),
    "c4x": _BuiltinGate("x", 4, 0),
    "swap": _BuiltinGate("swap", 0, 0, num_targets=2),
    "iswap": _BuiltinGate("iswap", 0, 0, num_targets=2),
    "cswap": _BuiltinGate("swap", 1, 0, num_targets=2),
    "rzz": _BuiltinGate("rzz", 0, 1, num_targets=2),
    "rxx": _BuiltinGate("rxx", 0, 1, num_targets=2),
}

#: ``mcx_<k>`` style names for arbitrary multi-controlled X/Z.
_MCX_RE = re.compile(r"^(?:mcx|mct)_?(\d+)$")
_MCZ_RE = re.compile(r"^mcz_?(\d+)$")


def _builtin_for(name: str) -> Optional[_BuiltinGate]:
    if name in _BUILTINS:
        return _BUILTINS[name]
    match = _MCX_RE.match(name)
    if match:
        return _BuiltinGate("x", int(match.group(1)), 0)
    match = _MCZ_RE.match(name)
    if match:
        return _BuiltinGate("z", int(match.group(1)), 0)
    return None


@dataclass
class _GateMacro:
    """A user-defined ``gate`` block, expanded on application.

    ``body`` holds one ``(gate_name, macro, param_token_slices,
    qubit_names, offset)`` per statement, ``macro`` being None for a
    builtin; ``size`` is the units one application expands (see
    :data:`MAX_MACRO_EXPANSION`), capped just past the budget left.
    """

    params: List[str]
    qubits: List[str]
    body: List[Tuple[str, Optional["_GateMacro"], List[List[Token]], List[str], int]]
    size: int


def _macro_frame(macro: _GateMacro, params: List[object], qubits: List[int]):
    """One application of ``macro`` during expansion: its remaining body,
    parameter environment and qubit binding."""
    return (
        iter(macro.body),
        dict(zip(macro.params, params)),
        dict(zip(macro.qubits, qubits)),
    )


#: The dialect pragma declaring free parameters: ``// repro:params a b``.
_PARAMS_PRAGMA_RE = re.compile(r"^[ \t]*//[ \t]*repro:params\b(.*)$", re.MULTILINE)


def _scan_params_pragma(text: str) -> Dict[str, ParamExpr]:
    """Collect declared parameter names (with located errors) from ``text``."""
    params: Dict[str, ParamExpr] = {}
    for match in _PARAMS_PRAGMA_RE.finditer(text):
        rest = match.group(1)
        base = match.end() - len(rest)
        for name_match in re.finditer(r"\S+", rest):
            name = name_match.group()
            try:
                params[name] = symbol(name)
            except ValueError as exc:
                raise QasmError.at(str(exc), text, base + name_match.start())
    return params


def _finalize_param(value: object) -> object:
    """Collapse an evaluated expression to ``float`` or ``ParamExpr``."""
    if isinstance(value, ParamExpr):
        return value
    return float(value)


class _QasmReader:
    """Parses a full OpenQASM 2.0 program into a :class:`QuantumCircuit`."""

    def __init__(self, text: str) -> None:
        self._source = text
        self._params = _scan_params_pragma(text)
        self._symbolic = bool(self._params)
        self._parser: _Parser  # the current statement's, see _parse_statement
        self._registers: Dict[str, Tuple[int, int]] = {}  # name -> (offset, size)
        self._num_qubits = 0
        self._macros: Dict[str, _GateMacro] = {}
        self._budget = MAX_MACRO_EXPANSION + MACRO_EXPANSION_PER_CHAR * len(text)
        self._operations: List[Operation] = []

    def _error(self, message: str, pos: int) -> QasmError:
        return QasmError.at(message, self._source, pos)

    def _spend(self, units: int, pos: int) -> None:
        """Charge ``units`` to the file's expansion budget (see
        :data:`MAX_MACRO_EXPANSION`); past it, a located error."""
        self._budget -= units
        if self._budget < 0:
            raise self._error(
                "registers, broadcasts and gate macros expand to more than "
                f"{MAX_MACRO_EXPANSION} units plus {MACRO_EXPANSION_PER_CHAR} "
                "per character of the file",
                pos,
            )

    def run(self, name: str = "qasm") -> QuantumCircuit:
        source = self._source
        end = len(source)
        # A pragma file's integer literals must stay exact Fractions, so
        # all of its statements go through the parser.
        canonical = None if self._symbolic else _GATE_LINE_RE.match
        pos = _GAP_RE.match(source).end()
        while pos < end:
            line = canonical(source, pos) if canonical else None
            if line is not None and self._apply_canonical(line, pos):
                pos = line.end()
            else:
                pos = _GAP_RE.match(source, self._parse_statement(pos)).end()
        circuit = QuantumCircuit(self._num_qubits, name=name)
        for op in self._operations:
            circuit.append(op)
        return circuit

    def _apply_canonical(self, line: "re.Match[str]", pos: int) -> bool:
        """Emit a canonical application; False hands it to the parser
        (a keyword, an unknown register or an index out of range)."""
        gate_name, literals, arguments = line.groups()
        if gate_name in _KEYWORDS:
            return False
        qubits = []
        for reg_name, digits in _QUBIT_RE.findall(arguments):
            register = self._registers.get(reg_name)
            index = int(digits)
            if register is None or index >= register[1]:
                return False
            qubits.append(register[0] + index)
        params: List[object] = (
            [float(literal) for literal in literals.split(",")] if literals else []
        )
        self._emit_single(gate_name, params, qubits, pos)
        return True

    def _parse_statement(self, pos: int) -> int:
        """Tokenize and parse the statement at ``pos``; returns its end."""
        source = self._source
        if _GATE_KEYWORD_RE.match(source, pos):
            match = _TO_BRACE_RE.match(source, pos)
        else:
            match = _TO_SEMICOLON_RE.match(source, pos)
        # Without its terminator the statement runs to the end of the
        # text, where the parser reports what it misses.
        end = match.end() if match.group(1) else len(source)
        self._parser = parser = _Parser(
            _tokenize(source, pos, end), source, symbolic=self._symbolic
        )
        kind, text, _ = parser.peek()
        if text == "OPENQASM":
            parser.next()
            parser.expect_kind("REAL")
            parser.expect(";")
        elif text == "include":
            parser.next()
            parser.expect_kind("STRING")
            parser.expect(";")
        elif text == "qreg":
            self._parse_qreg()
        elif text == "creg":
            self._parse_creg()
        elif text == "gate":
            self._parse_gate_definition()
        elif text in ("barrier", "measure", "reset"):
            self._skip_statement()
        elif kind == "ID":
            self._parse_application()
        else:
            raise parser.error(f"unexpected token {text!r}")
        return end

    # -- declarations -----------------------------------------------------
    def _parse_qreg(self) -> None:
        parser = self._parser
        parser.expect("qreg")
        name_token = parser.peek()
        reg_name = parser.expect_kind("ID")
        parser.expect("[")
        size_token = parser.peek()
        size = int(parser.expect_kind("INT"))
        parser.expect("]")
        parser.expect(";")
        if reg_name in self._registers:
            raise parser.error(f"duplicate qreg {reg_name!r}", name_token)
        self._spend(size, size_token.pos)
        self._registers[reg_name] = (self._num_qubits, size)
        self._num_qubits += size

    def _parse_creg(self) -> None:
        parser = self._parser
        parser.expect("creg")
        parser.expect_kind("ID")
        parser.expect("[")
        parser.expect_kind("INT")
        parser.expect("]")
        parser.expect(";")

    def _skip_statement(self) -> None:
        parser = self._parser
        while parser.peek().text != ";":
            if parser.peek().kind == "EOF":
                raise parser.error("unterminated statement")
            parser.next()
        parser.expect(";")

    # -- gate definitions ---------------------------------------------------
    def _parse_gate_definition(self) -> None:
        """Read one ``gate`` block, checked as OpenQASM 2.0 asks: its body
        applies builtins and gates defined before it, to its own qubit
        arguments only."""
        parser = self._parser
        parser.expect("gate")
        gate_name = parser.expect_kind("ID")
        params: List[str] = []
        if parser.accept("("):
            if not parser.accept(")"):
                params.append(parser.expect_kind("ID"))
                while parser.accept(","):
                    params.append(parser.expect_kind("ID"))
                parser.expect(")")
        qubits = [parser.expect_kind("ID")]
        while parser.accept(","):
            qubits.append(parser.expect_kind("ID"))
        parser.expect("{")
        macro = _GateMacro(params, qubits, [], 0)
        while not parser.accept("}"):
            if parser.peek().text == "barrier":
                self._skip_statement()
                continue
            inner_token = parser.peek()
            inner_name = parser.expect_kind("ID")
            param_slices: List[List[Token]] = []
            if parser.accept("("):
                if not parser.accept(")"):
                    param_slices.append(self._collect_expression_tokens())
                    while parser.accept(","):
                        param_slices.append(self._collect_expression_tokens())
                    parser.expect(")")
            args: List[str] = []
            while not args or parser.accept(","):
                arg_token = parser.peek()
                args.append(parser.expect_kind("ID"))
                if args[-1] not in qubits:
                    raise parser.error(
                        f"{args[-1]!r} is not a qubit argument of gate "
                        f"{gate_name!r}",
                        arg_token,
                    )
            parser.expect(";")
            builtin = _builtin_for(inner_name)
            inner = None if builtin else self._macros.get(inner_name)
            if builtin is None and inner is None:
                raise parser.error(
                    f"gate {gate_name!r} applies {inner_name!r}, which is "
                    "neither a builtin nor a gate defined before it",
                    inner_token,
                )
            # Expansion trusts a nested macro's arity; a builtin's is
            # checked when it is emitted.
            if inner is not None and (len(args), len(param_slices)) != (
                len(inner.qubits), len(inner.params)
            ):
                raise parser.error(
                    f"gate {inner_name!r} expects {len(inner.qubits)} "
                    f"qubits and {len(inner.params)} params",
                    inner_token,
                )
            macro.body.append(
                (inner_name, inner, param_slices, args, inner_token.pos)
            )
            # The slices end in an EOF sentinel, which costs nothing.
            cost = len(args) + sum(len(tokens) - 1 for tokens in param_slices)
            cost += inner.size if inner else 0
            macro.size = min(macro.size + cost, self._budget + 1)
        self._macros[gate_name] = macro

    def _collect_expression_tokens(self) -> List[Token]:
        """Grab raw tokens of one expression up to an unnested ',' or ')'."""
        parser = self._parser
        depth = 0
        tokens: List[Token] = []
        while True:
            kind, text, pos = parser.peek()
            if kind == "EOF":
                raise parser.error("unterminated expression")
            if depth == 0 and text in (",", ")"):
                break
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
            tokens.append(parser.next())
        tokens.append(Token("EOF", "", parser.peek().pos))
        return tokens

    # -- applications ------------------------------------------------------
    def _parse_application(self) -> None:
        parser = self._parser
        gate_token = parser.peek()
        gate_name = parser.expect_kind("ID")
        env: Dict[str, object] = dict(self._params)
        params: List[object] = []
        if parser.accept("("):
            if not parser.accept(")"):
                params.append(_finalize_param(parser.parse_expression(env)))
                while parser.accept(","):
                    params.append(
                        _finalize_param(parser.parse_expression(env))
                    )
                parser.expect(")")
        arguments: List[List[int]] = [self._parse_argument()]
        while parser.accept(","):
            arguments.append(self._parse_argument())
        parser.expect(";")
        self._emit(gate_name, params, arguments, gate_token.pos)

    def _parse_argument(self) -> List[int]:
        """A register or indexed qubit; returns the list of qubit indices."""
        parser = self._parser
        name_token = parser.peek()
        reg_name = parser.expect_kind("ID")
        if reg_name not in self._registers:
            raise parser.error(f"unknown register {reg_name!r}", name_token)
        offset, size = self._registers[reg_name]
        if parser.accept("["):
            index_token = parser.peek()
            index = int(parser.expect_kind("INT"))
            parser.expect("]")
            if index >= size:
                raise parser.error(
                    f"index {index} out of range for {reg_name!r} "
                    f"(size {size})",
                    index_token,
                )
            return [offset + index]
        return [offset + i for i in range(size)]

    def _emit(
        self,
        gate_name: str,
        params: List[object],
        arguments: List[List[int]],
        pos: int,
    ) -> None:
        """Broadcast a gate application over register arguments."""
        lengths = {len(arg) for arg in arguments if len(arg) > 1}
        if len(lengths) > 1:
            raise self._error("mismatched register sizes in broadcast", pos)
        repeat = lengths.pop() if lengths else 1
        self._spend(repeat - 1, pos)
        for i in range(repeat):
            qubits = [arg[i] if len(arg) > 1 else arg[0] for arg in arguments]
            self._emit_single(gate_name, params, qubits, pos)

    def _emit_single(
        self,
        gate_name: str,
        params: List[object],
        qubits: List[int],
        pos: int,
    ) -> None:
        builtin = _builtin_for(gate_name)
        if builtin is not None:
            expected = builtin.num_controls + builtin.num_targets
            if len(qubits) != expected:
                raise self._error(
                    f"gate {gate_name!r} expects {expected} qubits, "
                    f"got {len(qubits)}",
                    pos,
                )
            if len(params) != builtin.num_params:
                raise self._error(
                    f"gate {gate_name!r} expects {builtin.num_params} "
                    f"params, got {len(params)}",
                    pos,
                )
            controls = tuple(qubits[: builtin.num_controls])
            targets = tuple(qubits[builtin.num_controls:])
            if builtin.base == "id" and gate_name == "u0":
                params = []
            try:
                operation = Operation(builtin.base, targets, controls, tuple(params))
            except ValueError as exc:  # a qubit named twice
                raise self._error(str(exc), pos) from None
            self._operations.append(operation)
            return
        macro = self._macros.get(gate_name)
        if macro is None:
            raise self._error(f"unknown gate {gate_name!r}", pos)
        if len(params) != len(macro.params):
            raise self._error(
                f"gate {gate_name!r} expects {len(macro.params)} params, "
                f"got {len(params)}",
                pos,
            )
        if len(qubits) != len(macro.qubits):
            raise self._error(
                f"gate {gate_name!r} expects {len(macro.qubits)} qubits, "
                f"got {len(qubits)}",
                pos,
            )
        self._spend(macro.size, pos)
        # A stack of body iterators, not recursion: a long chain of
        # macros cannot exhaust the interpreter's stack.
        stack = [_macro_frame(macro, params, qubits)]
        while stack:
            body, env, binding = stack[-1]
            statement = next(body, None)
            if statement is None:
                stack.pop()
                continue
            inner_name, inner, param_slices, args, inner_pos = statement
            inner_params = [
                _finalize_param(
                    _Parser(
                        tokens, self._source, symbolic=self._symbolic
                    ).parse_expression(env)
                )
                for tokens in param_slices
            ]
            inner_qubits = [binding[arg] for arg in args]
            if inner is None:
                self._emit_single(inner_name, inner_params, inner_qubits, inner_pos)
            else:
                stack.append(_macro_frame(inner, inner_params, inner_qubits))


def circuit_from_qasm(text: str, name: str = "qasm") -> QuantumCircuit:
    """Parse an OpenQASM 2.0 program into a :class:`QuantumCircuit`."""
    return _QasmReader(text).run(name=name)


# ---------------------------------------------------------------------------
# layout metadata
# ---------------------------------------------------------------------------
#: A JSON object key naming a qubit: an integer in its decimal form.
_QUBIT_KEY_RE = re.compile(r"0|-?[1-9][0-9]*")


def layout_from_json(
    document: object,
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Decode the layout metadata OpenQASM 2.0 has no syntax for.

    ``document`` is decoded JSON: a ``<file>.layout.json`` sidecar, or a
    circuit payload of the service.  Its ``initial_layout`` and
    ``output_permutation`` sections each map qubits to qubits; a section
    may be absent or ``null``, which means empty.  Keys are integers (or
    JSON's decimal strings of them) and values integers, never a bool or
    a float.  Other keys are ignored.  Whether the maps fit the circuit
    is :func:`repro.ec.permutations.logical_pair`'s check.

    Returns:
        ``(initial_layout, output_permutation)``.

    Raises:
        ValueError: ``document`` or a section is not an object, or a key
            or a value is not an integer.
    """
    if not isinstance(document, dict):
        raise ValueError(
            f"layout must be an object, not {type(document).__name__}"
        )
    return (
        _qubit_map(document, "initial_layout"),
        _qubit_map(document, "output_permutation"),
    )


def _qubit_map(document: Dict[object, object], name: str) -> Dict[int, int]:
    """One section of :func:`layout_from_json`'s ``document``."""
    section = document.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ValueError(
            f"{name} must be an object or null, not {type(section).__name__}"
        )
    decoded: Dict[int, int] = {}
    for key, value in section.items():
        if isinstance(key, str) and _QUBIT_KEY_RE.fullmatch(key):
            qubit = int(key)
        elif isinstance(key, int) and not isinstance(key, bool):
            qubit = key
        else:
            raise ValueError(f"{name}: key {key!r} is not an integer")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"{name}: value {value!r} of key {key!r} is not an integer"
            )
        decoded[qubit] = value
    return decoded


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------
_CONTROLLED_NAMES = {
    ("x", 1): "cx",
    ("y", 1): "cy",
    ("z", 1): "cz",
    ("h", 1): "ch",
    ("sx", 1): "csx",
    ("s", 1): "cs",
    ("sdg", 1): "csdg",
    ("rx", 1): "crx",
    ("ry", 1): "cry",
    ("rz", 1): "crz",
    ("p", 1): "cp",
    ("u3", 1): "cu3",
    ("x", 2): "ccx",
    ("z", 2): "ccz",
    ("x", 3): "c3x",
    ("x", 4): "c4x",
    ("swap", 1): "cswap",
}


def _format_param(value, op: Operation) -> str:
    """One parameter as QASM text; a non-finite one has no QASM form."""
    offset = value.const if isinstance(value, ParamExpr) else float(value)
    if not math.isfinite(offset):
        raise QasmError(
            f"cannot serialize {op.name!r} with parameter {value!r}"
        )
    return str(value) if isinstance(value, ParamExpr) else repr(offset)


def circuit_to_qasm(circuit: QuantumCircuit) -> str:
    """Serialize a circuit to OpenQASM 2.0.

    Multi-controlled X/Z beyond four controls are emitted with the
    ``mcx_<k>`` convention understood by :func:`circuit_from_qasm`.
    Symbolic parameters are declared with the ``repro:params`` pragma
    and rendered canonically, so writer -> parser -> writer is a
    fixpoint.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    parameters = circuit_parameters(circuit)
    if parameters:
        lines.append(f"// repro:params {' '.join(parameters)}")
    for op in circuit:
        num_controls = len(op.controls)
        if num_controls == 0:
            name = {"u3": "u3", "p": "p"}.get(op.name, op.name)
        else:
            key = (op.name, num_controls)
            if key in _CONTROLLED_NAMES:
                name = _CONTROLLED_NAMES[key]
            elif op.name == "x":
                name = f"mcx_{num_controls}"
            elif op.name == "z":
                name = f"mcz_{num_controls}"
            else:
                raise QasmError(
                    f"cannot serialize {num_controls}-controlled {op.name!r}"
                )
        params = (
            "(" + ",".join(_format_param(p, op) for p in op.params) + ")"
            if op.params
            else ""
        )
        qubits = ",".join(
            f"q[{q}]" for q in tuple(op.controls) + tuple(op.targets)
        )
        lines.append(f"{name}{params} {qubits};")
    return "\n".join(lines) + "\n"
