"""And-inverter graphs: two-input AND gates over complemented literals.

Node indexing: 0 is the constant-false node, 1..n are the inputs, and
n+1..n+k are the AND gates in topological order.  Inverters are free edge
attributes, so circuit size is the gate count alone.  Gate fanins are kept
sorted by (node, complement) so that structurally equal circuits compare
equal.  A circuit is checked when it is made, so no consumer checks it again,
and simulated at most once, the first time ``evaluate`` is called.

Everything is keyed on the literal code ``node << 1 | complement``, the code
AIGER uses.  Each ``Literal`` carries its code, so ``AndGate.of`` and the
circuit check compare integers; the check collects the circuit's fanin codes,
and simulation indexes the values of both polarities of every node by them.
Literals are shared: ``Literal.decode`` hands out one object per code from a
table made at import, and ``~``, ``from_aiger`` and the modules that build
circuits take their literals from it.  The table is fixed at
``SHARED_CODES`` codes; a larger code gets a fresh ``Literal``, so no input
can grow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .truthtable import TruthTable, _check_var_count, var_table

CONST_NODE = 0

# Codes of nodes 0..63: every circuit a search makes (at most 1 + 6 + 32
# nodes) and its one-row repairs (n more gates).  Each shared literal costs
# about 2 us at import.
SHARED_CODES = 128


@dataclass(frozen=True, slots=True, order=True)
class Literal:
    node: int
    complement: bool = False
    # The AIGER literal encoding, 2*node + complement.  It follows from the
    # two fields, so equality, hash, order and repr leave it out.
    code: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "code", 2 * self.node + int(self.complement))

    def __invert__(self) -> Literal:
        return Literal.decode(self.code ^ 1)

    @staticmethod
    def decode(code: int) -> Literal:
        """The literal of an AIGER code: the shared one below ``SHARED_CODES``,
        a fresh one above."""
        if 0 <= code < SHARED_CODES:
            return _SHARED[code]
        return Literal(code >> 1, bool(code & 1))


_SHARED = tuple(Literal(code >> 1, bool(code & 1)) for code in range(SHARED_CODES))
FALSE = Literal.decode(0)
TRUE = Literal.decode(1)


@dataclass(frozen=True, slots=True)
class AndGate:
    fanin0: Literal
    fanin1: Literal

    @staticmethod
    def of(a: Literal, b: Literal) -> AndGate:
        """Build with fanins in normalized (sorted) order."""
        return AndGate(a, b) if a.code <= b.code else AndGate(b, a)


@dataclass(frozen=True)
class AigCircuit:
    n: int
    gates: tuple[AndGate, ...] = field(default_factory=tuple)
    output: Literal = FALSE

    def size(self) -> int:
        return len(self.gates)

    @property
    def node_count(self) -> int:
        """Nodes including the constant: 1 + n + gate count."""
        return 1 + self.n + len(self.gates)

    def __post_init__(self) -> None:
        problems = []
        n = self.n
        if n < 0:
            problems.append(f"negative input count {n}")
        # A gate's fanin codes lie below ``limit``, its own node's code, and
        # the smaller comes first: distinct codes order as (node, complement).
        limit = 2 * (n + 1)
        codes = []
        for gi, g in enumerate(self.gates):
            a, b = g.fanin0.code, g.fanin1.code
            if not 0 <= a < b < limit:
                for lit in (g.fanin0, g.fanin1):
                    if not 0 <= lit.code < limit:
                        problems.append(
                            f"gate {gi} fanin node {lit.node} not topological "
                            f"(own node {limit >> 1})"
                        )
                if not a < b:
                    problems.append(f"gate {gi} fanins {g.fanin0}, {g.fanin1} not normalized")
            codes.append((a, b))
            limit += 2
        if not 0 <= self.output.code < limit:
            problems.append(f"output node {self.output.node} out of range")
        if problems:
            raise ValueError("invalid circuit: " + "; ".join(problems))
        # Not a field, like ``_table``: each gate's fanin codes, for simulation.
        object.__setattr__(self, "_codes", codes)

    def evaluate(self) -> TruthTable:
        """Bitwise-parallel simulation over all 2^n input rows, run once per
        circuit: the circuit is immutable, so its table is kept."""
        return self._table

    # Not a dataclass field: equality, hash, repr and ``replace`` ignore it,
    # and a circuit that ``replace`` makes is simulated afresh.
    @cached_property
    def _table(self) -> TruthTable:
        mask, inputs = _input_values(self.n)
        # The value of every literal code, both polarities of each node.
        values = list(inputs)
        for a, b in self._codes:
            v = values[a] & values[b]
            values.append(v)
            values.append(v ^ mask)
        return TruthTable(self.n, values[self.output.code])

    def eval_row(self, row: int) -> int:
        """Single-assignment evaluation; slow path used for cross-checks."""
        values = [0] * self.node_count
        for i in range(self.n):
            values[i + 1] = (row >> i) & 1

        def lit_value(lit: Literal) -> int:
            return values[lit.node] ^ int(lit.complement)

        for gi, g in enumerate(self.gates):
            values[self.n + 1 + gi] = lit_value(g.fanin0) & lit_value(g.fanin1)
        return lit_value(self.output)


@lru_cache(maxsize=None)
def _input_values(n: int) -> tuple[int, tuple[int, ...]]:
    """The all-ones mask over 2^n rows, and the values of the literal codes
    of the constant and the n inputs."""
    # Checked before anything is sized by n: the mask alone has 2^n bits.  A
    # call that raises is not cached, so at most six are.
    _check_var_count(n)
    mask = (1 << (1 << n)) - 1
    values = [0, mask]
    for i in range(n):
        v = var_table(n, i).bits
        values += (v, v ^ mask)
    return mask, tuple(values)


class AigerError(ValueError):
    """Raised for malformed AIGER text."""


def to_aiger(c: AigCircuit) -> str:
    """Serialize to ASCII AIGER ("aag"), single output, no latches."""
    lines = [f"aag {c.n + len(c.gates)} {c.n} 0 1 {len(c.gates)}"]
    for i in range(c.n):
        lines.append(str(2 * (i + 1)))
    lines.append(str(c.output.code))
    for gi, g in enumerate(c.gates):
        lhs = 2 * (c.n + 1 + gi)
        lines.append(f"{lhs} {g.fanin0.code} {g.fanin1.code}")
    return "\n".join(lines) + "\n"


def from_aiger(text: str) -> AigCircuit:
    """Parse ASCII AIGER with a single output and no latches.

    Gate variables may be numbered arbitrarily but must be defined before
    use; they are renumbered densely.  A symbol/comment section is ignored.
    Every number is plain ASCII decimal.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise AigerError("empty AIGER document")
    header = lines[0].split()
    # Unsigned decimal counts only: a negative one would skip its section.
    if len(header) != 6 or header[0] != "aag" or not _decimal("".join(header[1:])):
        raise AigerError(f"malformed header {lines[0]!r}")
    max_var, n_in, n_latch, n_out, n_and = map(int, header[1:])
    if n_latch != 0:
        raise AigerError("latches are not supported")
    if n_out != 1:
        raise AigerError(f"expected exactly one output, header says {n_out}")
    needed = 1 + n_in + n_out + n_and
    if len(lines) < needed:
        raise AigerError(f"truncated document: expected {needed} lines, got {len(lines)}")

    # Each defined variable's node, as the code of its plain literal.
    code_of_var: dict[int, int] = {0: CONST_NODE << 1}
    for i in range(n_in):
        lit = _parse_literal(lines[1 + i])
        if lit & 1 or lit == 0:
            raise AigerError(f"input line {lit} is not a positive even literal")
        var = lit >> 1
        if var > max_var or var in code_of_var:
            raise AigerError(f"bad input variable {var}")
        code_of_var[var] = (i + 1) << 1

    output_lit = _parse_literal(lines[1 + n_in])

    gates = []
    for gi, line in enumerate(lines[2 + n_in : needed]):
        parts = line.split()
        # The fields are non-empty, so they are all decimal when their join is.
        if len(parts) != 3 or not _decimal("".join(parts)):
            raise AigerError(f"malformed AND line {line!r}")
        lhs, rhs0, rhs1 = map(int, parts)
        if lhs & 1 or lhs == 0:
            raise AigerError(f"AND lhs {lhs} is not a positive even literal")
        var = lhs >> 1
        if var > max_var or var in code_of_var:
            raise AigerError(f"bad AND variable {var}")
        gates.append(
            AndGate.of(
                _map_literal(rhs0, code_of_var, max_var), _map_literal(rhs1, code_of_var, max_var)
            )
        )
        code_of_var[var] = (n_in + 1 + gi) << 1

    output = _map_literal(output_lit, code_of_var, max_var)
    try:
        return AigCircuit(n_in, tuple(gates), output)
    except ValueError as exc:
        detail = str(exc).removeprefix("invalid circuit: ")
        raise AigerError(f"parsed circuit invalid: {detail}") from None


def _decimal(text: str) -> bool:
    """Plain ASCII decimal digits.  ``int()`` also takes a sign, underscores
    and non-ASCII digits, and ``str.isdecimal`` the non-ASCII digits."""
    return text.isascii() and text.isdigit()


def _parse_literal(line: str) -> int:
    parts = line.split()
    if len(parts) != 1:
        raise AigerError(f"expected a single literal, got {line!r}")
    try:
        value = int(parts[0])
    except ValueError:
        raise AigerError(f"malformed literal {line!r}") from None
    if value < 0:
        raise AigerError(f"negative literal {value}")
    if not _decimal(parts[0]):
        raise AigerError(f"malformed literal {line!r}")
    return value


def _map_literal(lit: int, code_of_var: dict[int, int], max_var: int) -> Literal:
    code = code_of_var.get(lit >> 1)
    if code is None:
        # No defined variable exceeds max_var.
        var = lit >> 1
        if var > max_var:
            raise AigerError(f"literal {lit} exceeds declared maximum variable {max_var}")
        raise AigerError(f"dangling literal {lit}: variable {var} not defined")
    return Literal.decode(code | lit & 1)
