"""And-inverter graphs: two-input AND gates over complemented literals.

Node indexing: 0 is the constant-false node, 1..n are the inputs, and
n+1..n+k are the AND gates in topological order.  Inverters are free edge
attributes, so circuit size is the gate count alone.  Gate fanins are kept
sorted by (node, complement) so that structurally equal circuits compare
equal.  A circuit is checked when it is made, so no consumer checks it again,
and simulated at most once, the first time ``evaluate`` is called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .truthtable import TruthTable, _check_var_count, var_table

CONST_NODE = 0


@dataclass(frozen=True, slots=True, order=True)
class Literal:
    node: int
    complement: bool = False

    def __invert__(self) -> Literal:
        return Literal(self.node, not self.complement)

    def encode(self) -> int:
        """AIGER literal encoding: 2*node + complement."""
        return 2 * self.node + int(self.complement)


FALSE = Literal(CONST_NODE, False)
TRUE = Literal(CONST_NODE, True)


@dataclass(frozen=True, slots=True)
class AndGate:
    fanin0: Literal
    fanin1: Literal

    @staticmethod
    def of(a: Literal, b: Literal) -> AndGate:
        """Build with fanins in normalized (sorted) order."""
        return AndGate(a, b) if a <= b else AndGate(b, a)


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
        if self.n < 0:
            problems.append(f"negative input count {self.n}")
        for gi, g in enumerate(self.gates):
            own = self.n + 1 + gi
            for lit in (g.fanin0, g.fanin1):
                if not 0 <= lit.node < own:
                    problems.append(
                        f"gate {gi} fanin node {lit.node} not topological (own node {own})"
                    )
            if not (g.fanin0.node, g.fanin0.complement) < (g.fanin1.node, g.fanin1.complement):
                problems.append(f"gate {gi} fanins {g.fanin0}, {g.fanin1} not normalized")
        if not 0 <= self.output.node < self.node_count:
            problems.append(f"output node {self.output.node} out of range")
        if problems:
            raise ValueError("invalid circuit: " + "; ".join(problems))

    def evaluate(self) -> TruthTable:
        """Bitwise-parallel simulation over all 2^n input rows, run once per
        circuit: the circuit is immutable, so its table is kept."""
        return self._table

    # Not a dataclass field: equality, hash, repr and ``replace`` ignore it,
    # and a circuit that ``replace`` makes is simulated afresh.
    @cached_property
    def _table(self) -> TruthTable:
        n = self.n
        # Checked before anything is sized by n: the mask alone has 2^n bits.
        _check_var_count(n)
        mask = (1 << (1 << n)) - 1
        values = [0]
        for i in range(n):
            values.append(var_table(n, i).bits)
        for g in self.gates:
            a, b = g.fanin0, g.fanin1
            values.append(
                (values[a.node] ^ (mask if a.complement else 0))
                & (values[b.node] ^ (mask if b.complement else 0))
            )
        out = self.output
        return TruthTable(n, values[out.node] ^ (mask if out.complement else 0))

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


class AigerError(ValueError):
    """Raised for malformed AIGER text."""


def to_aiger(c: AigCircuit) -> str:
    """Serialize to ASCII AIGER ("aag"), single output, no latches."""
    lines = [f"aag {c.n + len(c.gates)} {c.n} 0 1 {len(c.gates)}"]
    for i in range(c.n):
        lines.append(str(2 * (i + 1)))
    lines.append(str(c.output.encode()))
    for gi, g in enumerate(c.gates):
        lhs = 2 * (c.n + 1 + gi)
        lines.append(f"{lhs} {g.fanin0.encode()} {g.fanin1.encode()}")
    return "\n".join(lines) + "\n"


def from_aiger(text: str) -> AigCircuit:
    """Parse ASCII AIGER with a single output and no latches.

    Gate variables may be numbered arbitrarily but must be defined before
    use; they are renumbered densely.  A symbol/comment section is ignored.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln != ""]
    if not lines:
        raise AigerError("empty AIGER document")
    header = lines[0].split()
    # Unsigned decimal counts only: a negative one would skip its section.
    if len(header) != 6 or header[0] != "aag" or not all(x.isdecimal() for x in header[1:]):
        raise AigerError(f"malformed header {lines[0]!r}")
    max_var, n_in, n_latch, n_out, n_and = (int(x) for x in header[1:])
    if n_latch != 0:
        raise AigerError("latches are not supported")
    if n_out != 1:
        raise AigerError(f"expected exactly one output, header says {n_out}")
    needed = 1 + n_in + n_out + n_and
    if len(lines) < needed:
        raise AigerError(f"truncated document: expected {needed} lines, got {len(lines)}")

    pos = 1
    node_of_var: dict[int, int] = {0: CONST_NODE}
    for i in range(n_in):
        lit = _parse_literal(lines[pos])
        pos += 1
        if lit & 1 or lit == 0:
            raise AigerError(f"input line {lit} is not a positive even literal")
        var = lit >> 1
        if var > max_var or var in node_of_var:
            raise AigerError(f"bad input variable {var}")
        node_of_var[var] = i + 1

    output_lit = _parse_literal(lines[pos])
    pos += 1

    gates = []
    for gi in range(n_and):
        parts = lines[pos].split()
        pos += 1
        if len(parts) != 3:
            raise AigerError(f"malformed AND line {lines[pos - 1]!r}")
        try:
            lhs, rhs0, rhs1 = (int(p) for p in parts)
        except ValueError:
            raise AigerError(f"malformed AND line {lines[pos - 1]!r}") from None
        if lhs & 1 or lhs == 0:
            raise AigerError(f"AND lhs {lhs} is not a positive even literal")
        var = lhs >> 1
        if var > max_var or var in node_of_var:
            raise AigerError(f"bad AND variable {var}")
        f0 = _map_literal(rhs0, node_of_var, max_var)
        f1 = _map_literal(rhs1, node_of_var, max_var)
        node_of_var[var] = n_in + 1 + gi
        gates.append(AndGate.of(f0, f1))

    output = _map_literal(output_lit, node_of_var, max_var)
    try:
        return AigCircuit(n_in, tuple(gates), output)
    except ValueError as exc:
        detail = str(exc).removeprefix("invalid circuit: ")
        raise AigerError(f"parsed circuit invalid: {detail}") from None


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
    return value


def _map_literal(lit: int, node_of_var: dict[int, int], max_var: int) -> Literal:
    var = lit >> 1
    if var > max_var:
        raise AigerError(f"literal {lit} exceeds declared maximum variable {max_var}")
    if var not in node_of_var:
        raise AigerError(f"dangling literal {lit}: variable {var} not defined")
    return Literal(node_of_var[var], bool(lit & 1))
