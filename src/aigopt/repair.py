"""One-bit circuit repair with certified size bounds.

Every repair is one flip step, ``_repair``.  To move a circuit's function
across a single truth-table row x*, it builds a detector that fires exactly
on x* (an AND chain over suitably complemented input literals, n-1 gates) and
corrects the output with one more gate.  Set and clear are the step's two
polarities: OR with the detector sets the row, AND with its complement clears
it.  Either costs exactly n gates in the AIG basis.  ``repair_multi`` is the
telescoped chain of steps, one per differing row, so d flips cost at most n*d,
which is the certificate this module enforces on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .aig import AigCircuit, AndGate, Literal
from .truthtable import Assignment, TruthTable


@dataclass(frozen=True, slots=True)
class RepairReport:
    input_size: int
    output_size: int
    flips: int
    bound: int
    target_tt: TruthTable


class RepairError(ValueError):
    """Raised when a repair precondition does not hold."""


def build_detector(n: int, xstar: Assignment) -> AigCircuit:
    """Standalone circuit that outputs 1 exactly on the assignment x*.

    Input i enters plain when bit i of x* is 1, complemented when it is 0.
    Cost is n-1 gates; for n=1 the detector is a bare literal.
    """
    if xstar.n != n:
        raise ValueError(f"arity mismatch: n={n}, assignment n={xstar.n}")
    gates, out = _detector_parts(n, xstar.values, n + 1)
    return AigCircuit(n, gates, out)


# A repair of an m-gate circuit over n inputs reads the entry (n, row, n + 1 + m).
@lru_cache(maxsize=4096)
def _detector_parts(n: int, row: int, next_node: int) -> tuple[tuple[AndGate, ...], Literal]:
    """Detector gates for input row ``row``, numbered from ``next_node`` on,
    plus the eq literal."""
    decode = Literal.decode
    literals = [decode((i + 1) << 1 | (~row >> i) & 1) for i in range(n)]
    acc = literals[0]
    gates: list[AndGate] = []
    for lit in literals[1:]:
        gates.append(AndGate.of(acc, lit))
        acc = decode((next_node + len(gates) - 1) << 1)
    return tuple(gates), acc


def repair_set(c: AigCircuit, xstar: Assignment) -> tuple[AigCircuit, RepairReport]:
    """Force output 1 on row x*; requires the circuit to output 0 there.

    Realized as NOT(NOT f AND NOT eq), i.e. f OR eq with free inversions:
    detector plus one correction gate, n extra gates total.
    """
    return _repair(c, xstar, 1)


def repair_clear(c: AigCircuit, xstar: Assignment) -> tuple[AigCircuit, RepairReport]:
    """Force output 0 on row x*; requires the circuit to output 1 there.

    Realized as f AND NOT eq; the detector is the same, its inversion free.
    """
    return _repair(c, xstar, 0)


def _repair(
    c: AigCircuit, xstar: Assignment, value: int
) -> tuple[AigCircuit, RepairReport]:
    """The flip step: make row x* read ``value``, which it must not read yet."""
    before = c.evaluate()
    if before.eval(xstar) == value:
        name = "repair_set" if value else "repair_clear"
        raise RepairError(
            f"{name} precondition failed: output already {value} on row {xstar.values}"
        )
    det_gates, eq = _detector_parts(c.n, xstar.values, c.node_count)
    f = ~c.output if value else c.output
    gates = c.gates + det_gates + (AndGate.of(f, ~eq),)
    repaired = AigCircuit(c.n, gates, Literal.decode((c.n + len(gates)) << 1 | value))
    target = before.flip_bit(xstar.values)
    return repaired, _certify(c.size(), repaired, target, flips=1)


def repair_multi(c: AigCircuit, target: TruthTable) -> tuple[AigCircuit, RepairReport]:
    """Chain one flip step per differing row, ascending, until ``target`` is met."""
    if target.n != c.n:
        raise ValueError(f"arity mismatch: circuit n={c.n}, target n={target.n}")
    diff = c.evaluate().bits ^ target.bits
    rows = [row for row in range(target.rows) if (diff >> row) & 1]
    current = c
    for row in rows:
        current, _ = _repair(current, Assignment(c.n, row), (target.bits >> row) & 1)
    return current, _certify(c.size(), current, target, len(rows))


def _certify(
    input_size: int, repaired: AigCircuit, target: TruthTable, flips: int
) -> RepairReport:
    """Check the certificate on every call; a failure is an internal bug."""
    bound = input_size + target.n * flips
    output_size = repaired.size()
    if output_size > bound:
        raise AssertionError(
            f"size certificate violated: {output_size} > {input_size} + "
            f"{target.n}*{flips}"
        )
    got = repaired.evaluate()
    if got != target:
        raise AssertionError(
            f"repair produced {got.hex()} instead of target {target.hex()}"
        )
    return RepairReport(
        input_size=input_size,
        output_size=output_size,
        flips=flips,
        bound=bound,
        target_tt=target,
    )
