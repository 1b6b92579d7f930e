"""Independent oracles and generators shared by the test suite.

Everything here deliberately avoids the package's own search machinery so
cross-checks stay two-route: a DPLL decision procedure for the exported CNF
files, a union-find orbit partition for NPN class counts, and a plain random
circuit generator.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from aigopt.aig import AigCircuit, AndGate, Literal

# XOR of two inputs (0x6) padded to four gates by an unread constant gate;
# a valid circuit one gate above the optimum, for upper-bound records.
FOUR_GATE_XOR_AAG = """aag 6 2 0 1 4
2
4
12
6 0 1
8 2 4
10 3 5
12 9 11
"""


def random_circuit(
    rng: random.Random, n: int, max_gates: int, allow_const: bool = False
) -> AigCircuit:
    """A random valid circuit: topological fanins, normalized gate order."""
    gate_count = rng.randint(0, max_gates)
    gates = []
    lo = 0 if allow_const else 1
    for gi in range(gate_count):
        own = n + 1 + gi
        while True:
            a = rng.randrange(lo, own)
            b = rng.randrange(lo, own)
            ca, cb = rng.random() < 0.5, rng.random() < 0.5
            if a == b and ca == cb:
                continue
            break
        gates.append(AndGate.of(Literal(a, ca), Literal(b, cb)))
    if gates:
        out = Literal(n + len(gates), rng.random() < 0.5)
    else:
        out = Literal(rng.randrange(0, n + 1), rng.random() < 0.5)
    return AigCircuit(n, tuple(gates), out)


@st.composite
def circuits(draw, min_n: int = 1, max_n: int = 4, max_gates: int = 8) -> AigCircuit:
    """A drawn valid circuit, like ``random_circuit`` with constant fanins
    allowed, but shrinkable: every fanin and polarity is its own draw.  As
    there, only a repeated literal is rejected, so x AND NOT x gates occur."""
    n = draw(st.integers(min_n, max_n))
    gates = []
    for gi in range(draw(st.integers(0, max_gates))):
        fanin = st.tuples(st.integers(0, n + gi), st.booleans())
        a, ca = draw(fanin)
        b, cb = draw(fanin.filter(lambda lit: lit != (a, ca)))
        gates.append(AndGate.of(Literal(a, ca), Literal(b, cb)))
    root = n + len(gates) if gates else draw(st.integers(0, n))
    return AigCircuit(n, tuple(gates), Literal(root, draw(st.booleans())))


# ---------------------------------------------------------------------------
# Naive NPN orbit partition (independent of the canonicalization scan).
# ---------------------------------------------------------------------------


def naive_orbit_partition(n: int) -> list[set[int]]:
    """Partition all 2^(2^n) functions into NPN orbits by generator closure.

    Uses only three generator moves (swap the first two inputs, rotate the
    inputs, negate input 0, negate the output) applied until closure, so it
    shares nothing with the min-pattern canonicalization it checks.
    """
    rows = 1 << n
    mask = (1 << rows) - 1

    def move_rows(bits: int, rowmap) -> int:
        out = 0
        for b in range(rows):
            out |= ((bits >> rowmap[b]) & 1) << b
        return out

    def swap01_map():
        out = []
        for b in range(rows):
            b0, b1 = b & 1, (b >> 1) & 1
            out.append((b & ~3) | (b0 << 1) | b1)
        return out

    def rotate_map():
        # input i of the source becomes input (i+1) mod n of the result
        out = []
        for b in range(rows):
            src = 0
            for i in range(n):
                src |= ((b >> ((i + 1) % n)) & 1) << i
            out.append(src)
        return out

    def neg0_map():
        return [b ^ 1 for b in range(rows)]

    maps = [neg0_map()]
    if n >= 2:
        maps.append(swap01_map())
        maps.append(rotate_map())

    orbits = []
    assigned = bytearray(1 << rows)
    for start in range(1 << rows):
        if assigned[start]:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            f = stack.pop()
            nexts = [move_rows(f, m) for m in maps] + [f ^ mask]
            for g in nexts:
                if g not in orbit:
                    orbit.add(g)
                    stack.append(g)
        for member in orbit:
            assigned[member] = 1
        orbits.append(orbit)
    return orbits


# ---------------------------------------------------------------------------
# Minimal DPLL for the exported DIMACS files (tiny instances only).
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    num_vars = 0
    clauses = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            num_vars = int(parts[2])
            continue
        lits = [int(x) for x in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    return num_vars, clauses


def dpll_satisfiable(text: str) -> tuple[bool, dict[int, bool] | None]:
    """Exhaustive DPLL with unit propagation; returns (sat, model).

    Propagation is occurrence-list driven: a clause is rescanned only when
    one of its literals is falsified.  Decision order is lowest variable
    first, which hits the gate-selection variables before anything else.
    """
    num_vars, clauses = parse_dimacs(text)
    occurrences: dict[int, list[list[int]]] = {}
    for clause in clauses:
        for lit in clause:
            occurrences.setdefault(lit, []).append(clause)

    assignment: dict[int, bool] = {}

    def propagate(trail: list[int], start: int) -> bool:
        i = start
        while i < len(trail):
            var = trail[i]
            i += 1
            falsified = -var if assignment[var] else var
            for clause in occurrences.get(falsified, ()):
                unassigned = 0
                last = 0
                satisfied = False
                for lit in clause:
                    val = assignment.get(abs(lit))
                    if val is None:
                        unassigned += 1
                        last = lit
                    elif val == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if unassigned == 0:
                    return False
                if unassigned == 1:
                    assignment[abs(last)] = last > 0
                    trail.append(abs(last))
        return True

    def solve() -> bool:
        var = next((v for v in range(1, num_vars + 1) if v not in assignment), None)
        if var is None:
            return True
        for choice in (True, False):
            trail = [var]
            assignment[var] = choice
            if propagate(trail, 0) and solve():
                return True
            for v in trail:
                del assignment[v]
        return False

    trail: list[int] = []
    for clause in clauses:
        if len(clause) == 1:
            lit = clause[0]
            val = assignment.get(abs(lit))
            if val is None:
                assignment[abs(lit)] = lit > 0
                trail.append(abs(lit))
            elif val != (lit > 0):
                return False, None
    if not propagate(trail, 0):
        return False, None
    if solve():
        return True, dict(assignment)
    return False, None


def model_text(model: dict[int, bool]) -> str:
    """Render a model the way a DIMACS solver prints it."""
    lits = [v if val else -v for v, val in sorted(model.items())]
    return "v " + " ".join(str(x) for x in lits) + " 0\n"
