"""NPN equivalence: input negation, input permutation, output negation.

The canonical representative of a class is the lexicographically smallest
bit pattern over the full orbit of 2 * 2^n * n! transforms.  One walk meets
them all in a fixed order, so a walk position names a transform
(``walk_transform``).  ``orbit_positions`` is the one orbit table: it maps
each pattern to the first position that meets it, does the same work for
every function of n inputs whatever its orbit size, and keeps the last two
tables.  ``canonicalize`` takes its minimum, and ``retarget`` moves a circuit
for any orbit member back to the table the orbit was taken from; the search
and the ``oracle`` command both map their witnesses with it, each passing the
pattern it already knows the circuit computes.  Enumeration
walks all 2^(2^n) functions in ascending pattern order and marks whole
orbits, so the first unmarked function met is automatically canonical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .aig import AigCircuit, AndGate, Literal
from .truthtable import TruthTable, var_table

MAX_CLASS_VARS = 4


@dataclass(frozen=True, slots=True)
class NpnTransform:
    """One element of the NPN group acting on n-variable functions.

    ``perm[i]`` is the new position of input i; ``input_neg`` bit i negates
    input i (in the original numbering, before permuting); ``output_neg``
    complements the function value.
    """

    perm: tuple[int, ...]
    input_neg: int
    output_neg: bool

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..{n - 1}")
        if not 0 <= self.input_neg < (1 << n):
            raise ValueError(f"input_neg mask 0b{self.input_neg:b} does not fit {n} bits")

    @property
    def n(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> NpnTransform:
        return NpnTransform(tuple(range(n)), 0, False)

    def row_map(self) -> tuple[int, ...]:
        """For each result row b, the source row of the untransformed table."""
        n = self.n
        out = []
        for b in range(1 << n):
            src = 0
            for i in range(n):
                bit = (b >> self.perm[i]) & 1
                bit ^= (self.input_neg >> i) & 1
                src |= bit << i
            out.append(src)
        return tuple(out)

    def inverse(self) -> NpnTransform:
        n = self.n
        inv_perm = [0] * n
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
        neg = 0
        for i in range(n):
            neg |= ((self.input_neg >> inv_perm[i]) & 1) << i
        return NpnTransform(tuple(inv_perm), neg, self.output_neg)


def apply_transform(tt: TruthTable, t: NpnTransform) -> TruthTable:
    if t.n != tt.n:
        raise ValueError(f"arity mismatch: table n={tt.n}, transform n={t.n}")
    rm = t.row_map()
    bits = 0
    src = tt.bits
    for b in range(1 << tt.n):
        bits |= ((src >> rm[b]) & 1) << b
    if t.output_neg:
        bits ^= tt.mask
    return TruthTable(tt.n, bits)


def transform_circuit(c: AigCircuit, t: NpnTransform) -> AigCircuit:
    """A circuit of the same size computing ``apply_transform(c.evaluate(), t)``.

    Input x_i reads x_perm[i], negated when ``input_neg`` bit i is set; gate
    nodes keep their numbers, so only input literals and the output change.
    """
    if t.n != c.n:
        raise ValueError(f"arity mismatch: circuit n={c.n}, transform n={t.n}")

    def move(lit: Literal) -> Literal:
        if not 1 <= lit.node <= c.n:
            return lit
        i = lit.node - 1
        return Literal(t.perm[i] + 1, lit.complement ^ bool((t.input_neg >> i) & 1))

    gates = tuple(AndGate.of(move(g.fanin0), move(g.fanin1)) for g in c.gates)
    output = move(c.output)
    return AigCircuit(c.n, gates, ~output if t.output_neg else output)


@lru_cache(maxsize=None)
def _perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(n)))


def _walk_patterns(n: int, bits: int) -> list[int]:
    """Every table the orbit walk of ``bits`` meets, repeats included: per
    permutation of ``_perms(n)``, 2^n tables with the inputs permuted and then,
    for each set bit p of the offset, the input at position p negated; then
    their complements.  Offset 0 of the first block is the identity's.  Each
    input swap or negation moves blocks of rows with a mask and a shift.
    """
    var = [var_table(n, i).bits for i in range(n)]
    mask = (1 << (1 << n)) - 1
    out: list[int] = []
    for perm in _perms(n):
        # Swap positions until input i sits at perm[i]; at[p] is the input
        # now at position p.
        moved = bits
        at = list(range(n))
        for i in range(n):
            a, b = at.index(i), perm[i]
            if a != b:
                lo, hi = min(a, b), max(a, b)
                shift = (1 << hi) - (1 << lo)
                low = var[lo] & ~var[hi]  # rows with x_lo = 1, x_hi = 0
                moved = (
                    (moved & ~(low | (low << shift)))
                    | ((moved & low) << shift)
                    | ((moved >> shift) & low)
                )
                at[a], at[b] = at[b], at[a]
        tables = [moved]
        for p in range(n):
            step, ones = 1 << p, var[p]  # rows with x_p = 1
            tables += [((t & ones) >> step) | ((t << step) & ones) for t in tables]
        out += tables
        out += [t ^ mask for t in tables]
    return out


def walk_transform(n: int, position: int) -> NpnTransform:
    """The transform that makes the table at ``position`` of the orbit walk."""
    block, pos = divmod(position, 1 << n)
    perm = _perms(n)[block >> 1]
    # Position p holds input perm.index(p) once the inputs are permuted.
    neg = sum(1 << perm.index(p) for p in range(n) if (pos >> p) & 1)
    return NpnTransform(perm, neg, bool(block & 1))


@lru_cache(maxsize=2)
def orbit_positions(tt: TruthTable) -> dict[int, int]:
    """Every pattern in the NPN orbit of ``tt``, each mapped to the first
    walk position that meets it; ``walk_transform`` turns that into a
    transform, and ``tt`` itself sits at position 0, the identity.

    The dict is built in one pass over all 2 * n! * 2^n walk tables, so its
    cost does not depend on how many of them are distinct.  A query asks at
    every gate count, after ``canonicalize`` may have asked, so the last two
    are kept; callers share the dict and must not change it.
    """
    patterns = _walk_patterns(tt.n, tt.bits)
    # Later pairs overwrite earlier ones, so walking backwards keeps the first.
    return dict(zip(reversed(patterns), range(len(patterns) - 1, -1, -1)))


def canonicalize(tt: TruthTable) -> tuple[TruthTable, NpnTransform]:
    """Minimum bit pattern over the orbit, plus a transform reaching it."""
    positions = orbit_positions(tt)
    best = min(positions)
    return TruthTable(tt.n, best), walk_transform(tt.n, positions[best])


def retarget(circuit: AigCircuit, bits: int, tt: TruthTable) -> AigCircuit:
    """``circuit``, which computes ``bits``, a member of ``tt``'s NPN orbit,
    moved by the inverse of that member's walk transform: a circuit of the same
    size for ``tt``.  The caller vouches for ``bits``; the circuit is not
    simulated.  Raises ValueError when ``bits`` is no orbit member or the
    circuit's n differs from ``tt``'s."""
    position = orbit_positions(tt).get(bits) if circuit.n == tt.n else None
    if position is None:
        raise ValueError(f"0x{bits:x} (n={circuit.n}) is not in the NPN orbit of {tt.hex()}")
    return transform_circuit(circuit, walk_transform(tt.n, position).inverse())


@dataclass(frozen=True, slots=True)
class NpnClass:
    canon: TruthTable
    class_index: int
    orbit_size: int


class NpnClassTable:
    """All NPN classes of n-variable functions, indexed both ways."""

    def __init__(self, classes: list[NpnClass], function_class: list[int]):
        self.n = classes[0].canon.n
        self.classes = classes
        # Dense map from every function's bits to its class index, filled in
        # by enumerate_classes as a byproduct of orbit marking.
        self._function_class = function_class

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, class_index: int) -> NpnClass:
        return self.classes[class_index]

    def classify(self, tt: TruthTable) -> int:
        """Class index of an arbitrary (not necessarily canonical) table."""
        if tt.n != self.n:
            raise ValueError(f"arity mismatch: table n={tt.n}, classes n={self.n}")
        return self._function_class[tt.bits]


def enumerate_classes(n: int) -> NpnClassTable:
    """All NPN classes in ascending canonical-pattern order.

    Cost grows as 2^(2^n) * n! * 2^n and the function-to-class table holds
    2^(2^n) entries; n=4 takes seconds, n=5 would need a 2^32-entry table,
    so n is capped here, before anything is allocated.
    """
    if not 1 <= n <= MAX_CLASS_VARS:
        raise ValueError(
            f"NPN classes can be enumerated for n in 1..{MAX_CLASS_VARS}, got {n}"
        )
    rows = 1 << n
    function_class = [-1] * (1 << rows)
    classes: list[NpnClass] = []
    for bits in range(1 << rows):
        if function_class[bits] >= 0:
            continue
        members = set(_walk_patterns(n, bits))
        index = len(classes)
        for member in members:
            function_class[member] = index
        classes.append(NpnClass(TruthTable(n, bits), index, len(members)))
    return NpnClassTable(classes, function_class)
