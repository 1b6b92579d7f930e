"""NPN equivalence: input negation, input permutation, output negation.

The canonical representative of a class is the lexicographically smallest
bit pattern over the full orbit of 2 * 2^n * n! transforms.  One walk meets
them all in a fixed order, so a walk position names a transform
(``walk_transform``).  The walk is built on one packed integer, one slot per
position: each permutation's table and its complement are placed once, and
each input negation is one shift-and-mask step over the whole integer
(``_walk_patterns``, with the masks of ``_walk_plan`` kept per n).
``orbit`` gives the one orbit table, an ``Orbit``: the walk as an array and
the set of its members.  It does the same work for every function of n
inputs whatever its orbit size, and keeps the last two.  ``canonicalize``
takes the least member and its first walk position, and ``retarget`` moves a
circuit for any orbit member back to the table the orbit was taken from; the
search and the ``oracle`` command both map their witnesses with it, each
passing the pattern it already knows the circuit computes.  The search tests
its candidates against the same member set.  Enumeration walks all 2^(2^n)
functions in ascending pattern order and marks whole orbits, so the first
unmarked function met is automatically canonical.
"""

from __future__ import annotations

import itertools
import sys
from array import array
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


@lru_cache(maxsize=None)
def _walk_plan(n: int) -> tuple[int, str, tuple, tuple[int, ...]]:
    """What every orbit walk of n-input tables shares: the slot width in bits
    and its array typecode; for each permutation of ``_perms(n)``, the input
    swaps that make it, each as (shift, rows kept, rows moved up); and for
    each input position p, the rows with x_p = 1 repeated over every slot of
    the packed walk."""
    var = [var_table(n, i).bits for i in range(n)]
    mask = (1 << (1 << n)) - 1
    swap = {}
    for lo, hi in itertools.combinations(range(n), 2):
        shift = (1 << hi) - (1 << lo)
        low = var[lo] & ~var[hi]  # rows with x_lo = 1, x_hi = 0
        swap[lo, hi] = swap[hi, lo] = (shift, mask & ~(low | (low << shift)), low)
    swaps = []
    for perm in _perms(n):
        # Swap positions until input i sits at perm[i]; at[p] is the input
        # now at position p.
        at = list(range(n))
        steps = []
        for i, b in enumerate(perm):
            a = at.index(i)
            if a != b:
                steps.append(swap[a, b])
                at[a], at[b] = at[b], at[a]
        swaps.append(tuple(steps))
    width = max(8, 1 << n)
    typecode = next(c for c in "BHILQ" if array(c).itemsize * 8 == width)
    slots = len(swaps) << (n + 1)
    # Adding 2^(p-1) to a row flips x_p exactly when x_{p-1} = 1, so each
    # mask is the next one XOR itself shifted: one repeat of bytes in all.
    ones = [int.from_bytes(var[-1].to_bytes(width // 8, "little") * slots, "little")]
    for p in range(n - 1, 0, -1):
        ones.append(ones[-1] ^ (ones[-1] >> (1 << (p - 1))))
    return width, typecode, tuple(swaps), tuple(reversed(ones))


def _walk_patterns(n: int, bits: int) -> array:
    """Every table the orbit walk of ``bits`` meets, repeats included: per
    permutation of ``_perms(n)``, 2^n tables with the inputs permuted and then,
    for each set bit p of the offset, the input at position p negated; then
    their complements.  Offset 0 of the first block is the identity's.

    The walk is built as one integer of ``_walk_plan`` slots.  Each
    permutation's table and its complement go into the first slot of each
    half of its block; each input negation is then one shift-and-mask step
    over the whole integer that doubles the filled slots of every half.
    """
    width, typecode, swaps, ones = _walk_plan(n)
    mask = (1 << (1 << n)) - 1
    half = width << n
    blocks = []
    for steps in swaps:
        t = bits
        for shift, keep, low in steps:
            t = (t & keep) | ((t & low) << shift) | ((t >> shift) & low)
        blocks.append((t | ((t ^ mask) << half)).to_bytes(half // 4, "little"))
    walk_bytes = b"".join(blocks)
    packed = int.from_bytes(walk_bytes, "little")
    for p, ones_p in enumerate(ones):
        # Slot s + 2^p takes slot s with the input at position p negated: its
        # rows with x_p = 1 move down, those with x_p = 0 move up.
        step, gap = 1 << p, width << p
        packed |= ((packed & ones_p) << (gap - step)) | ((packed << (gap + step)) & ones_p)
    walk = array(typecode, packed.to_bytes(len(walk_bytes), "little"))
    if sys.byteorder == "big":
        walk.byteswap()
    return walk


def walk_transform(n: int, position: int) -> NpnTransform:
    """The transform that makes the table at ``position`` of the orbit walk."""
    block, pos = divmod(position, 1 << n)
    perm = _perms(n)[block >> 1]
    # Position p holds input perm.index(p) once the inputs are permuted.
    neg = sum(1 << perm.index(p) for p in range(n) if (pos >> p) & 1)
    return NpnTransform(perm, neg, bool(block & 1))


@dataclass(frozen=True, slots=True)
class Orbit:
    """The NPN orbit of one table.  ``walk`` holds every table the orbit walk
    meets, in walk order and with repeats, so position i is made by
    ``walk_transform(n, i)``; ``members`` holds each distinct table once."""

    walk: array
    members: frozenset[int]


@lru_cache(maxsize=2)
def orbit(tt: TruthTable) -> Orbit:
    """The orbit of ``tt``; ``tt`` itself sits at walk position 0, the identity.

    The walk visits all 2 * n! * 2^n transforms, so its cost does not depend
    on how many of its tables are distinct.  A query asks at every gate
    count, after ``canonicalize`` may have asked, so the last two orbits are
    kept; callers share them and must not change them.
    """
    walk = _walk_patterns(tt.n, tt.bits)
    return Orbit(walk, frozenset(walk))


def canonicalize(tt: TruthTable) -> tuple[TruthTable, NpnTransform]:
    """Minimum bit pattern over the orbit, plus a transform reaching it."""
    o = orbit(tt)
    best = min(o.members)
    return TruthTable(tt.n, best), walk_transform(tt.n, o.walk.index(best))


def retarget(circuit: AigCircuit, bits: int, tt: TruthTable) -> AigCircuit:
    """``circuit``, which computes ``bits``, a member of ``tt``'s NPN orbit,
    moved by the inverse of the transform at that member's first walk
    position: a circuit of the same size for ``tt``.  The caller vouches for
    ``bits``; the circuit is not simulated.  Raises ValueError when ``bits``
    is no orbit member or the circuit's n differs from ``tt``'s."""
    o = orbit(tt) if circuit.n == tt.n else None
    if o is None or bits not in o.members:
        raise ValueError(f"0x{bits:x} (n={circuit.n}) is not in the NPN orbit of {tt.hex()}")
    return transform_circuit(circuit, walk_transform(tt.n, o.walk.index(bits)).inverse())


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
        self._function_class = tuple(function_class)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, class_index: int) -> NpnClass:
        return self.classes[class_index]

    @property
    def function_class(self) -> tuple[int, ...]:
        """The class index of every function, indexed by its bit pattern."""
        return self._function_class

    def classify(self, tt: TruthTable) -> int:
        """Class index of an arbitrary (not necessarily canonical) table."""
        if tt.n != self.n:
            raise ValueError(f"arity mismatch: table n={tt.n}, classes n={self.n}")
        return self.function_class[tt.bits]


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
