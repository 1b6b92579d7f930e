"""NPN equivalence: input negation, input permutation, output negation.

The canonical representative of a class is the lexicographically smallest
bit pattern over the full orbit of 2 * 2^n * n! transforms.  Enumeration
walks all 2^(2^n) functions in ascending pattern order and marks whole
orbits, so the first unmarked function met is automatically canonical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .aig import AigCircuit, AndGate, Literal
from .truthtable import TruthTable

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


@lru_cache(maxsize=8)
def _all_row_maps(n: int) -> tuple[tuple[NpnTransform, tuple[int, ...]], ...]:
    """Every (perm, input negation) transform with its precomputed row map."""
    out = []
    for perm in itertools.permutations(range(n)):
        for neg in range(1 << n):
            t = NpnTransform(perm, neg, False)
            out.append((t, t.row_map()))
    return tuple(out)


def _orbit_patterns(bits: int, n: int):
    """Yield (pattern, transform, output_neg) over the whole NPN orbit."""
    mask = (1 << (1 << n)) - 1
    rows = 1 << n
    for t, rm in _all_row_maps(n):
        mapped = 0
        for b in range(rows):
            mapped |= ((bits >> rm[b]) & 1) << b
        yield mapped, t, False
        yield mapped ^ mask, t, True


def canonicalize(tt: TruthTable) -> tuple[TruthTable, NpnTransform]:
    """Minimum bit pattern over the orbit, plus a transform reaching it."""
    best = None
    best_t = None
    for pattern, t, out_neg in _orbit_patterns(tt.bits, tt.n):
        if best is None or pattern < best:
            best = pattern
            best_t = NpnTransform(t.perm, t.input_neg, out_neg)
    assert best is not None and best_t is not None
    return TruthTable(tt.n, best), best_t


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
    mask = (1 << rows) - 1
    row_maps = [rm for _, rm in _all_row_maps(n)]
    function_class = [-1] * (1 << rows)
    classes: list[NpnClass] = []
    for bits in range(1 << rows):
        if function_class[bits] >= 0:
            continue
        orbit = set()
        for rm in row_maps:
            mapped = 0
            for b in range(rows):
                mapped |= ((bits >> rm[b]) & 1) << b
            orbit.add(mapped)
            orbit.add(mapped ^ mask)
        index = len(classes)
        for member in orbit:
            function_class[member] = index
        classes.append(NpnClass(TruthTable(n, bits), index, len(orbit)))
    return NpnClassTable(classes, function_class)
