"""Packed truth tables for Boolean functions of up to 6 variables.

A function of n variables is stored as a single 2^n-bit integer.  Bit b of
the integer is the output on the input row where variable x_i takes value
(b >> i) & 1, i.e. x_0 is the least significant bit of the row index.  This
convention is fixed here and used unchanged by every other module, including
AIGER export.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

MAX_VARS = 6
_HEX_DIGITS = re.compile("[0-9a-fA-F]+")


def _check_var_count(n: int) -> None:
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"variable count must be in 1..{MAX_VARS}, got {n}")


@dataclass(frozen=True, slots=True)
class TruthTable:
    """A Boolean function of ``n`` variables as a packed 2^n-bit value."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_var_count(self.n)
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError(
                f"bit pattern 0x{self.bits:x} does not fit in {1 << self.n} rows"
            )

    @property
    def rows(self) -> int:
        return 1 << self.n

    @property
    def mask(self) -> int:
        """All-ones pattern over the table's 2^n rows."""
        return (1 << (1 << self.n)) - 1

    def eval(self, a: Assignment) -> int:
        """Output bit on the given input assignment."""
        if a.n != self.n:
            raise ValueError(f"arity mismatch: table has n={self.n}, assignment n={a.n}")
        return (self.bits >> a.values) & 1

    def flip_bit(self, index: int) -> TruthTable:
        """Table differing from this one at exactly one row (an involution)."""
        if not 0 <= index < self.rows:
            raise ValueError(f"row index {index} out of range for n={self.n}")
        return TruthTable(self.n, self.bits ^ (1 << index))

    def hamming(self, other: TruthTable) -> int:
        """Number of rows where the two tables disagree."""
        if other.n != self.n:
            raise ValueError(f"arity mismatch: n={self.n} vs n={other.n}")
        return (self.bits ^ other.bits).bit_count()

    def complement(self) -> TruthTable:
        return TruthTable(self.n, self.bits ^ self.mask)

    def hex(self) -> str:
        """Canonical hex spelling: 0x prefix, lowercase, zero-padded."""
        return format_hex(self.bits, self.n)

    def __str__(self) -> str:
        return self.hex()


@dataclass(frozen=True, slots=True)
class Assignment:
    """One input row: bit i of ``values`` is the value of x_i."""

    n: int
    values: int

    def __post_init__(self) -> None:
        _check_var_count(self.n)
        if not 0 <= self.values < (1 << self.n):
            raise ValueError(f"assignment 0b{self.values:b} does not fit in {self.n} bits")

    def bit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range for n={self.n}")
        return (self.values >> i) & 1


def hex_digits(n: int) -> int:
    """Digits needed to spell a 2^n-bit pattern (at least one)."""
    return max(1, (1 << n) // 4)


def format_hex(bits: int, n: int) -> str:
    return f"0x{bits:0{hex_digits(n)}x}"


def parse_hex(text: str, n: int) -> TruthTable:
    """Parse a truth table from hex text, with or without the 0x prefix.

    The most significant hex digit covers the highest row indices, matching
    the usual 0x0001 / 0x0180 naming of 4-variable functions.
    """
    _check_var_count(n)
    body = text.strip()
    if body.lower().startswith("0x"):
        body = body[2:]
    if not body:
        raise ValueError(f"empty hex literal {text!r}")
    # int(body, 16) alone would also take a sign, inner spaces and underscores.
    if not _HEX_DIGITS.fullmatch(body):
        raise ValueError(f"malformed hex literal {text!r}")
    bits = int(body, 16)
    if bits >= (1 << (1 << n)):
        raise ValueError(f"value {text!r} exceeds {1 << n} bits (n={n})")
    return TruthTable(n, bits)


# A call that raises is not cached, so every bad call is checked; the valid
# calls are at most 21.
@lru_cache(maxsize=None)
def var_table(n: int, i: int) -> TruthTable:
    """Truth table of the bare variable x_i (the projection function)."""
    _check_var_count(n)
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range for n={n}")
    # All ones over 2^n rows divided by 2^(2^i) + 1 gives blocks of 2^i ones
    # every 2^(i+1) rows; shifted up by 2^i they read x_i.
    mask = (1 << (1 << n)) - 1
    return TruthTable(n, mask // ((1 << (1 << i)) + 1) << (1 << i))
