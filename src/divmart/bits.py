"""Finite binary strings and eventually-periodic points of Cantor space.

A ``BitString`` is stored as (length, value) with the value read big-endian:
bit 0 is the most significant bit of ``value``.  This makes prefix tests a
shift-and-compare and keeps the antichain kernel working on machine-friendly
pairs instead of character strings.

A ``Point`` is an eventually periodic element of 2^omega written
``prefix(period)``, e.g. ``"01(10)"`` for 0110101010...  Two syntactically
different points can denote the same sequence; ``first_difference`` is None
exactly when they do (decidable for this class), while ``==`` is structural.
"""

from __future__ import annotations

import re
from math import lcm
from typing import Optional

from .errors import ParseError


class BitString:
    __slots__ = ("n", "v")

    n: int  # length
    v: int  # bits, big-endian: bit i is (v >> (n-1-i)) & 1

    def __init__(self, bits: str = "") -> None:
        if bits and set(bits) - {"0", "1"}:
            raise ParseError(f"bad bit-string {bits!r}")
        self.n = len(bits)
        self.v = int(bits, 2) if bits else 0

    @staticmethod
    def raw(n: int, v: int) -> "BitString":
        s = BitString.__new__(BitString)
        s.n = n
        s.v = v
        return s

    def __len__(self) -> int:
        return self.n

    def child(self, b: int) -> "BitString":
        return BitString.raw(self.n + 1, (self.v << 1) | b)

    def prefix(self, l: int) -> "BitString":
        if not 0 <= l <= self.n:
            raise ValueError(f"prefix length {l} out of range")
        return BitString.raw(l, self.v >> (self.n - l))

    def is_prefix_of(self, other: "BitString") -> bool:
        return self.n <= other.n and (other.v >> (other.n - self.n)) == self.v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.n == other.n and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.n, self.v))

    def __lt__(self, other: "BitString") -> bool:
        # breadth-first order: by length, then numerically
        return (self.n, self.v) < (other.n, other.v)

    def __le__(self, other: "BitString") -> bool:
        return (self.n, self.v) <= (other.n, other.v)

    def __str__(self) -> str:
        return format(self.v, f"0{self.n}b") if self.n else ""

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"


EMPTY = BitString("")

_POINT_RE = re.compile(r"([01]*)\(([01]+)\)")


class Point:
    """Eventually periodic point: ``prefix`` then ``period`` forever."""

    __slots__ = ("prefix_bits", "period_bits")

    def __init__(self, prefix_bits: BitString, period_bits: BitString) -> None:
        if len(period_bits) == 0:
            raise ParseError("point period must be nonempty")
        self.prefix_bits = prefix_bits
        self.period_bits = period_bits

    @staticmethod
    def parse(text: str) -> "Point":
        m = _POINT_RE.fullmatch(text)
        if m is None:
            raise ParseError(
                f"bad point syntax {text!r}: expected prefix(period), e.g. '01(10)'"
            )
        return Point(BitString(m.group(1)), BitString(m.group(2)))

    def prefix(self, l: int) -> BitString:
        # Preamble shifted into place, then q whole periods (a geometric
        # series in 2^P: per * (2^(P*q) - 1) / (2^P - 1)), then the top r
        # bits of the period.
        pre, per = self.prefix_bits, self.period_bits
        if l <= pre.n:
            return BitString.raw(l, pre.v >> (pre.n - l))
        k = l - pre.n
        q, r = divmod(k, per.n)
        repeated = per.v * (((1 << (per.n * q)) - 1) // ((1 << per.n) - 1))
        tail = per.v >> (per.n - r)
        return BitString.raw(l, (pre.v << k) | (repeated << r) | tail)

    def starts_with(self, t: BitString) -> bool:
        return self.prefix(len(t)) == t

    def _agreement_bound(self, other: "Point") -> int:
        # Two eventually periodic sequences agree everywhere iff they agree
        # up to the longer preamble plus one common period.
        return max(len(self.prefix_bits), len(other.prefix_bits)) + lcm(
            len(self.period_bits), len(other.period_bits)
        )

    def first_difference(self, other: "Point") -> Optional[int]:
        """Least index where the sequences differ, or None if equal."""
        bound = self._agreement_bound(other)
        diff = self.prefix(bound).v ^ other.prefix(bound).v
        return None if diff == 0 else bound - diff.bit_length()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return (
            self.prefix_bits == other.prefix_bits
            and self.period_bits == other.period_bits
        )

    def __hash__(self) -> int:
        return hash((self.prefix_bits, self.period_bits))

    def __str__(self) -> str:
        return f"{self.prefix_bits}({self.period_bits})"

    def __repr__(self) -> str:
        return f"Point.parse({str(self)!r})"
