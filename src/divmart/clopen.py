"""Clopen subsets of Cantor space as canonical cylinder antichains.

Canonical form is what makes syntactic equality semantic: two ClopenSets
denote the same set iff their antichains are equal, and the breadth-first
ordering doubles as the deterministic enumeration order used everywhere
(witness lists, decompositions, serialization).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from . import kernel
from .bits import BitString, Point
from .dyadic import Dyadic


class ClopenSet:
    __slots__ = ("_ac",)

    def __init__(self, ac: tuple) -> None:
        # Private: callers go through the classmethods or set ops.
        self._ac = ac

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_cylinders(cyls: Iterable[BitString]) -> "ClopenSet":
        return ClopenSet(kernel.normalize([(c.n, c.v) for c in cyls]))

    @staticmethod
    def from_strings(strings: Iterable[str]) -> "ClopenSet":
        return ClopenSet.from_cylinders(BitString(s) for s in strings)

    @staticmethod
    def full() -> "ClopenSet":
        return ClopenSet(kernel.FULL)

    @staticmethod
    def empty() -> "ClopenSet":
        return ClopenSet(kernel.EMPTY)

    @staticmethod
    def cylinder(t: BitString) -> "ClopenSet":
        return ClopenSet(((t.n, t.v),))

    # -- structure -----------------------------------------------------

    @property
    def cylinders(self) -> tuple[BitString, ...]:
        """Canonical antichain in breadth-first order."""
        return tuple(BitString.raw(n, v) for n, v in self._ac)

    def __len__(self) -> int:
        return len(self._ac)

    @property
    def is_empty(self) -> bool:
        return not self._ac

    @property
    def is_full(self) -> bool:
        return self._ac == kernel.FULL

    def max_len(self) -> int:
        return kernel.max_len(self._ac)

    # -- algebra ---------------------------------------------------------

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet(kernel.union(self._ac, other._ac))

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet(kernel.intersect(self._ac, other._ac))

    def complement(self) -> "ClopenSet":
        return ClopenSet(kernel.complement(self._ac))

    # -- measure & membership -------------------------------------------

    @property
    def measure(self) -> Dyadic:
        num, exp = kernel.measure(self._ac)
        return Dyadic(num, exp)

    def measure_in(self, t: BitString) -> Dyadic:
        """Measure of the intersection with the cylinder at t (absolute,
        not relative)."""
        num, exp = kernel.measure_intersect(self._ac, t.n, t.v)
        return Dyadic(num, exp)

    def measure_pair_in(self, n: int, v: int) -> tuple[int, int]:
        """λ(self ∩ N_(n,v)) as an unreduced pair (num, exp), the form in
        which separator pieces answer one-cylinder queries."""
        return kernel.measure_intersect(self._ac, n, v)

    def restrict(self, t: BitString) -> "ClopenSet | None":
        """The intersection with N_t, or None when it is empty."""
        c = self.intersect(ClopenSet.cylinder(t))
        return None if c.is_empty else c

    def covers(self, t: BitString) -> bool:
        return kernel.covers(self._ac, t.n, t.v)

    def meets(self, t: BitString) -> bool:
        return kernel.meets(self._ac, t.n, t.v)

    def contains_point(self, beta: Point) -> bool:
        # beta lies in the set iff its prefix at the deepest cylinder length
        # is inside (at that depth "meets" and "is contained" coincide).
        t = beta.prefix(self.max_len())
        return kernel.meets(self._ac, t.n, t.v)

    def cylinder_containing(self, beta: Point) -> BitString | None:
        # At the deepest member length, beta's prefix lies inside the member
        # holding beta, and a member holds it only if it holds beta.
        t = beta.prefix(self.max_len())
        i, _ = kernel.locate(self._ac, t.n, t.v)
        return None if i is None else BitString.raw(*self._ac[i])

    def refutation_depth(self, beta: Point) -> int:
        """Minimal l with N_{beta|l} disjoint from the set, by bisection:
        once N_{beta|l} misses the set, every longer prefix does too.
        Precondition: beta is outside the set."""
        depths = range(self.max_len() + 1)
        l = bisect_left(depths, True, key=lambda l: not self.meets(beta.prefix(l)))
        if l == len(depths):
            raise ValueError("point is inside the set")
        return l

    def sample_cylinders(self, count: int) -> list[BitString]:
        """The first `count` antichain cylinders, breadth-first."""
        return [BitString.raw(n, v) for n, v in self._ac[:count]]

    def cylinder_count(self) -> int:
        return len(self._ac)

    def is_subset_of(self, other: "ClopenSet") -> bool:
        return self.intersect(other.complement()).is_empty

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClopenSet):
            return NotImplemented
        return self._ac == other._ac

    def __hash__(self) -> int:
        return hash(self._ac)

    def __repr__(self) -> str:
        if self.is_full:
            return "ClopenSet.full()"
        return f"ClopenSet.from_strings({[str(c) for c in self.cylinders]!r})"
