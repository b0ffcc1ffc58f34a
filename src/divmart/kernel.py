"""Antichain kernel: the exact cylinder algebra behind every clopen set.

A clopen subset of Cantor space is a finite union of cylinders; the kernel
works on its *canonical antichain*: a tuple of (length, value) pairs, sorted
breadth-first, prefix-free, and with every sibling pair merged into the
parent.  Values are big-endian ints (bit 0 of the string is the most
significant bit), and may be arbitrarily large — cylinder depths in the
hundreds occur routinely, so values never fit machine words.

``FULL`` is the single empty-string cylinder; the empty tuple is the empty
set.  All ops take and return canonical tuples.

Queries against one cylinder (n, v) bisect instead of recursing.  Sorted
breadth-first, the members of one length m that meet the cylinder form a
contiguous run: the single member holding it when m <= n, the members inside
it when m > n.  `covers`, `meets` and `intersect` with a one-cylinder
argument walk the distinct lengths of the antichain and find each run by
bisection.  The members inside a cylinder are already canonical, so the
intersection is their concatenation.  `measure_intersect` walks the same
runs but only counts them: λ(a ∩ N_(n,v)) comes back as (num, exp) without
building the intersection.  `normalize`, `union`, `complement` and the
general `intersect` split on the first bit and recurse.

Recursion goes through private names only, so a wrapper put around a public
op (a tracer, say) sees each outside call once.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Tuple

Cyl = Tuple[int, int]
Antichain = Tuple[Cyl, ...]

FULL: Antichain = ((0, 0),)
EMPTY: Antichain = ()

KERNEL_NAME = "python"


def _split(a: Antichain) -> tuple[Antichain, Antichain]:
    """Split a canonical, non-full, non-empty antichain by first bit."""
    a0 = []
    a1 = []
    for n, v in a:
        m = n - 1
        tail = (m, v & ((1 << m) - 1))
        if (v >> m) & 1:
            a1.append(tail)
        else:
            a0.append(tail)
    return tuple(a0), tuple(a1)


def _join(r0: Antichain, r1: Antichain) -> Antichain:
    """Inverse of _split; merges to FULL when both halves are full."""
    if r0 == FULL and r1 == FULL:
        return FULL
    out = [(n + 1, v) for n, v in r0]
    out += [(n + 1, (1 << n) | v) for n, v in r1]
    out.sort()
    return tuple(out)


def _restrict(a: Antichain, n: int, v: int) -> Antichain:
    """a ∩ N_(n,v) by a bisect walk over the distinct lengths m of a: the
    cylinder itself when a member of length m <= n holds it, else the runs of
    members of each length m > n that lie inside it."""
    if len(a) == 1:  # most queries meet one cylinder with another
        m, u = a[0]
        if m <= n:
            return ((n, v),) if v >> (n - m) == u else EMPTY
        return a if u >> (m - n) == v else EMPTY
    out = []
    i = 0
    end = len(a)
    while i < end:
        m = a[i][0]
        if m <= n:
            holder = (m, v >> (n - m))
            i = bisect_left(a, holder, i)
            if i < end and a[i] == holder:
                return ((n, v),)
        else:
            lo = bisect_left(a, (m, v << (m - n)), i)
            i = bisect_left(a, (m, (v + 1) << (m - n)), lo)
            out += a[lo:i]
        i = bisect_left(a, (m + 1,), i)
    return tuple(out)


def _intersect(a: Antichain, b: Antichain) -> Antichain:
    if not a or not b:
        return EMPTY
    if a == FULL:
        return b
    if b == FULL:
        return a
    a0, a1 = _split(a)
    b0, b1 = _split(b)
    return _join(_intersect(a0, b0), _intersect(a1, b1))


def _union(a: Antichain, b: Antichain) -> Antichain:
    if a == FULL or b == FULL:
        return FULL
    if not a:
        return b
    if not b:
        return a
    a0, a1 = _split(a)
    b0, b1 = _split(b)
    return _join(_union(a0, b0), _union(a1, b1))


def _complement(a: Antichain) -> Antichain:
    if not a:
        return FULL
    if a == FULL:
        return EMPTY
    a0, a1 = _split(a)
    return _join(_complement(a0), _complement(a1))


def _normalize(items: list[Cyl]) -> Antichain:
    if not items:
        return EMPTY
    i0 = []
    i1 = []
    for n, v in items:
        if n == 0:
            return FULL
        m = n - 1
        tail = (m, v & ((1 << m) - 1))
        if (v >> m) & 1:
            i1.append(tail)
        else:
            i0.append(tail)
    return _join(_normalize(i0), _normalize(i1))


def normalize(cyls: Iterable[Cyl]) -> Antichain:
    """Canonicalize an arbitrary iterable of cylinders (drop covered ones,
    merge sibling pairs, sort breadth-first)."""
    return _normalize(list(cyls))


def union(a: Antichain, b: Antichain) -> Antichain:
    return _union(a, b)


def intersect(a: Antichain, b: Antichain) -> Antichain:
    if len(b) == 1:
        return _restrict(a, *b[0])
    if len(a) == 1:
        return _restrict(b, *a[0])
    return _intersect(a, b)


def complement(a: Antichain) -> Antichain:
    return _complement(a)


def measure_intersect(a: Antichain, n: int, v: int) -> Cyl:
    """Measure of a ∩ N_(n,v) as an unreduced pair (numerator, exponent),
    equal to measure(intersect(a, ((n, v),))) but counted run by run
    instead of sliced into a tuple."""
    if len(a) == 1:
        m, u = a[0]
        if m <= n:
            return (1, n) if v >> (n - m) == u else (0, 0)
        return (1, m) if u >> (m - n) == v else (0, 0)
    num = 0
    e = 0
    i = 0
    end = len(a)
    while i < end:
        m = a[i][0]
        if m <= n:
            holder = (m, v >> (n - m))
            i = bisect_left(a, holder, i)
            if i < end and a[i] == holder:
                return (1, n)
        else:
            lo = bisect_left(a, (m, v << (m - n)), i)
            i = bisect_left(a, (m, (v + 1) << (m - n)), lo)
            if i > lo:
                num = (num << (m - e)) + (i - lo)
                e = m
        i = bisect_left(a, (m + 1,), i)
    return (num, e)


def measure(a: Antichain) -> Cyl:
    """Total measure as an unreduced pair (numerator, exponent):
    sum of 2**-n over cylinders equals num / 2**exp."""
    if not a:
        return (0, 0)
    e = a[-1][0]  # sorted breadth-first, so the last length is maximal
    num = 0
    for n, _ in a:
        num += 1 << (e - n)
    return (num, e)


def covers(a: Antichain, n: int, v: int) -> bool:
    """Is the cylinder (n, v) entirely inside the set?"""
    return _restrict(a, n, v) == ((n, v),)


def meets(a: Antichain, n: int, v: int) -> bool:
    """Does the cylinder (n, v) intersect the set?"""
    return bool(_restrict(a, n, v))


def max_len(a: Antichain) -> int:
    return a[-1][0] if a else 0
