"""Antichain kernel: the exact cylinder algebra behind every clopen set.

A clopen subset of Cantor space is a finite union of cylinders; the kernel
works on its *canonical antichain*: a tuple of (length, value) pairs, sorted
breadth-first, prefix-free, and with every sibling pair merged into the
parent.  Values are big-endian ints (bit 0 of the string is the most
significant bit), and may be arbitrarily large — cylinder depths in the
hundreds occur routinely, so values never fit machine words.

``FULL`` is the single empty-string cylinder; the empty tuple is the empty
set.  All ops take and return canonical tuples.

Queries against one cylinder (n, v) bisect.  Sorted breadth-first, the
members of one length m that meet the cylinder form a contiguous slice: the
single member holding it when m <= n, the members inside it when m > n.
One walk, `locate`, visits the distinct lengths of the antichain and finds
each slice by bisection; it returns the index of the holding member or the
index slices of the members inside.  `covers` and `meets` read their answer
off that walk (siblings are merged, so only a holding member covers a
cylinder).  `intersect` with a one-cylinder argument concatenates the
slices: the members inside a cylinder are already canonical.
`measure_intersect` only counts them: λ(a ∩ N_(n,v)) comes back as
(num, exp) without building the intersection.  Separator levels in
`fine.py` use `locate` on their own index of gaps.

`normalize`, `union`, `complement` and the general `intersect` read their
arguments left to right, as points of the interval [0, 1): with L the
length of the deepest member, the cylinder (n, v) is the integer interval
[v·2^(L−n), (v+1)·2^(L−n)) in units of 2^-L.  Sorting these intervals and
merging the overlapping or touching ones gives sorted, disjoint runs.  A
union is the merge of both arguments' intervals, an intersection a
two-pointer walk over both lists of runs, and a complement the gaps between
the runs of [0, 2^L).  One helper turns runs back into the canonical tuple:
the maximal cylinders inside a run are its maximal aligned blocks, found
greedily from the left.  No op recurses, so the cost is the number of
members times the cost of one L-bit integer operation, at any depth.

Public ops never call each other, only private helpers, so a wrapper put
around a public op (a tracer, say) sees each outside call once.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence, Tuple

Cyl = Tuple[int, int]
Antichain = Tuple[Cyl, ...]

FULL: Antichain = ((0, 0),)
EMPTY: Antichain = ()

KERNEL_NAME = "python"


def _locate(a: Antichain, n: int, v: int) -> tuple:
    """Where the cylinder (n, v) sits in a, by a bisect walk over the
    distinct lengths m of a: (i, None) when the member a[i] (length m <= n)
    holds it, else (None, slices) with the (lo, hi) index slices, one per
    length m > n in increasing order, of the members inside it."""
    if len(a) == 1:  # most queries meet one cylinder with another
        m, u = a[0]
        if m <= n:
            return (0, None) if v >> (n - m) == u else (None, ())
        return (None, ((0, 1),)) if u >> (m - n) == v else (None, ())
    slices = []
    i = 0
    end = len(a)
    while i < end:
        m = a[i][0]
        if m <= n:
            holder = (m, v >> (n - m))
            i = bisect_left(a, holder, i)
            if i < end and a[i] == holder:
                return i, None
        else:
            lo = bisect_left(a, (m, v << (m - n)), i)
            i = bisect_left(a, (m, (v + 1) << (m - n)), lo)
            if i > lo:
                slices.append((lo, i))
        i = bisect_left(a, (m + 1,), i)
    return None, slices


# The walk is public under this name for indexes kept outside the kernel
# (the gaps of a separator level); the ops below call `_locate` itself.
locate = _locate


def _restrict(a: Antichain, n: int, v: int) -> Antichain:
    """a ∩ N_(n,v): the cylinder itself when a member holds it, else the
    members inside it."""
    holder, slices = _locate(a, n, v)
    if holder is not None:
        return ((n, v),)
    if len(slices) == 1:
        lo, hi = slices[0]
        return a[lo:hi]
    out = []
    for lo, hi in slices:
        out += a[lo:hi]
    return tuple(out)


def _runs(cyls: Iterable[Cyl], depth: int) -> list[list[int]]:
    """The points the cylinders cover, as sorted, disjoint, non-adjacent runs
    [lo, hi) in units of 2^-depth (depth at least every cylinder's length)."""
    runs: list[list[int]] = []
    for lo, hi in sorted((v << (depth - n), (v + 1) << (depth - n)) for n, v in cyls):
        if runs and lo <= runs[-1][1]:
            if hi > runs[-1][1]:
                runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    return runs


def _antichain(runs: Iterable[Sequence[int]], depth: int) -> Antichain:
    """The canonical antichain of disjoint, non-adjacent runs in units of
    2^-depth: each run splits greedily into maximal aligned blocks, a block
    at lo of size 2^min(trailing zeros of lo, ⌊log₂(hi − lo)⌋)."""
    out = []
    for lo, hi in runs:
        while lo < hi:
            k = (hi - lo).bit_length() - 1
            if lo:
                k = min(k, (lo & -lo).bit_length() - 1)
            out.append((depth - k, lo >> k))
            lo += 1 << k
    out.sort()
    return tuple(out)


def _canonical(cyls: list[Cyl]) -> Antichain:
    depth = max((n for n, _ in cyls), default=0)
    return _antichain(_runs(cyls, depth), depth)


def normalize(cyls: Iterable[Cyl]) -> Antichain:
    """Canonicalize an arbitrary iterable of cylinders (drop covered ones,
    merge sibling pairs, sort breadth-first)."""
    return _canonical(list(cyls))


def union(a: Antichain, b: Antichain) -> Antichain:
    return _canonical(a + b)


def intersect(a: Antichain, b: Antichain) -> Antichain:
    if len(b) == 1:
        return _restrict(a, *b[0])
    if len(a) == 1:
        return _restrict(b, *a[0])
    depth = max(a[-1][0] if a else 0, b[-1][0] if b else 0)
    ra = _runs(a, depth)
    rb = _runs(b, depth)
    out = []
    i = j = 0
    while i < len(ra) and j < len(rb):
        (alo, ahi), (blo, bhi) = ra[i], rb[j]
        lo = max(alo, blo)
        hi = min(ahi, bhi)
        if lo < hi:
            out.append((lo, hi))
        if ahi < bhi:
            i += 1
        else:
            j += 1
    return _antichain(out, depth)


def complement(a: Antichain) -> Antichain:
    depth = a[-1][0] if a else 0
    gaps = []
    prev = 0
    for lo, hi in _runs(a, depth):
        if lo > prev:
            gaps.append((prev, lo))
        prev = hi
    if prev < 1 << depth:
        gaps.append((prev, 1 << depth))
    return _antichain(gaps, depth)


def measure_intersect(a: Antichain, n: int, v: int) -> Cyl:
    """Measure of a ∩ N_(n,v) as an unreduced pair (numerator, exponent),
    equal to measure(intersect(a, ((n, v),))) but counted slice by slice
    instead of copied into a tuple."""
    holder, slices = _locate(a, n, v)
    if holder is not None:
        return (1, n)
    num = 0
    e = 0
    for lo, hi in slices:
        m = a[lo][0]
        num = (num << (m - e)) + (hi - lo)
        e = m
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
    """Is the cylinder (n, v) entirely inside the set?  Siblings are merged,
    so only a member holding it can cover it."""
    return _locate(a, n, v)[0] is not None


def meets(a: Antichain, n: int, v: int) -> bool:
    """Does the cylinder (n, v) intersect the set?"""
    holder, slices = _locate(a, n, v)
    return holder is not None or bool(slices)


def max_len(a: Antichain) -> int:
    return a[-1][0] if a else 0
