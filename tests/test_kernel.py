"""The antichain kernel against a reference kept here that splits on the
first bit and recurses: the bisect queries, and the run merges behind
normalize, union, intersect and complement.  The count-only measure query
is checked against the measure of the built intersection."""

import sys

from hypothesis import given
from hypothesis import strategies as st

import divmart
from divmart import kernel


@st.composite
def raw_cylinders(draw, max_len=9):
    n = draw(st.integers(min_value=0, max_value=max_len))
    v = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) if n else 0
    return (n, v)


cylinder_lists = st.lists(raw_cylinders(), max_size=8)
antichains = cylinder_lists.map(kernel.normalize)
# query cylinders reach past the deepest member as well as stopping above it
queries = raw_cylinders(max_len=11)


def _split(a):
    a0, a1 = [], []
    for n, v in a:
        m = n - 1
        tail = (m, v & ((1 << m) - 1))
        (a1 if (v >> m) & 1 else a0).append(tail)
    return tuple(a0), tuple(a1)


def _join(r0, r1):
    if r0 == r1 == kernel.FULL:
        return kernel.FULL
    out = [(n + 1, v) for n, v in r0] + [(n + 1, (1 << n) | v) for n, v in r1]
    return tuple(sorted(out))


def ref_intersect(a, b):
    if not a or not b:
        return kernel.EMPTY
    if a == kernel.FULL:
        return b
    if b == kernel.FULL:
        return a
    (a0, a1), (b0, b1) = _split(a), _split(b)
    return _join(ref_intersect(a0, b0), ref_intersect(a1, b1))


def ref_union(a, b):
    if a == kernel.FULL or b == kernel.FULL:
        return kernel.FULL
    if not a or not b:
        return a or b
    (a0, a1), (b0, b1) = _split(a), _split(b)
    return _join(ref_union(a0, b0), ref_union(a1, b1))


def ref_complement(a):
    if not a:
        return kernel.FULL
    if a == kernel.FULL:
        return kernel.EMPTY
    a0, a1 = _split(a)
    return _join(ref_complement(a0), ref_complement(a1))


def ref_normalize(items):
    if not items:
        return kernel.EMPTY
    if any(n == 0 for n, _ in items):
        return kernel.FULL
    i0, i1 = _split(items)
    return _join(ref_normalize(list(i0)), ref_normalize(list(i1)))


def ref_covers(a, n, v):
    if a == kernel.FULL:
        return True
    if not a or n == 0:
        return False
    m = n - 1
    a0, a1 = _split(a)
    return ref_covers(a1 if (v >> m) & 1 else a0, m, v & ((1 << m) - 1))


def ref_meets(a, n, v):
    if not a:
        return False
    if a == kernel.FULL or n == 0:
        return True
    m = n - 1
    a0, a1 = _split(a)
    return ref_meets(a1 if (v >> m) & 1 else a0, m, v & ((1 << m) - 1))


def _check_queries(a, c):
    n, v = c
    expected = ref_intersect(a, (c,))
    assert kernel.intersect(a, (c,)) == expected
    assert kernel.intersect((c,), a) == expected
    assert kernel.normalize(expected) == expected
    assert kernel.covers(a, n, v) == ref_covers(a, n, v)
    assert kernel.meets(a, n, v) == ref_meets(a, n, v)
    assert kernel.measure_intersect(a, n, v) == kernel.measure(expected)


def _check_algebra(raw, a, b):
    assert kernel.normalize(raw) == ref_normalize(raw)
    u, i = ref_union(a, b), ref_intersect(a, b)
    assert kernel.union(a, b) == kernel.union(b, a) == u
    assert kernel.intersect(a, b) == kernel.intersect(b, a) == i
    assert kernel.complement(a) == ref_complement(a)


def test_kernel_names():
    assert divmart.KERNEL_NAME == kernel.KERNEL_NAME == "python"
    assert kernel.normalize([(2, 1), (2, 0)]) == ((1, 0),)


@given(antichains, queries)
def test_cylinder_queries_match_the_recursion(a, c):
    _check_queries(a, c)
    _check_queries(a, (0, 0))  # the whole space: every run of every length
    # the edge cases: a member itself, its parent and one of its children
    for n, v in a[:3]:
        _check_queries(a, (n, v))
        if n:
            _check_queries(a, (n - 1, v >> 1))
        _check_queries(a, (n + 1, 2 * v + 1))


@given(cylinder_lists, antichains)
def test_set_algebra_matches_the_recursion(raw, b):
    a = ref_normalize(raw)
    _check_algebra(raw, a, b)
    _check_algebra(raw, a, kernel.EMPTY)
    _check_algebra(raw, a, kernel.FULL)
    _check_algebra(raw, a, a)
    _check_algebra(raw, a, ref_complement(a))


@given(antichains, antichains, queries, st.integers(min_value=0, max_value=80))
def test_deep_values(a, b, c, cut):
    # Values exceed machine words past depth 63: shift everything under a
    # path of 80 zeros and query at every length along it.
    shifted = tuple((n + 80, v << 80) for n, v in a)
    assert kernel.normalize(shifted) == shifted
    n, v = c
    _check_queries(shifted, (n + 80, v << 80))
    _check_queries(shifted, (cut, 0))
    _check_queries(shifted, (cut + 1, 1))
    # the set algebra on the same shifted values, against a second shifted
    # set and against one whose members leave the 80-zero path at depth cut
    other = tuple((n + 80, v << 80) for n, v in b)
    off = ((cut + 1, 1),) + shifted
    _check_algebra(list(off), shifted, other)
    _check_algebra(list(off), ref_normalize(list(off)), shifted)


def test_ops_on_cylinders_deeper_than_the_recursion_limit():
    # A 1,200-bit cylinder 0^n, its sibling and its nephew 0^(n-2)10, deeper
    # than the recursion limit: an op that recursed per bit would overflow.
    n = 1200
    assert n > sys.getrecursionlimit()
    deep = ((n, 0),)
    raw = [(n, 0), (n, 1), (n, 2)]
    trio = kernel.normalize(raw)
    assert trio == ((n - 1, 0), (n, 2))
    other = kernel.normalize([(n, 1), (n, 2), (n, 5)])
    comp = kernel.complement(deep)
    # the complement of N_(0^n) is one cylinder 0^i 1 for each i < n
    assert comp == tuple((i + 1, 1) for i in range(n))
    assert kernel.complement(comp) == deep
    assert kernel.union(comp, deep) == kernel.FULL
    assert kernel.intersect(comp, trio) == ((n, 1), (n, 2))
    # the reference needs a stack deeper than the bit length
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * n)
    try:
        _check_algebra(raw, trio, other)
        _check_algebra(raw + [(1, 1)], deep, comp)
    finally:
        sys.setrecursionlimit(limit)


def test_recursion_stays_behind_the_public_names(monkeypatch):
    # A wrapper around a public op must see one call per outside call.
    calls = []
    for op in ("normalize", "union", "intersect", "complement", "covers", "meets",
               "measure_intersect"):
        raw = getattr(kernel, op)
        monkeypatch.setattr(
            kernel, op, lambda *args, _op=op, _raw=raw: calls.append(_op) or _raw(*args)
        )
    a = kernel.normalize([(3, 1), (4, 9), (5, 30), (2, 3)])
    b = kernel.normalize([(2, 0), (6, 40)])
    kernel.union(a, b)
    kernel.intersect(a, b)
    kernel.intersect(a, ((4, 9),))
    kernel.complement(a)
    kernel.covers(a, 5, 19)
    kernel.meets(a, 1, 0)
    kernel.measure_intersect(a, 2, 1)
    assert calls == ["normalize", "normalize", "union", "intersect", "intersect",
                     "complement", "covers", "meets", "measure_intersect"]
