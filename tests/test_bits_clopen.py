"""Bit strings, points, and the clopen-set algebra.

The clopen oracle is brute enumeration: a set is pinned down by which
length-L strings it meets/covers, so every algebraic op is checked against
plain Python set operations on string extensions.
"""

from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from divmart.bits import BitString, Point
from divmart.clopen import ClopenSet
from divmart.dyadic import Dyadic
from divmart.errors import ParseError

# ---------------------------------------------------------------------------
# oracle helpers


def extensions(c: ClopenSet, depth: int) -> set:
    """All length-`depth` strings whose cylinder lies inside the set."""
    out = set()
    for v in range(1 << depth):
        s = format(v, f"0{depth}b") if depth else ""
        if any(str(t) == s[: len(t)] for t in c.cylinders):
            out.add(s)
    return out


bitstrings = st.text(alphabet="01", max_size=7)
cylinder_lists = st.lists(bitstrings, max_size=6)


# ---------------------------------------------------------------------------
# BitString / Point


def test_bitstring_basics():
    s = BitString("0110")
    assert len(s) == 4
    assert str(s) == "0110"
    assert s.child(1) == BitString("01101")
    assert s.prefix(2) == BitString("01")
    assert BitString("01").is_prefix_of(s)
    assert not BitString("10").is_prefix_of(s)
    assert BitString("") < BitString("0") < BitString("1") < BitString("00")


def test_bitstring_errors():
    with pytest.raises(ParseError):
        BitString("0a1")
    with pytest.raises(ValueError):
        BitString("01").prefix(3)


def test_point_parsing():
    p = Point.parse("01(10)")
    assert str(p) == "01(10)"
    assert [bit_at(p, i) for i in range(8)] == [0, 1, 1, 0, 1, 0, 1, 0]
    assert p.prefix(5) == BitString("01101")
    assert p.starts_with(BitString("011"))
    for bad in ["", "01", "()", "01()", "2(0)", "(01"]:
        with pytest.raises(ParseError):
            Point.parse(bad)


def test_point_semantic_equality():
    # 0(10) and 01(01) denote the same sequence 0,1,0,1,...
    a = Point.parse("0(10)")
    b = Point.parse("01(01)")
    assert a != b  # structural
    assert a.first_difference(b) is None
    c = Point.parse("0(01)")
    assert a.first_difference(c) == 1


# Bit-by-bit references for the closed forms in Point.


def bit_at(p: Point, i: int) -> int:
    """Bit i of the point: from the preamble, else from the period."""
    n = len(p.prefix_bits)
    s, j = (p.prefix_bits, i) if i < n else (p.period_bits, (i - n) % len(p.period_bits))
    return (s.v >> (len(s) - 1 - j)) & 1


def prefix_reference(p: Point, l: int) -> BitString:
    v = 0
    for i in range(l):
        v = (v << 1) | bit_at(p, i)
    return BitString.raw(l, v)


def first_difference_reference(a: Point, b: Point):
    bound = max(len(a.prefix_bits), len(b.prefix_bits)) + lcm(
        len(a.period_bits), len(b.period_bits)
    )
    for i in range(bound):
        if bit_at(a, i) != bit_at(b, i):
            return i
    return None


points = st.builds(
    lambda pre, per: Point.parse(f"{pre}({per})"),
    st.text(alphabet="01", max_size=12),
    st.text(alphabet="01", min_size=1, max_size=12),
)


@given(points, st.integers(min_value=0, max_value=200))
def test_point_prefix_matches_bit_at(p, l):
    assert p.prefix(l) == prefix_reference(p, l)
    assert p.starts_with(prefix_reference(p, l))


@given(points, points)
def test_point_comparison_matches_bit_at(a, b):
    d = first_difference_reference(a, b)
    assert a.first_difference(b) == d
    assert b.first_difference(a) == d
    assert a.first_difference(a) is None


@given(points, st.integers(min_value=1, max_value=40))
def test_point_comparison_with_a_long_common_prefix(p, k):
    # The same sequence with k more bits unrolled into the preamble, then
    # the same with the last preamble bit flipped.
    n, per = len(p.prefix_bits) + k, len(p.period_bits)
    rotated = BitString.raw(per, prefix_reference(p, n + per).v & ((1 << per) - 1))
    unrolled = Point(prefix_reference(p, n), rotated)
    assert p.first_difference(unrolled) is None
    flipped = Point(BitString.raw(n, unrolled.prefix_bits.v ^ 1), rotated)
    assert p.first_difference(flipped) == n - 1
    assert first_difference_reference(p, flipped) == n - 1


# ---------------------------------------------------------------------------
# ClopenSet golden values


def test_normalization_merges_siblings():
    c = ClopenSet.from_strings(["00", "01"])
    assert c.cylinders == (BitString("0"),)
    full = ClopenSet.from_strings(["0", "10", "11"])
    assert full.is_full


def test_normalization_drops_covered():
    c = ClopenSet.from_strings(["0", "01", "0110"])
    assert c.cylinders == (BitString("0"),)


def test_complement_golden():
    c = ClopenSet.from_strings(["00"])
    assert c.complement() == ClopenSet.from_strings(["01", "1"])
    assert ClopenSet.full().complement().is_empty
    assert ClopenSet.empty().complement().is_full


def test_measure_golden():
    assert ClopenSet.from_strings(["0", "10"]).measure == Dyadic(3, 2)
    assert ClopenSet.full().measure == 1
    assert ClopenSet.empty().measure == 0
    assert ClopenSet.from_strings(["0110"]).measure == Dyadic(1, 4)


def test_even_zeros_stage3_oracle():
    # All length-6 cylinders with bits 0, 2, 4 equal to zero; by direct
    # enumeration exactly 8 of the 64 length-6 strings qualify.
    qualifying = [
        format(v, "06b")
        for v in range(64)
        if format(v, "06b")[0] == "0"
        and format(v, "06b")[2] == "0"
        and format(v, "06b")[4] == "0"
    ]
    assert len(qualifying) == 8
    c = ClopenSet.from_strings(qualifying)
    assert c.measure == Dyadic(1, 3)


def test_measure_in_and_density():
    c = ClopenSet.from_strings(["00", "1"])
    assert c.measure_in(BitString("0")) == Dyadic(1, 2)
    assert c.measure_in(BitString("00")) == Dyadic(1, 2)
    assert c.measure_in(BitString("01")) == 0
    assert c.measure_in(BitString("1")) == Dyadic(1, 1)


def test_point_queries():
    c = ClopenSet.from_strings(["00", "1"])
    assert c.contains_point(Point.parse("(0)"))
    assert c.contains_point(Point.parse("(1)"))
    assert not c.contains_point(Point.parse("01(0)"))
    assert c.cylinder_containing(Point.parse("(0)")) == BitString("00")
    assert c.cylinder_containing(Point.parse("01(0)")) is None


def test_subset_and_minus():
    a = ClopenSet.from_strings(["00"])
    b = ClopenSet.from_strings(["0"])
    assert a.is_subset_of(b)
    assert not b.is_subset_of(a)
    assert b.intersect(a.complement()) == ClopenSet.from_strings(["01"])


# ---------------------------------------------------------------------------
# ClopenSet properties against the enumeration oracle


@given(cylinder_lists)
def test_membership_matches_input(strings):
    c = ClopenSet.from_strings(strings)
    got = extensions(c, 7)
    want = set()
    for v in range(1 << 7):
        s = format(v, "07b")
        if any(s.startswith(t) for t in strings):
            want.add(s)
    assert got == want


@given(cylinder_lists, cylinder_lists)
def test_union_intersect_oracle(xs, ys):
    a, b = ClopenSet.from_strings(xs), ClopenSet.from_strings(ys)
    ea, eb = extensions(a, 7), extensions(b, 7)
    assert extensions(a.union(b), 7) == ea | eb
    assert extensions(a.intersect(b), 7) == ea & eb
    assert extensions(a.intersect(b.complement()), 7) == ea - eb
    # One-cylinder answers, summed over b's cylinders.
    pairs = (a.measure_pair_in(c.n, c.v) for c in b.cylinders)
    assert sum((Dyadic(*pair) for pair in pairs), Dyadic.zero()) == Dyadic(len(ea & eb), 7)


@given(cylinder_lists)
def test_complement_oracle(xs):
    a = ClopenSet.from_strings(xs)
    alls = {format(v, "07b") for v in range(1 << 7)}
    assert extensions(a.complement(), 7) == alls - extensions(a, 7)
    assert a.complement().complement() == a


@given(cylinder_lists)
def test_measure_is_density_at_depth(xs):
    a = ClopenSet.from_strings(xs)
    assert a.measure == Dyadic(len(extensions(a, 7)), 7)


@given(cylinder_lists, bitstrings)
def test_meets_covers_oracle(xs, t):
    a = ClopenSet.from_strings(xs)
    ts = BitString(t)
    ext_t = {format(v, "07b") for v in range(1 << 7) if format(v, "07b").startswith(t)}
    ea = extensions(a, 7)
    assert a.meets(ts) == bool(ext_t & ea)
    assert a.covers(ts) == (ext_t <= ea)
    assert a.measure_in(ts) == Dyadic(len(ext_t & ea), 7)


# ---------------------------------------------------------------------------
# Point queries against the scans they replace.


def cylinder_containing_reference(c: ClopenSet, beta: Point):
    """The member holding beta, by a scan over the members."""
    for t in c.cylinders:
        if beta.starts_with(t):
            return t
    return None


def refutation_depth_reference(c: ClopenSet, beta: Point) -> int:
    """The least l with N_{beta|l} outside the set, by a scan over l."""
    for l in range(c.max_len() + 1):
        if not c.meets(beta.prefix(l)):
            return l
    raise ValueError("point is inside the set")


@given(cylinder_lists, points)
def test_cylinder_containing_matches_the_member_scan(xs, beta):
    c = ClopenSet.from_strings(xs)
    want = cylinder_containing_reference(c, beta)
    assert c.cylinder_containing(beta) == want
    assert (want is not None) == c.contains_point(beta)


@given(cylinder_lists, points)
def test_refutation_depth_matches_the_length_scan(xs, beta):
    c = ClopenSet.from_strings(xs)
    if c.contains_point(beta):
        for f in (c.refutation_depth, lambda b: refutation_depth_reference(c, b)):
            with pytest.raises(ValueError, match="point is inside the set"):
                f(beta)
    else:
        assert c.refutation_depth(beta) == refutation_depth_reference(c, beta)


def test_point_queries_on_a_deep_antichain():
    # The complement of N_(0^512): 512 members of 512 lengths.
    c = ClopenSet.cylinder(BitString.raw(512, 0)).complement()
    beta = Point.parse("0" * 300 + "1(0)")
    assert c.cylinder_containing(beta) == BitString("0" * 300 + "1")
    zeros = Point.parse("(0)")
    assert c.refutation_depth(zeros) == refutation_depth_reference(c, zeros) == 512
