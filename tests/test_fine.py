"""Density interpolation, graded separators, and cylinder means.

The interpolation goldens were captured from the implementation and
cross-checked by hand against the defining inequalities: each fill must
secure a (1 - budget(n)) fraction of the ambient open set inside the n-th
complement cylinder, and the result must carry the closed input untouched.
Separator goldens (backbone measures, evaluation ladders, cylinder means)
are frozen so that any drift in the construction order or the measure
arithmetic shows up as an exact mismatch.
"""

import functools
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from divmart import fine, kernel
from divmart.bits import BitString, Point, EMPTY
from divmart.clopen import ClopenSet
from divmart.dyadic import Dyadic
from divmart.errors import HorizonExhausted
from divmart.fine import (
    ClosedPieceSet,
    SeparatorFunction,
    StageComplementChunk,
    StepFunction,
    _fill_stage_index,
    _inner_approx,
    check_interpolation,
    default_budget,
    lusin_menchoff,
    _precision_exponent,
    mean_trace,
    urysohn,
)
from divmart.sets import EvenZeros, ExplicitGDelta, Singleton, parse_rate


def tight_budget(n: int) -> Dyadic:
    return Dyadic(1, n + 2)


# ---------------------------------------------------------------------------
# the interpolation lemma on clopen data


def test_interpolate_full_into_full_is_identity():
    c = lusin_menchoff(ClopenSet.full(), ClopenSet.full())
    assert c.measure == Dyadic.one()
    assert c.gaps == ()
    assert c.contains_point(Point.parse("(10)"))


def test_interpolate_empty_into_half():
    # F = ∅: the complement is the single cylinder ε, and the n = 0 budget
    # is vacuous, so the fill is all of M.
    m = ClopenSet.from_strings(["0"])
    c = lusin_menchoff(ClopenSet.empty(), m)
    assert c.measure == Dyadic(1, 1)
    # One gap, ε, filled with M itself.
    assert c.gaps == ((EMPTY, (m,)),)
    assert c.measure_in(EMPTY) == m.measure_in(EMPTY) == Dyadic(1, 1)
    rep = check_interpolation(c, ClopenSet.empty(), m)
    assert rep.ok


def test_interpolate_clopen_into_target_complement():
    # F = N_1, M = complement of the even-zeros target, tightened budget.
    # The single complement cylinder "0" gets a stage-complement chunk of
    # measure exactly (1 - 1/8)·λ(N_0) = 3/8.
    target = EvenZeros()
    f = target.stage(1).complement()
    m = target  # the open complement of the target
    c = lusin_menchoff(f, m, tight_budget)
    assert type(c) is ClosedPieceSet
    assert c.measure == Dyadic(7, 3)
    [(s, fill)] = c.gaps
    assert s == BitString("0")
    assert [(p.support, p.gdelta, p.k) for p in fill] == [(s, target, 3)]
    assert c.measure_in(s) == Dyadic(3, 3)
    assert c.contains_point(Point.parse("(1)"))
    assert c.contains_point(Point.parse("001(0)"))  # escapes the target
    assert not c.contains_point(Point.parse("(0)"))  # inside the target
    rep = check_interpolation(c, f, m, depth=12, budget=tight_budget)
    assert rep.ok
    assert rep.density_samples == (("1(0)", Dyadic.one()),)


def _refilled(c: ClosedPieceSet, *fills: tuple) -> ClosedPieceSet:
    """The level c with its base and gaps kept and the gaps' fill pieces
    replaced, in breadth-first order."""
    return ClosedPieceSet(base=c._base, gaps=[(s, fill) for (s, _), fill in zip(c.gaps, fills)])


def test_interpolation_check_flags_short_fill():
    # The gap left unfilled: C ∩ N_0 is empty.
    target = EvenZeros()
    f = target.stage(1).complement()
    m = target  # the open complement of the target
    c = _refilled(lusin_menchoff(f, m, tight_budget), ())
    rep = check_interpolation(c, f, m, depth=12, budget=tight_budget)
    assert not rep.ok
    assert not rep.margins_ok
    assert any("fill 0" in msg for msg in rep.failures)


def test_interpolation_check_measures_the_fills_it_is_given():
    # The gap's fill N_0 \ stage(3) (measure 3/8) swapped for the smaller
    # N_01 \ stage(3) (measure 3/16), still inside M.  The check measures C
    # in the gap, so the margin fails and nothing else does.
    target = EvenZeros()
    f = target.stage(1).complement()
    c = lusin_menchoff(f, target, tight_budget)
    smaller = _refilled(c, (StageComplementChunk(BitString("01"), target, 3),))
    assert check_interpolation(c, f, target, depth=12, budget=tight_budget).ok
    rep = check_interpolation(smaller, f, target, depth=12, budget=tight_budget)
    assert rep.f_carried and rep.fills_inside_m and rep.density_ok
    assert not rep.margins_ok
    assert rep.failures == (
        "fill 0 at BitString('0'): measure 3/2^4 < (1-budget)·λ(M∩N_s) = 3/2^3",
    )


def test_interpolation_check_flags_escaping_fill():
    # A forged fill sitting in N_1 cannot pass against M = N_0.
    piece = ClopenSet.from_strings(["1"])
    c = ClosedPieceSet(gaps=[(EMPTY, (piece,))])
    rep = check_interpolation(c, ClopenSet.empty(), ClopenSet.from_strings(["0"]))
    assert not rep.ok
    assert not rep.fills_inside_m
    assert rep.margins_ok


def test_interpolation_check_flags_a_clopen_fill_outside_a_piece_set_m():
    # N_11 weighs no more than M = N_00 in the gap ε, but misses it: a
    # clopen fill is tested for where it lies, not only for its measure.
    c = ClosedPieceSet(gaps=[(EMPTY, (ClopenSet.from_strings(["11"]),))])
    m = ClosedPieceSet.from_clopen(ClopenSet.from_strings(["00"]))
    rep = check_interpolation(c, ClopenSet.empty(), m)
    assert not rep.fills_inside_m
    assert rep.failures == ("fill 0 at BitString('') escapes M",)


def test_interpolation_check_flags_a_chunk_fill_outside_a_piece_set_m():
    # N_11 minus an even-zeros stage weighs no more than M = N_00 in the gap
    # ε, but misses it; the same chunk on N_00 lies inside M.
    m = ClosedPieceSet.from_clopen(ClopenSet.from_strings(["00"]))
    outside = StageComplementChunk(BitString("11"), EvenZeros(), 2)
    inside = StageComplementChunk(BitString("00"), EvenZeros(), 2)
    assert outside._size[0] != 0 and inside._size[0] != 0
    rep = check_interpolation(ClosedPieceSet(gaps=[(EMPTY, (outside,))]), ClopenSet.empty(), m)
    assert not rep.fills_inside_m
    assert rep.failures == ("fill 0 at BitString('') escapes M",)
    assert check_interpolation(ClosedPieceSet(gaps=[(EMPTY, (inside,))]), ClopenSet.empty(), m).ok


def test_interpolation_check_flags_a_chunk_of_another_target():
    # Against M = the complement of even-zeros, only a chunk of that target
    # is inside M by construction; a chunk of another target must miss the
    # target's stages, and N_ε minus N_11 does not.
    chunk = StageComplementChunk(EMPTY, Singleton(Point.parse("(1)")), 2)
    c = ClosedPieceSet(gaps=[(EMPTY, (chunk,))])
    rep = check_interpolation(c, ClopenSet.empty(), EvenZeros())
    assert not rep.fills_inside_m
    assert rep.margins_ok


def test_interpolation_check_flags_missing_f():
    m = ClopenSet.from_strings(["11"])
    c = lusin_menchoff(ClopenSet.from_strings(["1"]), m)
    rep = check_interpolation(c, ClopenSet.from_strings(["0"]), m)
    assert not rep.ok
    assert not rep.f_carried
    assert any("missing" in msg for msg in rep.failures)


def test_interpolation_check_flags_a_piece_of_a_piece_set_f_missing_from_c():
    # A piece-set F must be carried piece for piece: C built on an equal but
    # distinct set holds none of F's own pieces.
    m = ClopenSet.from_strings(["0"])
    f = ClosedPieceSet.from_clopen(ClopenSet.from_strings(["1"]))
    other = ClosedPieceSet.from_clopen(ClopenSet.from_strings(["1"]))
    assert check_interpolation(lusin_menchoff(f, m), f, m).ok
    rep = check_interpolation(lusin_menchoff(other, m), f, m)
    assert not rep.f_carried
    assert rep.failures == ("a piece of F is missing from C",)


# ---------------------------------------------------------------------------
# the fill-stage search


def fill_stage_index_reference(g, s: BitString, eps: Dyadic) -> int:
    """The linear scan: k = 0, 1, 2, ... until the stage meets the budget."""
    bound = eps.mul_pow2(-len(s))
    k = 0
    while g.measure_stage_in(k, s) > bound:
        k += 1
        if k > fine._SEARCH_CAP:
            raise HorizonExhausted(
                f"inner approximation stage index at {s!r}",
                f"needed λ(stage(k) ∩ N_s) ≤ {bound}",
            )
    return k


def _search_outcome(search, g, s: BitString, eps: Dyadic):
    try:
        return search(g, s, eps)
    except HorizonExhausted as e:
        return e.budget, str(e)


def _explicit_path(w: str, null: bool) -> ExplicitGDelta:
    """Stages N_(w|1) ⊇ ... ⊇ N_w, then the empty stage when `null`; without
    it the last cylinder repeats and small budgets are never met."""
    stages = [ClopenSet.from_strings([w[:i]]) for i in range(1, len(w) + 1)]
    return ExplicitGDelta(stages + [ClopenSet.empty()] * null, parse_rate("2^-n"))


search_targets = st.one_of(
    st.builds(
        lambda pre, per: Singleton(Point.parse(f"{pre}({per})")),
        st.text(alphabet="01", max_size=4),
        st.text(alphabet="01", min_size=1, max_size=4),
    ),
    st.builds(EvenZeros),
    st.builds(_explicit_path, st.text(alphabet="01", min_size=1, max_size=6), st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(
    target=search_targets,
    s=st.text(alphabet="01", max_size=12),
    eps=st.integers(0, 24).flatmap(
        lambda e: st.builds(Dyadic, st.integers(1, 1 << e), st.just(e))
    ),
    cap=st.integers(0, 64),
)
def test_fill_stage_search_matches_the_linear_scan(target, s, eps, cap):
    t = BitString(s)
    with patch.object(fine, "_SEARCH_CAP", cap):
        want = _search_outcome(fill_stage_index_reference, target, t, eps)
        probes = []
        raw = target.measure_stage_in

        def probe(k, u):
            assert k <= cap, "the search went past its cap"
            probes.append(k)
            return raw(k, u)

        target.measure_stage_in = probe
        got = _search_outcome(_fill_stage_index, target, t, eps)
    assert got == want
    # Gallop then bisect: logarithmic in the answer, or in the cap.
    last = got if isinstance(got, int) else cap
    assert len(probes) <= 2 * (last + 2).bit_length()


def test_fill_stage_search_on_the_backbone_fills():
    # Backbone levels 0-4 of the even-zeros separator fill 24 gaps.
    target = EvenZeros()
    h = urysohn(target.stage(1).complement(), target)
    for m in range(5):
        for index, (s, fill) in enumerate(h.backbone(m).gaps):
            eps = default_budget(index)
            k = fill_stage_index_reference(target, s, eps)
            assert _fill_stage_index(target, s, eps) == k
            assert all(p.k == k for p in fill)


# ---------------------------------------------------------------------------
# the graded separator for the even-zeros target


@pytest.fixture(scope="module")
def sep() -> SeparatorFunction:
    target = EvenZeros()
    return urysohn(target.stage(1).complement(), target)


BACKBONE_GOLDEN = [
    # (measure, pieces, fills) for backbone levels 0..4
    (Dyadic(1, 1), 1, 1),
    (Dyadic(1, 1), 1, 1),
    (Dyadic(13, 4), 3, 2),
    (Dyadic(241, 8), 7, 4),
    (Dyadic(66110209, 26), 23, 16),
]


def test_backbone_measures_and_shapes(sep):
    for m, (measure, pieces, fills) in enumerate(BACKBONE_GOLDEN):
        b = sep.backbone(m)
        assert b.measure == measure, f"backbone({m})"
        assert len(list(b._all_pieces())) == pieces
        assert len(b.gaps) == fills


def test_level_normalizes_to_backbone(sep):
    assert sep.level(1, 2) is sep.backbone(2)
    assert sep.level(4, 4) is sep.backbone(2)


def test_level_argument_validation(sep):
    with pytest.raises(ValueError):
        sep.level(0, 3)
    with pytest.raises(ValueError):
        sep.level(9, 3)


def test_levels_shrink_as_the_level_rises(sep):
    nodes = ["", "0", "00", "01", "000", "001", "010", "011"]
    first_column = {
        "": Dyadic(241, 8),
        "0": Dyadic(113, 8),
        "00": Dyadic(13, 6),
        "01": Dyadic(61, 8),
        "000": Dyadic(5, 6),
        "001": Dyadic(1, 3),
        "010": Dyadic(29, 8),
        "011": Dyadic(1, 3),
    }
    for name in nodes:
        s = BitString(name)
        column = [sep.level(j, 3).measure_in(s) for j in range(1, 9)]
        assert column[0] == first_column[name]
        for left, right in zip(column, column[1:]):
            assert right <= left


def test_separator_exact_at_the_two_sides(sep):
    one = (Dyadic.one(), Dyadic.one())
    zero = (Dyadic.zero(), Dyadic.zero())
    assert sep.evaluate(Point.parse("(0)"), Dyadic(1, 3)) == one  # in the target
    assert sep.evaluate(Point.parse("(01)"), Dyadic(1, 3)) == one
    assert sep.evaluate(Point.parse("(1)"), Dyadic(1, 3)) == zero  # in C = N_1
    assert sep.evaluate(Point.parse("1(0)"), Dyadic(1, 3)) == zero


EVAL_LADDER = {
    2: (Dyadic(1, 1), Dyadic(3, 2)),
    3: (Dyadic(1, 1), Dyadic(5, 3)),
    4: (Dyadic(1, 1), Dyadic(9, 4)),
}


def test_evaluation_ladder_refines(sep):
    beta = Point.parse("0(1)")
    previous = None
    for n, expected in EVAL_LADDER.items():
        lo, hi = sep.evaluate(beta, Dyadic.pow2(-n))
        assert (lo, hi) == expected
        assert hi - lo <= Dyadic.pow2(-n)
        if previous is not None:
            assert previous[0] <= lo and hi <= previous[1]
        previous = (lo, hi)


MEAN_GOLDEN = {
    "": (Dyadic(294075647, 30), Dyadic(361184511, 30)),
    "0": (Dyadic(327630079, 29), Dyadic(361184511, 29)),
    "00": (Dyadic(2671, 12), Dyadic(2927, 12)),
    "01": (Dyadic(152583423, 28), Dyadic(169360639, 28)),
    "1": (Dyadic.zero(), Dyadic.zero()),
    "10": (Dyadic.zero(), Dyadic.zero()),
}


def test_cylinder_means(sep):
    eps = Dyadic(1, 4)
    for name, expected in MEAN_GOLDEN.items():
        got = sep.mean_in(BitString(name), eps)
        assert got == expected, name
        assert got[1] - got[0] <= eps


def test_mean_brackets_are_consistent_with_averaging(sep):
    # The true mean over a cylinder is the average of the child means, so
    # the parent bracket must intersect the average of the child brackets.
    eps = Dyadic(1, 4)
    for name in ["", "0", "00", "01"]:
        s = BitString(name)
        plo, phi = sep.mean_in(s, eps)
        l0, h0 = sep.mean_in(s.child(0), eps)
        l1, h1 = sep.mean_in(s.child(1), eps)
        alo, ahi = (l0 + l1).half(), (h0 + h1).half()
        assert max(plo, alo) <= min(phi, ahi), name


def test_mean_trace_along_branches(sep):
    rows = mean_trace(sep, Point.parse("0(01)"), 24, Dyadic(1, 4))
    assert len(rows) == 25
    assert rows[0] == (0, *MEAN_GOLDEN[""])
    assert rows[-1] == (24, Dyadic(1, 1), Dyadic(9, 4))
    inside_c = mean_trace(sep, Point.parse("(1)"), 6, Dyadic(1, 4))
    for l, lo, hi in inside_c[1:]:
        assert (lo, hi) == (Dyadic.zero(), Dyadic.zero())


def test_precision_must_be_positive(sep):
    with pytest.raises(ValueError):
        sep.evaluate(Point.parse("0(1)"), Dyadic.zero())
    with pytest.raises(ValueError):
        sep.mean_in(EMPTY, Dyadic(-1, 2))


def _precision_exponent_by_search(precision: Dyadic) -> int:
    n = 0
    while Dyadic.pow2(-n) > precision:
        n += 1
    return n


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=1 << 70), st.integers(min_value=0, max_value=80))
def test_precision_exponent_matches_the_search(num, exp):
    precision = Dyadic(num, exp)
    assert _precision_exponent(precision) == _precision_exponent_by_search(precision)


def test_finer_grading_exhausts_the_work_cap(monkeypatch):
    # Backbone level 5 has an infinite complement antichain (the level-4
    # fills leave slivers along the target boundary at every depth), so the
    # decomposition must give up after its examination budget.
    counts = {"piece": 0, "measure_in": 0}

    def count(cls, name, key):
        raw = getattr(cls, name)

        def counted(*args):
            counts[key] += 1
            return raw(*args)

        monkeypatch.setattr(cls, name, counted)

    count(StageComplementChunk, "measure_pair_in", "piece")
    count(ClopenSet, "measure_pair_in", "piece")
    count(ClosedPieceSet, "measure_in", "measure_in")
    target = EvenZeros()
    h = urysohn(target.stage(1).complement(), target)
    cap = fine._DECOMPOSITION_CAP
    with pytest.raises(HorizonExhausted) as exc:
        h.evaluate(Point.parse("0(1)"), Dyadic(1, 5))
    assert exc.value.budget == "complement decomposition work"
    # The detail reports the spend: the cylinder that tripped the cap, the
    # complement cylinders found before it and the depth reached.
    assert cap == 20_000
    assert (
        "examined 20001 cylinders, more than the cap of 20000, without "
        "closing the antichain: 1024 complement cylinders found, "
        "breadth-first depth 29 reached" in str(exc.value)
    )
    # One measure per examined cylinder: 129 for the decompositions of
    # backbone levels 0-4, and the cap for level 5's before it gives up.
    assert counts["measure_in"] == 129 + cap
    # Inside a gap a level asks only that gap's fills: about two piece
    # queries per examined cylinder, where walking every piece of the
    # level's chain made over 500,000.
    assert counts["piece"] < 100_000
    # The backbone levels under the decomposition are read through, not
    # filled: their caches (and their bases') keep only what was asked of
    # them directly, 238 entries here.
    chain = h._backbone + [b._base for b in h._backbone]
    assert sum(len(b._measure_cache) for b in chain) < 1000


# ---------------------------------------------------------------------------
# levels share their base's measure work


def _reference_measure(level: ClosedPieceSet, s: BitString) -> Dyadic:
    """λ(level ∩ N_s) summed over every piece of the level, base or not."""
    total = Dyadic.zero()
    for p in level._all_pieces():
        total = total + Dyadic(*p.measure_pair_in(s.n, s.v))
    return total


def _reference_mean(h: SeparatorFunction, s: BitString, n: int):
    """The layer-cake bracket summed over levels j = 1..2^n in ascending order."""
    rel = Dyadic.zero()
    for j in range(1, (1 << n) + 1):
        rel = rel + _reference_measure(h.level(j, n), s)
    hi = Dyadic.one() - rel.mul_pow2(len(s) - n)
    lo = hi - Dyadic.pow2(-n)
    return (Dyadic.zero() if lo < 0 else lo), hi


def _check_shared_levels(h: SeparatorFunction, n: int, cold: BitString, warm: BitString):
    levels = [h.level(j, n) for j in range(1, (1 << n) + 1)]
    # Ascending from level 1: each base is asked before it holds an answer.
    for level in levels:
        assert level.measure_in(cold) == _reference_measure(level, cold)
    # mean_in asks only the band of levels that partly meet the cylinder, so
    # some bases are read through and others were cached by the bisection.
    assert h.mean_in(warm, Dyadic.pow2(-n)) == _reference_mean(h, warm, n)
    for level in levels:
        assert level.measure_in(warm) == _reference_measure(level, warm)


@pytest.mark.parametrize("j, n", [(j, n) for j in (1, 2, 3) for n in (4, 5, 6, 7)])
@settings(max_examples=10, deadline=None)
@given(
    prefix=st.text(alphabet="01", max_size=4),
    period=st.text(alphabet="01", min_size=1, max_size=4),
    leave=st.integers(min_value=0, max_value=5),
    depth=st.integers(min_value=0, max_value=9),
)
def test_singleton_levels_match_the_reference_sums(j, n, prefix, period, leave, depth):
    point = Point.parse(f"{prefix}({period})")
    target = Singleton(point)
    h = urysohn(target.stage(j).complement(), target)
    # cold: a cylinder that leaves the target j + leave bits in; warm: a
    # prefix of the target itself.
    near = point.prefix(j + leave + 1)
    cold = BitString.raw(near.n, near.v ^ 1)
    _check_shared_levels(h, n, cold, point.prefix(depth))


def test_even_zeros_levels_match_the_reference_sums():
    target = EvenZeros()
    h = urysohn(target.stage(1).complement(), target)
    for cold, warm in [("", "0"), ("001", "01"), ("0001", "")]:
        _check_shared_levels(h, 4, BitString(cold), BitString(warm))


# ---------------------------------------------------------------------------
# mean_in asks only the band of levels that partly meet the cylinder


def _target_and_bits(kind: str, odd_bits: str, prefix: str, period: str):
    """A target and the first 32 bits of a point on it."""
    if kind == "singleton":
        target = Singleton(Point.parse(f"{prefix}({period})"))
        return target, str(target.point.prefix(32))
    return EvenZeros(), "".join("0" + b for b in odd_bits)


def _leave(bits: str, a: int, tail: str) -> BitString:
    """The cylinder that follows `bits` for a bits, flips bit a, then goes
    on with `tail`, cut to depth 12."""
    flipped = "1" if bits[a] == "0" else "0"
    return BitString((bits[:a] + flipped + tail)[:12])


@pytest.mark.parametrize("kind, j", [("singleton", 1), ("singleton", 2), ("singleton", 3), ("even-zeros", 1)])
@settings(max_examples=25, deadline=None)
@given(
    prefix=st.text(alphabet="01", max_size=4),
    period=st.text(alphabet="01", min_size=1, max_size=4),
    odd_bits=st.text(alphabet="01", min_size=16, max_size=16),
    n=st.integers(0, 7),
    places=st.lists(
        st.tuples(st.sampled_from(["inside C", "on", "off"]), st.integers(0, 11),
                  st.text(alphabet="01", max_size=11)),
        min_size=2, max_size=2,
    ),
)
def test_band_walk_matches_the_all_levels_sum(kind, j, prefix, period, odd_bits, n, places):
    target, bits = _target_and_bits(kind, odd_bits, prefix, period)
    if kind == "singleton":
        inside_c = range(j)  # leaving here lands outside stage(j)
    else:
        inside_c = range(0, 2 * j, 2)  # the first j even positions
        n = min(n, 4)  # finer even-zeros gradings exhaust the work cap
    cyls = []
    for where, a, tail in places:
        if where == "inside C":
            cyls.append(_leave(bits, inside_c[a % len(inside_c)], tail))
        elif where == "on":
            cyls.append(BitString(bits[:a + 1]))
        else:
            cyls.append(_leave(bits, max(a, inside_c[-1] + 1), tail))
    h = urysohn(target.stage(j).complement(), target)
    precision = Dyadic.pow2(-n)
    # The first query is cold; the second finds the first one's answers
    # cached, and the repeat finds its own.
    asked = cyls + cyls[:1]
    got = [h.mean_in(t, precision) for t in asked]
    for t, mean in zip(asked, got):
        assert mean == _reference_mean(h, t, n), str(t)
    for (where, _, _), mean in zip(places, got):
        if where == "inside C":
            assert mean == (Dyadic.zero(), Dyadic.zero())


def test_mean_in_beyond_the_work_cap_fails_as_building_the_levels_does():
    target = EvenZeros()
    h = urysohn(target.stage(1).complement(), target)
    with pytest.raises(HorizonExhausted) as exc:
        h.mean_in(EMPTY, Dyadic.pow2(-5))
    assert exc.value.budget == "complement decomposition work"
    assert str(exc.value) == (
        "horizon exhausted: complement decomposition work (examined 20001 "
        "cylinders, more than the cap of 20000, without closing the antichain: "
        "1024 complement cylinders found, breadth-first depth 29 reached; the "
        "interpolation at this level is not tractable)"
    )


def test_mean_trace_asks_the_band_only(monkeypatch):
    target = Singleton(Point.parse("01(011)"))
    h = urysohn(target.stage(2).complement(), target)
    for j in range(1, 513):
        h.level(j, 9)
    # Count the level queries mean_in makes, not the ones a level makes of
    # its base while answering.
    raw = ClosedPieceSet._measure_ac
    calls = {"outer": 0, "depth": 0}

    def counted(self, ac):
        calls["outer"] += calls["depth"] == 0
        calls["depth"] += 1
        try:
            return raw(self, ac)
        finally:
            calls["depth"] -= 1

    monkeypatch.setattr(ClosedPieceSet, "_measure_ac", counted)
    rows = mean_trace(h, Point.parse("0101101(1)"), 12, Dyadic.pow2(-9))
    assert rows[5] == (5, Dyadic(8021, 13), Dyadic(8037, 13))
    assert rows[-1] == (12, Dyadic(255, 8), Dyadic(511, 9))
    # Asking all 512 levels at each of the 13 depths makes 6,656 queries.
    assert calls["outer"] == 1394


# ---------------------------------------------------------------------------
# gap-local queries equal the all-pieces references


def _same_piece(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, ClopenSet):
        return a == b
    return (a.support, a.gdelta, a.k) == (b.support, b.gdelta, b.k)


def _reference_restricted(level: ClosedPieceSet, s: BitString) -> list:
    """Every piece of the level restricted to N_s, empty answers left out."""
    return [r for r in (p.restrict(s) for p in level._all_pieces()) if r is not None]


def _check_gap_local(level: ClosedPieceSet, t: BitString, beta: Point):
    assert level.measure_in(t) == _reference_measure(level, t)
    assert level.contains_point(beta) == any(p.contains_point(beta) for p in level._all_pieces())
    got = _inner_approx(level, t, Dyadic.one())
    want = _reference_restricted(level, t)
    assert len(got) == len(want)
    assert all(_same_piece(a, b) for a, b in zip(got, want))


# Even-zeros gradings past these exhaust the decomposition work cap.
GAP_LOCAL_CASES = (
    [("singleton", j, n) for j in (1, 2, 3) for n in range(1, 7)]
    + [("even-zeros", 1, n) for n in range(1, 5)]
    + [("even-zeros", 2, n) for n in range(1, 4)]
    + [("even-zeros", 3, 1)]
)
bit_strings = st.text(alphabet="01", max_size=4)


@pytest.mark.parametrize("kind, j, n", GAP_LOCAL_CASES)
@settings(max_examples=8, deadline=None)
@given(
    odd_bits=st.text(alphabet="01", min_size=16, max_size=16),
    prefix=bit_strings,
    period=st.text(alphabet="01", min_size=1, max_size=4),
    near=st.lists(st.tuples(st.integers(0, 12), bit_strings), min_size=2, max_size=2),
    tail_period=st.text(alphabet="01", min_size=1, max_size=3),
)
def test_gap_local_answers_match_the_all_pieces_references(
    kind, j, n, odd_bits, prefix, period, near, tail_period
):
    # t and β leave the target after a random number of bits, so they fall
    # inside gaps, hold gaps and straddle the levels' boundaries.
    target, bits = _target_and_bits(kind, odd_bits, prefix, period)
    (a, tail), (b, beta_tail) = near
    t = BitString(bits[:a] + tail)
    beta = Point(BitString(bits[:b] + beta_tail), BitString(tail_period))
    h = urysohn(target.stage(j).complement(), target)
    levels = [h.level(i, n) for i in range(1, (1 << n) + 1)]
    for _ in ("cold", "warm"):
        for level in levels:
            _check_gap_local(level, t, beta)


@pytest.mark.parametrize("kind, j, n", GAP_LOCAL_CASES)
@settings(max_examples=8, deadline=None)
@given(
    odd_bits=st.text(alphabet="01", min_size=16, max_size=16),
    prefix=bit_strings,
    period=st.text(alphabet="01", min_size=1, max_size=4),
    near=st.tuples(st.integers(0, 12), bit_strings),
)
def test_levels_are_nested_along_each_grading(kind, j, n, odd_bits, prefix, period, near):
    # mean_in's bisection rests on this: λ(C_(i/2^n) ∩ N_s) never increases
    # as i grows.
    target, bits = _target_and_bits(kind, odd_bits, prefix, period)
    a, tail = near
    t = BitString(bits[:a] + tail)
    h = urysohn(target.stage(j).complement(), target)
    column = [h.level(i, n).measure_in(t) for i in range(1, (1 << n) + 1)]
    assert column[0] <= Dyadic.pow2(-len(t))
    for lower, higher in zip(column, column[1:]):
        assert higher <= lower


def _neighbours(h: SeparatorFunction, num: int, e: int):
    """The F and M that level num/2^e (num odd) interpolates between: the
    backbone level 1/2^e between the one before it, with stage e exhausted
    (its fills widened on its base, or C itself at e = 0), and the target's
    complement; any other level between its two neighbours at the coarser
    grid."""
    if num == 1:
        f = h.backbone(e)._base
        assert f is h.c if e == 0 else f._base is h.backbone(e - 1)._base
        return f, h.g
    return h.level((num + 1) // 2, e - 1), h.level((num - 1) // 2, e - 1)


@pytest.mark.parametrize("kind, j, n", GAP_LOCAL_CASES)
@settings(max_examples=5, deadline=None)
@given(prefix=bit_strings, period=st.text(alphabet="01", min_size=1, max_size=4))
def test_every_level_passes_the_interpolation_check(kind, j, n, prefix, period):
    target, _ = _target_and_bits(kind, "0" * 16, prefix, period)
    h = urysohn(target.stage(j).complement(), target)
    for i in range(1, (1 << n) + 1):
        num, e = i, n
        while num % 2 == 0:
            num, e = num // 2, e - 1
        level = h.level(num, e)
        f, m = _neighbours(h, num, e)
        assert level._base is f
        rep = check_interpolation(level, f, m)
        assert rep.ok, (i, n, rep.failures)


# ---------------------------------------------------------------------------
# every level is a backbone level, and evaluate reads the backbones


@pytest.mark.parametrize("kind, j, n", GAP_LOCAL_CASES)
@settings(max_examples=5, deadline=None)
@given(
    odd_bits=st.text(alphabet="01", min_size=16, max_size=16),
    prefix=bit_strings,
    period=st.text(alphabet="01", min_size=1, max_size=4),
    near=st.lists(st.tuples(st.integers(0, 12), bit_strings), min_size=2, max_size=2),
    tail_period=st.text(alphabet="01", min_size=1, max_size=3),
)
def test_every_level_is_a_backbone_level(kind, j, n, odd_bits, prefix, period, near, tail_period):
    # C_(i/2^n) = backbone(n − ⌊log₂ i⌋): an in-between level fills each gap
    # of F with all of its piece-set M there, so it is M itself.
    target, bits = _target_and_bits(kind, odd_bits, prefix, period)
    (a, tail), (b, beta_tail) = near
    t = BitString(bits[:a] + tail)
    beta = Point(BitString(bits[:b] + beta_tail), BitString(tail_period))
    h = urysohn(target.stage(j).complement(), target)
    for i in range(1, (1 << n) + 1):
        level, backbone = h.level(i, n), h.backbone(n - (i.bit_length() - 1))
        assert level.measure_in(t) == backbone.measure_in(t), (i, str(t))
        assert level.contains_point(beta) == backbone.contains_point(beta), (i, str(beta))


def evaluate_by_bisection(h: SeparatorFunction, beta: Point, precision: Dyadic):
    """The bracket of h(β) from the largest j with β ∈ C_(j/2^n), found by
    bisecting over j and asking each level C_(j/2^n) it visits."""
    if h.g.exit_stage(beta) is None:
        return Dyadic.one(), Dyadic.one()
    n = _precision_exponent(precision)
    lo_j, hi_j = 0, 1 << n
    if not h.level(1, n).contains_point(beta):
        best = 0
    elif h.level(hi_j, n).contains_point(beta):
        best = hi_j
    else:
        # in at lo_j, out at hi_j
        lo_j = 1
        while hi_j - lo_j > 1:
            mid = (lo_j + hi_j) // 2
            if h.level(mid, n).contains_point(beta):
                lo_j = mid
            else:
                hi_j = mid
        best = lo_j
    if best == 1 << n:
        return Dyadic.zero(), Dyadic.zero()
    lo = Dyadic.one() - Dyadic(best + 1, n)
    return (Dyadic.zero() if lo < 0 else lo), Dyadic.one() - Dyadic(best, n)


def _evaluation(evaluate, h: SeparatorFunction, beta: Point, precision: Dyadic):
    try:
        return evaluate(h, beta, precision)
    except HorizonExhausted as e:
        return e.budget, str(e)


def _check_evaluations(target, j: int, n: int, points: list):
    read = urysohn(target.stage(j).complement(), target)
    bisected = urysohn(target.stage(j).complement(), target)
    for grade in {max(n - 1, 0), n}:
        precision = Dyadic.pow2(-grade)
        for beta in points:
            got = _evaluation(SeparatorFunction.evaluate, read, beta, precision)
            want = _evaluation(evaluate_by_bisection, bisected, beta, precision)
            assert got == want, (str(beta), grade)


@pytest.mark.parametrize("kind, j, n", GAP_LOCAL_CASES)
@settings(max_examples=5, deadline=None)
@given(
    odd_bits=st.text(alphabet="01", min_size=16, max_size=16),
    prefix=bit_strings,
    period=st.text(alphabet="01", min_size=1, max_size=4),
    places=st.lists(
        st.tuples(st.integers(0, 16), bit_strings, st.text(alphabet="01", min_size=1, max_size=3)),
        min_size=3, max_size=3,
    ),
)
def test_evaluate_matches_the_bisection_over_all_levels(kind, j, n, odd_bits, prefix, period, places):
    # Points that leave the target after b bits (b = 16 stays on it for the
    # even-zeros target), asked at the grading 2^-n and the one before it.
    target, bits = _target_and_bits(kind, odd_bits, prefix, period)
    points = [Point(BitString(bits[:b] + tail), BitString(tail_period))
              for b, tail, tail_period in places]
    points.append(Point(BitString(bits[:16]), BitString("0")))
    _check_evaluations(target, j, n, points)


@pytest.mark.parametrize("j, n", [(1, 5), (2, 4), (3, 2)])
def test_evaluate_beyond_the_work_cap_fails_as_the_bisection_does(j, n):
    # These even-zeros gradings exhaust the decomposition work cap; a point
    # on the target is answered before any level is built.
    points = [Point.parse("0001(1)"), Point.parse("(0)")]
    _check_evaluations(EvenZeros(), j, n, points)
    with pytest.raises(HorizonExhausted, match="complement decomposition work"):
        urysohn(EvenZeros().stage(j).complement(), EvenZeros()).evaluate(points[0], Dyadic.pow2(-n))


# ---------------------------------------------------------------------------
# one-cylinder piece answers equal the materialized clopen algebra


def _materialize(p) -> ClopenSet:
    if isinstance(p, ClopenSet):
        return p
    return ClopenSet.cylinder(p.support).intersect(p.gdelta.stage(p.k).complement())


def _pieces_under_test():
    even = EvenZeros()
    singleton = Singleton(Point.parse("01(011)"))
    return [
        # (piece, cylinders inside its support, holding it, disjoint from it)
        (StageComplementChunk(BitString("0"), even, 3), ["01", "0010", "00101"], ["", "0"], ["1", "11"]),
        (StageComplementChunk(BitString("01"), even, 4), ["010", "0111"], ["", "0"], ["00", "1"]),
        (StageComplementChunk(BitString("01"), singleton, 5), ["010", "01011", "0100"], ["", "0"], ["1", "00"]),
    ]


PIECES = _pieces_under_test()


@pytest.mark.parametrize("index", range(len(PIECES)))
def test_piece_cylinder_answers_at_the_three_positions(index):
    piece, inside, holding, disjoint = PIECES[index]
    ref = _materialize(piece)
    for name in inside + holding + disjoint:
        t = BitString(name)
        assert Dyadic(*piece.measure_pair_in(t.n, t.v)) == ref.measure_in(t), name
    for name in disjoint:
        t = BitString(name)
        assert piece.measure_pair_in(t.n, t.v) == (0, 0), name
    for name in holding:
        t = BitString(name)
        assert Dyadic(*piece.measure_pair_in(t.n, t.v)) == ref.measure, name


@settings(max_examples=100)
@given(
    st.integers(min_value=0, max_value=len(PIECES) - 1),
    st.lists(st.integers(min_value=0, max_value=10).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
    ), min_size=1, max_size=4),
)
def test_piece_answers_at_random_cylinders(index, cyls):
    piece = PIECES[index][0]
    ref = _materialize(piece)
    n, v = cyls[0]
    assert Dyadic(*piece.measure_pair_in(n, v)) == ref.measure_in(BitString.raw(n, v))
    # A clopen k with several cylinders: the sum over its cylinders.
    k = ClopenSet.from_cylinders(BitString.raw(n, v) for n, v in cyls)
    assert Dyadic(*fine._pair_over(piece, k._ac)) == ref.intersect(k).measure


# ---------------------------------------------------------------------------
# each backbone's base widens the previous backbone's fills: the reference
# is the base it replaced, backbone(i−1) with ¬stage(i) unioned in as a
# difference piece


class DifferencePiece:
    """Clopen W minus an earlier piece-set, never materialized."""

    def __init__(self, positive: ClopenSet, minus: ClosedPieceSet) -> None:
        self.positive = positive
        self.minus = minus

    def measure_pair_in(self, n: int, v: int) -> tuple:
        inside = kernel.intersect(self.positive._ac, ((n, v),))
        if not inside:
            return 0, 0
        num, exp = kernel.measure(inside)
        d = self.minus._measure_ac(inside)
        return fine._add_pair(num, exp, -d.num, d.exp)

    def contains_point(self, beta: Point) -> bool:
        return self.positive.contains_point(beta) and not self.minus.contains_point(beta)


class _UnionWithClopen(ClosedPieceSet):
    """A base plus one difference piece that is a candidate everywhere."""

    def __init__(self, base: ClosedPieceSet, w: ClopenSet) -> None:
        super().__init__(base=base)
        self.piece = DifferencePiece(w, base)

    def _all_pieces(self):
        yield from self._base._all_pieces()
        yield self.piece

    def _local(self, n: int, v: int) -> tuple:
        return True, (self.piece,)


def union_with_clopen(base: ClosedPieceSet, w: ClopenSet) -> ClosedPieceSet:
    return base if w.is_empty else _UnionWithClopen(base, w)


def reference_backbones(c: ClopenSet, g):
    """Backbones 0, 1, 2, ... on the union-with-clopen bases."""
    b = lusin_menchoff(c, g)
    i = 0
    while True:
        yield b
        i += 1
        b = lusin_menchoff(union_with_clopen(b, g.stage(i).complement()), g)


def _first_backbones(backbones, count: int):
    """The first `count` backbones, up to one whose build exhausts a
    budget, and that budget's message (None when all were built)."""
    built = []
    try:
        for _, b in zip(range(count), backbones):
            built.append(b)
    except HorizonExhausted as e:
        return built, str(e)
    return built, None


_EXPLICIT_STAGES = [["00"], ["000"], []]


def _widening_target(kind: str, prefix: str, period: str):
    """A target and the first 32 bits of a point on it, or near it when the
    target is empty."""
    if kind == "explicit":
        stages = [ClopenSet.from_strings(c) for c in _EXPLICIT_STAGES]
        return ExplicitGDelta(stages, parse_rate("2^-n")), "0" * 32
    return _target_and_bits(kind, "0" * 16, prefix, period)


@functools.lru_cache(maxsize=8)
def _widening_builds(kind: str, j: int, prefix: str, period: str):
    """Backbones 0-4 for C = ¬stage(j), built on the widened bases and on
    the reference bases, each with the message of a budget that ran out."""
    target, bits = _widening_target(kind, prefix, period)
    c = target.stage(j).complement()
    h = urysohn(c, target)
    got = _first_backbones((h.backbone(i) for i in range(5)), 5)
    return bits, got, _first_backbones(reference_backbones(c, target), 5)


@pytest.mark.parametrize("kind, j", [
    ("even-zeros", 1), ("even-zeros", 2), ("singleton", 1), ("singleton", 2),
    ("explicit", 1), ("explicit", 2),
])
@settings(max_examples=10, deadline=None)
@given(
    prefix=bit_strings,
    period=st.text(alphabet="01", min_size=1, max_size=4),
    cyls=st.lists(st.tuples(st.integers(0, 12), st.text(alphabet="01", max_size=12)),
                  min_size=4, max_size=4),
    points=st.lists(
        st.tuples(st.integers(0, 16), bit_strings, st.text(alphabet="01", min_size=1, max_size=3)),
        min_size=4, max_size=4,
    ),
)
def test_widened_bases_match_the_union_with_clopen_bases(kind, j, prefix, period, cyls, points):
    if kind != "singleton":
        prefix = period = ""  # one target: its builds are shared by the examples
    bits, (got, got_error), (want, want_error) = _widening_builds(kind, j, prefix, period)
    # Even-zeros with C = ¬stage(2) exhausts the work cap at backbone 4,
    # on both bases alike.
    assert got_error == want_error
    assert len(got) == len(want)
    ts = [BitString((bits[:a] + tail)[:12]) for a, tail in cyls]
    betas = [Point(BitString(bits[:b] + tail), BitString(per)) for b, tail, per in points]
    for i, (new, old) in enumerate(zip(got[1:], want[1:]), start=1):
        assert new._base.decomposition() == old._base.decomposition(), i
        assert [s for s, _ in new.gaps] == [s for s, _ in old.gaps], i
        assert [[p.k for p in fill] for _, fill in new.gaps] == [
            [p.k for p in fill] for _, fill in old.gaps
        ], i
        # F_(i+1) widens each of these fills to index max(k, i + 1) = k: it
        # keeps them as they are.
        assert all(p.k > i for _, fill in new.gaps for p in fill), i
        for a, b in ((new, old), (new._base, old._base)):
            for t in ts:
                assert a.measure_in(t) == b.measure_in(t), (i, str(t))
            for beta in betas:
                assert a.contains_point(beta) == b.contains_point(beta), (i, str(beta))


# ---------------------------------------------------------------------------
# step functions


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(2, [Dyadic.zero()] * 3)
    with pytest.raises(ValueError):
        StepFunction(1, [Dyadic.zero(), Dyadic(3, 1)])


def test_step_function_indicator_means():
    # Indicator of N_00 at depth 2.
    f = StepFunction(2, [Dyadic.one(), Dyadic.zero(), Dyadic.zero(), Dyadic.zero()])
    assert f.evaluate(Point.parse("(0)"), Dyadic(1, 6)) == (Dyadic.one(), Dyadic.one())
    assert f.mean_exact(BitString("0")) == Dyadic(1, 1)
    assert f.mean_exact(EMPTY) == Dyadic(1, 2)
    assert f.mean_exact(BitString("00")) == Dyadic.one()
    assert f.mean_exact(BitString("001")) == Dyadic.one()
    assert f.mean_in(BitString("0"), Dyadic(1, 6)) == (Dyadic(1, 1), Dyadic(1, 1))


def test_step_function_mixed_mean():
    f = StepFunction(
        2, [Dyadic.one(), Dyadic.zero(), Dyadic(1, 1), Dyadic(1, 2)]
    )
    assert f.mean_exact(EMPTY) == Dyadic(7, 4)


step_functions = st.integers(min_value=0, max_value=4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.integers(min_value=0, max_value=64).map(lambda k: Dyadic(k, 6)),
            min_size=1 << d,
            max_size=1 << d,
        ),
    )
)


@settings(max_examples=60)
@given(step_functions, st.integers(min_value=0, max_value=15))
def test_step_means_average_like_a_martingale(spec, node):
    depth, values = spec
    f = StepFunction(depth, values)
    s = BitString(format(node, "04b")[: max(0, depth - 1)] if depth else "")
    m0 = f.mean_exact(s.child(0))
    m1 = f.mean_exact(s.child(1))
    assert f.mean_exact(s) == (m0 + m1).half()
    assert min(values) <= f.mean_exact(s) <= max(values)
