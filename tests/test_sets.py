"""Target-set descriptions: closed-form stage geometry against materialized
stages and brute enumeration."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divmart.bits import EMPTY, BitString, Point
from divmart.clopen import ClopenSet
from divmart.dyadic import Dyadic
from divmart.errors import HorizonExhausted, ParseError
from divmart.sets import (
    EvenZeros,
    ExplicitGDelta,
    GDeltaSet,
    SigmaThreeSet,
    Singleton,
    _exceeds_rate,
    _least_index,
    component_from_spec,
    parse_rate,
)

K = EvenZeros()


# ---------------------------------------------------------------------------
# even-zeros: brute-force oracles


def brute_stage(n: int) -> ClopenSet:
    """stage(n) as all length-2n strings with zeros at even positions."""
    if n == 0:
        return ClopenSet.full()
    good = []
    for v in range(1 << (2 * n)):
        s = format(v, f"0{2 * n}b")
        if all(s[i] == "0" for i in range(0, 2 * n, 2)):
            good.append(s)
    return ClopenSet.from_strings(good)


@pytest.mark.parametrize("n", range(7))
def test_stage_matches_brute(n):
    assert K.stage(n) == brute_stage(n)


@pytest.mark.parametrize("n", range(7))
def test_stage_measure(n):
    assert K.stage(n).measure == Dyadic.pow2(-n)
    assert K.measure_stage_in(n, EMPTY) == Dyadic.pow2(-n)
    assert K.stage_count(n) == len(K.stage(n).cylinders)


def all_bitstrings(max_len: int):
    for l in range(max_len + 1):
        for v in range(1 << l):
            yield BitString.raw(l, v)


def test_measure_stage_in_closed_form():
    for n in range(5):
        st_n = brute_stage(n)
        for t in all_bitstrings(6):
            assert K.measure_stage_in(n, t) == st_n.measure_in(t), (n, t)


def test_density_example():
    # relative measure of stage(n) in N_{0^{2j}} is 2^(-(n-j)) for j <= n
    beta = Point.parse("(0)")
    for n in range(1, 7):
        for j in range(n + 1):
            ratio = _stage_region(n).measure_in(beta.prefix(2 * j)).mul_pow2(2 * j)
            assert ratio == Dyadic.pow2(-(n - j))


def _stage_region(n):
    from divmart.synthesis import StageRegion

    return StageRegion(K, n)


def test_stage_cylinder_containing():
    beta = Point.parse("(0)")
    for n in range(1, 8):
        w = K.stage_cylinder_containing(n, beta)
        assert w == BitString.raw(2 * n - 1, 0)
        assert K.stage(min(n, 6)) if n > 6 else K.stage(n).covers(w)
    assert K.stage_cylinder_containing(3, Point.parse("001(0)")) is None
    assert K.stage_cylinder_containing(1, Point.parse("001(0)")) == BitString("0")


def test_exit_and_refutation():
    assert K.exit_stage(Point.parse("(0)")) is None
    assert K.exit_stage(Point.parse("(01)")) is None  # even positions all 0
    assert K.exit_stage(Point.parse("(1)")) == 1
    assert K.exit_stage(Point.parse("001(0)")) == 2
    assert K.stage_refutation_depth(2, Point.parse("001(0)")) == 3
    with pytest.raises(ValueError):
        K.stage_refutation_depth(1, Point.parse("001(0)"))


def membership(target, beta: Point, depth: int) -> str:
    """The depth-cut tri-state, kept as the reference for the filters that
    callers apply to an exit stage.  A component is In when beta
    never exits it, Out when beta exits one of its first `depth` stages,
    and Undecided otherwise.  A union is In when some component is In, Out
    when every component is Out (so the empty union is Out)."""
    if isinstance(target, SigmaThreeSet):
        verdicts = [membership(c, beta, depth) for c in target.components]
        if "In" in verdicts:
            return "In"
        if all(v == "Out" for v in verdicts):
            return "Out"
        return "Undecided"
    e = target.exit_stage(beta)
    if e is None:
        return "In"
    return "Out" if e <= depth else "Undecided"


def test_membership_tristate():
    assert membership(K, Point.parse("(0)"), 0) == "In"
    assert membership(K, Point.parse("(1)"), 3) == "Out"
    deep = Point.parse("0" * 40 + "1(0)")  # exits at stage 21
    assert K.exit_stage(deep) == 21
    assert membership(K, deep, 3) == "Undecided"
    assert membership(K, deep, 25) == "Out"


def test_measure_stage_in_matches_the_stage_to_length_10():
    # The all-zero t of each length take the shortcut that builds no mask;
    # every other t is tested against the mask.
    for n in range(7):
        stage = K.stage(n)
        for t in all_bitstrings(10):
            assert K.measure_stage_in(n, t) == stage.measure_in(t), (n, t)


def test_meets_target():
    assert K.meets_target(BitString("0"))
    assert K.meets_target(BitString("0101"))
    assert not K.meets_target(BitString("1"))
    assert not K.meets_target(BitString("001"))


def test_stage_sample_matches_stage():
    for n in range(1, 7):
        sample = K.stage_sample(n, 1 << (n - 1))
        assert tuple(sample) == K.stage(n).cylinders


def test_stage_cap_is_honest():
    with pytest.raises(HorizonExhausted):
        K.stage(19)
    # the closed forms keep working far beyond the materialization cap
    assert K.measure_stage_in(64, EMPTY) == Dyadic.pow2(-64)
    assert K.stage_count(64) == 1 << 63


# ---------------------------------------------------------------------------
# even-zeros: every closed form against the materialized stages, n <= 10

STAGES = {n: K.stage(n) for n in range(11)}

short_bitstrings = st.builds(
    lambda l, v: BitString.raw(l, v & ((1 << l) - 1)),
    st.integers(min_value=0, max_value=22),
    st.integers(min_value=0),
)
# Preamble plus two periods stays within 20 bits, so a point that leaves the
# target leaves it by stage 10.
short_points = st.builds(
    lambda pre, per: Point.parse(f"{pre}({per})"),
    st.text(alphabet="01", max_size=8),
    st.text(alphabet="01", min_size=1, max_size=6),
)
stage_indices = st.integers(min_value=0, max_value=10)


def stage_cylinder_reference(n: int, w: int) -> BitString:
    v = 0
    bit_src = n - 2
    for pos in range(2 * n - 1):
        v <<= 1
        if pos % 2 == 1:
            v |= (w >> bit_src) & 1
            bit_src -= 1
    return BitString.raw(2 * n - 1, v)


@pytest.mark.parametrize("n", range(1, 11))
def test_stage_cylinders_match_bitwise_interleave(n):
    sample = K.stage_sample(n, 1 << (n - 1))
    assert sample == [stage_cylinder_reference(n, w) for w in range(1 << (n - 1))]
    assert tuple(sample) == STAGES[n].cylinders


@given(stage_indices, short_bitstrings)
def test_measure_stage_in_matches_materialized(n, t):
    assert K.measure_stage_in(n, t) == STAGES[n].measure_in(t)


@given(short_bitstrings.filter(lambda t: len(t) <= 19))
def test_meets_target_matches_materialized(t):
    # below length 20, N_t meets the target iff it meets stage(10)
    assert K.meets_target(t) == STAGES[10].meets(t)


@given(stage_indices, short_points)
def test_stage_cylinder_containing_matches_materialized(n, beta):
    assert K.stage_cylinder_containing(n, beta) == STAGES[n].cylinder_containing(beta)


@given(stage_indices, short_points)
def test_refutation_depth_matches_materialized(n, beta):
    if STAGES[n].contains_point(beta):
        with pytest.raises(ValueError):
            K.stage_refutation_depth(n, beta)
    else:
        expected = GDeltaSet.stage_refutation_depth(K, n, beta)
        assert K.stage_refutation_depth(n, beta) == expected


@given(short_points)
def test_exit_stage_matches_materialized(beta):
    exits = [n for n in range(1, 11) if not STAGES[n].contains_point(beta)]
    assert K.exit_stage(beta) == (exits[0] if exits else None)


# ---------------------------------------------------------------------------
# singleton


def test_singleton_geometry():
    p = Point.parse("01(10)")
    s = Singleton(p)
    for n in range(8):
        assert s.stage(n) == ClopenSet.cylinder(p.prefix(n))
        assert s.measure_stage_in(n, EMPTY) == Dyadic.pow2(-n)
    assert s.exit_stage(p) is None
    assert s.exit_stage(Point.parse("0(0)")) == 2
    assert s.stage_cylinder_containing(4, p) == p.prefix(4)
    assert s.stage_cylinder_containing(4, Point.parse("(0)")) is None
    assert s.meets_target(p.prefix(9))
    assert not s.meets_target(BitString("00"))
    # semantically equal but structurally different points still resolve
    q = Point.parse("011(01)")
    assert p.first_difference(q) is None
    assert s.exit_stage(q) is None


@pytest.mark.parametrize("text", [
    "(0)", "(1)", "(10)", "01(011)", "1101(0)", "0(1101001)",
    "1011001110001111(01)", "(0110100110010110)",
])
def test_singleton_samples_its_stage_in_closed_form(text):
    s = Singleton(Point.parse(text))
    for n in range(65):
        stage = s.stage(n)
        assert s.stage_count(n) == stage.cylinder_count() == 1
        for c in range(4):
            assert s.stage_sample(n, c) == stage.sample_cylinders(c), (n, c)


def test_singleton_measure_stage_in_cases():
    s = Singleton(Point.parse("(1)"))
    assert s.measure_stage_in(3, BitString("11")) == Dyadic.pow2(-3)
    assert s.measure_stage_in(3, BitString("1111")) == Dyadic.pow2(-4)
    assert s.measure_stage_in(3, BitString("10")) == 0


# ---------------------------------------------------------------------------
# the stage-measure pair against the materialized stage


def odd_bits(length: int, bits: int) -> int:
    """bits on the odd positions of a length-bit string, zeros on the even
    ones: a t whose N_t meets the even-zeros target."""
    return int(format(bits, "b"), 4) << (length % 2) & ((1 << length) - 1)


@settings(max_examples=300, deadline=None)
@given(
    target=st.one_of(st.just(K), short_points.map(Singleton)),
    n=st.integers(min_value=0, max_value=8),
    # t's length from 3 below the stage cylinders' length to 3 above it
    offset=st.integers(min_value=-3, max_value=3),
    bits=st.integers(min_value=0),
    # 0: t meets the target; a low flip: t leaves it near its end; any flip
    flip=st.one_of(st.just(0), st.integers(0, 3), st.integers(min_value=0)),
)
@example(target=K, n=8, offset=0, bits=0, flip=0)  # the all-zero witness
@example(target=K, n=8, offset=3, bits=0, flip=0)
@example(target=K, n=8, offset=-3, bits=0, flip=0)
def test_stage_measure_pair_matches_the_materialized_stage(target, n, offset, bits, flip):
    cyl = max(2 * n - 1, 0) if target is K else n  # the stage cylinders' length
    length = max(cyl + offset, 0)
    base = odd_bits(length, bits) if target is K else target.point.prefix(length).v
    t = BitString.raw(length, (base ^ flip) & ((1 << length) - 1))
    pair = target.measure_stage_pair(n, t.n, t.v)
    assert Dyadic(*pair) == target.stage(n).measure_in(t) == target.measure_stage_in(n, t)


def test_stage_measure_pair_of_an_explicit_target_reads_its_stages():
    # The GDeltaSet fallback: the listed stage's kernel pair, and the last
    # stage from its index on.
    g = ExplicitGDelta([ClopenSet.from_strings(["0", "10"]), ClopenSet.from_strings(["00", "101"]),
                        ClopenSet.from_strings(["000"]), ClopenSet.empty()], parse_rate("2^-(n-2)"))
    for m in range(7):
        stage = g.stages[min(m, len(g.stages) - 1)]
        for t in all_bitstrings(5):
            pair = g.measure_stage_pair(m, t.n, t.v)
            assert pair == stage.measure_pair_in(t.n, t.v), (m, t)
            assert Dyadic(*pair) == stage.measure_in(t) == g.measure_stage_in(m, t), (m, t)
    assert g.measure_stage_pair(1, 0, 0) == (3, 2)  # unreduced: 1/2 + 1/4
    assert g.measure_stage_pair(6, 2, 1) == (0, 0)


# ---------------------------------------------------------------------------
# the halving chain: m_(n+1) = m_n + n + 4 against the gallop


def least_stage_reference(g, w: BitString, n: int, m_n: int) -> int:
    """The least m > m_n with λ(stage(m) ∩ N_w) < 2^-(n+3)·λ(N_w), by the
    gallop over measure_stage_in."""
    bound = Dyadic.pow2(-(n + 3) - len(w))
    return _least_index(lambda m: g.measure_stage_in(m, w) < bound, m_n + 1, m_n + 64)


def check_halving_chain_step(g, n: int) -> None:
    """Every antichain cylinder w of the materialized stage(m_n) meets the
    target and takes m_n + n + 4 as its least stage under the budget."""
    m_n = n * (n + 7) // 2
    assert g.halving
    cylinders = g.stage(m_n).cylinders
    assert cylinders
    for w in cylinders:
        assert g.meets_target(w)
        assert least_stage_reference(g, w, n, m_n) == m_n + n + 4


@pytest.mark.parametrize("n", range(4))  # m_3 = 15: 2^14 cylinders
def test_even_zeros_halving_chain_reads_its_stage_index(n):
    check_halving_chain_step(K, n)


@given(short_points, st.integers(min_value=0, max_value=10))
@example(Point.parse("(0)"), 10)
@settings(max_examples=150)
def test_singleton_halving_chain_reads_its_stage_index(beta, n):
    check_halving_chain_step(Singleton(beta), n)


# ---------------------------------------------------------------------------
# explicit descriptions


def _explicit(stages, rate="2^-n"):
    return ExplicitGDelta([ClopenSet.from_strings(s) for s in stages], parse_rate(rate))


def test_explicit_basics():
    g = _explicit([[""], ["0"], ["00"]])
    assert g.stage(0).is_full
    assert g.stage(1) == ClopenSet.from_strings(["0"])
    assert g.stage(5) == ClopenSet.from_strings(["00"])  # last repeats
    assert g.exit_stage(Point.parse("(0)")) is None
    assert g.exit_stage(Point.parse("01(0)")) == 2
    assert g.exit_stage(Point.parse("(1)")) == 1
    assert g.meets_target(BitString("000"))
    assert not g.meets_target(BitString("01"))


def test_explicit_validation():
    with pytest.raises(ParseError):
        _explicit([[""], ["0"], ["1"]])  # not decreasing
    with pytest.raises(ParseError):
        _explicit([[""], ["0", "10"]])  # measure 3/4 > rate 1/2
    with pytest.raises(ParseError):
        _explicit([])


def test_explicit_inserts_full_stage():
    g = _explicit([["0"]])
    assert g.stage(0).is_full
    assert g.stage(1) == ClopenSet.from_strings(["0"])


def nested_explicit(shapes) -> ExplicitGDelta:
    """Stages that each cut the one before by a clopen set (or by the
    complement of one), under a rate loose enough to admit any of them."""
    stages, cur = [], ClopenSet.full()
    for strings, complement in shapes:
        cut = ClopenSet.from_strings(strings)
        cur = cur.intersect(cut.complement() if complement else cut)
        stages.append(cur)
    return ExplicitGDelta([ClopenSet.full()] + stages, parse_rate("2^-(n-20)"))


nested_explicits = st.lists(
    st.tuples(st.lists(st.text(alphabet="01", max_size=5), max_size=4), st.booleans()),
    max_size=6,
).map(nested_explicit)


def exit_stage_reference(g: ExplicitGDelta, beta: Point):
    """The first stage without beta, by a scan over the stages."""
    if g.stages[-1].contains_point(beta):
        return None
    for n in range(1, len(g.stages)):
        if not g.stages[n].contains_point(beta):
            return n
    raise AssertionError("unreachable: stages are decreasing")


@given(nested_explicits, short_points)
def test_explicit_exit_stage_matches_the_stage_scan(g, beta):
    assert g.exit_stage(beta) == exit_stage_reference(g, beta)


def test_rate_parsing():
    assert parse_rate("2^-n") == 0
    assert parse_rate("2^-(n+2)") == 2
    assert parse_rate("2^-(n-1)") == -1
    for bad in ["3^-n", "2^-2n", "1/2", "2^-(n*2)", ""]:
        with pytest.raises(ParseError):
            parse_rate(bad)


DIGIT_LIMIT = sys.get_int_max_str_digits()


@given(st.integers(0, 10).flatmap(
    lambda exp: st.tuples(st.integers(0, 1 << exp), st.just(exp), st.integers(-12, 12))
))
def test_the_rate_check_matches_fractions(case):
    num, exp, e = case
    assert _exceeds_rate(Dyadic(num, exp), e) == (Fraction(num, 1 << exp) > Fraction(2) ** -e)


@given(st.sampled_from("19"), st.integers(1, DIGIT_LIMIT or 4300))
@example("9", DIGIT_LIMIT or 4300)  # 1 + c then has one digit more than c
@settings(max_examples=30)
def test_a_rate_constant_up_to_the_digit_limit_is_checked_exactly(digit, k):
    # Stage 1 has measure 1/2: above 2^-(1 + c) and below 2^-(1 - c) for
    # every c ≥ 1.  Neither power of two is built.
    c = digit * k
    assert parse_rate(f"2^-(n+{c})") == int(c)
    assert parse_rate(f"2^-(n-{c})") == -int(c)
    exceeded = r"^stage 1 has measure 1/2\^1 exceeding declared rate 1/2\^\d+$"
    with pytest.raises(ParseError, match=exceeded):
        _explicit([[""], ["0"], []], f"2^-(n+{c})")
    assert _explicit([[""], ["0"], ["00"], []], f"2^-(n-{c})").stage(2).measure == Dyadic(1, 2)


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="the interpreter converts integer strings of any length")
def test_a_rate_constant_past_the_digit_limit_is_a_parse_error():
    for sign in "+-":
        with pytest.raises(ParseError, match=f"rate constant of {DIGIT_LIMIT + 1} digits"):
            parse_rate(f"2^-(n{sign}{'1' * (DIGIT_LIMIT + 1)})")


# ---------------------------------------------------------------------------
# sigma3 documents


def test_spec_round_trip():
    doc = {
        "kind": "sigma3",
        "components": [
            {"kind": "even-zeros"},
            {"kind": "singleton", "point": "01(10)"},
            {"kind": "explicit", "stages": [[""], ["0"], []], "rate": "2^-n"},
        ],
    }
    b = SigmaThreeSet.from_spec(doc)
    assert [c.kind for c in b.components] == ["even-zeros", "singleton", "explicit"]


def test_spec_errors():
    with pytest.raises(ParseError):
        SigmaThreeSet.from_spec({"kind": "union"})
    with pytest.raises(ParseError):
        SigmaThreeSet.from_spec({"kind": "sigma3", "components": "nope"})
    with pytest.raises(ParseError):
        component_from_spec({"kind": "mystery"})
    with pytest.raises(ParseError):
        component_from_spec({"kind": "singleton"})
    # values of the wrong JSON type are parse errors, not TypeErrors
    with pytest.raises(ParseError):
        component_from_spec({"kind": "singleton", "point": 5})
    with pytest.raises(ParseError):
        component_from_spec({"kind": "explicit", "stages": [[5]]})
    with pytest.raises(ParseError):
        component_from_spec({"kind": "explicit", "stages": [["0"], [None]]})


def test_sigma3_membership():
    b = SigmaThreeSet([EvenZeros(), Singleton(Point.parse("(1)"))])
    assert b.exit_stage(Point.parse("(0)")) is None
    assert b.exit_stage(Point.parse("(1)")) is None
    # (10) leaves even-zeros at stage 1 and the singleton (1) at stage 2.
    assert b.exit_stage(Point.parse("(10)")) == 2
    deep = Point.parse("0" * 40 + "1(0)")
    assert b.exit_stage(deep) == 21
    assert membership(b, deep, 3) == "Undecided"
    assert SigmaThreeSet([]).exit_stage(Point.parse("(0)")) == 0


# Points whose first 1 may follow up to 60 zeros, so they exit even-zeros
# on both sides of the depths drawn; explicit paths end in an empty stage,
# so every point exits them.
deep_points = st.builds(
    lambda zeros, pre, per: Point.parse(f"{'0' * zeros}{pre}({per})"),
    st.integers(min_value=0, max_value=60),
    st.text(alphabet="01", max_size=6),
    st.text(alphabet="01", min_size=1, max_size=3),
)
components = st.one_of(
    st.just(EvenZeros()),
    deep_points.map(Singleton),
    st.text(alphabet="01", min_size=1, max_size=8).map(
        lambda w: _explicit([[w[:i]] for i in range(len(w) + 1)] + [[]])
    ),
)


@given(st.lists(components, max_size=4), deep_points, st.integers(min_value=0, max_value=32))
@example([], Point.parse("(0)"), 0)
@example([EvenZeros(), Singleton(Point.parse("0" * 40 + "(1)"))], Point.parse("0" * 40 + "1(0)"), 20)
@settings(max_examples=200)
def test_exit_stage_filters_match_the_tristate(comps, beta, depth):
    # `e is None` selects the In points, and `e <= depth` the Out points,
    # of the union and of each component.
    b = SigmaThreeSet(comps)
    for target in [b, *comps]:
        e = target.exit_stage(beta)
        want = membership(target, beta, depth)
        assert (e is None) == (want == "In")
        assert (e is not None and e <= depth) == (want == "Out")


# ---------------------------------------------------------------------------
# properties


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=64))
@settings(max_examples=60)
def test_stage_measure_in_additivity(n, v):
    # measure in a cylinder equals the sum over its two children — the
    # closed form must be a premeasure.
    t = BitString.raw(6, v & 63).prefix(min(6, max(0, v % 7)))
    m = K.measure_stage_in(n, t)
    assert m == K.measure_stage_in(n, t.child(0)) + K.measure_stage_in(n, t.child(1))


@given(st.integers(min_value=1, max_value=6))
def test_stages_nested(n):
    assert K.stage(n).is_subset_of(K.stage(n - 1))
