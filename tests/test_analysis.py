"""Oscillation certificates, limit recovery, and table diagnostics.

Divergence/convergence verdicts are checked against frozen values computed
from the stage geometry: witness windows, exact variation lower bounds, and
exact limits.  The Doob diagnostic is checked against a hand-enumerated
upcrossing count on a four-leaf table.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from divmart.analysis import (
    CertifiedConvergent,
    CertifiedDivergent,
    DEFAULT_STAGE_BUDGET,
    Inconclusive,
    UpcrossingStats,
    certify_convergence,
    certify_divergence,
    divergence_measure_bound,
    doob_diagnostic,
    first_identity_violation,
    limit_function,
    osc_window,
)
from divmart.bits import BitString, Point
from divmart.dyadic import Dyadic
from divmart.errors import UndefinedAtPoint
from divmart.fine import StepFunction
from divmart.sets import EvenZeros, SigmaThreeSet, Singleton
from divmart.synthesis import (
    CombinedMartingale,
    ConstantPart,
    EmbeddedMartingale,
    gdelta_martingale,
    sigma3_pipeline,
)
from divmart.table import MartingaleTable

EPS = Dyadic(1, 6)


@pytest.fixture(scope="module")
def even():
    return gdelta_martingale(EvenZeros())


@pytest.fixture(scope="module")
def pipe():
    return sigma3_pipeline(SigmaThreeSet([EvenZeros(), Singleton(Point.parse("(1)"))]))


# ---------------------------------------------------------------------------
# divergence at target points


def test_divergence_on_the_target(even):
    rep = certify_divergence(even, Point.parse("(0)"))
    assert rep.divergent and not rep.convergent
    assert rep.verdict == CertifiedDivergent(Dyadic(1, 1))
    assert rep.window == (0, 7)
    assert rep.variation == Dyadic(238199, 18)
    assert rep.variation >= rep.verdict.bound
    assert rep.limit is None
    assert str(rep.verdict) == "CertifiedDivergent(osc ≥ 1/2^1)"


def test_divergence_across_target_points(even):
    for name in ["(01)", "01(0)", "(0001)"]:
        rep = certify_divergence(even, Point.parse(name))
        assert rep.verdict == CertifiedDivergent(Dyadic(1, 1)), name
        assert rep.variation >= Dyadic(1, 1)


def test_divergence_refused_off_the_target(even):
    rep = certify_divergence(even, Point.parse("(1)"))
    assert rep.verdict == Inconclusive("point not certified inside the target")
    assert rep.variation == Dyadic.zero() and rep.window is None


def test_divergence_inconclusive_for_everywhere_convergent_martingales():
    want = Inconclusive("martingale converges everywhere")
    assert certify_divergence(ConstantPart(Dyadic(1, 1)), Point.parse("(0)")).verdict == want
    phi = EmbeddedMartingale(StepFunction(1, [Dyadic.one(), Dyadic.zero()]))
    assert certify_divergence(phi, Point.parse("(0)")).verdict == want


# ---------------------------------------------------------------------------
# convergence off the target


def test_convergence_with_exact_limits(even):
    golden = {
        "(1)": (1, Dyadic.one()),
        "1(0)": (1, Dyadic.one()),
        "001(0)": (3, Dyadic.one()),
    }
    for name, (depth, limit) in golden.items():
        rep = certify_convergence(even, Point.parse(name), EPS)
        assert rep.convergent, name
        assert rep.verdict == CertifiedConvergent(depth, EPS)
        assert rep.window == (depth, depth)
        assert rep.limit == limit
        # Exact stabilization: the table value is already the limit there.
        lo, hi = even.eval(Point.parse(name).prefix(depth), Dyadic(1, 10))
        assert lo == hi == limit


def test_convergence_inconclusive_on_the_target(even):
    rep = certify_convergence(even, Point.parse("(0)"), EPS)
    assert rep.verdict == Inconclusive("point stayed inside every examined region")


def test_convergence_echoes_the_requested_epsilon(even):
    for eps in [Dyadic.zero(), Dyadic(1, 2), Dyadic(3, 10)]:
        rep = certify_convergence(even, Point.parse("(1)"), eps)
        assert rep.verdict.epsilon == eps
    with pytest.raises(ValueError):
        certify_convergence(even, Point.parse("(1)"), Dyadic(-1, 3))


def test_convergence_of_degenerate_parts():
    c = ConstantPart(Dyadic(5, 3))
    rep = certify_convergence(c, Point.parse("(10)"), EPS)
    assert rep.verdict == CertifiedConvergent(0, EPS) and rep.limit == Dyadic(5, 3)
    phi = EmbeddedMartingale(StepFunction(2, [Dyadic.one(), Dyadic.zero(), Dyadic(1, 1), Dyadic(1, 2)]))
    rep = certify_convergence(phi, Point.parse("10(1)"), EPS)
    assert rep.verdict == CertifiedConvergent(2, EPS)
    assert rep.limit == Dyadic(1, 1)  # the step value on the 10-cylinder


# ---------------------------------------------------------------------------
# combined martingales


def test_combined_divergence_bounds(pipe):
    rep0 = certify_divergence(pipe, Point.parse("(0)"))
    assert rep0.verdict == CertifiedDivergent(Dyadic(1, 3))  # part 0: 4^0/8
    assert rep0.window == (0, 7)
    assert rep0.variation == Dyadic(702687, 20)
    rep1 = certify_divergence(pipe, Point.parse("(1)"))
    assert rep1.verdict == CertifiedDivergent(Dyadic(1, 5))  # part 1: 4^-1/8
    assert rep1.window == (4, 9)
    assert rep1.variation == Dyadic(749949, 22)
    for rep in (rep0, rep1):
        assert rep.variation >= rep.verdict.bound


def test_combined_divergence_single_part_wrapper(even):
    pipe1 = CombinedMartingale([even])
    rep = certify_divergence(pipe1, Point.parse("(0)"))
    assert rep.verdict == CertifiedDivergent(Dyadic(1, 3))
    assert rep.variation == Dyadic(714597, 20)


def test_combined_divergence_needs_a_member_component(pipe):
    rep = certify_divergence(pipe, Point.parse("10(0)"))
    assert rep.verdict == Inconclusive("no component certified to contain the point")


def test_combined_divergence_needs_the_earlier_parts_constant():
    # 0^300(1) is in the singleton (part 1) and leaves even-zeros (part 0)
    # at stage 151, past the budget of 12: part 0 is not certified constant
    # along the point, so its divergence cannot be isolated.
    beta = Point.parse("0" * 300 + "(1)")
    f = sigma3_pipeline(SigmaThreeSet([EvenZeros(), Singleton(beta)]))
    rep = certify_divergence(f, beta, 12)
    assert rep.verdict == Inconclusive("part before index 1 not certified constant")


def test_combined_convergence_sums_the_limits(pipe):
    rep = certify_convergence(pipe, Point.parse("10(0)"), EPS)
    assert rep.verdict == CertifiedConvergent(2, EPS)
    # (3/4)·(1 + 1·1/4): both parts stabilize at 1 along this point.
    assert rep.limit == Dyadic(15, 4)


def test_limit_function_point_interval(pipe):
    assert limit_function(pipe, Point.parse("10(0)"), EPS) == (Dyadic(15, 4), Dyadic(15, 4))
    with pytest.raises(UndefinedAtPoint) as exc:
        limit_function(pipe, Point.parse("(0)"), EPS)
    assert "diverges" in str(exc.value)


def test_limit_function_without_a_certificate(even):
    # 0^2000(1) leaves even-zeros at stage 1001: neither certificate is
    # found within the default budget.
    beta = Point.parse("0" * 2000 + "(1)")
    with pytest.raises(UndefinedAtPoint, match=r"^no certificate at "):
        limit_function(even, beta, EPS)


def test_default_stage_budget():
    assert DEFAULT_STAGE_BUDGET == 12


# ---------------------------------------------------------------------------
# windows and measure bounds


def test_osc_window_matches_certificate(even):
    assert osc_window(even, Point.parse("(0)"), 0, 7) == Dyadic(238199, 18)
    with pytest.raises(ValueError):
        osc_window(even, Point.parse("(0)"), 5, 3)


def test_osc_window_monotone_in_the_window(even):
    beta = Point.parse("(0)")
    eps = Dyadic(1, 11)
    spreads = [osc_window(even, beta, 0, l, eps) for l in range(1, 8)]
    for a, b in zip(spreads, spreads[1:]):
        assert a <= b
    assert spreads[-1] == Dyadic(238199, 18)


def test_osc_window_exact_for_embeddings():
    phi = EmbeddedMartingale(StepFunction(1, [Dyadic.one(), Dyadic.zero()]))
    assert osc_window(phi, Point.parse("(0)"), 0, 4) == Dyadic(1, 1)
    assert osc_window(phi, Point.parse("(0)"), 1, 4) == Dyadic.zero()


def osc_window_reference(ivs) -> Dyadic:
    """The largest gap between two of the intervals, pair by pair."""
    best = Dyadic.zero()
    for i in range(len(ivs)):
        lo_i, hi_i = ivs[i]
        for j in range(i + 1, len(ivs)):
            lo_j, hi_j = ivs[j]
            gap = lo_i - hi_j if lo_i > hi_j else lo_j - hi_i
            if gap > best:
                best = gap
    return best


class _Intervals:
    """A martingale stand-in whose evaluation interval at depth i is the
    i-th of a list."""

    def __init__(self, ivs) -> None:
        self.ivs = ivs

    def eval(self, s: BitString, precision: Dyadic):
        return self.ivs[len(s)]


intervals = st.tuples(st.integers(-64, 64), st.integers(-64, 64)).map(
    lambda ab: (Dyadic(min(ab), 5), Dyadic(max(ab), 5))
)


@settings(max_examples=300)
@given(st.lists(intervals, min_size=1, max_size=12), st.data())
def test_osc_window_matches_the_pairwise_gaps(ivs, data):
    n = data.draw(st.integers(0, len(ivs) - 1))
    l = data.draw(st.integers(n, len(ivs) - 1))
    got = osc_window(_Intervals(ivs), Point.parse("(0)"), n, l)
    assert got == osc_window_reference(ivs[n : l + 1])


def test_divergence_measure_bound_shrinks(even):
    assert divergence_measure_bound(even, 0) == Dyadic.one()
    assert divergence_measure_bound(even, 2) == Dyadic.pow2(-9)
    assert divergence_measure_bound(even, 10) == Dyadic.pow2(-85)
    assert divergence_measure_bound(even, 10) <= Dyadic.pow2(-10)


# ---------------------------------------------------------------------------
# table diagnostics


def test_identity_violation_localized(even):
    table = even.truncated_table(1, 6)
    assert first_identity_violation(table) is None
    values = list(table.values)
    values[(1 << 6) - 1 + 5] = values[(1 << 6) - 1 + 5] + Dyadic(1, 8)
    bad = MartingaleTable.from_entries(
        6, lambda s, up: (values[(1 << len(s)) - 1 + s.v], False, None))
    assert first_identity_violation(bad) == BitString.raw(5, 2)


def test_table_checks_expand_the_table_once(even, monkeypatch):
    # A run-kept table answers value(s) by a bisection and expands its runs
    # on each read of `values`: the per-node checks read one expansion.
    table = even.truncated_table(3, 12)
    expand = MartingaleTable.values.fget
    reads = []

    def counted(self):
        reads.append(1)
        return expand(self)

    def refused(self, s):
        raise AssertionError("value(s) asked by a whole-table check")

    monkeypatch.setattr(MartingaleTable, "values", property(counted))
    monkeypatch.setattr(MartingaleTable, "value", refused)
    checks = [
        lambda: first_identity_violation(table),
        lambda: doob_diagnostic(table, Dyadic(1, 2), Dyadic(3, 2)),
        lambda: list(table.nodes()),
    ]
    for check in checks:
        reads.clear()
        check()
        assert len(reads) == 1


def test_doob_upcrossings_hand_count():
    # Leaves (0, 1, 0, 0): exactly one of the four paths dips to 1/4 and
    # then rises above 3/4, so the mean upcrossing count is 1/4.
    phi = EmbeddedMartingale(
        StepFunction(2, [Dyadic.zero(), Dyadic.one(), Dyadic.zero(), Dyadic.zero()])
    )
    stats = doob_diagnostic(phi.truncated_table(0, 2), Dyadic(1, 2), Dyadic(3, 2))
    assert stats == UpcrossingStats(Dyadic(1, 2), Dyadic(3, 2), 2, Dyadic(1, 2))
    assert stats.doob_product == Dyadic(1, 3)


def test_doob_on_the_synthesized_table(even):
    stats = doob_diagnostic(even.truncated_table(1, 8), Dyadic(1, 2), Dyadic(3, 2))
    assert stats.mean_upcrossings == Dyadic.zero()


def test_doob_band_validation(even):
    table = even.truncated_table(1, 4)
    with pytest.raises(ValueError):
        doob_diagnostic(table, Dyadic(3, 2), Dyadic(1, 2))
    with pytest.raises(ValueError):
        doob_diagnostic(table, Dyadic(1, 1), Dyadic(1, 1))


dyadic_values = st.integers(min_value=0, max_value=16).map(lambda k: Dyadic(k, 4))


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.lists(dyadic_values, min_size=1 << d, max_size=1 << d)
    ),
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=1, max_value=15),
)
# path 11 upcrosses (1/4, 3/4) below the last interior node
@example(leaves=[Dyadic(0), Dyadic(0), Dyadic(0), Dyadic(1)], a16=4, delta=8)
def test_doob_bound_on_random_tables(leaves, a16, delta):
    b16 = min(a16 + delta, 16)
    if b16 == a16:
        b16 = a16 + 1
    depth = (len(leaves)).bit_length() - 1
    table = EmbeddedMartingale(StepFunction(depth, leaves)).truncated_table(0, depth)
    stats = doob_diagnostic(table, Dyadic(a16, 4), Dyadic(b16, 4))
    assert stats.doob_product <= Dyadic.one()
    assert stats.mean_upcrossings >= Dyadic.zero()
    assert stats.mean_upcrossings == upcrossings_by_paths(table, Dyadic(a16, 4), Dyadic(b16, 4))


def upcrossings_by_paths(table, a, b) -> Dyadic:
    """The mean upcrossing count, path by path through table.value(s)."""
    total = 0
    for leaf in range(1 << table.depth):
        armed, count = False, 0
        for l in range(table.depth + 1):
            v = table.value(BitString.raw(l, leaf >> (table.depth - l)))
            if armed and v >= b:
                count, armed = count + 1, False
            if not armed and v <= a:
                armed = True
        total += count
    return Dyadic(total, table.depth)
