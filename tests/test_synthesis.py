"""Stagewise martingale synthesis, the union combinator, and embeddings.

The stage chain for the canonical targets is frozen: the budget recurrence
forces presentation-stage indices m_0 = 0, m_n = m_{n-1} + n + 3, giving
0, 4, 9, 15, 22, ... and region measures 2^(-m_n).  These values double as
an independent oracle for the divergence-measure bound and the witness
geometry, so any change to the budget arithmetic shows up here exactly.
"""

import tracemalloc
from itertools import accumulate
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from divmart.analysis import (
    CertifiedConvergent,
    _single_convergence,
    _witness_distance,
    certify_convergence,
    divergence_measure_bound,
    first_identity_violation,
)
from divmart.bits import BitString, Point, EMPTY
from divmart.clopen import ClopenSet
from divmart.dyadic import Dyadic
from divmart.errors import HorizonExhausted
from divmart.fine import StepFunction
from divmart import bits, synthesis
from divmart.sets import (
    EvenZeros,
    ExplicitGDelta,
    GDeltaSet,
    SigmaThreeSet,
    Singleton,
    _even_mask,
    parse_rate,
)
from divmart.synthesis import (
    SCALE,
    CombinedMartingale,
    ConstantPart,
    EmbeddedMartingale,
    StageCertificate,
    StageRegion,
    SynthesizedMartingale,
    gdelta_martingale,
    sigma3_pipeline,
)
from divmart.table import MartingaleTable

M_CHAIN = [0, 4, 9, 15, 22, 30, 39, 49, 60, 72, 85, 99, 114, 130, 147]


@pytest.fixture(scope="module")
def even():
    return gdelta_martingale(EvenZeros())


@pytest.fixture(scope="module")
def single():
    return gdelta_martingale(Singleton(Point.parse("(1)")))


# ---------------------------------------------------------------------------
# the stage chain


def test_stage_index_recurrence(even):
    assert [even.stage(n).stage_index for n in range(15)] == M_CHAIN
    for n in range(1, 15):
        assert M_CHAIN[n] == M_CHAIN[n - 1] + n + 3


def test_region_measures_follow_the_chain(even):
    for n in range(6):
        assert even.stage(n).gstar.measure == Dyadic.pow2(-M_CHAIN[n])


def test_singleton_has_the_same_chain(single):
    assert [single.stage(n).stage_index for n in range(6)] == M_CHAIN[:6]
    # Witnesses of the singleton are its own prefixes, one per stage.
    got = [str(single.stage(n).witnesses.sample(1)[0]) for n in range(5)]
    assert got == ["1" * m for m in M_CHAIN[:5]]


@pytest.mark.parametrize("target", [EvenZeros(), Singleton(Point.parse("01(011)"))],
                         ids=["even-zeros", "singleton"])
def test_a_stage_region_covers_exactly_the_cylinders_inside_its_stage(target):
    # covers reads the measure pair by bit length; the materialized stage
    # answers by its antichain, and the measure as a Dyadic.
    for m in range(6):
        region, stage = StageRegion(target, m), target.stage(m)
        for l in range(9):
            for v in range(1 << l):
                t = BitString.raw(l, v)
                assert region.covers(t) == stage.covers(t), (m, str(t))
                assert region.covers(t) == (region.measure_in(t) == Dyadic.pow2(-l))


def test_stage_zero_is_the_full_space(even):
    cert = even.stage(0)
    assert cert.gstar.covers(EMPTY)
    assert [str(w) for w in cert.witnesses.sample(4)] == [""]


def test_witness_geometry(even):
    # Stage n witnesses: canonical cylinders of stage(m_n); the trailing odd
    # (unconstrained) bit merges away, leaving length 2·m_n - 1.
    cert = even.stage(1)
    assert cert.witnesses.count() == 8
    sample = cert.witnesses.sample(3)
    assert [str(w) for w in sample] == ["0000000", "0000010", "0001000"]
    assert even.stage(2).witnesses.count() == 256
    for n in (1, 2):
        for w in even.stage(n).witnesses.sample(4):
            assert len(w) == 2 * M_CHAIN[n] - 1
            assert even.target.meets_target(w)


def test_witness_enumeration_cap(even):
    # Stage 3 has 2^14 witnesses — refuse to materialize them.
    with pytest.raises(HorizonExhausted):
        even.stage(3).witnesses.all()


def chain_region(cert: StageCertificate, j: int):
    """G*_j, reached from the certificate by following `prev`."""
    while cert.index > j:
        if cert.prev is None:
            raise ValueError(f"certificate chain broken below index {cert.index}")
        cert = cert.prev
    if cert.index != j:
        raise ValueError(f"no certificate at index {j}")
    return cert.gstar


def partial_mean_at(cert: StageCertificate, w: BitString) -> Dyadic:
    """⨍_{N_w} S_n dλ computed through the chain in one walk, exact: n+1
    region queries.  The reference the inductive mean-proximity check is
    tested against."""
    total = Dyadic.zero()
    for j in range(cert.index, -1, -1):
        if cert is None:
            raise ValueError(f"certificate chain broken below index {j + 1}")
        if cert.index != j:
            raise ValueError(f"no certificate at index {j}")
        r = cert.gstar.measure_in(w).mul_pow2(len(w))
        total = total - r if j % 2 else total + r
        cert = cert.prev
    return total


def test_certificate_chain_access(even):
    cert = even.stage(3)
    for j in range(4):
        assert chain_region(cert, j) is even.stage(j).gstar
    with pytest.raises(ValueError):
        chain_region(cert, 7)


def partial_mean_reference(cert, w):
    total = Dyadic.zero()
    for j in range(cert.index + 1):
        r = chain_region(cert, j).measure_in(w).mul_pow2(len(w))
        total = total + r if j % 2 == 0 else total - r
    return total


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=40),
       st.integers(min_value=0))
@settings(max_examples=60, deadline=None)
def test_partial_mean_matches_the_chain_sum(n, l, v):
    cert = gdelta_martingale(EvenZeros()).stage(n)
    w = BitString.raw(l, v & ((1 << l) - 1))
    assert partial_mean_at(cert, w) == partial_mean_reference(cert, w)
    witness = cert.witnesses.sample(1)[0]
    assert partial_mean_at(cert, witness) == partial_mean_reference(cert, witness)


def test_partial_mean_rejects_a_broken_chain(even):
    cert = even.stage(2)
    orphan = StageCertificate(2, cert.gstar, even.target, None)
    with pytest.raises(ValueError):
        partial_mean_at(orphan, EMPTY)
    gap = StageCertificate(3, cert.gstar, even.target, even.stage(1))
    with pytest.raises(ValueError):
        partial_mean_at(gap, EMPTY)


# ---------------------------------------------------------------------------
# the stage search against a linear scan


class StepTarget(GDeltaSet):
    """Nested stages whose measure in every cylinder is 2^-exps[m], the
    last exponent repeating; optionally frozen from the last listed stage."""

    def __init__(self, exps, frozen):
        self.exps = exps
        self.probes = 0
        if frozen:
            self.frozen_from = len(exps) - 1

    def measure_stage_in(self, m, t):
        self.probes += 1
        return Dyadic.pow2(-self.exps[min(m, len(self.exps) - 1)])


def find_stage_index_reference(target, w, threshold, start):
    bound = threshold.mul_pow2(-len(w))
    frozen_from = getattr(target, "frozen_from", None)
    for m in range(start, start + synthesis._STAGE_SEARCH_SPAN):
        if target.measure_stage_in(m, w) < bound:
            return m
        if frozen_from is not None and m >= frozen_from:
            break
    raise HorizonExhausted(
        f"stage budget λ(stage(m) ∩ N_{str(w) or 'ε'}) < {threshold}·2^-{len(w)}",
        f"no reachable stage index from {start} meets it",
    )


def _outcome(target, w, threshold, start, search):
    try:
        return search(target, w, threshold, start)
    except HorizonExhausted as e:
        return str(e)


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60),
    st.booleans(),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=70),
    st.integers(min_value=1, max_value=80),
)
@example([1] * 10, False, 30, 0, 0, 50)  # the span runs out
@example([1] * 40, False, 30, 0, 0, 31)  # met at the span's last index
@example([1] * 10, True, 30, 0, 3, 50)  # the stages freeze first
@example([1] * 10, True, 30, 0, 20, 50)  # frozen before the search starts
@settings(max_examples=300, deadline=None)
def test_stage_search_matches_linear_scan(steps, frozen, t, l, start, span):
    exps = list(accumulate(steps))
    threshold = Dyadic.pow2(-t)
    w = BitString.raw(l, 0)
    with patch.object(synthesis, "_STAGE_SEARCH_SPAN", span):
        want = _outcome(StepTarget(exps, frozen), w, threshold, start,
                        find_stage_index_reference)
        target = StepTarget(exps, frozen)
        got = _outcome(target, w, threshold, start, synthesis._find_stage_index)
    assert got == want
    if isinstance(got, int):
        assert target.probes <= 2 * (got - start + 2).bit_length()
    else:
        assert target.probes <= (span + 2).bit_length() + 1


def test_stage_search_on_the_real_chains():
    find, covers = synthesis._find_stage_index, StageRegion.covers
    inside, finds = [], []

    def within(fn):
        def wrapped(*args, **kwargs):
            inside.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    def counted_find(*args):
        finds.append(args)
        return find(*args)

    for target in (EvenZeros(), Singleton(Point.parse("01(011)"))):
        g = gdelta_martingale(target)
        measure, checks = target.measure_stage_pair, []

        def counted_measure(m, n, v):
            if not inside:
                checks.append((m, BitString.raw(n, v)))
            return measure(m, n, v)

        # The halving chain reads its stage indices: no search, and outside
        # the cover test of the mean-proximity proof one measure query per
        # stage, the check of condition (5) at the previous stage's first
        # witness.
        with patch.object(synthesis, "_find_stage_index", within(counted_find)), \
                patch.object(StageRegion, "covers", within(covers)), \
                patch.object(target, "measure_stage_pair", counted_measure):
            g.stage(40)
        assert finds == []
        assert checks == [
            (g.stage(n).stage_index, g.stage(n - 1).witnesses.sample(1)[0])
            for n in range(1, 41)
        ]
        for n in range(1, 41):
            prev = g.stage(n - 1)
            w = prev.witnesses.sample(1)[0]
            threshold = Dyadic.pow2(-(n - 1) - synthesis._BUDGET_EXP_OFFSET)
            start = max(n, prev.stage_index + 1)
            want = find_stage_index_reference(target, w, threshold, start)
            assert find(target, w, threshold, start) == want
            assert want == g.stage(n).stage_index
            # m_(n+1) - m_n = n + 4, which perfbench's measure_exponent uses
            assert want - prev.stage_index == (n - 1) + 4


@pytest.mark.parametrize(
    "target", [EvenZeros, lambda: Singleton(Point.parse("01(011)"))], ids=["even", "single"]
)
def test_unreachable_stage_is_refused_before_any_build(target):
    # With a span of 64, stage 62 is the first one out of reach: the
    # build's own error at stage 62, after stages 1-61, is the one the
    # up-front refusal gives with no stage built.
    with patch.object(synthesis, "_STAGE_SEARCH_SPAN", 64):
        built = gdelta_martingale(target())
        prev = built.stage(61)
        with pytest.raises(HorizonExhausted) as slow:
            synthesis.build_stage(prev, built.target)
        for n in (62, 63, 500):
            g = gdelta_martingale(target())
            with pytest.raises(HorizonExhausted) as fast:
                g.stage(n)
            assert str(fast.value) == str(slow.value)
            assert len(g._stages) == 1
        # stages built up to the last reachable one change nothing
        with pytest.raises(HorizonExhausted) as again:
            built.stage(62)
        assert str(again.value) == str(slow.value)
    assert "no reachable stage index from 2075 meets it" in str(slow.value)


@pytest.mark.parametrize("l", [0, 5, 64, 65, 5000])
def test_stage_budget_text_shortens_a_long_witness(l):
    # A 2^-l stage in every cylinder, frozen: the budget below is never met.
    w = BitString.raw(l, ((1 << l) - 1) // 3)  # 0101…
    threshold = Dyadic.pow2(-30)
    want = _outcome(StepTarget([l], True), w, threshold, 0, find_stage_index_reference)
    got = _outcome(StepTarget([l], True), w, threshold, 0, synthesis._find_stage_index)
    if l <= 64:
        assert got == want
    else:
        assert got == want.replace(str(w), f"{str(w)[:64]}…({l} bits)")
        assert len(got) < 300


def check_stage_conditions(g: SynthesizedMartingale, n: int, sample_cap: int = 6) -> list[str]:
    """Finite-horizon audit of the construction conditions at stage n.
    Returns failure descriptions (empty = all pass)."""
    failures: list[str] = []
    cert = g.stage(n)
    ws = cert.witnesses.sample(sample_cap)
    stage_meas = g.target.measure_stage_in

    if n == 0:
        if not cert.gstar.covers(EMPTY):
            failures.append("G*_0 is not the full space")
    for w in ws:
        if not cert.gstar.covers(w):
            failures.append(f"witness {w!r} not inside G*_{n}")
        if stage_meas(n, w) != Dyadic.pow2(-len(w)):
            failures.append(f"witness {w!r} of G*_{n} escapes stage({n})")
        if not g.target.meets_target(w):
            failures.append(f"witness {w!r} misses the target")
        err = g.witness_mean_error(n, w)
        if not err < Dyadic(1, 3):
            failures.append(f"mean proximity fails at {w!r}: error {err}")
        nxt = g.relative_measure(n + 1, w)
        if not nxt < Dyadic.pow2(-n - synthesis._BUDGET_EXP_OFFSET):
            failures.append(f"budget fails at {w!r}: λ(G*_{n+1}∩N_w)/λ(N_w) = {nxt}")
    # region nesting at sampled witnesses of the next stage
    for w in g.stage(n + 1).witnesses.sample(sample_cap):
        if g.stage(n + 1).gstar.measure_in(w) > cert.gstar.measure_in(w):
            failures.append(f"G*_{n + 1} not inside G*_{n} at {w!r}")
    return failures


def test_stage_conditions_audit_clean(even, single):
    for n in range(5):
        assert check_stage_conditions(even, n) == []
    for n in range(4):
        assert check_stage_conditions(single, n) == []


def test_witness_mean_error_is_exactly_zero(even):
    # Condition (6) holds with error 0 at canonical witnesses: each witness
    # is nested in every earlier region, so the partial mean telescopes.
    for n in range(1, 5):
        w = even.stage(n).witnesses.sample(1)[0]
        assert even.witness_mean_error(n, w) == Dyadic.zero()


def test_budget_condition_at_witnesses(even):
    # Condition (5): λ(G*_{n+1} ∩ N_w) / λ(N_w) < 2^(-n-3).
    golden = {1: Dyadic(1, 5), 2: Dyadic(1, 6), 3: Dyadic(1, 7)}
    for n, expected in golden.items():
        w = even.stage(n).witnesses.sample(1)[0]
        rel = even.relative_measure(n + 1, w)
        assert rel == expected
        assert rel < Dyadic.pow2(-n - 3)


# ---------------------------------------------------------------------------
# evaluation: exact nested intervals


def test_eval_ladder_at_root(even):
    coarse = even.eval(EMPTY, Dyadic(1, 8))
    assert coarse == (Dyadic(15, 4), Dyadic(481, 9))
    fine_iv = even.eval(EMPTY, Dyadic(1, 10))
    assert fine_iv == (Dyadic(30783, 15), Dyadic(3940225, 22))
    # Nesting and width certificates.
    assert coarse[0] <= fine_iv[0] and fine_iv[1] <= coarse[1]
    assert coarse[1] - coarse[0] == Dyadic.pow2(-9) <= Dyadic(1, 8)
    assert fine_iv[1] - fine_iv[0] == Dyadic.pow2(-22) <= Dyadic(1, 10)


def test_eval_is_exact_once_the_chain_dies(even):
    # N_1 misses every region past G*_0, so the value is exactly 1.
    assert even.eval(BitString("1"), Dyadic(1, 8)) == (Dyadic.one(), Dyadic.one())


def test_table_value_golden(even):
    assert even.table_value(3, EMPTY) == Dyadic(3940225, 22)
    # M_k(s) = partial mean of S_{k+1}.
    assert even.table_value(0, EMPTY) == Dyadic(15, 4)


def leaf_average_below(table, s):
    """Mean of the depth-level leaves under N_s, recomputed the slow way:
    the value a martingale table must carry at s."""
    below = table.depth - len(s)
    leaves = table.values[(1 << table.depth) - 1 :][s.v << below : (s.v + 1) << below]
    return sum(leaves, Dyadic.zero()).mul_pow2(-below)


def test_truncated_table_is_a_martingale(even):
    table = even.truncated_table(1, 6)
    assert first_identity_violation(table) is None
    for s, v in table.nodes():
        if len(s) < table.depth:
            assert v == leaf_average_below(table, s)


# ---------------------------------------------------------------------------
# explicitly-presented targets take the materialized-region path


@pytest.fixture(scope="module")
def explicit_target():
    stages = [ClopenSet.from_strings(["0" * k]) for k in range(17)]
    return ExplicitGDelta(stages, parse_rate("2^-n"))


def test_explicit_target_builds_clopen_regions(explicit_target):
    g = gdelta_martingale(explicit_target)
    assert isinstance(g.stage(0).gstar, StageRegion)
    for n in (1, 2, 3):
        assert isinstance(g.stage(n).gstar, ClopenSet)
        assert g.stage(n).gstar.measure == Dyadic.pow2(-M_CHAIN[n])
    assert [[str(w) for w in g.stage(n).witnesses.all()] for n in range(4)] == [
        [""], ["0000"], ["000000000"], ["000000000000000"]
    ]
    for n in range(3):
        assert check_stage_conditions(g, n) == []


def test_explicit_target_exhausts_honestly(explicit_target):
    # The frozen presentation stops shrinking at index 16, so the stage-4
    # budget (2^-6 relative to a depth-15 witness) is unreachable.
    g = gdelta_martingale(explicit_target)
    g.stage(3)
    with pytest.raises(HorizonExhausted) as exc:
        g.stage(4)
    assert "stage budget" in str(exc.value)


def brute_force_settling_depth(f, beta, stage_budget):
    """Minimal l at which N_{β|l} lies inside or outside each examined
    region, by direct measure queries."""
    l = 0
    while True:
        t = beta.prefix(l)
        full = Dyadic.pow2(-l)
        if all(
            f.stage(j).gstar.measure_in(t) in (Dyadic.zero(), full)
            for j in range(stage_budget + 1)
        ):
            return l
        l += 1


@pytest.mark.parametrize(
    "text, depth, limit",
    [("1(0)", 1, 1), ("001(0)", 3, 1), ("00001(0)", 5, 0), ("0000000001(1)", 10, 1)],
)
def test_convergence_through_materialized_regions(explicit_target, text, depth, limit):
    g = gdelta_martingale(explicit_target)
    beta = Point.parse(text)
    got = _single_convergence(g, beta, 3)
    assert got == (depth, Dyadic(limit, 0))
    assert depth == brute_force_settling_depth(g, beta, 3)
    rep = certify_convergence(g, beta, Dyadic(1, 6), 3)
    assert rep.verdict == CertifiedConvergent(depth, Dyadic(1, 6))
    # From the certified depth on, the evaluation bracket is constant and
    # holds the limit, and the mean of S_3 is exactly the limit.  (A finer
    # bracket at the last point needs stage 4, which this target cannot
    # build.)
    bracket = g.eval(beta.prefix(depth), Dyadic.one())
    assert bracket[0] <= Dyadic(limit, 0) <= bracket[1]
    for l in range(depth, depth + 6):
        assert g.eval(beta.prefix(l), Dyadic.one()) == bracket
        assert g.table_value(2, beta.prefix(l)) == Dyadic(limit, 0)


def _counted(cls, name):
    return patch.object(cls, name, autospec=True, side_effect=getattr(cls, name))


def test_convergence_asks_each_region_for_the_point_once(explicit_target):
    # One pass per part: G*_0, …, G*_j* are each asked once for the
    # cylinder holding β, where j* is the first region without β, and no
    # region is asked whether it contains β.
    parts = [gdelta_martingale(EvenZeros()), gdelta_martingale(explicit_target)]
    beta = Point.parse("0000000001(1)")
    jstars = [
        next(j for j in range(4) if part.stage(j).gstar.cylinder_containing(beta) is None)
        for part in parts
    ]
    assert jstars == [2, 3]
    with _counted(StageRegion, "cylinder_containing") as stage_asks, \
            _counted(ClopenSet, "cylinder_containing") as clopen_asks, \
            _counted(ClopenSet, "contains_point") as contains:
        rep = certify_convergence(CombinedMartingale(parts), beta, Dyadic(1, 6), 3)
    assert rep.convergent
    # (A StageRegion of an explicit target asks its stage's ClopenSet in
    # turn; only the questions put to the regions are counted.)
    asked = [c.args[0] for c in stage_asks.call_args_list + clopen_asks.call_args_list]
    for part, jstar in zip(parts, jstars):
        counts = [sum(r is cert.gstar for r in asked) for cert in part._stages]
        assert counts == [1] * (jstar + 1)
    assert contains.call_count == 0
    assert not hasattr(StageRegion, "contains_point")


class DeadAfterStageZero(GDeltaSet):
    """Full stage 0, every later stage empty, and no cylinder meets the
    target: the witnesses run out at once."""

    def stage(self, n):
        return ClopenSet.full() if n == 0 else ClopenSet.empty()

    def rate(self, n):
        return Dyadic.pow2(-n)

    def meets_target(self, t):
        return False


class HalvingDeadAfterStageZero(DeadAfterStageZero):
    """Declared halving, which an empty stage satisfies vacuously: the
    stage chain runs out of witnesses after stage 1."""

    halving = True


def check_empty_after_stage_zero(g):
    assert g.stage(2).gstar == ClopenSet.empty()
    assert g.stage(1).witnesses.count() == 0
    assert g.stage(2).witnesses.count() == 0
    assert divergence_measure_bound(g, 1) == 0
    rep = certify_convergence(g, Point.parse("01(1)"), Dyadic(1, 6), 3)
    assert rep.verdict == CertifiedConvergent(0, Dyadic(1, 6))
    assert rep.limit == Dyadic.one()


def test_empty_witnesses_give_the_empty_region():
    check_empty_after_stage_zero(gdelta_martingale(DeadAfterStageZero()))


def test_a_halving_chain_that_runs_out_of_witnesses():
    # The halving shortcut needs a witness to check (5) at; without one
    # the per-witness path builds the empty stage, as for any target.
    check_empty_after_stage_zero(gdelta_martingale(HalvingDeadAfterStageZero()))


def test_a_halving_chain_without_witnesses_is_not_refused():
    # Out-of-span stages are refused from the formula only while the chain
    # has witnesses; here it has none from stage 1 on, so no stage index
    # is ever sought and stage 62 of a 64 span is built, empty.
    with patch.object(synthesis, "_STAGE_SEARCH_SPAN", 64):
        g = gdelta_martingale(HalvingDeadAfterStageZero())
        assert g.stage(62).gstar == ClopenSet.empty()
        assert g.stage(62).witnesses.count() == 0


# ---------------------------------------------------------------------------
# the union combinator


def partial_mean(f: SynthesizedMartingale, n: int, s: BitString) -> Dyadic:
    """⨍_{N_s} S_n dλ = Σ_{j≤n} (-1)^j · r_j(s), summed term by term in
    Dyadic arithmetic: the reference for table_value and
    witness_mean_error, which read the descent's integer sum."""
    total = Dyadic.zero()
    for j in range(n + 1):
        r = f.relative_measure(j, s)
        total = total - r if j % 2 else total + r
    return total


def table_value(f, k: int, s: BitString) -> Dyadic:
    """M_k(s) of any part or combination, computed node by node as a Dyadic
    sum of relative_measure, the step mean, the constant and the tail: the
    reference the flat term descent is checked against, independent of
    Part.terms and of the descent's integer loop."""
    if isinstance(f, CombinedMartingale):
        total = f._tail_value()
        for n, part in enumerate(f.parts):
            total = total + (table_value(part, k, s) * SCALE).mul_pow2(-2 * n)
        return total
    if isinstance(f, ConstantPart):
        return f.c
    if isinstance(f, EmbeddedMartingale):
        return f.value(s)
    return partial_mean(f, k + 1, s)


def test_constant_part_validation():
    with pytest.raises(ValueError):
        ConstantPart(Dyadic(3, 1))
    part = ConstantPart(Dyadic(5, 3))
    assert part.eval(EMPTY, Dyadic(1, 4)) == (Dyadic(5, 3), Dyadic(5, 3))
    assert table_value(part, 7, BitString("0110")) == Dyadic(5, 3)


def test_union_of_constants_is_the_constant():
    c = Dyadic(5, 3)
    for k in (1, 2, 3, 5):
        f = CombinedMartingale([ConstantPart(c)] * k, tail_constant=c)
        for name in ["", "0", "01", "0110", "111"]:
            s = BitString(name)
            assert f.eval(s, Dyadic(1, 6)) == (c, c)
            assert table_value(f, 2, s) == c


def test_empty_union_is_zero():
    f = CombinedMartingale([])
    assert f.eval(EMPTY, Dyadic(1, 4)) == (Dyadic.zero(), Dyadic.zero())
    g = CombinedMartingale([], tail_constant=Dyadic(1, 1))
    assert g.eval(EMPTY, Dyadic(1, 4)) == (Dyadic(1, 1), Dyadic(1, 1))
    with pytest.raises(ValueError):
        CombinedMartingale([], tail_constant=Dyadic(-1, 1))


def test_union_scaling_of_a_single_part(even):
    f = CombinedMartingale([even])
    # At N_1 the part is exactly 1, so the union is exactly 3/4.
    assert f.eval(BitString("1"), Dyadic(1, 8)) == (SCALE, SCALE)
    with pytest.raises(ValueError):
        f.eval(EMPTY, Dyadic.zero())


def test_union_table_is_the_scaled_sum(even, single):
    f = CombinedMartingale([even, single], tail_constant=Dyadic(1, 1))
    for name in ["", "0", "1", "010"]:
        s = BitString(name)
        want = (
            (even.table_value(2, s) * SCALE)
            + (single.table_value(2, s) * SCALE).mul_pow2(-2)
            + Dyadic(1, 1).mul_pow2(-4)
        )
        assert table_value(f, 2, s) == want


def test_pipeline_wraps_components(even):
    pipe = sigma3_pipeline(SigmaThreeSet([EvenZeros(), Singleton(Point.parse("(1)"))]))
    assert len(pipe.parts) == 2
    assert pipe.tail_constant is None
    table = pipe.truncated_table(1, 5)
    assert first_identity_violation(table) is None


# ---------------------------------------------------------------------------
# embedding step functions


def test_embedded_indicator_means():
    h = StepFunction(1, [Dyadic.one(), Dyadic.zero()])
    phi = EmbeddedMartingale(h)
    assert isinstance(phi, EmbeddedMartingale)
    assert phi.value(EMPTY) == Dyadic(1, 1)
    assert phi.value(BitString("0")) == Dyadic.one()
    assert phi.value(BitString("1")) == Dyadic.zero()
    # Constant below the step resolution.
    assert phi.value(BitString("0110")) == phi.value(BitString("01"))
    assert phi.eval(EMPTY, Dyadic(1, 9)) == (Dyadic(1, 1), Dyadic(1, 1))
    assert phi.truncated_table(0, 4).values == phi.truncated_table(3, 4).values


dyadic_values = st.integers(min_value=0, max_value=64).map(lambda k: Dyadic(k, 6))


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=4).flatmap(
        lambda d: st.lists(dyadic_values, min_size=1 << d, max_size=1 << d)
    )
)
def test_embedded_tables_are_martingales(values):
    depth = (len(values)).bit_length() - 1
    phi = EmbeddedMartingale(StepFunction(depth, values))
    table = phi.truncated_table(0, depth + 1)
    assert first_identity_violation(table) is None
    # The embedding recovers the step exactly at its own resolution.
    for i, v in enumerate(values):
        leaf = BitString(format(i, f"0{depth}b") if depth else "")
        assert phi.value(leaf) == v


# ---------------------------------------------------------------------------
# the settled-subtree descent against the per-node reference


bit_strings = st.text(alphabet="01", max_size=4)
points = st.builds(lambda pre, per: Point.parse(f"{pre}({per})"),
                   bit_strings, st.text(alphabet="01", min_size=1, max_size=3))
# A path of cylinders ending in an empty stage: the materialized-region path.
explicit_paths = st.text(alphabet="01", min_size=1, max_size=5).map(
    lambda w: ExplicitGDelta(
        [ClopenSet.from_strings([w[:i]]) for i in range(1, len(w) + 1)]
        + [ClopenSet.empty()],
        parse_rate("2^-n"),
    )
)
step_functions = st.integers(min_value=0, max_value=3).flatmap(
    lambda d: st.lists(dyadic_values, min_size=1 << d, max_size=1 << d)
).map(lambda vs: StepFunction(len(vs).bit_length() - 1, vs))


def all_nodes(depth):
    return [BitString.raw(l, v) for l in range(depth + 1) for v in range(1 << l)]


def reference_table(f, k, depth):
    """The per-node fill the descent replaces: the reference M_k (the Dyadic
    sum of table_value above) at every node."""
    return [table_value(f, k, s) for s in all_nodes(depth)]


@settings(max_examples=30, deadline=None)
@given(
    singletons=st.lists(points, max_size=2),
    explicit=explicit_paths,
    tail=st.none() | st.integers(min_value=0, max_value=8).map(lambda n: Dyadic(n, 3)),
    step=st.none() | step_functions,
    k=st.integers(min_value=0, max_value=5),
    depth=st.integers(min_value=0, max_value=9),
)
def test_descent_matches_the_per_node_table(singletons, explicit, tail, step, k, depth):
    parts = [gdelta_martingale(EvenZeros())]
    parts += [gdelta_martingale(Singleton(p)) for p in singletons]
    parts.append(gdelta_martingale(explicit))
    if step is not None:
        parts.append(EmbeddedMartingale(step))
    f = CombinedMartingale(parts, tail_constant=tail)
    want = reference_table(f, k, depth)
    assert f.truncated_table(k, depth).values == want
    for part in parts:
        assert part.truncated_table(k, depth).values == reference_table(part, k, depth)
    # A settled node's value holds on its whole subtree.
    root = f.terms(k)
    for s in all_nodes(depth):
        value, settled, _ = synthesis._descend(s, root)
        if not settled:
            continue
        for below in range(depth - len(s) + 1):
            start = (1 << (len(s) + below)) - 1 + (s.v << below)
            assert set(want[start : start + (1 << below)]) == {value}, (s, below)


class RecordingRegion:
    """A region that reports each measure-pair query as (node, settled):
    the relative measure is 0 or 1 there."""

    def __init__(self, region, report) -> None:
        self.region = region
        self.report = report

    def measure_pair_in(self, n, v):
        m = self.region.measure_pair_in(n, v)
        self.report(str(BitString.raw(n, v)), Dyadic(*m) in (Dyadic.zero(), Dyadic.pow2(-n)))
        return m


@settings(max_examples=30, deadline=None)
@given(
    singletons=st.lists(points, max_size=2),
    explicit=explicit_paths,
    step=st.none() | step_functions,
    k=st.integers(min_value=0, max_value=5),
    depth=st.integers(min_value=0, max_value=9),
)
def test_masked_descent_never_asks_a_settled_term(singletons, explicit, step, k, depth):
    parts = [gdelta_martingale(EvenZeros())]
    parts += [gdelta_martingale(Singleton(p)) for p in singletons]
    parts.append(gdelta_martingale(explicit))
    if step is not None:
        parts.append(EmbeddedMartingale(step))
    f = CombinedMartingale(parts)
    # The descent without the mask: every node starts from the root state,
    # so every term is asked at every live node.
    root = f.terms(k)
    unmasked = MartingaleTable.from_entries(depth, lambda s, up: synthesis._descend(s, root))
    # (term, node) asked, and those found settled: term n is the step mean
    # of part n, and term (n, j) is region j of part n.
    asked, settled_at = [], set()

    def record(term, name, settled):
        asked.append((term, name))
        if settled:
            settled_at.add((term, name))

    for n, part in enumerate(parts):
        if isinstance(part, EmbeddedMartingale):
            # The step term settles from the step's depth on, or where its
            # mean is 0 or 1 (a step's values lie in [0, 1]).
            def value(s, part=part, n=n):
                m = type(part).value(part, s)
                record(n, str(s), len(s) >= part.depth or m in (Dyadic.zero(), Dyadic.one()))
                return m

            part.value = value
        if isinstance(part, SynthesizedMartingale):
            # The terms read region j as stage j's gstar when the table
            # starts; each live term then asks its region once per node.
            for j in range(k + 2):
                cert = part.stage(j)
                cert.gstar = RecordingRegion(cert.gstar, lambda *a, t=(n, j): record(t, *a))
    assert f.truncated_table(k, depth).values == unmasked.values
    for term, name in asked:
        assert not any((term, name[:l]) in settled_at for l in range(len(name))), (term, name)


def test_masked_descent_query_counts():
    parts = [gdelta_martingale(EvenZeros())] + [
        gdelta_martingale(Singleton(Point.parse(p))) for p in ("01(011)", "(1)")
    ]
    f = CombinedMartingale(parts)
    owner = {id(part.stage(j).gstar): n for n, part in enumerate(parts) for j in range(5)}

    def counts(spy):
        # The nodes at which each part was asked (some region of it was
        # queried there), and the number of region queries.
        asked = [set() for _ in parts]
        for (region, *node), _ in spy.call_args_list:
            asked[owner[id(region)]].add(tuple(node))
        return [len(nodes) for nodes in asked] + [spy.call_count]

    with patch.object(
        StageRegion, "measure_pair_in", autospec=True, side_effect=StageRegion.measure_pair_in
    ) as regions:
        table = f.truncated_table(3, 12)
        masked = counts(regions)
        regions.reset_mock()
        root = f.terms(3)
        unmasked = MartingaleTable.from_entries(12, lambda s, up: synthesis._descend(s, root))
        plain = counts(regions)
    assert table.values == unmasked.values
    # Unmasked, each part is asked at each of the 289 live nodes, and each
    # asks its 5 regions (j ≤ k + 1): 4,335 region queries.  Masked, the
    # singletons settle near the root and are asked 25 times each, and a
    # region that covers or misses a node is not asked below it: 963
    # queries.  (The stages are built before the spy starts; building
    # stages 1-4 of the three parts asks 12 covers queries more.)
    assert plain == [289, 289, 289, 4335]
    assert masked == [253, 25, 25, 963]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(st.just(EvenZeros()), points.map(Singleton), explicit_paths),
                min_size=1, max_size=3))
def test_table_value_and_witness_mean_error_match_the_dyadic_loop(targets):
    # Every part of a union's pipeline, at every node of depth ≤ 6: M_k for
    # k ≤ 4, and the mean error of S_n for n ≤ 5, read as M_(n-1).
    f = sigma3_pipeline(SigmaThreeSet(targets))
    for part in f.parts:
        for s in all_nodes(6):
            for k in range(5):
                assert part.table_value(k, s) == partial_mean(part, k + 1, s)
            for n in range(6):
                want = abs(partial_mean(part, n, s) - synthesis._parity_value(n))
                assert part.witness_mean_error(n, s) == want


def test_constant_tail_and_empty_union_settle_at_the_root():
    for f in (CombinedMartingale([]), CombinedMartingale([ConstantPart(Dyadic(5, 3))], Dyadic(1, 1))):
        assert synthesis._descend(EMPTY, f.terms(4))[1]
        assert f.truncated_table(4, 6).values == reference_table(f, 4, 6)


def test_descent_queries_only_live_nodes():
    f = gdelta_martingale(EvenZeros())
    f.stage(4)
    with patch.object(
        StageRegion, "measure_pair_in", autospec=True, side_effect=StageRegion.measure_pair_in
    ) as spy:
        table = f.truncated_table(3, 12)
    # The per-node fill made 5 queries at each of the 8,191 nodes (40,955).
    assert spy.call_count < 2000
    assert table.values == reference_table(f, 3, 12)


# ---------------------------------------------------------------------------
# the inductive mean-proximity check against the chain walk


@settings(max_examples=40, deadline=None)
@given(
    target=st.one_of(st.just(EvenZeros()), points.map(Singleton), explicit_paths),
    n=st.integers(min_value=0, max_value=30),
)
def test_certified_witnesses_have_the_parity_mean(target, n):
    g = gdelta_martingale(target)
    g.stage(n)
    for j in range(n + 1):
        cert = g.stage(j)
        verified = list(cert.verified)
        if j == 0:  # the base case, whether or not the target is empty
            assert verified == [EMPTY]
        else:  # exactly the witnesses build_stage checks
            assert verified == cert.witnesses.sample(len(verified))
            assert bool(verified) == bool(cert.witnesses.count())
        for w in verified:
            assert partial_mean_at(cert, w) == partial_mean_reference(cert, w)
            assert partial_mean_at(cert, w) == synthesis._parity_value(j)
            assert _witness_distance(g, j, w)[0] == Dyadic.zero()


@pytest.mark.parametrize("target", [EvenZeros(), Singleton(Point.parse("01(011)"))],
                         ids=["even-zeros", "singleton"])
def test_stage_chain_costs_linear_region_queries(target):
    # Walking the chain at every stage made 20,300 region queries up to
    # stage 200 (22,844 target queries in all).  The inductive check makes
    # one per stage.
    n = 200
    with patch.object(
        StageRegion, "measure_pair_in", autospec=True, side_effect=StageRegion.measure_pair_in
    ) as regions, patch.object(
        type(target), "measure_stage_pair", autospec=True,
        side_effect=type(target).measure_stage_pair,
    ) as stage_queries:
        gdelta_martingale(target).stage(n)
    # One cover test per stage asks its region: at least n queries, so a
    # cover test that stops asking cannot pass here.
    assert n <= regions.call_count <= 2 * n
    # Stage searches included, the target is queried O(log n) times a stage.
    assert stage_queries.call_count <= 20 * n


@pytest.mark.parametrize("target", [EvenZeros(), Singleton(Point.parse("01(011)"))],
                         ids=["even-zeros", "singleton"])
def test_a_halving_step_samples_one_witness(target):
    # Condition (5) is checked at the witness stage n's check verified,
    # which the chain's loop still holds from the step before (the root
    # keeps its empty string), so a step samples only its new witness.  It
    # asks the target twice: (5) there, and whether G*_(n+1) covers the new
    # witness.  The root's check asks once more.
    n = 200
    kind = type(target)
    with patch.object(
        kind, "stage_sample", autospec=True, side_effect=kind.stage_sample
    ) as samples, patch.object(
        kind, "measure_stage_pair", autospec=True, side_effect=kind.measure_stage_pair
    ) as queries:
        gdelta_martingale(target).stage(n)
    assert samples.call_count == n
    assert queries.call_count == 2 * n + 1


def test_a_singleton_chain_builds_each_witness_once():
    # A halving step samples its new witness point|m and then asks whether
    # G*_(n+1) covers it; both read the singleton's kept prefix, so the
    # chain builds point|m once for each of m_0, ..., m_n.
    n = 2000
    with patch.object(Point, "prefix", autospec=True, side_effect=Point.prefix) as prefixes:
        gdelta_martingale(Singleton(Point.parse("01(011)"))).stage(n)
    lengths = [call.args[1] for call in prefixes.call_args_list]
    assert lengths[: len(M_CHAIN)] == M_CHAIN
    assert len(lengths) == len(set(lengths)) == n + 1


def test_a_singleton_chain_keeps_one_witness_alive():
    # A halving step keeps no witness: a stage's verified witness is read
    # back off its region.  So the bits still held by what bits.py built,
    # after a 300-stage chain, stay within a constant times the last
    # witness (46,050 bits), where one kept witness per stage held
    # Σ m_n, about 112 times that.
    tracemalloc.start()
    try:
        g = gdelta_martingale(Singleton(Point.parse("01(011)")))
        last = g.stage(300)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, bits.__file__)])
    held_bits = 8 * sum(stat.size for stat in held.statistics("filename"))
    assert len(last.verified[0]) == 300 * 307 // 2
    assert held_bits <= 4 * len(last.verified[0])


def test_the_even_zeros_chain_builds_no_mask():
    # Every witness of the chain is all zeros, a new length at each stage;
    # measure_stage_in answers them without the mask of that length.
    before = _even_mask.cache_info().misses
    gdelta_martingale(EvenZeros()).stage(1000)
    assert _even_mask.cache_info().misses == before


@pytest.mark.parametrize("target", [EvenZeros(), Singleton(Point.parse("01(011)"))],
                         ids=["even-zeros", "singleton"])
def test_build_stage_after_a_stage_whose_check_never_ran(target):
    # Condition (5) is checked at stage 3's first witness, as when its
    # check has run; the new witness then extends no verified one.  (Taking
    # the per-witness path instead would enumerate 2^14 witnesses of the
    # even-zeros stage and raise HorizonExhausted.)
    real = gdelta_martingale(target).stage(3)
    forged = StageCertificate(3, real.gstar, target, real.prev)
    assert forged.stage_index == real.stage_index == M_CHAIN[3]
    assert forged.verified == () and forged.witnesses.count()
    with pytest.raises(ValueError, match="extends no verified witness of stage 3"):
        synthesis.build_stage(forged, target)
    # A stage with no witnesses leaves (5) nothing to be checked at: the
    # per-witness path builds the empty stage.
    empty = ClopenSet.empty()
    dead = StageCertificate(3, empty, target, real.prev)
    cert = synthesis.build_stage(dead, target)
    assert cert.gstar == empty and cert.stage_index is None
    assert cert.verified == () and cert.witnesses.count() == 0


def test_a_witness_outside_the_verified_ones_fails_the_check(even):
    prev = even.stage(2)
    cert = StageCertificate(3, even.stage(3).gstar, even.target, prev)
    # A genuine witness of G*_3 whose mean is the parity value, but which
    # does not extend the verified witness of stage 2: not certified.
    w = cert.witnesses.containing(Point.parse("(01)"))
    assert partial_mean_at(cert, w) == synthesis._parity_value(3)
    with pytest.raises(ValueError, match="extends no verified witness of stage 2"):
        synthesis._check_mean_proximity(cert, [w])
    # The verified witness of stage 2 itself extends a verified witness, but
    # G*_3 does not cover it.
    v = prev.verified[0]
    with pytest.raises(ValueError, match=r"not inside G\*_3"):
        synthesis._check_mean_proximity(cert, [v])
    assert cert.verified == ()
    synthesis._check_mean_proximity(cert, cert.witnesses.sample(1))
    assert cert.verified == even.stage(3).verified


def test_a_broken_chain_fails_the_check(even):
    cert = even.stage(2)
    w = cert.witnesses.sample(1)
    orphan = StageCertificate(2, cert.gstar, even.target, None)
    with pytest.raises(ValueError, match="chain broken below index 2"):
        synthesis._check_mean_proximity(orphan, w)
    gap = StageCertificate(3, cert.gstar, even.target, even.stage(1))
    with pytest.raises(ValueError, match="no certificate at index 2"):
        synthesis._check_mean_proximity(gap, w)


class Zigzag(GDeltaSet):
    """Not nested, so not a real target: stage(m) is the cylinder 0^m for
    odd m and 1^m for even m."""

    halving = True

    def stage(self, m):
        return ClopenSet.cylinder(BitString.raw(m, 0 if m % 2 else (1 << m) - 1))

    def rate(self, m):
        return Dyadic.pow2(-m)

    def meets_target(self, t):
        return True


def test_build_stage_refuses_a_chain_that_is_not_nested():
    g = gdelta_martingale(Zigzag())
    assert g.stage(1).verified == (BitString("1111"),)
    # Stage 2 is 0^9, outside G*_1: the walk would find the mean 2, not 1.
    with pytest.raises(ValueError, match="extends no verified witness of stage 1"):
        g.stage(2)


class LaggingHalving(GDeltaSet):
    """Declared halving, but past stage 4 the cylinder stage(m) = 0^e(m)
    shrinks more slowly: e(m) = m up to 4, then the given lag."""

    halving = True

    def __init__(self, lag):
        self.lag = lag

    def stage(self, m):
        return ClopenSet.cylinder(BitString.raw(m if m <= 4 else self.lag(m), 0))

    def meets_target(self, t):
        return t.v == 0


@pytest.mark.parametrize("lag, measure", [
    (lambda m: m - 1, "1/2^8"),  # one stage behind: exactly the budget
    (lambda m: (m + 5) // 2, "1/2^7"),  # halving every other stage
])
def test_build_stage_refuses_a_target_that_is_not_halving(lag, measure):
    g = gdelta_martingale(LaggingHalving(lag))
    assert g.stage(1).stage_index == 4
    # Condition (5) asks stage 9 for less than 2^-4 of N_0000.
    with pytest.raises(ValueError) as e:
        g.stage(2)
    assert str(e.value) == (
        "condition (5) fails at stage 9 of a target declared halving: "
        f"λ(stage(9) ∩ N_0000) = {measure} is not below 1/2^4·2^-4"
    )
    assert len(g._stages) == 2


def _chain_built(target, n, way):
    """The chain up to stage n built one way, as (index, stage index,
    verified witnesses) per stage, with the text of the ValueError that
    stopped it (None when it reached stage n)."""
    g = gdelta_martingale(target)
    chain, error = [g.stage(0)], None
    try:
        if way == "one call":
            g.stage(n)
        elif way == "one index at a time":
            for j in range(1, n + 1):
                g.stage(j)
        else:
            while len(chain) <= n:
                chain.append(synthesis.build_stage(chain[-1], target))
    except ValueError as e:
        error = str(e)
    if way != "build_stage":
        chain = g._stages
    return [(c.index, c.stage_index, c.verified) for c in chain], error


CHAIN_WAYS = ("one call", "one index at a time", "build_stage")


@pytest.mark.parametrize("make", [
    EvenZeros,
    lambda: Singleton(Point.parse("01(011)")),
    HalvingDeadAfterStageZero,  # hands the empty stage 2 to build_stage
], ids=["even-zeros", "singleton", "runs-out"])
def test_a_chain_is_the_same_built_in_one_call_per_index_or_per_step(make):
    n = 60
    built = [_chain_built(make(), n, way) for way in CHAIN_WAYS]
    assert built[0] == built[1] == built[2]
    chain, error = built[0]
    assert error is None and [c[0] for c in chain] == list(range(n + 1))
    if make is not HalvingDeadAfterStageZero:
        assert [c[1] for c in chain[: len(M_CHAIN)]] == M_CHAIN
        assert all(len(c[2]) == 1 and c[2][0].is_prefix_of(d[2][0])
                   for c, d in zip(chain, chain[1:]))


@pytest.mark.parametrize("make", [
    Zigzag,
    lambda: LaggingHalving(lambda m: m - 1),
    lambda: LaggingHalving(lambda m: (m + 5) // 2),
], ids=["zigzag", "lag-one", "lag-half"])
def test_a_refused_chain_fails_the_same_way_in_one_call_per_index_or_per_step(make):
    built = [_chain_built(make(), 60, way) for way in CHAIN_WAYS]
    assert built[0] == built[1] == built[2]
    chain, error = built[0]
    # Stage 1 is built and checked; stage 2 raises, and is not kept.
    assert [c[0] for c in chain] == [0, 1] and len(chain[1][2]) == 1
    assert error.startswith(("mean-proximity condition fails", "condition (5) fails"))


# ---------------------------------------------------------------------------
# witness families against the tuple copied out of the region


class ExplicitWitnessFamily:
    """The witnesses of a materialized region as a tuple copied out of it,
    answering each query from the copy: the reference for WitnessFamily,
    which reads the region instead."""

    def __init__(self, region, target):
        self.explicit = tuple(c for c in region.cylinders if target.meets_target(c))

    def containing(self, beta):
        for w in self.explicit:
            if beta.starts_with(w):
                return w
        return None

    def sample(self, count):
        return list(self.explicit[:count])

    def count(self):
        return len(self.explicit)

    def all(self):
        if len(self.explicit) > synthesis._WITNESS_CAP:
            raise HorizonExhausted(
                f"witness enumeration ({len(self.explicit)} cylinders)",
                f"cap {synthesis._WITNESS_CAP}; use the closed-form queries instead",
            )
        return list(self.explicit)


LOOSE_RATE = "2^-(n-20)"  # admits every stage of these small targets


def built_target(members, decoys, depths):
    """A directly built target whose last stage L has the given members.
    The stages before it cut L's members to nondecreasing depths d, each
    with the decoy cylinders lengthened by d zeros.  A decoy that misses L
    is a stage cylinder that is no witness; without decoys every stage
    cylinder holds a member of L, so the target is self-covering."""
    last = ClopenSet.from_strings(members)

    def stage(d):
        cyls = [c.prefix(min(d, len(c))) for c in last.cylinders]
        cyls += [BitString(e + "0" * d) for e in decoys]
        return ClopenSet.from_cylinders(cyls)

    stages = [stage(d) for d in sorted(depths)] + [last]
    return ExplicitGDelta(stages, parse_rate(LOOSE_RATE))


def self_covering(target):
    """Does every cylinder of every listed stage meet the target?"""
    return all(target.meets_target(c) for stage in target.stages for c in stage.cylinders)


explicit_targets = st.builds(
    built_target,
    st.lists(st.text(alphabet="01", min_size=4, max_size=10), min_size=1, max_size=4),
    st.just([]) | st.lists(st.text(alphabet="01", min_size=3, max_size=6), max_size=3),
    st.lists(st.integers(min_value=0, max_value=12), max_size=6),
)


def _all_outcome(family):
    try:
        return family.all()
    except HorizonExhausted as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(explicit_targets, st.lists(points, max_size=3), st.integers(min_value=0, max_value=4))
def test_witness_family_matches_the_explicit_tuple(target, betas, k):
    g = gdelta_martingale(target)
    for n in range(1, 6):
        try:
            cert = g.stage(n)
        except HorizonExhausted:
            break
        assert isinstance(cert.gstar, ClopenSet)
        family, ref = cert.witnesses, ExplicitWitnessFamily(cert.gstar, target)
        if self_covering(target):
            assert ref.explicit == cert.gstar.cylinders
        assert family.count() == ref.count()
        assert family.all() == ref.all()
        assert family.sample(k) == ref.sample(k)
        assert cert.verified == ref.explicit
        inside = [Point(w, BitString("01")) for w in ref.explicit[:3]]
        for beta in betas + inside:
            assert family.containing(beta) == ref.containing(beta)
        with patch.object(synthesis, "_WITNESS_CAP", 1):
            assert _all_outcome(family) == _all_outcome(ref)


def test_explicit_targets_cover_both_witness_paths():
    assert self_covering(built_target(["0001", "01", "110"], [], [1, 2]))
    target = built_target(["000000"], ["11"], [4])
    assert not self_covering(target)
    # The decoy N_110000 is a stage-1 cylinder that misses the target.
    g = gdelta_martingale(target)
    assert g.stage(1).gstar == ClopenSet.from_strings(["0000", "110000"])
    assert g.stage(1).witnesses.all() == [BitString("0000")]
    assert g.stage(1).witnesses.containing(Point.parse("(1)")) is None
    assert g.stage(1).witnesses.containing(Point.parse("(0)")) == BitString("0000")
    # With an empty target no stage cylinder is a witness: stage 2 is empty.
    g = gdelta_martingale(built_target([], ["11"], [4]))
    assert g.stage(1).witnesses.count() == 0
    assert g.stage(2).gstar == ClopenSet.empty()
    assert g.stage(2).witnesses.sample(3) == []
