"""Acceptance gate: the nine end-to-end guarantees the library commits to,
each reported as a single PASS/FAIL line (run with ``pytest -s`` to see the
lines for passing tests too).

Every check is exact dyadic arithmetic unless a tolerance is stated in the
line itself.  Independent re-derivations (fair-coin leaf averages via
``fractions.Fraction``) guard the table builders.
"""

import random
import time
from fractions import Fraction

import pytest

from divmart.analysis import (
    certify_convergence,
    certify_divergence,
    divergence_measure_bound,
    doob_diagnostic,
    first_identity_violation,
    limit_function,
)
from divmart.bits import BitString, Point
from divmart.dyadic import Dyadic
from divmart.fine import StepFunction, mean_trace, urysohn
from divmart.sets import EvenZeros, SigmaThreeSet, Singleton
from divmart.synthesis import (
    CombinedMartingale,
    ConstantPart,
    EmbeddedMartingale,
    gdelta_martingale,
    sigma3_pipeline,
)

BUDGET = 12
EPS = Dyadic(1, 6)

IN_TARGET = [
    "(0)", "(01)", "01(0)", "(0001)", "(0100)",
    "00(01)", "0100(01)", "(000101)", "01(0001)", "000(10)",
]
OFF_TARGET = [
    "(1)", "(10)", "1(0)", "001(0)", "(110)",
    "0000001(0)", "(011011)", "00001(10)", "(0011)", "1(01)",
]


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def even_set():
    return EvenZeros()


@pytest.fixture(scope="module")
def even_pipeline(even_set):
    return sigma3_pipeline(SigmaThreeSet([even_set]))


@pytest.fixture(scope="module")
def deep_table(even_pipeline):
    start = time.monotonic()
    table = even_pipeline.truncated_table(3, 12)
    return table, time.monotonic() - start


def test_1_exact_identity_at_depth_12(deep_table):
    table, elapsed = deep_table
    ok = first_identity_violation(table) is None and elapsed < 60.0
    assert report(
        1, ok,
        f"exact martingale identity, even-zeros k=3 depth=12 "
        f"({(1 << 12) - 1} interior nodes, {elapsed:.1f}s)",
    )


def test_2_pointwise_certificates(even_set):
    f = gdelta_martingale(even_set)
    failures = []
    for text in IN_TARGET:
        rep = certify_divergence(f, Point.parse(text), BUDGET)
        if not (rep.divergent and rep.verdict.bound >= Dyadic(1, 1)):
            failures.append(f"{text}:{rep.verdict}")
    for text in OFF_TARGET:
        rep = certify_convergence(f, Point.parse(text), EPS, BUDGET)
        if not rep.convergent:
            failures.append(f"{text}:{rep.verdict}")
    ok = not failures
    assert report(
        2, ok,
        "10 in-target points CertifiedDivergent(≥1/2), 10 off-target "
        "CertifiedConvergent(ε=2^-6), none Inconclusive"
        + (f" — failures: {failures}" if failures else ""),
    )


def test_3_union_thresholds(even_set):
    b = SigmaThreeSet([even_set, Singleton(Point.parse("(1)"))])
    f = sigma3_pipeline(b)
    failures = []
    for text in ("(0)", "(01)", "000(10)"):  # minimal component index m = 0
        rep = certify_divergence(f, Point.parse(text), BUDGET)
        if not (rep.divergent and rep.verdict.bound >= Dyadic(1, 3)):
            failures.append(f"{text}:{rep.verdict}")
    rep = certify_divergence(f, Point.parse("(1)"), BUDGET)  # m = 1
    if not (rep.divergent and rep.verdict.bound >= Dyadic(1, 5)):
        failures.append(f"(1):{rep.verdict}")
    for text in ("(10)", "1(0)", "0(1)"):  # in neither component
        rep = certify_convergence(f, Point.parse(text), EPS, BUDGET)
        if not rep.convergent:
            failures.append(f"{text}:{rep.verdict}")
    ok = not failures
    assert report(
        3, ok,
        "union of even-zeros and {(1)^∞}: divergence ≥ 4^-m/8 per minimal "
        "index, off-union points convergent"
        + (f" — failures: {failures}" if failures else ""),
    )


def test_4_separator_mean_convergence(even_set):
    h = urysohn(even_set.stage(1).complement(), even_set)
    tol = Dyadic(1, 4)
    failures = []
    for text in ("0(01)", "(1)", "(10)", "1(0)", "0(1)"):
        beta = Point.parse(text)
        t_lo, t_hi = h.evaluate(beta, tol)
        entered = None
        for l, lo, hi in mean_trace(h, beta, 24, tol):
            gap = Dyadic.zero()
            if lo > t_hi:
                gap = lo - t_hi
            elif t_lo > hi:
                gap = t_lo - hi
            if gap <= tol:
                if entered is None:
                    entered = l
            else:
                entered = None
        if entered is None:
            failures.append(text)
    ok = not failures
    assert report(
        4, ok,
        "graded-separator cylinder means enter and stay within 2^-4 of h(β) "
        "by depth 24 at 5 off-target points"
        + (f" — failures: {failures}" if failures else ""),
    )


def test_5_constant_preservation():
    constants = [Dyadic.zero(), Dyadic(1, 2), Dyadic(5, 3), Dyadic(3, 2), Dyadic(1)]
    nodes = [BitString(s) for s in ("", "0", "10", "011", "1111")]
    failures = []
    for c in constants:
        for k in (1, 2, 3):
            f = CombinedMartingale([ConstantPart(c)] * k, tail_constant=c)
            for s in nodes:
                lo, hi = f.eval(s, Dyadic(1, 20))
                if not (lo == hi == c):
                    failures.append(f"c={c},k={k},s={s}")
    ok = not failures
    assert report(
        5, ok,
        "union of constant parts returns the constant exactly "
        "(3/4-scaling telescopes)"
        + (f" — failures: {failures}" if failures else ""),
    )


def _random_steps(count: int, max_depth: int):
    rng = random.Random(20260825)
    out = []
    for _ in range(count):
        depth = rng.randint(0, max_depth)
        values = [Dyadic(rng.randint(0, 16), 4) for _ in range(1 << depth)]
        out.append(StepFunction(depth, values))
    return out


def test_6_embedding_round_trip():
    failures = []
    for i, h in enumerate(_random_steps(20, 6)):
        emb = EmbeddedMartingale(h)
        if first_identity_violation(emb.truncated_table(0, h.depth + 2)) is not None:
            failures.append(f"step{i}:identity")
            continue
        for tail in ("(0)", "(1)", "(10)"):
            beta = Point.parse("1" * h.depth + tail)
            lo, hi = limit_function(emb, beta, EPS)
            want = h.evaluate(beta, EPS)[0]
            if not (lo == hi == want):
                failures.append(f"step{i}:{tail}")
    ok = not failures
    assert report(
        6, ok,
        "20 seeded step functions of depth ≤ 6: embedded martingale passes "
        "exact identity and limit recovery"
        + (f" — failures: {failures}" if failures else ""),
    )


def test_7_doob_upcrossing_bound(deep_table, even_pipeline, even_set):
    tables = [deep_table[0]]
    union = sigma3_pipeline(
        SigmaThreeSet([even_set, Singleton(Point.parse("(1)"))])
    )
    tables.append(union.truncated_table(1, 10))
    tables.append(
        CombinedMartingale([ConstantPart(Dyadic(5, 3))] * 2,
                      tail_constant=Dyadic(5, 3)).truncated_table(1, 8)
    )
    for h in _random_steps(3, 6):
        tables.append(EmbeddedMartingale(h).truncated_table(0, h.depth + 2))
    a, b = Dyadic(1, 2), Dyadic(3, 2)
    failures = []
    for i, table in enumerate(tables):
        stats = doob_diagnostic(table, a, b)
        if not stats.doob_product <= Dyadic(1):
            failures.append(f"table{i}:{stats.doob_product}")
    ok = not failures
    assert report(
        7, ok,
        f"(b−a)·mean_upcrossings ≤ 1 on {len(tables)} tables at band "
        "(1/4, 3/4), full enumeration"
        + (f" — failures: {failures}" if failures else ""),
    )


def test_8_divergence_measure_bound(even_set):
    f = gdelta_martingale(even_set)
    bound = divergence_measure_bound(f, 10)
    ok = bound == Dyadic(1, 85) and bound <= Dyadic(1, 10)
    assert report(
        8, ok,
        f"stage-10 region measure {bound} ≤ 2^-10, exact",
    )


def _naive_interior(table, depth):
    """Interior values from scratch: plain Fraction averages of the leaves."""
    leaves = [Fraction(v.num, 1 << v.exp) for v in table.values[(1 << table.depth) - 1 :]]
    out = {}
    for l in range(depth):
        width = 1 << (depth - l)
        for v in range(1 << l):
            below = leaves[v * width:(v + 1) * width]
            out[(l, v)] = sum(below, Fraction(0)) / width
    return out


def test_9_leaf_average_oracle(even_pipeline):
    failures = []
    emb = EmbeddedMartingale(
        StepFunction(3, [Dyadic(i, 3) for i in range(8)])
    )
    for name, table in (
        ("synthesized", even_pipeline.truncated_table(1, 10)),
        ("embedded", emb.truncated_table(0, 10)),
    ):
        naive = _naive_interior(table, 10)
        for (l, v), want in naive.items():
            got = table.value(BitString.raw(l, v))
            if Fraction(got.num, 1 << got.exp) != want:
                failures.append(f"{name}@({l},{v})")
                break
    ok = not failures
    assert report(
        9, ok,
        "depth-10 tables equal independent Fraction leaf-average "
        "recomputation at every interior node"
        + (f" — failures: {failures}" if failures else ""),
    )
