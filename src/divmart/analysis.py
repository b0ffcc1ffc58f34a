"""Oscillation analysis and certificates.

Finite windows alone can never certify divergence (oscillation is a tail
quantity), so the certifiers consume construction metadata: witness
cylinders, the per-stage budget λ(G*_{n+1} ∩ N_w) < 2^(-n-3)·λ(N_w), and the
exact mean-proximity of the alternating sums at witnesses.  Against that
metadata the verdicts are theorems about the limit object, not numerical
impressions:

  * divergence — along a point of the target, the martingale value at the
    stage-n witness sits within d_n < 2^(-n-3) of the parity value of S_n,
    so consecutive stages force |f(w_n) - f(w_{n+1})| ≥ 1 - d_n - d_{n+1};
    since d_n is summably small uniformly in n, the oscillation is at least
    1 - 2^(-n0-2) for the first certified pair n0 (≥ 1/2 always).
  * convergence — once the point leaves some region G*_{j*}, every deeper
    region misses a whole neighbourhood, so the value sequence is *exactly*
    constant beyond a computable depth L: the certified tail variation is 0.

Combined martingales scale these through the geometric weights: the minimal
divergent part index m yields oscillation ≥ 4^(-m)/8 after subtracting the
worst case of the deeper parts and the exactly-constant earlier parts.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .bits import BitString, Point
from .dyadic import Dyadic
from .errors import DEFAULT_STAGE_BUDGET, UndefinedAtPoint
from .synthesis import (
    SCALE,
    CombinedMartingale,
    ConstantPart,
    EmbeddedMartingale,
    Part,
    SynthesizedMartingale,
)
from .table import MartingaleTable


# ---------------------------------------------------------------------------
# verdicts


# The records are NamedTuples: a command that imports `dataclasses` also
# loads `inspect`, several milliseconds of every start-up.


class CertifiedDivergent(NamedTuple):
    bound: Dyadic  # proven lower bound on osc(f, β)

    kind = "CertifiedDivergent"

    def __str__(self) -> str:
        return f"CertifiedDivergent(osc ≥ {self.bound})"


class CertifiedConvergent(NamedTuple):
    depth: int  # values are within epsilon of the limit from this depth on
    epsilon: Dyadic  # proven tail-variation bound (here stabilization is
    # exact, so any requested ε ≥ 0 is proven; the verdict echoes it)

    kind = "CertifiedConvergent"

    def __str__(self) -> str:
        return f"CertifiedConvergent(depth {self.depth}, tail ≤ {self.epsilon})"


class Inconclusive(NamedTuple):
    reason: str

    kind = "Inconclusive"

    def __str__(self) -> str:
        return f"Inconclusive({self.reason})"


Verdict = Union[CertifiedDivergent, CertifiedConvergent, Inconclusive]


class OscillationReport(NamedTuple):
    point: Point
    window: Optional[tuple[int, int]]
    variation: Dyadic
    verdict: Verdict
    limit: Optional[Dyadic] = None  # exact limit value when convergent

    @property
    def divergent(self) -> bool:
        return isinstance(self.verdict, CertifiedDivergent)

    @property
    def convergent(self) -> bool:
        return isinstance(self.verdict, CertifiedConvergent)


# ---------------------------------------------------------------------------
# table-level checks


def first_identity_violation(table: MartingaleTable) -> Optional[BitString]:
    """First interior node (breadth-first) violating the exact fairness
    identity f(s) = (f(s0) + f(s1))/2, or None.  Reads `table.values`
    once: the children of breadth-first index i are 2i + 1 and 2i + 2."""
    values = table.values
    for i in range((1 << table.depth) - 1):
        if values[i] != (values[2 * i + 1] + values[2 * i + 2]).half():
            l = (i + 1).bit_length() - 1
            return BitString.raw(l, i + 1 - (1 << l))
    return None


class UpcrossingStats(NamedTuple):
    a: Dyadic
    b: Dyadic
    depth: int
    mean_upcrossings: Dyadic

    @property
    def doob_product(self) -> Dyadic:
        return (self.b - self.a) * self.mean_upcrossings


def doob_diagnostic(table: MartingaleTable, a: Dyadic, b: Dyadic) -> UpcrossingStats:
    """Exact mean number of upcrossings of (a, b) along root-to-leaf paths.
    For a [0,1]-valued martingale Doob's inequality gives
    (b - a)·mean ≤ 1, asserted here.  Reads `table.values` once, and
    walks it by breadth-first index (the children of i are 2i + 1 and
    2i + 2)."""
    if not (Dyadic.zero() <= a < b <= Dyadic.one()):
        raise ValueError("need 0 ≤ a < b ≤ 1")
    depth = table.depth
    values = table.values
    leaves = (1 << depth) - 1  # the first index at depth `depth`

    def walk(i: int, armed: bool, count: int) -> int:
        v = values[i]
        if armed and v >= b:
            count += 1
            armed = False
        if not armed and v <= a:
            armed = True
        if i >= leaves:
            return count
        return walk(2 * i + 1, armed, count) + walk(2 * i + 2, armed, count)

    total = walk(0, False, 0)
    mean = Dyadic(total, depth)
    stats = UpcrossingStats(a, b, depth, mean)
    assert stats.doob_product <= Dyadic.one(), "Doob upcrossing bound violated"
    return stats


# ---------------------------------------------------------------------------
# windows


def osc_window(
    f: Part, beta: Point, n: int, l: int, precision: Optional[Dyadic] = None
) -> Dyadic:
    """Certified lower bound on the value spread along β between depths n
    and l: the maximum pairwise distance of the evaluation intervals (width
    already subtracted by taking interval gaps).  The gap between intervals
    i and j is max(0, lo_i - hi_j, lo_j - hi_i), so the largest one is
    max(0, max lo - min hi)."""
    if n > l:
        raise ValueError("window needs n ≤ l")
    if precision is None:
        precision = Dyadic.pow2(-l - 4)
    ivs = [f.eval(beta.prefix(i), precision) for i in range(n, l + 1)]
    gap = max(lo for lo, _ in ivs) - min(hi for _, hi in ivs)
    return gap if gap > 0 else Dyadic.zero()


# ---------------------------------------------------------------------------
# divergence certificates


def _witness_distance(
    f: SynthesizedMartingale, n: int, w: BitString
) -> tuple[Dyadic, Dyadic]:
    """Exact split of |f(w) - S_n(target value)| into the mean-proximity
    error e1 = |⨍_{N_w} S_n - parity| and the truncation error
    e2 = λ(G*_{n+1} ∩ N_w)/λ(N_w) (condition (5)'s budgeted quantity).

    Where w extends a verified witness of stage n, N_w lies inside every
    region G*_0, …, G*_n (the invariant of synthesis._check_mean_proximity),
    so every r_j(w) is 1 and e1 is exactly 0 without walking the chain."""
    if f.stage(n).extends_verified(w):
        e1 = Dyadic.zero()
    else:
        e1 = f.witness_mean_error(n, w)
    e2 = f.relative_measure(n + 1, w)
    return e1, e2


def _single_divergence(
    f: SynthesizedMartingale, beta: Point, stage_budget: int, min_depth: int = 0
) -> Optional[tuple[int, BitString, BitString, Dyadic]]:
    """Find a consecutive witness pair (n0, n0+1) along β with both
    distances certified < 2^(-3) and witness depth ≥ min_depth.  Returns
    (n0, w_n0, w_n0+1, single-part oscillation bound) or None."""
    qtr = Dyadic(1, 2)
    for n in range(stage_budget):
        w1 = f.stage(n).witnesses.containing(beta)
        w2 = f.stage(n + 1).witnesses.containing(beta)
        if w1 is None or w2 is None:
            return None  # β left the regions: not a target point
        if len(w1) < min_depth:
            continue
        e11, e12 = _witness_distance(f, n, w1)
        e21, e22 = _witness_distance(f, n + 1, w2)
        d1, d2 = e11 + e12, e21 + e22
        budget1 = Dyadic.pow2(-n - 3)
        budget2 = Dyadic.pow2(-n - 4)
        if d1 < qtr and d2 < qtr and e12 < budget1 and e22 < budget2 and (
            e11 == 0 and e21 == 0
        ):
            # d_k < 2^(-k-3) for every k ≥ n by the same (checked) budget
            # shape, so every deeper pair does at least as well:
            # osc ≥ 1 - 2^(-n-3) - 2^(-n-4) > 1 - 2^(-n-2) ≥ 3/4.
            sharp = Dyadic.one() - Dyadic.pow2(-n - 2)
            return n, w1, w2, sharp
    return None


def certify_divergence(
    f: Part, beta: Point, stage_budget: int = DEFAULT_STAGE_BUDGET
) -> OscillationReport:
    """Prove osc(f, β) ≥ 1/2 (single part) or ≥ 4^(-m)/8 (combined with
    minimal divergent part index m) from witness metadata; Inconclusive when
    β leaves every examined region or the stage budget runs out."""
    if isinstance(f, (ConstantPart, EmbeddedMartingale)):
        return OscillationReport(
            beta, None, Dyadic.zero(), Inconclusive("martingale converges everywhere")
        )
    if isinstance(f, SynthesizedMartingale):
        if f.target.exit_stage(beta) is not None:
            return OscillationReport(
                beta, None, Dyadic.zero(),
                Inconclusive("point not certified inside the target"),
            )
        got = _single_divergence(f, beta, stage_budget)
        if got is None:
            return OscillationReport(
                beta, None, Dyadic.zero(), Inconclusive("stage budget exhausted")
            )
        n0, w1, w2, sharp = got
        assert sharp >= Dyadic(1, 1)
        window = (len(w1), len(w2))
        variation = osc_window(f, beta, window[0], window[1])
        return OscillationReport(
            beta, window, variation, CertifiedDivergent(Dyadic(1, 1))
        )
    return _combined_divergence(f, beta, stage_budget)


def _combined_divergence(
    f: CombinedMartingale, beta: Point, stage_budget: int
) -> OscillationReport:
    m = None
    for i, part in enumerate(f.parts):
        if isinstance(part, SynthesizedMartingale) and part.target.exit_stage(beta) is None:
            m = i
            break
    if m is None:
        return OscillationReport(
            beta, None, Dyadic.zero(),
            Inconclusive("no component certified to contain the point"),
        )
    # Earlier parts must stabilize exactly along β beyond some depth (their
    # contribution is then constant across the witness window).
    min_depth = 0
    for part in f.parts[:m]:
        rep = certify_convergence(part, beta, Dyadic.one(), stage_budget)
        if not rep.convergent or rep.limit is None:
            return OscillationReport(
                beta, None, Dyadic.zero(),
                Inconclusive(f"part before index {m} not certified constant"),
            )
        min_depth = max(min_depth, rep.verdict.depth)

    part = f.parts[m]
    got = _single_divergence(part, beta, stage_budget, min_depth)
    if got is None:
        return OscillationReport(
            beta, None, Dyadic.zero(),
            Inconclusive(f"stage budget exhausted for part {m}"),
        )
    n0, w1, w2, single_sharp = got
    # Deeper listed parts can each move by at most 1 across the window; the
    # constant tail and the zero-extension move by 0.  All sums finite and
    # exact, so the sharp bound is an exact dyadic.
    slack = Dyadic.zero()
    for i in range(m + 1, len(f.parts)):
        slack = slack + Dyadic.pow2(-2 * i)
    sharp = (single_sharp.mul_pow2(-2 * m) - slack) * SCALE
    threshold = Dyadic.pow2(-2 * m - 3)  # 4^(-m)/8, the reported bound
    if sharp < threshold:
        return OscillationReport(
            beta, None, Dyadic.zero(),
            Inconclusive("deeper parts absorb the oscillation margin"),
        )
    window = (len(w1), len(w2))
    variation = osc_window(f, beta, window[0], window[1])
    return OscillationReport(beta, window, variation, CertifiedDivergent(threshold))


# ---------------------------------------------------------------------------
# convergence certificates


def _single_convergence(
    f: SynthesizedMartingale, beta: Point, stage_budget: int
) -> Optional[tuple[int, Dyadic]]:
    """Depth L and exact limit for a point that leaves some region G*_{j*}:
    beyond L every region is either fully entered or fully avoided by
    N_{β|L}, so the value is exactly constant.  One pass over the regions
    asks each for the cylinder holding β, up to the first that has none:
    L is the longest of those cylinders and G*_{j*}'s refutation depth."""
    depth = 0
    for j in range(stage_budget + 1):
        region = f.stage(j).gstar
        w = region.cylinder_containing(beta)
        if w is None:
            depth = max(depth, region.refutation_depth(beta))
            limit = Dyadic.one() if (j - 1) % 2 == 0 else Dyadic.zero()
            return depth, limit
        depth = max(depth, len(w))
    return None


def certify_convergence(
    f: Part,
    beta: Point,
    epsilon: Dyadic,
    stage_budget: int = DEFAULT_STAGE_BUDGET,
) -> OscillationReport:
    """Prove that f(β|l) stabilizes: beyond the reported depth the values
    are exactly constant, so every tail-variation bound ε ≥ 0 is proven.
    The verdict echoes the requested ε; the exact limit value rides on the
    report."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    zero = Dyadic.zero()
    if isinstance(f, ConstantPart):
        return OscillationReport(
            beta, (0, 0), zero, CertifiedConvergent(0, epsilon), f.c
        )
    if isinstance(f, EmbeddedMartingale):
        v = f.value(beta.prefix(f.depth))
        return OscillationReport(
            beta, (f.depth, f.depth), zero, CertifiedConvergent(f.depth, epsilon), v
        )
    if isinstance(f, SynthesizedMartingale):
        got = _single_convergence(f, beta, stage_budget)
        if got is None:
            return OscillationReport(
                beta, None, zero,
                Inconclusive("point stayed inside every examined region"),
            )
        depth, limit = got
        return OscillationReport(
            beta, (depth, depth), zero, CertifiedConvergent(depth, epsilon), limit
        )
    # combined: every part must stabilize
    depth = 0
    total = f._tail_value()
    for i, part in enumerate(f.parts):
        rep = certify_convergence(part, beta, epsilon, stage_budget)
        if not rep.convergent:
            return OscillationReport(
                beta, None, zero, Inconclusive(f"part {i} did not stabilize")
            )
        depth = max(depth, rep.verdict.depth)
        total = total + (rep.limit * SCALE).mul_pow2(-2 * i)
    return OscillationReport(
        beta, (depth, depth), zero, CertifiedConvergent(depth, epsilon), total
    )


def limit_function(
    f: Part,
    beta: Point,
    epsilon: Dyadic,
    stage_budget: int = DEFAULT_STAGE_BUDGET,
) -> tuple[Dyadic, Dyadic]:
    """Interval of width ≤ 2ε containing lim_l f(β|l).  Here stabilization
    is exact, so the interval is a point."""
    rep = certify_convergence(f, beta, epsilon, stage_budget)
    if rep.convergent:
        return rep.limit, rep.limit
    div = certify_divergence(f, beta, stage_budget)
    if div.divergent:
        raise UndefinedAtPoint(f"martingale diverges at {beta}: {div.verdict}")
    raise UndefinedAtPoint(f"no certificate at {beta}: {rep.verdict}")


def divergence_measure_bound(f: SynthesizedMartingale, n: int) -> Dyadic:
    """Exact λ(G*_n) — an upper bound on the measure of the divergence set,
    tending to 0 (it is below the target's stage-n rate for n ≥ 1)."""
    return f.stage(n).gstar.measure
