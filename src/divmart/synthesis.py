"""Martingale synthesis: stagewise construction for one measure-zero target,
the geometric union combinator, the full pipeline for finite unions, and the
embedding of step functions as exact martingale tables.

The stagewise build keeps, per stage n, an open region G*_n ⊆ stage(n) of
the target's presentation together with the antichain of *witness* cylinders
covering the target inside it.  The alternating sum S_n = Σ_{j≤n} (-1)^j g_j
of the region indicators is a step function whose cylinder means are exact
dyadics; the synthesized martingale is f(s) = ⨍_{N_s} lim S_n dλ, evaluated
by an even-index truncation ladder whose one-sided error is the relative
measure of the next-next region — again exact, so every evaluation is a
certified nested interval.  Every part kind states its truncation M_k as a
constant and a list of signed, shifted terms (a combination concatenates
its parts'), and a table of M_k is one flat descent over them: at a live
node each live term gives one integer measure pair, and the node one Dyadic.

Two realizations of a region, answering the same measure (also as an
integer pair), membership and cylinder queries:
  * StageRegion — a whole presentation stage, queried through the target's
    closed-form geometry (never materialized; deep stages are astronomically
    wide antichains),
  * ClopenSet — a materialized clopen set, the union of per-witness stage
    choices on a target that is not halving (explicitly-listed targets),
    and the empty region after the witnesses run out.
On a halving target the stage choice is the same for every witness and
needs no search, m_(n+1) = m_n + n + 4, and one loop (_halving_chain)
extends the chain, carrying its newest verified witness from step to step;
any other target gallops per witness.  A stage's witnesses are read off
its region on every query (WitnessFamily): the region's antichain
cylinders that meet the target, with no second copy; so is a halving
stage's verified witness, its region's first cylinder, once the loop has
moved past it.  Budgets that cannot be met (a stage that stops
shrinking, a rate too slow for the requested depth) raise HorizonExhausted
with the failing budget, never a silent wrong answer.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

from .bits import EMPTY, BitString, Point
from .clopen import ClopenSet
from .dyadic import Dyadic
from .errors import HorizonExhausted
from .sets import GDeltaSet, SigmaThreeSet, _least_index
from .table import MartingaleTable

if TYPE_CHECKING:  # annotations only, so importing synthesis leaves fine unloaded
    from .fine import StepFunction

_STAGE_SEARCH_SPAN = 4096
_WITNESS_CAP = 4096
_WITNESS_TEXT_BITS = 64


# ---------------------------------------------------------------------------
# open regions


class StageRegion:
    """G*-region equal to stage(m) of the target, answered in closed form."""

    def __init__(self, target: GDeltaSet, m: int) -> None:
        self.target = target
        self.m = m

    def measure_in(self, t: BitString) -> Dyadic:
        return self.target.measure_stage_in(self.m, t)

    def measure_pair_in(self, n: int, v: int) -> tuple[int, int]:
        return self.target.measure_stage_pair(self.m, n, v)

    @property
    def measure(self) -> Dyadic:
        return self.measure_in(EMPTY)

    def covers(self, t: BitString) -> bool:
        """Is N_t inside the region?  Its measure in N_t is at most 2^-|t|,
        so exactly when it is at least that: num·2^|t| ≥ 2^exp, read off
        the pair by bit length, so no power of two is built."""
        num, exp = self.measure_pair_in(t.n, t.v)
        return num > 0 and num.bit_length() + t.n > exp

    def cylinder_containing(self, beta: Point) -> Optional[BitString]:
        return self.target.stage_cylinder_containing(self.m, beta)

    def refutation_depth(self, beta: Point) -> int:
        return self.target.stage_refutation_depth(self.m, beta)

    def sample_cylinders(self, count: int) -> list[BitString]:
        return self.target.stage_sample(self.m, count)

    def cylinder_count(self) -> int:
        return self.target.stage_count(self.m)

    def __repr__(self) -> str:
        return f"StageRegion(stage={self.m})"


Region = Union[StageRegion, ClopenSet]


# ---------------------------------------------------------------------------
# table descent
#
# A term (query, coef, shift, depth) of Part.terms is coef·2^-shift·r(s) at
# node s, where query(len(s), s.v) = (num, exp) is a measure in N_s, a
# region's or a step function's integral, and r(s) = num·2^(len(s) - exp)
# is it relative to λ(N_s).  The term is settled at s, the same at every
# node below s, when r(s) is 0 or 1 (a measure is monotone, and a step
# lies in [0, 1]), or when len(s) ≥ depth, a depth that is not None.  A
# descent state (num, exp, live) is the constant plus the terms settled at
# or above a node, as num·2^-exp (not canonical), and the live terms.

Term = tuple[Callable[[int, int], tuple[int, int]], int, int, Optional[int]]
DescentState = tuple[int, int, list[Term]]


def _descend(s: BitString, up: DescentState) -> tuple[Dyadic, bool, DescentState]:
    """(Σ of the terms at s, settled, state for s's children), given `up`,
    the state at s's parent (or at the root), as a MartingaleTable entry.
    Both sums are integers over one exponent, and the node's value is the
    one Dyadic built from them.  A settled term moves into the settled sum
    and is never asked again below s; the node is settled when every term
    is."""
    l, v = s.n, s.v
    num, exp, live = up
    total = num
    still = []
    for term in live:
        query, coef, shift, depth = term
        a, e = query(l, v)
        if not a:  # r(s) = 0
            continue
        e -= l
        settled = a == 1 << e or (depth is not None and l >= depth)
        a *= coef
        e += shift
        if e > exp:  # both sums move to the larger exponent
            total <<= e - exp
            num <<= e - exp
            exp = e
        a <<= exp - e
        total += a
        if settled:
            num += a
        else:
            still.append(term)
    return Dyadic(total, exp), not still, (num, exp, still)


# ---------------------------------------------------------------------------
# witnesses and certificates


class WitnessFamily:
    """The witnesses of a region: its antichain cylinders that meet the
    target, in the region's breadth-first order.  They are pairwise
    incompatible, and their union covers the target inside the region.
    The family keeps no copy of them; every query reads the region, and a
    halving target's witnesses are all of the region's cylinders."""

    def __init__(self, region: Region, target: GDeltaSet) -> None:
        self.region = region
        self.target = target

    def containing(self, beta: Point) -> Optional[BitString]:
        c = self.region.cylinder_containing(beta)
        if c is None or not self.target.meets_target(c):
            return None
        return c

    def _meeting(self) -> Iterator[BitString]:
        region = self.region
        cyls = region.sample_cylinders(region.cylinder_count())
        return (c for c in cyls if self.target.meets_target(c))

    def sample(self, count: int) -> list[BitString]:
        """The first `count` witnesses."""
        if self.target.halving:
            return self.region.sample_cylinders(count)
        return list(islice(self._meeting(), count))

    def count(self) -> int:
        if self.target.halving:
            return self.region.cylinder_count()
        return sum(1 for _ in self._meeting())

    def all(self) -> list[BitString]:
        n = self.count()
        if n > _WITNESS_CAP:
            raise HorizonExhausted(
                f"witness enumeration ({n} cylinders)",
                f"cap {_WITNESS_CAP}; use the closed-form queries instead",
            )
        return self.sample(n)


class StageCertificate:
    """Stage n of the construction: the open region G*_n and its witness
    antichain (union = G**_n); G*_n enters the alternating sum S_n with
    sign (-1)^n.  Certificates chain through `prev`, so the whole
    region sequence G*_0 ⊇ … ⊇ G*_n is reachable from the newest one.
    The witnesses and `stage_index` are read off the region.

    `verified` holds the witness cylinders at which the certificate was
    checked to lie inside every region G*_0, …, G*_n (see
    _check_mean_proximity); it is empty until the check has run.  The root
    and a materialized stage keep the tuple their check was given.  A
    halving step (_halving_chain) checks its region's first cylinder and
    keeps no copy of it here: the loop carries it to the next step in a
    local, and `verified` reads it back off the region on each call,
    since a deep witness runs to millions of bits and a chain has
    thousands of stages."""

    __slots__ = ("index", "gstar", "witnesses", "prev", "_verified")

    def __init__(
        self,
        index: int,
        gstar: Region,
        target: GDeltaSet,
        prev: Optional["StageCertificate"] = None,
    ) -> None:
        self.index = index
        self.gstar = gstar
        self.witnesses = WitnessFamily(gstar, target)
        self.prev = prev
        # the checked witnesses, or None for the region's first cylinder
        self._verified: Optional[tuple[BitString, ...]] = ()

    @property
    def verified(self) -> tuple[BitString, ...]:
        if self._verified is None:
            return tuple(self.gstar.sample_cylinders(1))
        return self._verified

    @property
    def stage_index(self) -> Optional[int]:
        """The presentation stage that gstar is, or None for a
        materialized region."""
        return self.gstar.m if isinstance(self.gstar, StageRegion) else None

    def extends_verified(self, w: BitString) -> bool:
        """Does w extend a verified witness?  Then N_w lies inside every
        region of the chain."""
        return any(v.is_prefix_of(w) for v in self.verified)

    def __repr__(self) -> str:
        return (
            f"StageCertificate(index={self.index}, gstar={self.gstar!r}, "
            f"stage_index={self.stage_index})"
        )


def _parity_value(n: int) -> Dyadic:
    """S_n(β) for β in the target: the alternating sum of n+1 ones."""
    return Dyadic.one() if n % 2 == 0 else Dyadic.zero()


_BUDGET_EXP_OFFSET = 3  # condition (5) threshold: 2^(-n-3)


def _threshold(n: int) -> Dyadic:
    """Condition (5)'s relative budget 2^(-n-3) at the witnesses of stage n."""
    return Dyadic.pow2(-n - _BUDGET_EXP_OFFSET)


def build_stage(prev: StageCertificate, target: GDeltaSet) -> StageCertificate:
    """Construct stage n+1 from stage n: choose for each witness s^n_j an
    open O_j = stage(m) ∩ N_{s^n_j} with λ(O_j) < 2^(-n-3)·λ(N_{s^n_j})
    (condition (5)), take G*_{n+1} = ⋃_j O_j, and read the new witnesses
    off its canonical antichain.  Every new witness checked for the
    mean-proximity condition is certified by induction on the chain
    (_check_mean_proximity), with O(1) region queries each.

    On a halving target this is one step of _halving_chain, the loop
    SynthesizedMartingale.stage runs for a whole chain.  Any other target,
    and a halving one whose witnesses have run out, searches a stage for
    each witness (_find_stage_index)."""
    if target.halving:
        cert = next(_halving_chain(prev, target), None)
        if cert is not None:
            return cert
    threshold = _threshold(prev.index)
    pieces = ClopenSet.empty()
    for w in prev.witnesses.all():
        m = _find_stage_index(target, w, threshold, prev.index + 1)
        piece = target.stage(m).intersect(ClopenSet.cylinder(w))
        pieces = pieces.union(piece)
    cert = StageCertificate(prev.index + 1, pieces, target, prev)
    # Every witness, uncapped: the cap applies when the next stage asks all().
    _check_mean_proximity(cert, cert.witnesses.sample(pieces.cylinder_count()))
    return cert


def _halving_chain(prev: StageCertificate, target: GDeltaSet) -> Iterator[StageCertificate]:
    """The stages after prev on a halving target, each checked before it
    is yielded, until the witnesses run out.

    Every witness of stage n is a cylinder of stage m_n, which stage(m)
    fills to 2^-(m - m_n), so one m = m_n + n + 4 serves them all and
    G*_{n+1} is stage(m): n stages cost O(n) queries.  Past the search
    span from m_n + 1 the budget is HorizonExhausted, as the search would
    say.  A step runs three integer tests, in this order:
      * condition (5) at stage n's verified witness w, one query: its pair
        (num, exp) meets the budget when num·2^(n+3+|w|) < 2^exp, compared
        by bit length, so no power of two the size of a stage is built; a
        target wrongly declared halving raises ValueError;
      * the two witness tests of condition (6) at stage n+1's first
        cylinder (_check_witness): it extends w, and the region covers it.
    The newest verified witness is kept in a local between steps, never on
    a certificate, which reads it back off its region (see
    StageCertificate): a deep witness runs to millions of bits and a
    chain has thousands of stages.  A prev whose check never ran has none
    verified: (5) is then checked at its first witness, and the new
    witness fails the prefix test."""
    n, m = prev.index, prev.stage_index
    below = prev.verified
    reps = below or prev.witnesses.sample(1)
    measure, sample = target.measure_stage_pair, target.stage_sample
    while reps:
        rep = reps[0]
        if n + _BUDGET_EXP_OFFSET >= _STAGE_SEARCH_SPAN:
            raise _stage_budget_error(rep, _threshold(n), m + 1)
        m += n + 1 + _BUDGET_EXP_OFFSET
        num, exp = measure(m, rep.n, rep.v)
        if num and num.bit_length() + n + _BUDGET_EXP_OFFSET + rep.n > exp:
            raise ValueError(
                f"condition (5) fails at stage {m} of a target declared "
                f"halving: λ(stage({m}) ∩ N_{_witness_text(rep)}) = "
                f"{Dyadic(num, exp)} is not below {_threshold(n)}·2^-{len(rep)}"
            )
        n += 1
        cert = StageCertificate(n, StageRegion(target, m), target, prev)
        reps = sample(m, 1)
        for w in reps:
            _check_witness(w, below, cert)
        cert._verified = None
        yield cert
        prev, below = cert, reps


def _witness_text(w: BitString) -> str:
    """w for an error message: its bits when short, else its first
    _WITNESS_TEXT_BITS bits, an ellipsis and its length (deep witnesses run
    to millions of bits)."""
    if len(w) <= _WITNESS_TEXT_BITS:
        return str(w) or "ε"
    return f"{w.prefix(_WITNESS_TEXT_BITS)}…({len(w)} bits)"


def _stage_budget_error(w: BitString, threshold: Dyadic, start: int) -> HorizonExhausted:
    """The stage budget at witness w, unmet from stage index start on."""
    return HorizonExhausted(
        f"stage budget λ(stage(m) ∩ N_{_witness_text(w)}) "
        f"< {threshold}·2^-{len(w)}",
        f"no reachable stage index from {start} meets it",
    )


def _find_stage_index(
    target: GDeltaSet, w: BitString, threshold: Dyadic, start: int
) -> int:
    """Minimal m ≥ start with λ(stage(m) ∩ N_w) < threshold·λ(N_w): the
    per-witness stage choice on a target that is not halving.

    Stages are nested, so the measure is nonincreasing in m and the budget,
    once met, stays met: `sets._least_index` gallops then bisects, with
    O(log(m - start)) measure queries instead of m - start + 1.  The search
    ends at the last index of _STAGE_SEARCH_SPAN; stages that stop changing
    before it fail there, in about log2 of the span probes."""
    bound = threshold.mul_pow2(-len(w))
    last = start + _STAGE_SEARCH_SPAN - 1
    m = _least_index(lambda k: target.measure_stage_in(k, w) < bound, start, last)
    if m is None:
        raise _stage_budget_error(w, threshold, start)
    return m


def _refuse_unreachable_stage(target: GDeltaSet, n: int) -> None:
    """On a halving target, raise the stage budget's HorizonExhausted when
    stage n is out of the search span, before building any stage.

    Stage j + 1 takes m_(j+1) = m_j + j + 4 (see _halving_chain), so
    m_j = j(j + 7)/2 from m_0 = 0, and stage j + 1 is past the span that
    starts at m_j + 1 once j + 3 ≥ _STAGE_SEARCH_SPAN.  The error, read from
    the formula with no search, is the one the build of the first such
    stage raises at the first witness of the stage before it."""
    j = _STAGE_SEARCH_SPAN - 3
    if n <= j:
        return
    m = j * (j + 7) // 2
    ws = target.stage_sample(m, 1)
    if ws:  # else the witnesses run out first and no stage index is sought
        raise _stage_budget_error(ws[0], _threshold(j), m + 1)


def _check_mean_proximity(cert: StageCertificate, witnesses: Sequence[BitString]) -> None:
    """Condition (6) at the new witnesses: the mean of S_{n+1} over N_w must
    be strictly within 2^(-3) of the (parity) value S_{n+1} takes on the
    target.  Proved by induction on the chain instead of walking it.

    Invariant: every cylinder in `verified` lies inside every region of its
    certificate's chain.  G*_0 is verified at the empty string (it is the
    full space).  A new witness w of G*_{n+1} passes the two tests of
    _check_witness.  Then r_j(w) = λ(G*_j ∩ N_w)/λ(N_w) = 1 for every
    j ≤ n+1, so ⨍_{N_w} S_{n+1} dλ = Σ_{j≤n+1} (-1)^j is exactly the parity
    value and the error is 0 < 2^(-3).  The witnesses are kept as
    `cert.verified`, which keeps the invariant for the next stage; this is
    the check of the root and of a materialized stage, whose prefix test
    scans every verified witness of stage n, as the union of its pieces
    does.  A halving step runs the same witness tests in _halving_chain.
    The tests check the result against the O(n) chain walk over the
    regions G*_0, …, G*_{n+1}."""
    prev = cert.prev
    if prev is None and cert.index != 0:
        raise ValueError(f"certificate chain broken below index {cert.index}")
    if prev is not None and prev.index != cert.index - 1:
        raise ValueError(f"no certificate at index {cert.index - 1}")
    below = None if prev is None else prev.verified
    for w in witnesses:
        _check_witness(w, below, cert)
    cert._verified = tuple(witnesses)


def _check_witness(
    w: BitString, below: Optional[Sequence[BitString]], cert: StageCertificate
) -> None:
    """The two tests of condition (6) at a new witness w of cert's region
    G*_{n+1}, given `below`, the verified witnesses of stage n (None at
    the root, which has no stage below it):
      * prefix: w extends some v in below, so N_w ⊆ N_v ⊆ G*_j for every
        j ≤ n;
      * cover: N_w ⊆ G*_{n+1}, one region query.
    A witness failing either raises ValueError."""
    if below is not None:
        for v in below:
            if v.is_prefix_of(w):
                break
        else:
            raise ValueError(
                f"mean-proximity condition fails at witness {w!r}: "
                f"it extends no verified witness of stage {cert.index - 1}"
            )
    if not cert.gstar.covers(w):
        raise ValueError(
            f"mean-proximity condition fails at witness {w!r}: "
            f"it is not inside G*_{cert.index}"
        )


class Part:
    """A martingale the union combinator takes as a part.  Each kind answers
    eval(s, precision) with a certified interval for f(s), and terms(k)
    with its truncation M_k as the descent's root state (see _descend):
    k + 2 signed regions for a synthesized part, only the constant for a
    constant part, and one step mean for an embedded one.  A kind without
    truncation gives the same M_k for every k; a table and a single value
    table_value(k, s) are the same descent."""

    def truncated_table(self, k: int, depth: int) -> MartingaleTable:
        """The table of M_k to the given depth, built by one descent that
        stops at settled nodes: M_k is constant on the whole subtree below
        a settled node (see MartingaleTable.from_entries)."""
        return MartingaleTable.from_entries(depth, _descend, self.terms(k))

    def table_value(self, k: int, s: BitString) -> Dyadic:
        """M_k(s), the descent's sum of every term at s."""
        return _descend(s, self.terms(k))[0]


class SynthesizedMartingale(Part):
    """Martingale with divergence set exactly the given measure-zero target.

    f(s) is approached from below by the exact truncation means
    M_k(s) = ⨍_{N_s} S_{k+1} dλ (k even), with one-sided error bounded by
    the relative measure of G*_{k+2} in N_s — also exact, so eval returns
    genuinely nested certified intervals.
    """

    # Bound in the class as well: the benchmark's tracer (perfbench/)
    # counts table builds by the methods a class itself holds.
    truncated_table = Part.truncated_table

    def __init__(self, target: GDeltaSet) -> None:
        self.target = target
        root = StageCertificate(0, StageRegion(target, 0), target)
        _check_mean_proximity(root, (EMPTY,))
        self._stages: list[StageCertificate] = [root]

    def stage(self, n: int) -> StageCertificate:
        """Stage n of the chain, built up to n on first request.  On a
        halving target one _halving_chain loop extends the chain; a stage
        it cannot build (the witnesses ran out) is left to build_stage."""
        stages = self._stages
        if n >= len(stages) and self.target.halving:
            _refuse_unreachable_stage(self.target, n)
            for cert in _halving_chain(stages[-1], self.target):
                stages.append(cert)
                if len(stages) > n:
                    break
        while len(stages) <= n:
            stages.append(build_stage(stages[-1], self.target))
        return stages[n]

    # -- exact means ---------------------------------------------------

    def relative_measure(self, j: int, s: BitString) -> Dyadic:
        """λ(G*_j ∩ N_s) / λ(N_s), exact."""
        return self.stage(j).gstar.measure_in(s).mul_pow2(len(s))

    def terms(self, k: int) -> DescentState:
        """M_k(s) = ⨍_{N_s} S_{k+1} dλ = Σ_{j≤k+1} (-1)^j · r_j(s), for
        k ≥ -1: one term per region G*_j, its signed relative measure."""
        self.stage(k + 1)
        regions = [c.gstar for c in self._stages[: k + 2]]
        return 0, 0, [(g.measure_pair_in, (-1) ** j, 0, None) for j, g in enumerate(regions)]

    def eval(self, s: BitString, precision: Dyadic) -> tuple[Dyadic, Dyadic]:
        """Certified interval for f(s), width ≤ precision (exact when the
        region chain dies inside N_s)."""
        k = 0
        while True:
            err = self.relative_measure(k + 2, s)
            if err <= precision:
                lo = self.table_value(k, s)
                return lo, lo + err
            k += 2

    # -- witness-level checks -------------------------------------------

    def witness_mean_error(self, n: int, w: BitString) -> Dyadic:
        """|⨍_{N_w} S_n dλ − S_n(β on target)|, exact (condition (6)).
        ⨍_{N_w} S_n dλ is M_(n-1)(w); M_(-1) is the single term r_0."""
        return abs(self.table_value(n - 1, w) - _parity_value(n))


def gdelta_martingale(target: GDeltaSet) -> SynthesizedMartingale:
    """Martingale whose divergence set is exactly the denoted target, with
    oscillation 0 off it and ≥ 1/2 on it."""
    return SynthesizedMartingale(target)


# ---------------------------------------------------------------------------
# combination


class ConstantPart(Part):
    """Degenerate part: the constant martingale c (converges everywhere)."""

    def __init__(self, c: Dyadic) -> None:
        if not (Dyadic.zero() <= c <= Dyadic.one()):
            raise ValueError("constant part must lie in [0,1]")
        self.c = c

    def eval(self, s: BitString, precision: Dyadic) -> tuple[Dyadic, Dyadic]:
        return self.c, self.c

    def terms(self, k: int) -> DescentState:
        return self.c.num, self.c.exp, []


SCALE = Dyadic(3, 2)  # 3/4: brings Σ 4^(-n)·[0,1] = [0, 4/3] back into [0,1]


class CombinedMartingale(Part):
    """f = (3/4)·Σ_n 4^(-n)·f_n over the listed parts, extended by an exact
    constant tail (all further parts ≡ tail_constant; zero when omitted),
    so with no parts it is the constant tail.  Values stay in [0,1]; a
    point diverges iff some part diverges there, at scaled oscillation
    ≥ 4^(-m)/8 for the minimal divergent index m."""

    truncated_table = Part.truncated_table  # see SynthesizedMartingale

    def __init__(self, parts: Sequence[Part], tail_constant: Optional[Dyadic] = None):
        self.parts = list(parts)
        if tail_constant is not None and not (
            Dyadic.zero() <= tail_constant <= Dyadic.one()
        ):
            raise ValueError("tail constant must lie in [0,1]")
        self.tail_constant = tail_constant

    def _tail_value(self) -> Dyadic:
        """(3/4)·Σ_{n≥N} 4^(-n)·c = c·4^(-N), exact."""
        if self.tail_constant is None:
            return Dyadic.zero()
        return self.tail_constant.mul_pow2(-2 * len(self.parts))

    def eval(self, s: BitString, precision: Dyadic) -> tuple[Dyadic, Dyadic]:
        if precision <= 0:
            raise ValueError("precision must be positive")
        lo = hi = self._tail_value()
        for n, part in enumerate(self.parts):
            # per-part slack 2^(n-1)·precision keeps the scaled sum under it
            plo, phi = part.eval(s, precision.mul_pow2(n - 1))
            lo = lo + (plo * SCALE).mul_pow2(-2 * n)
            hi = hi + (phi * SCALE).mul_pow2(-2 * n)
        return lo, hi

    def terms(self, k: int) -> DescentState:
        """The tail and the parts' constants and terms, part n's scaled by
        (3/4)·4^-n: the factor 3 and the shift 2 + 2n."""
        c, live = self._tail_value(), []
        for n, part in enumerate(self.parts):
            num, exp, terms = part.terms(k)
            c += Dyadic(3 * num, exp + 2 + 2 * n)
            live += [(q, 3 * a, shift + 2 + 2 * n, d) for q, a, shift, d in terms]
        return c.num, c.exp, live


def sigma3_pipeline(b: SigmaThreeSet) -> CombinedMartingale:
    """The full construction: one stagewise part per component of the finite
    union, combined geometrically."""
    return CombinedMartingale([gdelta_martingale(c) for c in b.components])


# ---------------------------------------------------------------------------
# embedding of step functions


class EmbeddedMartingale(Part):
    """φ(h)(s) = ⨍_{N_s} h dλ for a depth-d step function h: exact at every
    node, constant below depth d, and recovering h as its limit function."""

    def __init__(self, step: StepFunction) -> None:
        self.step = step
        self.depth = step.depth

    def value(self, s: BitString) -> Dyadic:
        return self.step.mean_exact(s)

    def eval(self, s: BitString, precision: Dyadic = None) -> tuple[Dyadic, Dyadic]:
        v = self.value(s)
        return v, v

    def terms(self, k: int) -> DescentState:
        """One term, the mean of h, settled from h's depth on: h is constant
        on N_s once len(s) ≥ its depth."""
        return 0, 0, [(self._integral_pair, 1, 0, self.depth)]

    def _integral_pair(self, n: int, v: int) -> tuple[int, int]:
        """∫_{N_(n,v)} h dλ as a pair: the mean times 2^-n."""
        m = self.value(BitString.raw(n, v))
        return m.num, m.exp + n
