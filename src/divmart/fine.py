"""Density-topology toolkit: interpolating closed sets and graded separators.

The central construction starts from a closed F that is a clopen set or a
clopen-piece set (a union of disjoint clopen pieces), so the complement of F
decomposes into finitely many maximal cylinders.  Given an open M (open in
the density sense: here, clopen, a clopen-piece set, or the complement of a
measure-zero target) it produces a closed C with F ⊆ C ⊆ F ∪ M that fills
almost all of M locally: for each maximal cylinder s_n of the complement of
F (breadth-first order), C grabs a clopen subset of M ∩ N_{s_n} of measure
at least (1 - budget(n))·λ(M ∩ N_{s_n}).

Iterating this between dyadic levels yields a graded family of closed sets
C_ζ (ζ dyadic in (0,1], decreasing in ζ) separating a closed C from a
measure-zero target G: the separator function h equals 1 on G, 0 on C, and
is approximately continuous, with every level set exactly representable.
Every level is a backbone level (see `SeparatorFunction.evaluate`, which
reads the backbones); `mean_in` and `level` still build the in-between
interpolants.

Representation note: every set built along the pipeline is *denotationally
clopen* but may be far too large to materialize (its description involves
complements of deep target stages).  Sets are therefore unions of disjoint
lazy *pieces* of two kinds — materialized clopen sets and "cylinder minus
target-stage" chunks — each answering exact one-cylinder measure queries as
(num, exp) integer pairs.  Measure zero is emptiness for such sets, so
covers/membership reduce to exact dyadic comparisons.

Queries are branch-local.  A level C = lusin_menchoff(F, M) is F, kept as
its base, plus a gap index: the gaps are F's complement cylinders, already
computed in breadth-first order, each beside its fill pieces, and the same
cylinders as a sorted (n, v) antichain.
`kernel.locate` finds the gap holding a cylinder N_t (or the gaps inside
it), so a measure, membership or restriction query asks only the pieces
that can meet N_t: the holding gap's fills, or F's read-through answer plus
the fills of the gaps inside N_t.  `check_interpolation` re-verifies a
level from the set itself: it measures C and M in every gap.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from . import kernel
from .bits import EMPTY, BitString, Point
from .clopen import ClopenSet
from .dyadic import Dyadic
from .errors import HorizonExhausted
from .sets import GDeltaSet, _least_index

_SEARCH_CAP = 100_000
_DECOMPOSITION_CAP = 20_000  # cylinders one complement decomposition may examine


# ---------------------------------------------------------------------------
# pieces
#
# Every piece answers a one-cylinder query λ(piece ∩ N_(n,v)) through
# `measure_pair_in(n, v)` as an exact, unreduced (num, exp) pair; a query on
# a clopen k with several cylinders is the sum over k's disjoint cylinders.


def _add_pair(num: int, exp: int, num2: int, exp2: int) -> tuple[int, int]:
    """num/2^exp + num2/2^exp2 as an unreduced pair, so a sum of many terms
    builds no Dyadic until the end (a negative num2 subtracts)."""
    if exp2 > exp:
        return (num << (exp2 - exp)) + num2, exp2
    return num + (num2 << (exp - exp2)), exp


def _pair_over(piece, ac: tuple) -> tuple[int, int]:
    """λ(piece ∩ k) for k given by its antichain: the sum over its cylinders."""
    num = exp = 0
    for n, v in ac:
        num, exp = _add_pair(num, exp, *piece.measure_pair_in(n, v))
    return num, exp


class StageComplementChunk:
    """N_support minus stage(k) of a target — clopen, never materialized."""

    __slots__ = ("support", "gdelta", "k", "_size")

    def __init__(self, support: BitString, gdelta: GDeltaSet, k: int) -> None:
        self.support = support
        self.gdelta = gdelta
        self.k = k
        self._size = self._rest(support.n, support.v)  # λ of the whole chunk

    def _rest(self, n: int, v: int) -> tuple[int, int]:
        """λ(N_(n,v) \\ stage(k)) as a pair."""
        num, exp = self.gdelta.measure_stage_pair(self.k, n, v)
        return _add_pair(1, n, -num, exp)

    def measure_pair_in(self, n: int, v: int) -> tuple[int, int]:
        # One shift decides it: N_(n,v) lies inside the support, holds it,
        # or misses it.
        s = self.support
        if n >= s.n:
            if v >> (n - s.n) != s.v:
                return 0, 0
            return self._rest(n, v)
        return self._size if s.v >> (s.n - n) == v else (0, 0)

    def contains_point(self, beta: Point) -> bool:
        return beta.starts_with(self.support) and (
            self.gdelta.stage_cylinder_containing(self.k, beta) is None
        )

    def restrict(self, t: BitString) -> Optional["StageComplementChunk"]:
        if self.support.is_prefix_of(t):
            chunk = StageComplementChunk(t, self.gdelta, self.k)
            return None if chunk._size[0] == 0 else chunk
        if t.is_prefix_of(self.support):
            return self
        return None

    def __repr__(self) -> str:
        return f"StageComplementChunk({self.support!r}, stage={self.k})"


Piece = Union[ClopenSet, StageComplementChunk]


# ---------------------------------------------------------------------------
# closed piece sets


class ClosedPieceSet:
    """A union of disjoint pieces.  The pieces are denotationally clopen, so
    all measure queries are exact and measure-positivity equals nonemptiness.

    Every set is a *base* plus fills indexed by the base's gaps, a gap being
    a maximal cylinder of the base's complement: `gaps` holds one (cylinder,
    fill pieces) pair per gap of the base, in breadth-first order, and the
    same cylinders as a sorted (n, v) antichain are what `kernel.locate`
    reads.  No base is the empty set, whose one gap is ε, so
    `from_clopen(c)` is the gap ε filled with c.  `_all_pieces` yields the
    base chain's pieces, then the fills gap by gap.  A level made by
    `lusin_menchoff` fills the gaps of F; a separator's F_i widens the
    fills of the backbone before it (see `SeparatorFunction.backbone`).

    Every per-cylinder operation takes one path (`_local`): `kernel.locate`
    finds the gap holding N_t, or the gaps inside it.  When a gap g holds
    N_t, the base misses N_t and every other fill lies in a disjoint gap, so
    only g's fills can meet it.  Otherwise the base can, and so can the
    fills of the gaps inside N_t.  So:

    - `measure_in(t)` (and `_measure_ac`, for an antichain k) sums the
      candidates' answers over k's cylinders, plus the base's answer when
      the base can meet the cylinder.  The base's answer is read through:
      from the base's cache when it holds the cylinder, else by walking the
      base (and its own base) without storing anything.  Only the set that
      was asked stores the result, under k's key;
    - `contains_point(β)` tests the candidates at β's cylinder at the depth
      of the deepest gap, and the base when no gap holds β;
    - `_restricted(t)` restricts the candidates to N_t, base first, which is
      `p.restrict(t)` over all of `_all_pieces()` with the empty answers
      left out: a piece that cannot meet N_t restricts to nothing."""

    def __init__(
        self,
        base: Optional["ClosedPieceSet"] = None,
        gaps: Sequence[tuple[BitString, tuple]] = (),
    ) -> None:
        self.gaps = tuple(gaps)
        self._gap_ac = tuple((s.n, s.v) for s, _ in self.gaps)
        self._base = base
        self._measure_cache: dict = {}

    @staticmethod
    def from_clopen(c: ClopenSet) -> "ClosedPieceSet":
        return ClosedPieceSet(gaps=[(EMPTY, () if c.is_empty else (c,))])

    def _all_pieces(self) -> Iterator[Piece]:
        """Every piece: the base chain's, then the fills gap by gap."""
        if self._base is not None:
            yield from self._base._all_pieces()
        for _, fill in self.gaps:
            yield from fill

    def _local(self, n: int, v: int) -> tuple[bool, tuple]:
        """Whether the base can meet N_(n,v), and the fills that can."""
        holder, slices = kernel.locate(self._gap_ac, n, v)
        if holder is not None:
            return False, self.gaps[holder][1]
        if not slices:
            return True, ()
        gaps = self.gaps
        return True, tuple(
            p for lo, hi in slices for i in range(lo, hi) for p in gaps[i][1]
        )

    def _measure_ac(self, ac: tuple) -> Dyadic:
        hit = self._measure_cache.get(ac)
        if hit is None:
            # Inline, not through _pair_over: this runs once per uncached
            # level query, and the extra call costs the separator workload
            # a few percent.
            num = exp = 0
            for n, v in ac:
                num, exp = _add_pair(num, exp, *self._measure_pair(n, v))
            hit = self._measure_cache[ac] = Dyadic(num, exp)
        return hit

    def _measure_pair(self, n: int, v: int) -> tuple[int, int]:
        """λ(self ∩ N_(n,v)) as (num, exp), not stored."""
        use_base, candidates = self._local(n, v)
        num = exp = 0
        base = self._base
        if use_base and base is not None:
            hit = base._measure_cache.get(((n, v),))
            if hit is None:
                num, exp = base._measure_pair(n, v)
            else:
                num, exp = hit.num, hit.exp
        for p in candidates:
            num, exp = _add_pair(num, exp, *p.measure_pair_in(n, v))
        return num, exp

    def measure_in(self, t: BitString) -> Dyadic:
        return self._measure_ac(((t.n, t.v),))

    @property
    def measure(self) -> Dyadic:
        return self.measure_in(EMPTY)

    def covers(self, t: BitString) -> bool:
        return self.measure_in(t) == Dyadic.pow2(-len(t))

    def contains_point(self, beta: Point) -> bool:
        t = beta.prefix(kernel.max_len(self._gap_ac))
        use_base, candidates = self._local(t.n, t.v)
        if use_base and self._base is not None and self._base.contains_point(beta):
            return True
        return any(p.contains_point(beta) for p in candidates)

    def _restricted(self, t: BitString) -> list[Piece]:
        use_base, candidates = self._local(t.n, t.v)
        out = self._base._restricted(t) if use_base and self._base is not None else []
        for p in candidates:
            r = p.restrict(t)
            if r is not None:
                out.append(r)
        return out

    def decomposition(self) -> list[BitString]:
        """Canonical (breadth-first maximal-cylinder) antichain of the
        complement; the set is denotationally clopen, so the walk terminates
        exactly.  `_DECOMPOSITION_CAP` bounds the number of cylinders the
        walk may *examine*, not just yield: a complement that keeps splitting
        at every depth (e.g. fill slivers hugging a measure-zero boundary)
        fails fast instead of marching forever."""
        return list(_decompose(self))


def _decompose(pieces: ClosedPieceSet) -> Iterator[BitString]:
    """Breadth-first maximal cylinders of the complement of the pieces.
    Measures are canonical dyadics, so "empty" is num == 0 and "full" is
    exactly (1, len(t))."""
    examined = 0
    found = 0
    queue = [EMPTY]
    while queue:
        next_queue = []
        for t in queue:
            examined += 1
            if examined > _DECOMPOSITION_CAP:
                raise HorizonExhausted(
                    "complement decomposition work",
                    f"examined {examined} cylinders, more than the cap of "
                    f"{_DECOMPOSITION_CAP}, without closing the antichain: "
                    f"{found} complement cylinders found, breadth-first depth "
                    f"{t.n} reached; the interpolation at this level is not "
                    f"tractable",
                )
            m = pieces.measure_in(t)
            if m.num == 0:
                found += 1
                yield t
            elif m.num != 1 or m.exp != t.n:
                next_queue.append(t.child(0))
                next_queue.append(t.child(1))
            # else the cylinder lies entirely inside the set
        queue = next_queue


# ---------------------------------------------------------------------------
# the interpolation lemma


def default_budget(n: int) -> Dyadic:
    return Dyadic.pow2(-n)


# An open M for the interpolation.  A GDeltaSet stands for its complement,
# the complement of a measure-zero target: it is never enumerated, and the
# fill inside a complement cylinder N_s is N_s minus a deep enough stage.
MHandle = Union[ClopenSet, ClosedPieceSet, GDeltaSet]


def lusin_menchoff(
    f: Union[ClopenSet, ClosedPieceSet],
    m: MHandle,
    budget: Callable[[int], Dyadic] = default_budget,
) -> ClosedPieceSet:
    """Closed C with F ⊆ C ⊆ F ∪ M such that for the n-th maximal cylinder
    s_n of the complement of F, λ(C ∩ N_{s_n}) ≥ (1-budget(n))·λ(M ∩ N_{s_n}).

    M is a clopen set, a clopen-piece set, or a GDeltaSet standing for its
    complement (the open complement of a measure-zero target).

    Every point added to C lies inside a clopen piece of M, so C has full
    density inside M at each of its new points; F's own structure is carried
    over untouched.  The n = 0 requirement is vacuous for the default budget.
    """
    fs = ClosedPieceSet.from_clopen(f) if isinstance(f, ClopenSet) else f
    # The decomposition is breadth-first, so the fills index C by gap.
    gaps = [(s, _inner_approx(m, s, budget(n))) for n, s in enumerate(fs.decomposition())]
    return ClosedPieceSet(base=fs, gaps=gaps)


def _inner_approx(m: MHandle, s: BitString, eps: Dyadic) -> tuple[Piece, ...]:
    """Clopen pieces inside M ∩ N_s of total measure ≥ (1-eps)·λ(M ∩ N_s)."""
    if isinstance(m, ClopenSet):
        c = m.restrict(s)
        return () if c is None else (c,)
    if isinstance(m, ClosedPieceSet):
        # Denotationally clopen: restriction is exact, no measure is lost.
        return tuple(m._restricted(s))
    if isinstance(m, GDeltaSet):
        return _stage_complement_approx(m, s, eps)
    raise TypeError(f"unsupported M handle {type(m).__name__}")


def _stage_complement_approx(g: GDeltaSet, s: BitString, eps: Dyadic) -> tuple[Piece, ...]:
    """Inner-approximate (complement of target) ∩ N_s by N_s \\ stage(k).

    λ(M ∩ N_s) = λ(N_s) since the target has measure zero, so the budget
    becomes λ(stage(k) ∩ N_s) ≤ eps·λ(N_s); the stage measures tend to 0, so
    some finite k meets it, and the search gives up at `_SEARCH_CAP`."""
    chunk = StageComplementChunk(s, g, _fill_stage_index(g, s, eps))
    return () if chunk._size[0] == 0 else (chunk,)


def _fill_stage_index(g: GDeltaSet, s: BitString, eps: Dyadic) -> int:
    """Minimal k ≤ _SEARCH_CAP with λ(stage(k) ∩ N_s) ≤ eps·λ(N_s).

    Stages are nested, so the measure is nonincreasing in k and the budget,
    once met, stays met: `sets._least_index` gallops then bisects, in
    O(log k) measure queries instead of k + 1."""
    bound = eps.mul_pow2(-len(s))
    k = _least_index(lambda k: g.measure_stage_in(k, s) <= bound, 0, _SEARCH_CAP)
    if k is None:
        raise HorizonExhausted(
            f"inner approximation stage index at {s!r}",
            f"needed λ(stage(k) ∩ N_s) ≤ {bound}",
        )
    return k


# ---------------------------------------------------------------------------
# finite-horizon verification of the interpolation conditions


class InterpolationReport(NamedTuple):
    f_carried: bool          # (1a) F (its cylinders or its pieces) lies in C untouched
    fills_inside_m: bool     # (1b) every added piece sits inside M (measure-exact)
    margins_ok: bool         # (2) λ(fill_n) ≥ (1 - budget(n))·λ(M ∩ N_{s_n})
    density_ok: bool         # (3) density of C ≥ 1 - 2^-4 at sampled F-points
    density_samples: tuple   # (point string, ratio lower bound) pairs
    failures: tuple          # human-readable descriptions of violations

    @property
    def ok(self) -> bool:
        return not self.failures


# The density condition's floor, 1 - 2^-4, and how many points of F it is
# sampled at.
_DENSITY_FLOOR = Dyadic(15, 4)
_DENSITY_SAMPLES = 8


def _leftmost_point(s: BitString) -> Point:
    return Point(s, BitString("0"))


def check_interpolation(
    c: ClosedPieceSet,
    f: Union[ClopenSet, ClosedPieceSet],
    m: MHandle,
    depth: int = 20,
    budget: Callable[[int], Dyadic] = default_budget,
) -> InterpolationReport:
    """Re-verify, at a finite horizon, that C = lusin_menchoff(F, M, budget)
    satisfies the three interpolation conditions for F a clopen set or a
    clopen-piece set: F ⊆ C ⊆ F ∪ M (C covers every cylinder of a clopen F,
    or holds every piece of a piece set F), the fill inside each complement
    cylinder s_n captures a (1-budget(n)) fraction of λ(M ∩ N_{s_n}), and C
    has density ≥ 1 - 2^-4 at sampled points of F, certified from C's exact
    cylinder measures up to `depth`.  M is given as to `lusin_menchoff`: a
    GDeltaSet stands for its complement.

    The margins are measured, not read from the build: for each gap s_n of
    C's index the fill is λ(C ∩ N_{s_n}) (F misses its own gap), and
    λ(M ∩ N_{s_n}) is M's answer, or λ(N_{s_n}) when M is the complement
    of a null target."""
    fs = ClosedPieceSet.from_clopen(f) if isinstance(f, ClopenSet) else f
    failures: list[str] = []

    if isinstance(f, ClopenSet):
        # Exact containment: C must cover every cylinder of F.
        f_carried = all(c.covers(cyl) for cyl in f.cylinders)
    else:
        held = {id(q) for q in c._all_pieces()}
        f_carried = all(id(p) in held for p in fs._all_pieces())
    if not f_carried:
        failures.append("a piece of F is missing from C")

    fills_inside_m = True
    margins_ok = True
    for index, (s, fill) in enumerate(c.gaps):
        for p in fill:
            if not _piece_inside_m(p, m):
                fills_inside_m = False
                failures.append(f"fill {index} at {s!r} escapes M")
        got = c.measure_in(s)
        m_in_s = Dyadic.pow2(-len(s)) if isinstance(m, GDeltaSet) else m.measure_in(s)
        want = (Dyadic.one() - budget(index)) * m_in_s
        if got < want:
            margins_ok = False
            failures.append(
                f"fill {index} at {s!r}: measure "
                f"{got} < (1-budget)·λ(M∩N_s) = {want}"
            )

    samples: list[tuple[str, Dyadic]] = []
    density_ok = True
    for beta in _sample_f_points(fs):
        # Best certified lower bound on λ(C ∩ N_{β|l})·2^l over l ≤ depth.
        best = Dyadic.zero()
        for l in range(depth, 0, -1):
            ratio = c.measure_in(beta.prefix(l)).mul_pow2(l)
            if ratio > best:
                best = ratio
            if best >= _DENSITY_FLOOR:
                break
        samples.append((str(beta), best))
        if best < _DENSITY_FLOOR:
            density_ok = False
            failures.append(f"density of C at {beta} only ≥ {best} within depth {depth}")

    return InterpolationReport(
        f_carried, fills_inside_m, margins_ok, density_ok,
        tuple(samples), tuple(failures),
    )


def _piece_inside_m(p: Piece, m: MHandle) -> bool:
    size = Dyadic(*p.measure_pair_in(0, 0))
    if isinstance(m, ClopenSet):
        return Dyadic(*_pair_over(p, m._ac)) == size
    if isinstance(m, ClosedPieceSet):
        # p lies inside M when M holds all of it.
        if isinstance(p, ClopenSet):
            return m._measure_ac(p._ac) == size
        # λ(M ∩ (N_t \ stage(k))) = λ(M ∩ N_t) − λ(M ∩ N_t ∩ stage(k)).
        t = p.support
        in_stage = kernel.intersect(p.gdelta.stage(p.k)._ac, ((t.n, t.v),))
        return m.measure_in(t) - m._measure_ac(in_stage) == size
    if isinstance(m, GDeltaSet):
        # M = complement of the target; a stage-complement chunk misses
        # stage(k) ⊇ target by construction.  Anything else must avoid
        # the target's stages, checked against the deepest cheap stage.
        if isinstance(p, StageComplementChunk) and p.gdelta is m:
            return True
        return _pair_over(p, m.stage(3)._ac)[0] == 0
    return False


def _sample_f_points(fs: ClosedPieceSet) -> list[Point]:
    pts: list[Point] = []
    for p in fs._all_pieces():
        if len(pts) >= _DENSITY_SAMPLES:
            break
        if isinstance(p, ClopenSet):
            for cyl in p.cylinders[:2]:
                pts.append(_leftmost_point(cyl))
        elif isinstance(p, StageComplementChunk):
            cand = _leftmost_point(p.support)
            if p.contains_point(cand):
                pts.append(cand)
    return pts[:_DENSITY_SAMPLES]


# ---------------------------------------------------------------------------
# graded separators


def _precision_exponent(precision: Dyadic) -> int:
    """The least n ≥ 0 with 2^-n ≤ precision: num/2^exp ≥ 2^-n exactly when
    2^(exp-n) ≤ num, i.e. exp - n ≤ num.bit_length() - 1."""
    if precision <= 0:
        raise ValueError("precision must be positive")
    return max(0, precision.exp - precision.num.bit_length() + 1)


class SeparatorFunction:
    """h = 1 on the target G, 0 on the closed set C, graded in between by
    the dyadic level family: h(β) = 1 - sup{ζ : β ∈ C_ζ}.

    Levels C_ζ are built lazily: the backbone C_{1/2^m} interpolates between
    F_m = (previous backbone ∪ ¬stage(m)) and the complement of G (see
    `backbone`), and each in-between dyadic gets an interpolant between its
    two neighbours at the coarser denominator.  Every level is
    denotationally clopen, so membership and level measures are exact; the
    only inexactness in h is the grading granularity 2^(-n) itself.

    `evaluate` and `mean_in` return closed dyadic intervals [lo, hi] with
    hi - lo ≤ precision, as `StepFunction`'s do.
    """

    def __init__(self, c: Union[ClopenSet, ClosedPieceSet], g: GDeltaSet) -> None:
        self.c = ClosedPieceSet.from_clopen(c) if isinstance(c, ClopenSet) else c
        self.g = g
        self._levels: dict[tuple[int, int], ClosedPieceSet] = {}
        self._gradings: dict[int, tuple[ClosedPieceSet, ...]] = {}
        self._backbone: list[ClosedPieceSet] = []

    def backbone(self, m: int) -> ClosedPieceSet:
        """C_{1/2^m} = lusin_menchoff(F_m, complement of G), F_0 = C.

        C is inside every backbone level, so F_i = backbone(i−1) ∪ ¬stage(i)
        exhausts the complement of G by C ∪ ¬stage(i).  F_i has a level's
        shape.  backbone(i−1) is its base B plus a fill N_s \\ stage(k_s) in
        each gap s of B, and stages are nested, so F_i is B with each fill
        widened to N_s \\ stage(max(k_s, i)); no ¬stage(i) is built.  A fill
        that is not empty keeps its index, since k_s ≥ i: s lies in
        stage(i−1) (B holds ¬stage(i−1), and stage(0) is full), so
        N_s \\ stage(k) is empty for k < i.  An empty fill becomes
        N_s \\ stage(i), dropped when its measure is 0."""
        while len(self._backbone) <= m:
            i = len(self._backbone)
            f = self.c
            if i > 0:
                prev = self._backbone[i - 1]
                gaps = []
                for s, fill in prev.gaps:
                    if fill:
                        gaps.append((s, fill))
                    else:
                        chunk = StageComplementChunk(s, self.g, i)
                        gaps.append((s, (chunk,) if chunk._size[0] else ()))
                f = ClosedPieceSet(base=prev._base, gaps=gaps)
            self._backbone.append(lusin_menchoff(f, self.g))
        return self._backbone[m]

    def level(self, num: int, denom_exp: int) -> ClosedPieceSet:
        """C_ζ for ζ = num / 2^denom_exp ∈ (0, 1]."""
        if not 0 < num <= (1 << denom_exp):
            raise ValueError(f"level {num}/2^{denom_exp} outside (0,1]")
        while num % 2 == 0:
            num //= 2
            denom_exp -= 1
        if num == 1:
            return self.backbone(denom_exp)
        key = (num, denom_exp)
        hit = self._levels.get(key)
        if hit is None:
            # Interpolate between the two neighbours at the coarser grid:
            # F is the smaller set (higher level), M the larger (lower).
            f = self.level((num + 1) // 2, denom_exp - 1)
            m = self.level((num - 1) // 2, denom_exp - 1)
            hit = lusin_menchoff(f, m)
            self._levels[key] = hit
        return hit

    def evaluate(self, beta: Point, precision: Dyadic) -> tuple[Dyadic, Dyadic]:
        """h(β) to within 2^-n, from the largest j with β ∈ C_(j/2^n).

        Every level is a backbone level, C_(j/2^n) = backbone(n − ⌊log₂ j⌋):
        a level j/2^e with j odd, j > 1, interpolates between its coarser
        neighbours F ⊆ M into the piece set M, which `_inner_approx`
        restricts exactly, so it is F ∪ (M ∩ ¬F) = M.  The backbones are
        nested; with m the least index of one holding β, the largest j is
        2^n when m = 0, 2^(n−m+1) − 1 when 0 < m ≤ n, and 0 when m > n."""
        if self.g.exit_stage(beta) is None:
            return Dyadic.one(), Dyadic.one()
        n = _precision_exponent(precision)
        self.backbone(n)
        m = bisect_left(self._backbone, True, hi=n + 1, key=lambda b: b.contains_point(beta))
        if m == 0:
            return Dyadic.zero(), Dyadic.zero()  # beta ∈ C_1 ⊇ C: h = 0 exactly
        best = 0 if m > n else (1 << (n - m + 1)) - 1
        return Dyadic.one() - Dyadic(best + 1, n), Dyadic.one() - Dyadic(best, n)

    def _grading(self, n: int) -> tuple[ClosedPieceSet, ...]:
        """The levels C_(j/2^n) for j = 2^n down to 1, all built up front in
        that order (so a budget that runs out does so at the same level as
        building them one by one)."""
        hit = self._gradings.get(n)
        if hit is None:
            hit = self._gradings[n] = tuple(self.level(j, n) for j in range(1 << n, 0, -1))
        return hit

    def mean_in(self, s: BitString, precision: Dyadic) -> tuple[Dyadic, Dyadic]:
        """Exact layer-cake bracketing of the cylinder mean: summing the
        (exact) relative measures of the 2^n levels pins the mean of the
        level profile to within one grading step 2^(-n).

        The levels are nested.  Level j is lusin_menchoff(F, M) with F the
        higher neighbour and M the lower one at the coarser grid, and
        F ⊆ C ⊆ F ∪ M ⊆ M; a backbone level contains the one before it.  So
        along the grading (j = 2^n down to 1) the answers λ(C_j ∩ N_s) never
        decrease: a run of exact zeros, a band strictly between 0 and
        λ(N_s), then a run of exactly full answers.  Only the band needs
        asking.  A bisection finds its first level, the sum runs along the
        grading to the first full answer, and that level and the ones after
        it add 2^-|s| each.
        Every skipped answer is exactly 0 or exactly full, so the sum is the
        one over all 2^n levels."""
        n = _precision_exponent(precision)
        levels = self._grading(n)
        key = ((s.n, s.v),)
        num = exp = 0
        first = bisect_left(levels, True, key=lambda c: c._measure_ac(key).num != 0)
        for i in range(first, len(levels)):
            d = levels[i]._measure_ac(key)
            if d.num == 1 and d.exp == s.n:
                num, exp = _add_pair(num, exp, len(levels) - i, s.n)
                break
            num, exp = _add_pair(num, exp, d.num, d.exp)
        rel = Dyadic(num, exp)
        profile_lo = rel.mul_pow2(len(s) - n)  # lower bound on mean of sup-level
        hi = Dyadic.one() - profile_lo
        lo = hi - Dyadic.pow2(-n)
        if lo < 0:
            lo = Dyadic.zero()
        return lo, hi


def urysohn(c: Union[ClopenSet, ClosedPieceSet], g: GDeltaSet) -> SeparatorFunction:
    """Graded separator between a closed set C and a measure-zero target G
    (disjoint from C): 1 on G, 0 on C, density-continuous."""
    return SeparatorFunction(c, g)


class StepFunction:
    """Depth-d step function: constant on each length-d cylinder.  All
    means are exact dyadics (averages of 2^k dyadic values)."""

    def __init__(self, depth: int, values: Sequence[Dyadic]) -> None:
        if len(values) != 1 << depth:
            raise ValueError(f"need 2^{depth} values, got {len(values)}")
        for v in values:
            if v < 0 or v > 1:
                raise ValueError(f"step value {v} outside [0,1]")
        self.depth = depth
        self.values = list(values)

    def evaluate(self, beta: Point, precision: Dyadic) -> tuple[Dyadic, Dyadic]:
        v = self.values[beta.prefix(self.depth).v]
        return v, v

    def mean_in(self, s: BitString, precision: Dyadic) -> tuple[Dyadic, Dyadic]:
        v = self.mean_exact(s)
        return v, v

    def mean_exact(self, s: BitString) -> Dyadic:
        if len(s) >= self.depth:
            return self.values[s.prefix(self.depth).v]
        shift = self.depth - len(s)
        base = s.v << shift
        total = Dyadic.zero()
        for i in range(1 << shift):
            total = total + self.values[base + i]
        return total.mul_pow2(-shift)


def mean_trace(
    h: Union[SeparatorFunction, StepFunction],
    beta: Point,
    depth: int,
    precision: Dyadic,
) -> list[tuple[int, Dyadic, Dyadic]]:
    """Means along the branch: rows (l, lo, hi) for l = 0..depth."""
    return [
        (l, *h.mean_in(beta.prefix(l), precision)) for l in range(depth + 1)
    ]
