"""Measure-zero target sets: G-delta descriptions by nested clopen stages.

A target is described by its nested clopen stages stage(0) ⊇ stage(1) ⊇ …
with stage(0) the full space and λ(stage(n)) → 0; the set itself is the
intersection, a closed null set.  The two built-in families have
λ(stage(n)) = 2^-n by construction.  An explicitly listed description
declares a decay rate, and each listed stage's measure is checked against
it when the description is built; nothing reads the rate after that.
Finite unions of these (closed null sets again) are the inputs the rest of
the package consumes.

Two built-in families carry closed-form stage geometry (measure of
stage(n) ∩ N_t, the stage cylinder containing a point, exit stages), which
is what keeps deep constructions feasible: materialized stage antichains
grow like 2^n and are out of reach long before the stage budgets of
interest.  Both are halving (see GDeltaSet), so the synthesis stage chain
on them needs no search: its n-th region is stage(m_n) with
m_(n+1) = m_n + n + 4, that is m_n = n(n + 7)/2.
Explicitly-listed stage documents take the materialized path instead.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Optional, Sequence

from .bits import EMPTY, BitString, Point
from .clopen import ClopenSet
from .dyadic import Dyadic
from .errors import HorizonExhausted, ParseError


class GDeltaSet:
    """Base: nested clopen stages whose measures tend to 0.

    One structure flag, `halving`, declares that each stage cylinder loses
    half of itself at every later stage: every antichain cylinder w of
    stage(k) has λ(stage(m) ∩ N_w) = 2^-(m - k)·λ(N_w) for m ≥ k.  Two
    things follow.  stage(m) ∩ N_w is never empty, so by compactness every
    stage cylinder meets the target.  And every cylinder of one stage takes
    the same least stage under a relative budget, a closed form."""

    kind = "gdelta"

    def stage(self, n: int) -> ClopenSet:
        raise NotImplementedError

    def measure_stage_pair(self, m: int, n: int, v: int) -> tuple[int, int]:
        """λ(stage(m) ∩ N_(n,v)), exact, as an unreduced pair (num, exp)."""
        return self.stage(m).measure_pair_in(n, v)

    def measure_stage_in(self, m: int, t: BitString) -> Dyadic:
        """λ(stage(m) ∩ N_t), exact: the pair as a Dyadic."""
        return Dyadic(*self.measure_stage_pair(m, t.n, t.v))

    def stage_cylinder_containing(self, n: int, beta: Point) -> Optional[BitString]:
        """The canonical-antichain cylinder of stage(n) containing beta."""
        return self.stage(n).cylinder_containing(beta)

    def exit_stage(self, beta: Point) -> Optional[int]:
        """First n with beta outside stage(n); None when beta is in the set.

        Exact for every supported description (eventually periodic points,
        eventually constant or pattern-defined stages)."""
        raise NotImplementedError

    def stage_refutation_depth(self, n: int, beta: Point) -> int:
        """Minimal l with N_{beta|l} disjoint from stage(n).
        Precondition: beta is outside stage(n)."""
        return self.stage(n).refutation_depth(beta)

    def meets_target(self, t: BitString) -> bool:
        """Does N_t intersect the target set?  Exact."""
        raise NotImplementedError

    def stage_count(self, n: int) -> int:
        """Number of canonical-antichain cylinders of stage(n)."""
        return self.stage(n).cylinder_count()

    def stage_sample(self, n: int, count: int) -> list:
        """First `count` antichain cylinders of stage(n), breadth-first."""
        return self.stage(n).sample_cylinders(count)

    halving = False  # stage(m) holds 2^-(m - k) of each cylinder of stage(k)


def _least_index(holds: Callable[[int], bool], start: int, last: int) -> Optional[int]:
    """The least k in [start, last] with holds(k), or None when holds(last)
    is false, for a predicate that stays true once true (as a budget does
    along nested stages).  Gallop over the offsets 0, 2, 6, 14, … from start
    to bracket it, then bisect the bracket (Bentley & Yao 1976):
    O(log(k - start)) probes instead of k - start + 1."""
    lo, hi, step = start - 1, start, 1  # lo fails (or is below start)
    while not holds(hi):
        if hi >= last:
            return None
        step *= 2
        lo, hi = hi, min(hi + step, last)
    while hi - lo > 1:  # lo fails, hi holds
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


@functools.lru_cache(maxsize=64)
def _even_mask(length: int) -> int:
    """Mask 0b…0101 of the even positions 0, 2, 4, … of a big-endian bit
    string of the given length (position i sits at shift length-1-i).

    Memoized per length: a stage chain asks again and again for the few
    lengths of its current witnesses, and each mask costs O(length) to
    build; the cache is bounded, since deep masks are long."""
    k = (length + 1) // 2
    return ((1 << 2 * k) // 3) << (1 - length % 2)


def _first_even_one(length: int, v: int) -> Optional[int]:
    """Least even position holding a 1 in the length-bit string v, or None."""
    hits = v & _even_mask(length)
    return None if hits == 0 else length - hits.bit_length()


class EvenZeros(GDeltaSet):
    """{β : β(2i) = 0 for all i} — positions 0-indexed.

    stage(n) pins the first n even positions to zero; its canonical antichain
    is the 2^(n-1) strings of length 2n-1 with zeros at even positions (the
    final even position 2n-2 is the last constrained one; position 2n-1 is
    free, so length-2n descriptions merge).

    Every stage query is closed form.  `measure_stage_pair` tests t's bits
    against the even-position mask of their length, except when they are
    all zero: then no even position holds a 1, whatever the length, and no
    mask is built.  Every stage chain witness is all zeros (the 0-th
    antichain cylinder), so building stage n builds no mask, though each
    stage's witnesses have a new length.
    """

    kind = "even-zeros"
    halving = True

    @staticmethod
    def _stage_cylinder(n: int, w: int) -> BitString:
        """The w-th antichain cylinder of stage(n): odd positions carry the
        bits of w (most significant first), even positions are zero."""
        # Reading the binary digits of w in base 4 moves bit j to bit 2j;
        # the shift puts them on the odd positions 1, 3, …, 2n-3.
        return BitString.raw(2 * n - 1, int(format(w, "b"), 4) << 1)

    def stage(self, n: int) -> ClopenSet:
        if n == 0:
            return ClopenSet.full()
        if n > 18:
            raise HorizonExhausted(
                f"even-zeros stage antichain at n={n}",
                f"2^{n - 1} cylinders; use the closed-form queries instead",
            )
        cyls = [self._stage_cylinder(n, w) for w in range(1 << (n - 1))]
        return ClopenSet.from_cylinders(cyls)

    def stage_count(self, n: int) -> int:
        return 1 if n == 0 else 1 << (n - 1)

    def stage_sample(self, n: int, count: int) -> list:
        if n == 0:
            return [EMPTY]
        return [
            self._stage_cylinder(n, w)
            for w in range(min(count, 1 << (n - 1)))
        ]

    def measure_stage_pair(self, m: int, n: int, v: int) -> tuple[int, int]:
        bound = min(n, 2 * m)
        v >>= n - bound
        if v and v & _even_mask(bound):
            return 0, 0
        if n >= 2 * m:
            return 1, n
        # Of the first 2m positions, the m - n//2 odd ones after the n given
        # bits are free and all others are fixed: 2^-(2m - (m - n//2)).
        return 1, m + n // 2

    def stage_cylinder_containing(self, n: int, beta: Point) -> Optional[BitString]:
        if n == 0:
            return EMPTY
        c = beta.prefix(2 * n - 1)
        return None if c.v & _even_mask(c.n) else c

    def exit_stage(self, beta: Point) -> Optional[int]:
        bound = len(beta.prefix_bits) + 2 * len(beta.period_bits)
        i = _first_even_one(bound, beta.prefix(bound).v)
        return None if i is None else i // 2 + 1

    def stage_refutation_depth(self, n: int, beta: Point) -> int:
        i = _first_even_one(2 * n, beta.prefix(2 * n).v)
        if i is None:
            raise ValueError(f"point is inside stage {n}")
        return i + 1

    def meets_target(self, t: BitString) -> bool:
        return t.v & _even_mask(t.n) == 0


class Singleton(GDeltaSet):
    """One eventually-periodic point; stage(n) is its length-n cylinder.

    Every stage query is closed form.  stage(n)'s antichain is the one
    cylinder point|n, so `stage_count` is 1 and `stage_sample` is
    [point|n] (nothing for a count of 0), with no ClopenSet built."""

    kind = "singleton"
    halving = True

    def __init__(self, point: Point) -> None:
        self.point = point
        # (n, point|n) for the last n asked about
        self._last_prefix: tuple = (None, None)

    def _prefix(self, n: int) -> BitString:
        """point|n.  The last one is kept: a halving step samples its new
        witness point|m and then asks whether a region covers it, and a
        truncation mean asks about one t at many n."""
        last, w = self._last_prefix
        if last != n:
            w = self.point.prefix(n)
            self._last_prefix = (n, w)
        return w

    def stage(self, n: int) -> ClopenSet:
        return ClopenSet.cylinder(self.point.prefix(n))

    def measure_stage_pair(self, m: int, n: int, v: int) -> tuple[int, int]:
        # With a the common-prefix length of t = (n, v) and the point, the
        # stage cylinder N_{point|m} holds N_t when m <= a, lies inside it
        # when t is a prefix of the point (a = n), and misses it otherwise.
        a = n - (self._prefix(n).v ^ v).bit_length()
        if m <= a:
            return 1, n
        if a == n:
            return 1, m
        return 0, 0

    def stage_count(self, n: int) -> int:
        return 1

    def stage_sample(self, n: int, count: int) -> list:
        return [self._prefix(n)] if count > 0 else []

    def stage_cylinder_containing(self, n: int, beta: Point) -> Optional[BitString]:
        w = self.point.prefix(n)
        return w if beta.starts_with(w) else None

    def exit_stage(self, beta: Point) -> Optional[int]:
        d = beta.first_difference(self.point)
        return None if d is None else d + 1

    def stage_refutation_depth(self, n: int, beta: Point) -> int:
        d = beta.first_difference(self.point)
        if d is None or d >= n:
            raise ValueError(f"point is inside stage {n}")
        return d + 1

    def meets_target(self, t: BitString) -> bool:
        return self.point.starts_with(t)


def _exceeds_rate(m: Dyadic, e: int) -> bool:
    """m > 2^-e, for a measure m ≤ 1, compared by exponents.  A rate
    2^-e ≥ 1 bounds every measure; one below 2^-m.exp is exceeded by every
    nonzero m; otherwise m.num is compared with 2^(m.exp - e)."""
    if e <= 0:
        return False
    if e > m.exp:
        return m.num > 0
    return m.num > 1 << (m.exp - e)


class ExplicitGDelta(GDeltaSet):
    """Finitely listed stages, the last one repeating.

    The repeating tail means the denoted set is the last listed stage, so
    the set is null only when that stage is empty; `component_from_spec`
    refuses a spec whose last stage is not.  Built directly, the stages may
    also be a truncated presentation with a nonempty last stage, on which
    the synthesis stage budgets run out (HorizonExhausted) once the listed
    stages are used up.  Decreasingness and the declared rate are checked
    on the listed stages up front (stage(0) must be full; rate is checked
    from stage 1 on, since λ(stage(0)) = 1 always).

    The rate 2^-(n + c) is given once, as its offset c (see parse_rate).
    It is checked exactly for a c of any size: a stage's measure is
    compared with the rate by exponents, so no power 2^|c| is built.
    """

    kind = "explicit"

    def __init__(self, stages: Sequence[ClopenSet], rate: int) -> None:
        stages = list(stages)
        if not stages:
            raise ParseError("explicit description needs at least one stage")
        if not stages[0].is_full:
            stages.insert(0, ClopenSet.full())
        for n in range(len(stages) - 1):
            if not stages[n + 1].is_subset_of(stages[n]):
                raise ParseError(f"explicit stages not decreasing at index {n + 1}")
        for n in range(1, len(stages)):
            m = stages[n].measure
            if _exceeds_rate(m, n + rate):
                raise ParseError(
                    f"stage {n} has measure {m} "
                    f"exceeding declared rate {Dyadic.pow2(-(n + rate))}"
                )
        self.stages = stages

    def stage(self, n: int) -> ClopenSet:
        return self.stages[min(n, len(self.stages) - 1)]

    def exit_stage(self, beta: Point) -> Optional[int]:
        # The stages are nested, so beta stays outside once it leaves.
        last = len(self.stages) - 1
        if self.stages[last].contains_point(beta):
            return None
        return _least_index(lambda n: not self.stages[n].contains_point(beta), 1, last)

    def meets_target(self, t: BitString) -> bool:
        return self.stages[-1].meets(t)


class SigmaThreeSet:
    """Finite union of G-delta targets: a closed null set, since each
    component is an intersection of nested clopen stages."""

    def __init__(self, components: Sequence[GDeltaSet]) -> None:
        self.components = list(components)

    def exit_stage(self, beta: Point) -> Optional[int]:
        """None when some component contains beta; otherwise the first n by
        which beta has left stage(n) of every component, the largest
        component exit stage (0 for the empty union)."""
        stages = [c.exit_stage(beta) for c in self.components]
        if None in stages:
            return None
        return max(stages, default=0)

    @staticmethod
    def from_spec(doc: dict) -> "SigmaThreeSet":
        if not isinstance(doc, dict) or doc.get("kind") != "sigma3":
            raise ParseError("set description must have kind 'sigma3'")
        comps = doc.get("components")
        if not isinstance(comps, list):
            raise ParseError("set description needs a 'components' list")
        return SigmaThreeSet([component_from_spec(c) for c in comps])


# -- rate strings ------------------------------------------------------------

_RATE_FORMS = ("2^-n", "2^-(n+c)", "2^-(n-c)")


def parse_rate(text: str) -> int:
    """The offset c of a decay-rate string, whose rate is 2^-(n + c).
    Accepted forms: 2^-n (c = 0), 2^-(n+c) and 2^-(n-c) (offset -c), with
    c a literal natural number.  c may have as many digits as the
    interpreter converts to an integer (sys.get_int_max_str_digits(),
    4300 by default); a longer one is a parse error.  The rate is checked
    exactly at any size (see ExplicitGDelta)."""
    if not isinstance(text, str):
        raise ParseError(f"rate must be a string, got {type(text).__name__}")
    s = text.replace(" ", "")
    if s == "2^-n":
        return 0
    m = re.fullmatch(r"2\^-\(n([+-])([0-9]+)\)", s)
    if m is None:
        raise ParseError(f"unsupported rate {text!r}; accepted forms: {_RATE_FORMS}")
    digits = m.group(2)
    try:
        c = int(digits)
    except ValueError:  # past the interpreter's integer-string digit limit
        raise ParseError(
            f"rate constant of {len(digits)} digits is longer than "
            f"the interpreter's limit for integer strings"
        ) from None
    return c if m.group(1) == "+" else -c


# Longest bit string an explicit stage may list: a named limit on input
# size.  Every query on an explicit stage costs at least the bit length of
# its cylinders, so a spec may not make that cost unbounded.
EXPLICIT_BITS_LIMIT = 512


def component_from_spec(doc: dict) -> GDeltaSet:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError(f"bad component description: {doc!r}")
    kind = doc["kind"]
    if kind == "even-zeros":
        return EvenZeros()
    if kind == "singleton":
        if not isinstance(doc.get("point"), str):
            raise ParseError("singleton component needs a 'point' string")
        return Singleton(Point.parse(doc["point"]))
    if kind == "explicit":
        stages = doc.get("stages")
        if not isinstance(stages, list) or not all(
            isinstance(st, list) and all(isinstance(c, str) for c in st)
            for st in stages
        ):
            raise ParseError(
                "explicit component needs 'stages': list of lists of bit strings"
            )
        for st in stages:
            for c in st:
                if len(c) > EXPLICIT_BITS_LIMIT:
                    raise ParseError(
                        f"explicit stage string of {len(c)} bits is longer than "
                        f"the limit of {EXPLICIT_BITS_LIMIT} bits"
                    )
        if stages and stages[-1]:
            raise ParseError(
                "explicit component's last stage is not empty: the last stage "
                "repeats forever, so the component would be that nonempty "
                "clopen set, which is not null"
            )
        return ExplicitGDelta(
            [ClopenSet.from_strings(st) for st in stages],
            parse_rate(doc.get("rate", "2^-n")),
        )
    raise ParseError(f"unknown component kind {kind!r}")
