"""Seeded workloads: input generators, operation runners and output checks.

Each workload is a closed loop with one client: the benchmark issues an
operation, waits for its result, checks it, and only then issues the next.
Inputs are plain JSON-like data made from the seed; the program under test
only ever sees those inputs.  Operations come in *rounds* of fixed
composition (the seed picks values inside fixed strata and shuffles the
order), so every seed offers the same mix of cheap and expensive work and
run-to-run figures stay comparable.

Checks are independent of the program: eventually periodic points, set
membership, table documents and value brackets are re-derived here with the
standard library only (`fractions.Fraction` and bit strings), never by calling
back into divmart.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import count

# ---------------------------------------------------------------------------
# eventually periodic points, written "prefix(period)"


def split_point(text: str) -> tuple[str, str]:
    prefix, period = text[:-1].split("(")
    return prefix, period


def bit(text: str, i: int) -> str:
    prefix, period = split_point(text)
    if i < len(prefix):
        return prefix[i]
    return period[(i - len(prefix)) % len(period)]


def bits(text: str, n: int) -> str:
    return "".join(bit(text, i) for i in range(n))


def first_difference(a: str, b: str):
    """Least index where two points differ, or None for the same sequence."""
    (pa, qa), (pb, qb) = split_point(a), split_point(b)
    bound = max(len(pa), len(pb)) + math.lcm(len(qa), len(qb))
    for i in range(bound):
        if bit(a, i) != bit(b, i):
            return i
    return None


def in_even_zeros(text: str) -> bool:
    prefix, period = split_point(text)
    return all(bit(text, i) == "0" for i in range(0, len(prefix) + 2 * len(period), 2))


def member(spec: dict, text: str) -> bool:
    """Exact membership of a point in a union of even-zeros and singletons."""
    for comp in spec["components"]:
        if comp["kind"] == "even-zeros" and in_even_zeros(text):
            return True
        if comp["kind"] == "singleton" and first_difference(comp["point"], text) is None:
            return True
    return False


def random_bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


POINT_SHAPES = [(pre, per) for pre in range(6) for per in range(1, 6)]


def random_point(rng: random.Random, shape_key=None) -> str:
    """A random prefix(period) point; with a key, the (prefix, period)
    lengths cycle through POINT_SHAPES (see Draws.cycle)."""
    pre, per = rng.cycle(shape_key, POINT_SHAPES) if shape_key else (rng.randint(0, 5), rng.randint(1, 5))
    return f"{random_bits(rng, pre)}({random_bits(rng, per)})"


def respell(rng: random.Random, text: str) -> str:
    """The same sequence written differently: unroll the period a few times."""
    prefix, period = split_point(text)
    shift = rng.randint(0, 2 * len(period))
    rolled = bits(text, len(prefix) + shift)
    start = len(prefix) + shift
    return f"{rolled}({''.join(bit(text, start + i) for i in range(len(period)))})"


def leave_after(rng: random.Random, text: str, n: int) -> str:
    """A point that agrees with `text` on its first n bits and differs at n."""
    flipped = "1" if bit(text, n) == "0" else "0"
    tail, period = random_bits(rng, rng.randint(0, 3)), random_bits(rng, rng.randint(1, 4))
    return f"{bits(text, n)}{flipped}{tail}({period})"


def even_zeros_point(rng: random.Random) -> str:
    """A point with zeros at every even position (in the even-zeros set)."""
    pre = "".join("0" + rng.choice("01") for _ in range(rng.randint(0, 3)))
    return f"{pre}({'0' + rng.choice('01')})"


def off_even_zeros_point(rng: random.Random, first_one: int) -> str:
    """Starts with 0, has its first 1 at even position 2*first_one."""
    pre = "".join(("1" if i == first_one else "0") + rng.choice("01") for i in range(first_one + 1))
    return f"{pre}({random_bits(rng, rng.randint(1, 3))})"


EVEN_ZEROS = {"kind": "even-zeros"}


def singleton(text: str) -> dict:
    return {"kind": "singleton", "point": text}


def sigma3(components: list) -> dict:
    return {"kind": "sigma3", "components": components}


# ---------------------------------------------------------------------------
# shared checks on exact values


def dyadic_value(pair) -> Fraction:
    num, exp = pair
    return Fraction(num, 1 << exp)


def parse_dyadic_text(text: str) -> Fraction:
    """Dyadic.__str__ form: 'n' or 'n/2^k'."""
    if "/2^" in text:
        num, exp = text.split("/2^")
        return Fraction(int(num), 1 << int(exp))
    return Fraction(int(text))


def node_index(prefix_bits: str) -> int:
    return (1 << len(prefix_bits)) - 1 + (int(prefix_bits, 2) if prefix_bits else 0)


def document_values(doc: dict) -> list:
    return [Fraction(int(v["num"]), 1 << v["exp"]) for v in doc["values"]]


def check_table_document(text: str, depth: int, truncation: int):
    """Parse a martingale-table document; check its shape, that every value
    lies in [0, 1], and the exact identity f(s) = (f(s0) + f(s1)) / 2.
    Returns (error or None, list of values as Fractions)."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        return f"document is not JSON: {e}", []
    if not text.endswith("\n") or json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" != text:
        return "document is not in canonical form", []
    if doc.get("kind") != "martingale-table" or doc.get("depth") != depth:
        return f"document kind/depth wrong: {doc.get('kind')!r} {doc.get('depth')!r}", []
    if doc.get("truncation") != truncation:
        return f"document truncation {doc.get('truncation')!r} != {truncation}", []
    if not isinstance(doc.get("values"), list) or len(doc["values"]) != (1 << (depth + 1)) - 1:
        return "document has the wrong number of values", []
    values = document_values(doc)
    if any(not 0 <= v <= 1 for v in values):
        return "a table value lies outside [0, 1]", values
    for i in range((1 << depth) - 1):
        if 2 * values[i] != values[2 * i + 1] + values[2 * i + 2]:
            return f"martingale identity fails at node {i}", values
    return None, values


def bracket_error(lo: Fraction, hi: Fraction, width: Fraction):
    if not 0 <= lo <= hi <= 1:
        return f"bracket [{lo}, {hi}] is not inside [0, 1]"
    if hi - lo > width:
        return f"bracket [{lo}, {hi}] wider than {width}"
    return None


# ---------------------------------------------------------------------------
# workloads


class Draws(random.Random):
    """Seeded draws.  `cycle` draws a size without replacement: each key runs
    through a shuffled list of its values before any value repeats, so a run
    of a few dozen rounds meets the same spread of sizes whatever the seed
    (independent draws left the operation mix, and so the figures, varying
    by more than 10% from seed to seed)."""

    def __init__(self, seed: str) -> None:
        super().__init__(seed)
        self.cycles = {}

    def cycle(self, key, values):
        pending = self.cycles.get(key)
        if not pending:
            pending = self.cycles[key] = list(values)
            self.shuffle(pending)
        return pending.pop()

    def spread(self, key, lo: int, hi: int, bins: int = 4) -> int:
        """A value in [lo, hi]: cycles over `bins` equal sub-ranges and draws
        uniformly inside the chosen one, so wide ranges are covered evenly."""
        b = self.cycle(key, range(bins))
        size = hi - lo + 1
        return self.randint(lo + b * size // bins, lo + (b + 1) * size // bins - 1)


class Workload:
    """One seeded workload: `rounds` makes the inputs, `runner` executes
    them against the program, `check` verifies one output."""

    name = ""
    ref_rounds = 1  # rounds in the reference prefix (digest, traced run)
    speed_probe = "fraction"  # how run.py tracks machine speed (see run.PROBES)

    def rounds(self, rng: Draws, r: int) -> list:
        """The operations of round r, drawn from rng."""
        raise NotImplementedError

    def ops(self, seed: int):
        """Endless seeded operation stream, round by round."""
        rng = Draws(f"{self.name}:{seed}")
        for r in count():
            yield from self.rounds(rng, r)

    def reference_ops(self, seed: int) -> list:
        """The first `ref_rounds` rounds of the stream."""
        rng = Draws(f"{self.name}:{seed}")
        return [op for r in range(self.ref_rounds) for op in self.rounds(rng, r)]

    def runner(self, lib, workdir: str) -> "Runner":
        """A runner calling the program through `lib`, the imported divmart
        package; its modules are looked up at call time, so the wrappers of
        a traced pass are seen."""
        raise NotImplementedError

    def checker(self):
        """A fresh callable check(op, output) -> error message or None."""
        return self.check

    def check(self, op: dict, out):
        raise NotImplementedError

    def digest_item(self, out):
        """The part of an output that the default-seed digest covers."""
        return out


class Runner:
    """Executes operations; only `run` is timed."""

    def prepare(self, op: dict) -> None:
        """Untimed set-up before the operation (input files, arguments)."""

    def run(self, op: dict):
        raise NotImplementedError

    def finish(self, op: dict, out):
        """Untimed conversion of a result into plain data for the checks."""
        return out


def python_env(src: str) -> dict:
    """Environment for a child interpreter that imports divmart from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def pair(d) -> tuple[int, int]:
    return (d.num, d.exp)


# -- table ------------------------------------------------------------------

# (singletons, depth, largest truncation): cost grows like
# 2^depth * (truncation + 2) * (components), so the strata keep every
# operation between a few and a few hundred milliseconds.
TABLE_SLOTS = (
    (0, 7, 9), (0, 8, 9), (0, 9, 6), (0, 10, 3), (0, 11, 2), (0, 12, 1),
    (1, 7, 6), (1, 8, 4), (1, 9, 2), (1, 10, 1),
    (2, 7, 4), (2, 8, 2), (2, 9, 1),
)


class TableWorkload(Workload):
    name = "table"
    ref_rounds = 3

    def rounds(self, rng, r):
        ops = []
        for slot, (singletons, depth, kmax) in enumerate(TABLE_SLOTS):
            spec = sigma3([EVEN_ZEROS] + [singleton(random_point(rng)) for _ in range(singletons)])
            ops.append({"kind": "table", "spec": spec, "depth": depth,
                        "truncation": rng.cycle(slot, range(1, kmax + 1)),
                        # every other slot reads its document back
                        "branch": random_point(rng) if slot % 2 == 0 else None})
        rng.shuffle(ops)
        return ops

    def runner(self, lib, workdir):
        return TableRunner(lib)

    def check(self, op, out):
        text, loaded, branch_values = out
        err, values = check_table_document(text, op["depth"], op["truncation"])
        if err:
            return err
        if op["branch"] is None:
            return None
        if [Fraction(n, 1 << e) for n, e in loaded] != values:
            return "document read back differs from the written table"
        path = bits(op["branch"], op["depth"])
        for l, got in enumerate(branch_values):
            if dyadic_value(got) != values[node_index(path[:l])]:
                return f"branch value at depth {l} differs from the document"
        return None


class TableRunner(Runner):
    def __init__(self, lib) -> None:
        self.lib = lib

    def run(self, op):
        lib = self.lib
        spec = op["spec"]
        pipeline = lib.synthesis.sigma3_pipeline(lib.sets.SigmaThreeSet.from_spec(spec))
        table = pipeline.truncated_table(op["truncation"], op["depth"])
        text = lib.table.dumps_document(
            table.to_document(spec_echo=spec, truncation=op["truncation"])
        )
        if op["branch"] is None:
            return text, None, None
        doc = lib.table.loads_document(text)
        loaded, _, _ = lib.table.MartingaleTable.from_document(doc)
        beta = lib.bits.Point.parse(op["branch"])
        return text, loaded, [loaded.value(beta.prefix(l)) for l in range(op["depth"] + 1)]

    def finish(self, op, out):
        text, loaded, branch = out
        if loaded is None:
            return out
        return text, [pair(v) for v in loaded.values], [pair(v) for v in branch]


# -- deep -------------------------------------------------------------------

DEEP_CERT_SLOTS = (None, None, (16, 63), (64, 127), (128, 255), (256, 400))
# The deepest singleton stratum is listed twice: the slowest operations then
# fill more than a tenth of each round, so the 90th percentile falls inside
# one cluster of latencies rather than on the edge between two.
DEEP_MEASURE_SLOTS = tuple(
    (kind, lo, hi) for kind in ("singleton", "even-zeros") for lo, hi in ((10, 20), (21, 30), (31, 40))
) + (("singleton", 31, 40),)
DEEP_STAGE_BUDGET = 80


def measure_exponent(n: int) -> int:
    """λ(G*_n) = 2^-(n(n+7)/2) for both built-in kinds: the chosen
    presentation stages are m_0 = 0, m_(j+1) = m_j + j + 4."""
    return n * (n + 7) // 2


class DeepWorkload(Workload):
    name = "deep"
    ref_rounds = 4

    def rounds(self, rng, r):
        ops = []
        for i, slot in enumerate(DEEP_CERT_SLOTS):
            points = [random_point(rng) for _ in range(rng.cycle(("parts", i), (1, 2, 3)))]
            comps = [singleton(p) for p in points]
            if rng.cycle(("even-zeros", i), (True, False, False)):
                comps.insert(0, EVEN_ZEROS)
            target = rng.choice(points)
            if slot is None:
                point = respell(rng, target)
            else:
                point = leave_after(rng, target, rng.spread(("leave", i), *slot))
            ops.append({"kind": "certify", "spec": sigma3(comps), "point": point})
        for i, (kind, lo, hi) in enumerate(DEEP_MEASURE_SLOTS):
            comp = EVEN_ZEROS if kind == "even-zeros" else singleton(random_point(rng, ("target", i)))
            n = rng.spread(("measure", i), lo, hi)
            ops.append({"kind": "measure", "spec": sigma3([comp]), "n": n})
        rng.shuffle(ops)
        return ops

    def runner(self, lib, workdir):
        return DeepRunner(lib)

    def check(self, op, out):
        if op["kind"] == "measure":
            want = [(1, measure_exponent(op["n"]))]
            return None if out == want else f"lambda(G*_{op['n']}) = {out}, expected {want}"
        kind = out[0]
        if member(op["spec"], op["point"]):
            if kind != "CertifiedDivergent" or dyadic_value(out[1]) <= 0:
                return f"point in the set got {out}"
        elif kind != "CertifiedConvergent" or not 0 <= dyadic_value(out[2]) <= 1:
            return f"point off the set got {out}"
        return None


class DeepRunner(Runner):
    def __init__(self, lib) -> None:
        self.lib = lib
        self.eps = lib.dyadic.Dyadic(1, 6)

    def run(self, op):
        lib = self.lib
        b = lib.sets.SigmaThreeSet.from_spec(op["spec"])
        if op["kind"] == "measure":
            return [
                pair(lib.analysis.divergence_measure_bound(lib.synthesis.gdelta_martingale(c), op["n"]))
                for c in b.components
            ]
        f = lib.synthesis.sigma3_pipeline(b)
        beta = lib.bits.Point.parse(op["point"])
        rep = lib.analysis.certify_divergence(f, beta, DEEP_STAGE_BUDGET)
        if not rep.divergent:
            rep = lib.analysis.certify_convergence(f, beta, self.eps, DEEP_STAGE_BUDGET)
        v = rep.verdict
        if rep.divergent:
            return (v.kind, pair(v.bound), rep.window)
        if rep.convergent:
            return (v.kind, v.depth, pair(rep.limit))
        return (v.kind, v.reason)


# -- separator --------------------------------------------------------------

# (C = not stage(j), grading 2^-n strata) for singleton targets.
SEPARATOR_SLOTS = tuple((j, lo, hi) for j in (1, 2, 3) for lo, hi in ((4, 6), (7, 9)))
CAP_BUDGET = "complement decomposition work"


class SeparatorWorkload(Workload):
    name = "separator"
    ref_rounds = 1

    def rounds(self, rng, r):
        groups = []
        for g, (j, lo, hi) in enumerate(SEPARATOR_SLOTS):
            target = random_point(rng, ("target", g))
            n = rng.cycle(("grade", g), range(lo, hi + 1))
            mids = [leave_after(rng, target, j + rng.cycle(("mid", g, m), range(6))) for m in range(2)]
            inside_c = leave_after(rng, target, rng.randint(0, j - 1))
            groups.append(self._group(rng, g, singleton(target), j, n, respell(rng, target), inside_c, mids))
        groups.append(
            self._group(rng, len(SEPARATOR_SLOTS), EVEN_ZEROS, 1, 4, even_zeros_point(rng),
                        f"1{random_bits(rng, 2)}(0)",
                        [off_even_zeros_point(rng, rng.randint(1, 4)) for _ in range(2)])
        )
        rng.shuffle(groups)
        if r == 0:
            # The even-zeros grading at 2^-5 exhausts the decomposition work
            # cap; it runs once per run, early, so every run pays it.
            cap = [{"kind": "capped", "slot": 100, "n": 5,
                    "point": off_even_zeros_point(rng, rng.randint(1, 4))}]
            groups.insert(rng.randint(0, 2), cap)
        ops = []
        for g in groups:
            for op in g:
                op["group"] = (r, op["slot"] // 10)
                ops.append(op)
        return ops

    @staticmethod
    def _group(rng, g, target, j, n, inside, inside_c, mids):
        """Queries on one separator: the first pays for level construction,
        later ones hit the level and measure caches; the first two grade
        one point at 2^-(n-1) then 2^-n, so their brackets must nest.  The
        two cheap side checks (h = 1 on the target, 0 on C) share one
        operation, which keeps the median inside one cluster of latencies."""
        queries = [
            ("eval", [mids[0]], n - 1), ("eval", [mids[0]], n), ("eval", [inside, inside_c], n),
            ("trace", [mids[0]], n), ("eval", [mids[1]], n), ("trace", [mids[1]], n),
        ]
        return [
            {"kind": "query", "slot": 10 * g + i, "target": target, "j": j, "query": query,
             "points": points, "n": grade,
             "depth": rng.cycle(("depth", g, i), range(6, 13)) if query == "trace" else None}
            for i, (query, points, grade) in enumerate(queries)
        ]

    def runner(self, lib, workdir):
        return SeparatorRunner(lib)

    def checker(self):
        return SeparatorChecker().check


class SeparatorChecker:
    """Stateful: brackets for one point must nest as the grading refines."""

    def __init__(self) -> None:
        self.last = {}

    def check(self, op, out):
        if op["kind"] == "capped":
            if out != ("horizon", CAP_BUDGET):
                return f"expected HorizonExhausted({CAP_BUDGET}), got {out}"
            return None
        width = Fraction(1, 1 << op["n"])
        if op["query"] == "trace":
            if [row[0] for row in out] != list(range(op["depth"] + 1)):
                return "mean trace rows are not depths 0..depth"
            for _, lo, hi in out:
                err = bracket_error(dyadic_value(lo), dyadic_value(hi), width)
                if err:
                    return err
            return None
        if len(out) != len(op["points"]):
            return "one bracket per point expected"
        for point, (lo, hi) in zip(op["points"], out):
            err = self._check_bracket(op, point, dyadic_value(lo), dyadic_value(hi), width)
            if err:
                return err
        return None

    def _check_bracket(self, op, point, lo, hi, width):
        target = op["target"]
        err = bracket_error(lo, hi, width)
        if err:
            return err
        if member(sigma3([target]), point) and (lo, hi) != (1, 1):
            return f"separator is not 1 on the target: [{lo}, {hi}]"
        if self._in_c(target, op["j"], point) and (lo, hi) != (0, 0):
            return f"separator is not 0 on C: [{lo}, {hi}]"
        key = (op["group"], point)
        prev = self.last.get(key)
        if prev is not None and not (prev[0] <= lo and hi <= prev[1]):
            return f"bracket [{lo}, {hi}] not nested in [{prev[0]}, {prev[1]}]"
        self.last[key] = (lo, hi)
        return None

    @staticmethod
    def _in_c(target, j, point):
        if target["kind"] == "even-zeros":
            return bit(point, 0) == "1"  # C = not stage(1) = N_1
        d = first_difference(target["point"], point)
        return d is not None and d < j


class SeparatorRunner(Runner):
    def __init__(self, lib) -> None:
        self.lib = lib
        self.group = None
        self.h = None

    def _separator(self, target, j):
        comp = self.lib.sets.component_from_spec(target)
        return self.lib.fine.urysohn(comp.stage(j).complement(), comp)

    def run(self, op):
        lib = self.lib
        precision = lib.dyadic.Dyadic.pow2(-op["n"])
        if op["kind"] == "capped":
            beta = lib.bits.Point.parse(op["point"])
            h = self._separator(EVEN_ZEROS, 1)
            try:
                h.evaluate(beta, precision)
            except lib.errors.HorizonExhausted as e:
                return ("horizon", e.budget)
            return ("finished",)
        if op["group"] != self.group:  # a new separator: levels start cold
            self.group = op["group"]
            self.h = self._separator(op["target"], op["j"])
        points = [lib.bits.Point.parse(p) for p in op["points"]]
        if op["query"] == "eval":
            return [tuple(map(pair, self.h.evaluate(beta, precision))) for beta in points]
        rows = lib.fine.mean_trace(self.h, points[0], op["depth"], precision)
        return [(l, pair(lo), pair(hi)) for l, lo, hi in rows]


# -- cli --------------------------------------------------------------------

SUITES = ("identity", "divergence", "convergence", "doob", "moy")
# Malformed inputs whose contracted exit code is 2.
BAD_INPUTS = (
    ("oscillate", "point", "x(1)"),
    ("oscillate", "point", "0110"),
    ("trace", "precision", "2^+3"),
    ("measure", "spec", {"kind": "sigma3", "components": [{"kind": "mystery"}]}),
    ("measure", "spec", {"kind": "sigma3"}),
    ("synthesize", "spec", "{not json"),
    ("synthesize", "depth", "-1"),
)


class CliWorkload(Workload):
    name = "cli"
    ref_rounds = 1
    speed_probe = "interpreter"

    def rounds(self, rng, r):
        def spec():
            comps = [EVEN_ZEROS] + [singleton(random_point(rng)) for _ in range(rng.randint(0, 1))]
            return sigma3(comps)

        units = []
        depth = rng.cycle("synthesize", range(5, 9))
        doc = f"doc-{r}.json"
        units.append([
            {"cmd": "synthesize", "spec": spec(), "depth": depth,
             "truncation": rng.cycle("truncation", range(1, 5)), "out": doc},
            {"cmd": "trace", "doc": doc, "point": random_point(rng), "depth": rng.randint(0, depth)},
        ])
        units.append([{"cmd": "trace", "spec": spec(), "point": random_point(rng),
                       "depth": rng.cycle("trace", range(4, 11)), "n": rng.cycle("grade", range(4, 9))}])
        s = spec()
        inside = rng.random() < 0.5
        point = even_zeros_point(rng) if inside else off_even_zeros_point(rng, rng.randint(0, 3))
        units.append([{"cmd": "oscillate", "spec": s, "point": point}])
        units.append([{"cmd": "measure", "spec": spec(), "depth": rng.cycle("measure", range(8, 17))}])
        # moy runs twice: the slowest command then fills more than a tenth
        # of the operations, so the 90th percentile falls inside its cluster.
        for suite in SUITES + ("moy",):
            units.append([{"cmd": "verify", "spec": spec(), "suite": suite}])
        for bad in rng.sample(BAD_INPUTS, 3):
            units.append([{"cmd": "bad", "bad": list(bad)}])
        rng.shuffle(units)
        return [dict(op, kind=op["cmd"]) for unit in units for op in unit]

    def runner(self, lib, workdir):
        return CliRunner(workdir, python_env(os.path.dirname(os.path.dirname(lib.__file__))))

    def digest_item(self, out):
        code, stdout, _, doc_text = out  # stderr may name the work directory
        return code, stdout, doc_text

    def check(self, op, out):
        code, stdout, stderr, doc_text = out
        if op["cmd"] == "bad":
            if code != 2 or "parse error" not in stderr or "Traceback" in stderr:
                return f"malformed input {op['bad']} gave exit {code}: {stderr.strip()[:200]}"
            return None
        if code != 0 or "Traceback" in stderr:
            return f"{op['cmd']} exited {code}: {stderr.strip()[:200]}"
        lines = stdout.strip().split("\n")
        if op["cmd"] == "synthesize":
            return check_table_document(doc_text, op["depth"], op["truncation"])[0]
        if op["cmd"] == "trace":
            rows = [line.split(",") for line in lines[1:]]
            if [int(r[0]) for r in rows] != list(range(op["depth"] + 1)):
                return "trace rows are not depths 0..depth"
            if "doc" in op:  # written and checked by the synthesize before it
                values = document_values(json.loads(doc_text))
                path = bits(op["point"], op["depth"])
                for l, lo, hi, _, _ in rows:
                    v = values[node_index(path[: int(l)])]
                    if parse_dyadic_text(lo) != v or parse_dyadic_text(hi) != v:
                        return f"trace of the document differs at depth {l}"
                return None
            width = Fraction(1, 1 << op["n"])
            for _, lo, hi, _, _ in rows:
                err = bracket_error(parse_dyadic_text(lo), parse_dyadic_text(hi), width)
                if err:
                    return err
            return None
        if op["cmd"] == "oscillate":
            inside = member(op["spec"], op["point"])
            want = "CertifiedDivergent" if inside else "CertifiedConvergent"
            if not lines[-1].startswith(f"verdict {want}"):
                return f"oscillate said {lines[-1]!r}, expected {want}"
            return None
        if op["cmd"] == "measure":
            n = op["depth"]
            want = [
                f"component {i} {c['kind']} lambda(G*_{n}) = 1/2^{measure_exponent(n)}"
                for i, c in enumerate(op["spec"]["components"])
            ]
            got = [line.split(" (")[0] for line in lines]
            return None if got == want else f"measure printed {got}, expected {want}"
        if not all(line.startswith("PASS") for line in lines):
            return f"verify {op['suite']} reported {lines}"
        return None


class CliRunner(Runner):
    """Runs `python -m divmart.cli` as a subprocess, as a user would."""

    TIMEOUT_S = 120

    def __init__(self, workdir: str, env: dict) -> None:
        self.workdir = workdir
        self.env = env
        self.spec_path = os.path.join(workdir, "spec.json")
        self.argv = None

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def prepare(self, op):
        """Write the input files and build the argument list (not timed)."""
        cmd = op["cmd"]
        spec_text = json.dumps(op.get("spec"))
        args = []
        if cmd == "synthesize":
            args = ["synthesize", "--spec", self.spec_path, "--depth", str(op["depth"]),
                    "--truncation", str(op["truncation"]), "--out", self._path(op["out"])]
        elif cmd == "trace" and "doc" in op:
            args = ["trace", "--spec", self._path(op["doc"]), "--point", op["point"],
                    "--depth", str(op["depth"])]
        elif cmd == "trace":
            args = ["trace", "--spec", self.spec_path, "--point", op["point"],
                    "--depth", str(op["depth"]), "--precision", f"2^-{op['n']}"]
        elif cmd == "oscillate":
            args = ["oscillate", "--spec", self.spec_path, "--point", op["point"]]
        elif cmd == "measure":
            args = ["measure", "--spec", self.spec_path, "--depth", str(op["depth"])]
        elif cmd == "verify":
            args = ["verify", "--spec", self.spec_path, "--suite", op["suite"]]
        else:
            command, field, value = op["bad"]
            good = {"point": "(0)", "precision": "2^-6", "depth": "4"}
            spec_text = json.dumps(sigma3([EVEN_ZEROS]))
            if field == "spec":
                spec_text = value if isinstance(value, str) else json.dumps(value)
            else:
                good[field] = value
            args = [command, "--spec", self.spec_path]
            if command in ("oscillate", "trace"):
                args += ["--point", good["point"]]
            if command == "trace":
                args += ["--precision", good["precision"]]
            if command in ("synthesize", "measure"):
                args += ["--depth", good["depth"]]
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            fh.write(spec_text)
        self.argv = [sys.executable, "-m", "divmart.cli"] + args

    def run(self, op):
        proc = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=self.workdir,
            env=self.env,
        )
        try:
            stdout, stderr = proc.communicate(timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
        return proc.returncode, stdout, stderr

    def finish(self, op, out):
        doc_text = None
        path = op.get("out") or op.get("doc")
        if path and os.path.exists(self._path(path)):
            with open(self._path(path), encoding="utf-8") as fh:
                doc_text = fh.read()
        return (*out, doc_text)


WORKLOADS = {w.name: w for w in (TableWorkload(), DeepWorkload(), SeparatorWorkload(), CliWorkload())}
