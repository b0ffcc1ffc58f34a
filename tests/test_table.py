"""Martingale tables: layout, slow-path recomputation, and the document
format (canonical JSON, lossless round-trips, strict parsing)."""

import json
from itertools import groupby
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from divmart import table as table_module
from divmart.bits import BitString
from divmart.cli import _stage_metadata
from divmart.dyadic import Dyadic
from divmart.errors import HorizonExhausted, ParseError
from divmart.sets import SigmaThreeSet
from divmart.fine import StepFunction
from divmart.synthesis import (
    SCALE,
    CombinedMartingale,
    ConstantPart,
    EmbeddedMartingale,
    SynthesizedMartingale,
    sigma3_pipeline,
)
from divmart.table import (
    DOCUMENT_KIND,
    FORMAT_VERSION,
    TABLE_NODE_CAP,
    MartingaleTable,
    dumps_document,
    loads_document,
)


def small_table() -> MartingaleTable:
    # Leaves 0, 1/2, 1/2, 1 at depth 2; interior values are the exact means.
    leaves = [Dyadic.zero(), Dyadic(1, 1), Dyadic(1, 1), Dyadic.one()]
    return MartingaleTable(
        2,
        [Dyadic(1, 1), Dyadic(1, 2), Dyadic(3, 2)] + leaves,
    )


def test_breadth_first_layout():
    t = small_table()
    assert t.value(BitString("")) == Dyadic(1, 1)
    assert t.value(BitString("0")) == Dyadic(1, 2)
    assert t.value(BitString("1")) == Dyadic(3, 2)
    assert t.value(BitString("01")) == Dyadic(1, 1)
    assert [str(s) for s, _ in t.nodes()] == ["", "0", "1", "00", "01", "10", "11"]
    assert leaf_values(t) == [Dyadic.zero(), Dyadic(1, 1), Dyadic(1, 1), Dyadic.one()]


def leaf_values(table: MartingaleTable) -> list:
    """The depth-level values, left to right: the last 2^depth entries."""
    return table.values[(1 << table.depth) - 1 :]


def leaf_average_below(table: MartingaleTable, s: BitString) -> Dyadic:
    """Mean of the depth-level leaves under N_s, recomputed the slow way:
    the value a martingale table must carry at s."""
    below = table.depth - len(s)
    leaves = leaf_values(table)[s.v << below : (s.v + 1) << below]
    return sum(leaves, Dyadic.zero()).mul_pow2(-below)


def test_leaf_average_matches_interior_values():
    t = small_table()
    for s, v in t.nodes():
        if len(s) < t.depth:
            assert leaf_average_below(t, s) == v


def test_construction_validation():
    with pytest.raises(ValueError):
        MartingaleTable(-1, [])
    with pytest.raises(ValueError):
        MartingaleTable(1, [Dyadic.zero()])
    t = small_table()
    with pytest.raises(KeyError):
        t.value(BitString("000"))


@settings(max_examples=60)
@given(
    depth=st.integers(min_value=0, max_value=7),
    cuts=st.sets(st.text(alphabet="01", max_size=7), max_size=12),
)
def test_from_entries_fills_settled_subtrees(depth, cuts):
    # Below a cut node every value is the cut node's own: the settled claim
    # is true, so the descent must give the per-node table exactly.
    def value(s):
        name = str(s)
        for l in range(len(name) + 1):
            if name[:l] in cuts:
                return Dyadic(int("1" + name[:l], 2), 8)
        return Dyadic(int("1" + name, 2), 8)

    asked = []

    def entry(s, up):
        # Each entry is handed the state its parent returned (None at the root).
        assert up == (str(s)[:-1] if len(s) else None)
        asked.append(str(s))
        return value(s), any(str(s)[:l] in cuts for l in range(len(s) + 1)), str(s)

    t = MartingaleTable.from_entries(depth, entry)
    assert t.values == [value(s) for s, _ in t.nodes()]
    # No node strictly below a settled one is ever queried.
    for name in asked:
        assert not any(name[:l] in cuts for l in range(len(name)))


def test_table_size_budget():
    with pytest.raises(HorizonExhausted) as exc:
        MartingaleTable.from_entries(21, lambda s, up: (Dyadic.zero(), True, None))
    assert f"table-size budget of {TABLE_NODE_CAP} nodes" in str(exc.value)
    assert f"needs {(1 << 22) - 1} nodes" in str(exc.value)
    with pytest.raises(HorizonExhausted):
        MartingaleTable.from_entries(40, lambda s, up: (Dyadic.zero(), False, None))
    # The cap itself is allowed: a settled root is one run to depth 20.
    t = MartingaleTable.from_entries(20, lambda s, up: (Dyadic(1, 1), True, None))
    assert len(t._objs) == 1
    assert len(t.values) == TABLE_NODE_CAP
    assert leaf_values(t)[-1] == Dyadic(1, 1)


def test_document_round_trip():
    t = small_table()
    doc = t.to_document(spec_echo={"kind": "sigma3"}, truncation=4)
    assert doc["kind"] == DOCUMENT_KIND and doc["version"] == FORMAT_VERSION
    back, spec, k = MartingaleTable.from_document(loads_document(dumps_document(doc)))
    assert back.values == t.values and back.depth == t.depth
    assert spec == {"kind": "sigma3"} and k == 4


def test_document_round_trip_beyond_the_digit_limit():
    # Numerators past CPython's 4,300-digit int/str limit (about 14,000 bits).
    a = Dyadic((1 << 15001) + 1, 15010)
    b = Dyadic(1, 1)
    t = MartingaleTable(1, [(a + b).half(), a, b])
    assert t.values[0].num.bit_length() > 15000
    text = dumps_document(t.to_document())
    back, _, _ = MartingaleTable.from_document(loads_document(text))
    assert back.values == t.values


def test_oversized_json_integer_is_a_parse_error():
    with pytest.raises(ParseError):
        loads_document('{"depth": ' + "1" * 5000 + "}")


def test_canonical_serialization_is_stable():
    doc_a = {"b": 1, "a": [2, 3]}
    doc_b = {"a": [2, 3], "b": 1}
    assert dumps_document(doc_a) == dumps_document(doc_b)
    assert dumps_document(doc_a).endswith("\n")
    assert " " not in dumps_document(doc_a)


def test_document_parsing_rejections():
    t = small_table()
    good = t.to_document()
    with pytest.raises(ParseError):
        loads_document("[1, 2]")
    with pytest.raises(ParseError):
        loads_document("{nope")
    with pytest.raises(ParseError):
        MartingaleTable.from_document({**good, "kind": "other"})
    with pytest.raises(ParseError):
        MartingaleTable.from_document({**good, "version": 99})
    with pytest.raises(ParseError):
        MartingaleTable.from_document({**good, "depth": "2"})
    # bool is an int subclass, but true is neither depth 1 nor version 1
    depth_one = MartingaleTable(1, [Dyadic.one()] * 3).to_document()
    with pytest.raises(ParseError, match="integer depth"):
        MartingaleTable.from_document({**depth_one, "depth": True})
    with pytest.raises(ParseError, match="unsupported table version True"):
        MartingaleTable.from_document({**good, "version": True})
    with pytest.raises(ParseError):
        MartingaleTable.from_document({**good, "values": [["1", 2, 3]] * 7})


@pytest.mark.parametrize(
    "depth, count, message",
    [
        (2, 0, "depth 2 needs 2^3 - 1 values, got 0"),
        (1, 4, "depth 1 needs 2^2 - 1 values, got 4"),
        (-1, 0, "depth must be ≥ 0, got -1"),
        # 2^(10^12 + 1) is never built: the bit-length test comes first.
        (10**12, 1, f"depth {10**12} needs 2^{10**12 + 1} - 1 values, got 1"),
    ],
    ids=["empty-values", "one-value-too-many", "negative-depth", "absurd-depth"],
)
def test_wrong_table_shape_is_a_parse_error(depth, count, message):
    doc = {"kind": DOCUMENT_KIND, "version": FORMAT_VERSION, "depth": depth,
           "values": [Dyadic.one().to_json()] * count}
    with pytest.raises(ParseError) as exc:
        MartingaleTable.from_document(doc)
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "entry",
    [{"exp": 0}, {"num": "1"}, {}, {"num": 1e400, "exp": 0}, "1", [1, 0],
     {"num": 1.5, "exp": 0}, {"num": 1.0, "exp": 0}, {"num": True, "exp": 0},
     {"num": None, "exp": 0}, {"num": [1], "exp": 0}, {"num": "1", "exp": True}],
    ids=["no-num", "no-exp", "no-keys", "infinite-num", "string", "list",
         "fractional-num", "float-num", "bool-num", "null-num", "list-num", "bool-exp"],
)
def test_malformed_dyadic_is_a_parse_error(entry):
    doc = {"kind": DOCUMENT_KIND, "version": FORMAT_VERSION, "depth": 0, "values": [entry]}
    with pytest.raises(ParseError, match="bad dyadic"):
        MartingaleTable.from_document(doc)


# ---------------------------------------------------------------------------
# The writer and the reader work per distinct value; their output must not
# differ from encoding and parsing every node on its own.


def plain_dumps(doc) -> str:
    """The per-node writer: one json.dumps over the whole document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def per_value_read(doc):
    """The per-node reader: every value through Dyadic.from_json, the first
    bad one in document order giving the error text."""
    try:
        values = [Dyadic.from_json(x) for x in doc["values"]]
    except (ValueError, TypeError, OverflowError) as e:
        return f"bad dyadic in table values: {e}"
    return values


def shared_values(pool: list, picks: list) -> list:
    # Nodes drawn from a pool of value objects share them, as settled
    # subtrees do; equal but distinct objects occur too.
    return [pool[i % len(pool)] if i >= 0 else Dyadic(-i, 3) for i in picks]


dyadics = st.builds(Dyadic, st.integers(-(1 << 70), 1 << 70), st.integers(0, 80))
spec_echoes = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["values", "kind", "é", "x ", ""]) | st.text(),
                      inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=80, deadline=None)
@given(
    depth=st.integers(min_value=0, max_value=6),
    pool=st.lists(dyadics, min_size=1, max_size=6),
    picks=st.lists(st.integers(-4, 20), min_size=127, max_size=127),
    spec=spec_echoes,
    truncation=st.none() | st.integers(0, 9),
)
def test_writer_matches_json_dumps_on_random_tables(depth, pool, picks, spec, truncation):
    t = MartingaleTable(depth, shared_values(pool, picks)[: (2 << depth) - 1])
    doc = t.to_document(spec_echo=spec, truncation=truncation)
    assert dumps_document(doc) == plain_dumps(doc)
    # The shared entry dicts are the values' own JSON forms.
    assert doc["values"] == [v.to_json() for v in t.values]


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "sigma3", "components": [{"kind": "even-zeros"}]},
        {"kind": "sigma3", "components": [{"kind": "singleton", "point": "01(011)"}]},
        {"kind": "sigma3", "components": [
            {"kind": "explicit", "stages": [["00"], ["000"], []], "rate": "2^-n"}]},
    ],
    ids=["even-zeros", "singleton", "explicit"],
)
def test_writer_matches_json_dumps_at_depths_0_to_12(spec):
    pipeline = sigma3_pipeline(SigmaThreeSet.from_spec(spec))
    for depth in range(13):
        doc = pipeline.truncated_table(3, depth).to_document(spec_echo=spec, truncation=3)
        doc["stages"] = _stage_metadata(pipeline)
        assert dumps_document(doc) == plain_dumps(doc), depth


@pytest.mark.parametrize(
    "doc",
    [
        # a spec echo holding its own "values" key, text and all
        {**small_table().to_document(spec_echo={"values": None, "kind": "x\"values\":null"}),
         "stages": [{"part": 0, "kind": "constant"}]},
        small_table().to_document(spec_echo={"kind": "sigma3", "note": "λ ∈ [0,1]   \x00 é"}),
        {"values": [], "a": 1},
        {"values": [{"b": 1, "a": [1.5, True, None]}, "ü", 3, [], {}], "z": "é"},
        {"values": "not a list", "kind": DOCUMENT_KIND},
        {"values": (1, 2), "v": 0},
        {"no values": [1, 2]},
        {2: "int key", 1: []},
        {"values": [{2: "int key", 1: []}], "": 0},
        {},
    ],
    ids=["values-in-spec", "non-ascii-spec", "empty-values", "mixed-values",
         "string-values", "tuple-values", "no-values", "int-keys", "int-keys-in-values",
         "empty"],
)
def test_writer_matches_json_dumps_on_other_documents(doc):
    assert dumps_document(doc) == plain_dumps(doc)


class SortsWithStrings:
    """A key that sorts among strings but is not one: json refuses it by type."""

    def __lt__(self, other):
        return True

    def __gt__(self, other):
        return False


def test_writer_keeps_json_dumps_errors():
    for doc in ({"values": [object()]}, {1: 0, "a": 0, "values": []},
                {SortsWithStrings(): 0, "values": []}):
        with pytest.raises(TypeError) as want:
            plain_dumps(doc)
        with pytest.raises(TypeError) as got:
            dumps_document(doc)
        assert str(got.value) == str(want.value)


def test_writer_encodes_each_distinct_value_once():
    # 7 live nodes above depth 3, then 8 settled ones whose subtrees share
    # their value objects: 15 objects for 8,191 nodes.
    t = MartingaleTable.from_entries(12, lambda s, up: (Dyadic(len(s), 4), len(s) >= 3, None))
    doc = t.to_document()
    assert len({id(x) for x in t.values}) == len({id(x) for x in doc["values"]}) == 15
    with patch("divmart.table._canonical", wraps=table_module._canonical) as spy:
        text = dumps_document(doc)
    assert text == plain_dumps(doc)
    # one call per key name and per key other than values, one per distinct value
    assert spy.call_count == 2 * len(doc) - 1 + 15


good = Dyadic(1, 1).to_json()
bad_after_good = [
    {"num": "1", "exp": True},
    {"num": "1", "exp": 1.0},
    {"num": 1.0, "exp": 1},
    {"num": True, "exp": 1},
    {"num": "1", "exp": "1"},
    {"num": "1", "exp": -1},
    {"num": "2", "exp": 1},
    {"exp": 1, "num": "2"},
    {"num": "4", "exp": 2, "extra": 0},
    {"num": "0", "exp": 1},
    {"num": " 1", "exp": 0, "note": "accepted: int() strips blanks"},
    {"num": float("inf"), "exp": 1},
    {"num": "1" * 600 + "x", "exp": 1},
    {"num": "2" * 5000, "exp": 1},
    {"num": "1", "exp": 1 << 80},
    {"num": "1"},
    ["1", 1],
    "1",
    None,
]


@pytest.mark.parametrize("entry", bad_after_good, ids=[repr(e)[:30] for e in bad_after_good])
def test_reader_matches_per_value_parsing(entry):
    # The bad entry shares its num with the good ones before it, so a memo
    # keyed by equal-comparing fields alone would hide it.
    doc = {"kind": DOCUMENT_KIND, "version": FORMAT_VERSION, "depth": 1,
           "values": [good, dict(good), entry]}
    want = per_value_read(doc)
    if isinstance(want, str):
        with pytest.raises(ParseError) as exc:
            MartingaleTable.from_document(doc)
        assert str(exc.value) == want
    else:
        got = MartingaleTable.from_document(doc)[0].values
        assert [(d.num, d.exp) for d in got] == [(d.num, d.exp) for d in want]


raw_values = st.one_of(
    dyadics.map(Dyadic.to_json),
    st.sampled_from(bad_after_good[:5] + [good]),
    st.builds(lambda n, e: {"num": n, "exp": e},
              st.sampled_from(["1", "3", "-1", "0", "2", 1, True, 1.0]),
              st.sampled_from([0, 1, 2, True, 1.0, "1"])),
)


@settings(max_examples=150, deadline=None)
@given(
    depth=st.integers(min_value=0, max_value=4),
    raw=st.lists(raw_values, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), min_size=31, max_size=31),
)
def test_reader_matches_per_value_parsing_on_random_documents(depth, raw, picks):
    values = [raw[i % len(raw)] for i in picks][: (2 << depth) - 1]
    text = json.dumps({"kind": DOCUMENT_KIND, "version": FORMAT_VERSION,
                       "depth": depth, "values": values})
    doc = loads_document(text)
    want = per_value_read(doc)
    try:
        got = MartingaleTable.from_document(doc)[0].values
    except ParseError as e:
        assert str(e) == want
        return
    assert [(d.num, d.exp) for d in got] == [(d.num, d.exp) for d in want]


# ---------------------------------------------------------------------------
# Run-kept tables against the flat-list table and the Dyadic descent they
# replace: the same values, node by node and object by object, the same
# documents and the same round trips.


class FlatTable:
    """The flat-list table: one slot per node in breadth-first order, a
    settled subtree written as one slice per deeper level."""

    def __init__(self, depth: int, values: list):
        assert len(values) == (2 << depth) - 1
        self.depth = depth
        self.values = list(values)

    @staticmethod
    def from_entries(depth, entry) -> "FlatTable":
        values = [None] * ((2 << depth) - 1)
        frontier = [(0, None)]
        for l in range(depth + 1):
            base = (1 << l) - 1
            live = []
            for v, up in frontier:
                value, settled, down = entry(BitString.raw(l, v), up)
                values[base + v] = value
                if not settled:
                    live += ((2 * v, down), (2 * v + 1, down))
                    continue
                for below in range(1, depth - l + 1):
                    start = (1 << (l + below)) - 1 + (v << below)
                    values[start : start + (1 << below)] = [value] * (1 << below)
            frontier = live
        return FlatTable(depth, values)

    def nodes(self):
        return [(BitString.raw(l, v), self.values[(1 << l) - 1 + v])
                for l in range(self.depth + 1) for v in range(1 << l)]

    def to_document(self, spec_echo=None, truncation=None) -> dict:
        as_json = {id(v): v.to_json() for v in self.values}
        return {"version": FORMAT_VERSION, "kind": DOCUMENT_KIND, "spec": spec_echo,
                "truncation": truncation, "depth": self.depth,
                "values": [as_json[id(v)] for v in self.values]}


def run_lengths(values: list) -> list:
    return [len(list(run)) for _, run in groupby(values, id)]


def assert_same_table(got: MartingaleTable, want: FlatTable, spec=None, truncation=None):
    """got against the flat reference: values (exact pairs and sharing),
    value(s) at every node, nodes(), the document bytes against json.dumps,
    and the round trip through the document."""
    values = got.values
    assert got.depth == want.depth
    assert [(v.num, v.exp) for v in values] == [(v.num, v.exp) for v in want.values]
    assert run_lengths(values) == run_lengths(want.values)
    nodes = want.nodes()
    assert [got.value(s) for s, _ in nodes] == [v for _, v in nodes]
    assert all(got.value(s) is v for s, v in zip((s for s, _ in nodes), values))
    assert [(str(s), v) for s, v in got.nodes()] == [(str(s), v) for s, v in nodes]
    text = dumps_document(got.to_document(spec_echo=spec, truncation=truncation))
    assert text == plain_dumps(want.to_document(spec_echo=spec, truncation=truncation))
    back, spec_back, k = MartingaleTable.from_document(loads_document(text))
    assert back.depth == got.depth and (spec_back, k) == (spec, truncation)
    assert [(v.num, v.exp) for v in back.values] == [(v.num, v.exp) for v in values]
    # The reader shares one object per (num, exp) pair, so it keeps runs.
    assert len(back._objs) <= len(got._objs)
    assert dumps_document(back.to_document(spec_echo=spec, truncation=truncation)) == text


@settings(max_examples=80, deadline=None)
@given(
    depth=st.integers(min_value=0, max_value=7),
    cuts=st.sets(st.text(alphabet="01", max_size=7), max_size=12),
    pool=st.lists(dyadics, min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 7), min_size=255, max_size=255),
)
def test_run_kept_table_matches_the_flat_table(depth, cuts, pool, picks):
    # Nodes draw their value objects from a pool holding each value twice,
    # as two equal but distinct objects, so neighbours share objects (one
    # run) or hold equal distinct ones (two runs); a cut node is settled.
    pool = pool + [Dyadic(d.num, d.exp) for d in pool]

    def entry(s, up):
        return pool[picks[(1 << len(s)) - 1 + s.v] % len(pool)], str(s) in cuts, None

    got = MartingaleTable.from_entries(depth, entry)
    want = FlatTable.from_entries(depth, entry)
    assert [id(v) for v in got.values] == [id(v) for v in want.values]
    assert [id(v) for v in MartingaleTable(depth, want.values).values] == [
        id(v) for v in want.values]
    assert_same_table(got, want, spec={"cuts": sorted(cuts)}, truncation=depth)


def dyadic_descend_sum(up, term):
    """The descent's sum in Dyadic arithmetic: every term a Dyadic."""
    settled_sum, live = up
    total = settled_sum
    still = []
    for i, sub in live:
        value, settled, down = term(i, sub)
        total = total + value
        if settled:
            settled_sum = settled_sum + value
        else:
            still.append((i, down))
    return total, not still, (settled_sum, tuple(still))


def dyadic_descend(f, k: int, s: BitString, up):
    """f.descend with Dyadic sums and terms: r_j(s) from relative_measure,
    a part's value scaled by SCALE·4^-n."""
    if isinstance(f, SynthesizedMartingale):
        def term(j, _):
            r = f.relative_measure(j, s)
            return (-r if j % 2 else r), r.exp == 0, None

        if up is None:
            up = Dyadic.zero(), tuple((j, None) for j in range(k + 2))
        return dyadic_descend_sum(up, term)
    if isinstance(f, CombinedMartingale):
        def term(n, part_up):
            value, settled, down = dyadic_descend(f.parts[n], k, s, part_up)
            return (value * SCALE).mul_pow2(-2 * n), settled, down

        if up is None:
            up = f._tail_value(), tuple((n, None) for n in range(len(f.parts)))
        return dyadic_descend_sum(up, term)
    return f.descend(k, s, up)  # ConstantPart, EmbeddedMartingale: no sum


README_COMPONENTS = [
    {"kind": "even-zeros"},
    {"kind": "singleton", "point": "(1)"},
    {"kind": "explicit", "stages": [["00"], ["000"], []], "rate": "2^-n"},
]


@settings(max_examples=30, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(README_COMPONENTS), min_size=1, max_size=3),
    point=st.builds(lambda pre, per: f"{pre}({per})", st.text(alphabet="01", max_size=4),
                    st.text(alphabet="01", min_size=1, max_size=3)),
    steps=st.integers(0, 2).flatmap(
        lambda d: st.lists(st.integers(0, 8).map(lambda n: Dyadic(n, 3)),
                           min_size=1 << d, max_size=1 << d)),
    constant=st.integers(0, 8).map(lambda n: Dyadic(n, 3)),
    tail=st.none() | st.integers(0, 8).map(lambda n: Dyadic(n, 3)),
    k=st.integers(min_value=0, max_value=5),
    depth=st.integers(min_value=0, max_value=10),
)
@example(kinds=README_COMPONENTS, point="(1)", steps=[Dyadic(1, 3), Dyadic(1)],
         constant=Dyadic(5, 3), tail=Dyadic(1, 1), k=3, depth=10)
def test_run_kept_tables_match_the_flat_dyadic_descent(kinds, point, steps, constant, tail, k,
                                                       depth):
    # The README spec's three component kinds (the singleton's point drawn),
    # an embedded step function and a constant part, alone and combined.
    comps = [dict(c, point=point) if c["kind"] == "singleton" else c for c in kinds]
    spec = {"kind": "sigma3", "components": comps}
    parts = list(sigma3_pipeline(SigmaThreeSet.from_spec(spec)).parts)
    parts += [EmbeddedMartingale(StepFunction(len(steps).bit_length() - 1, steps)),
              ConstantPart(constant)]
    for f in parts + [CombinedMartingale(parts, tail_constant=tail)]:
        want = FlatTable.from_entries(depth, lambda s, up: dyadic_descend(f, k, s, up))
        got = MartingaleTable.from_entries(depth, lambda s, up: f.descend(k, s, up))
        assert_same_table(got, want, spec=spec, truncation=k)
