"""Martingale tables: layout, slow-path recomputation, and the document
format (canonical JSON, lossless round-trips, strict parsing)."""

import json
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


def table_of(depth: int, values: list) -> MartingaleTable:
    """The table holding values, flat in breadth-first order: every node a
    live node of from_entries."""
    return MartingaleTable.from_entries(
        depth, lambda s, up: (values[(1 << len(s)) - 1 + s.v], False, None))


def small_table() -> MartingaleTable:
    # Leaves 0, 1/2, 1/2, 1 at depth 2; interior values are the exact means.
    leaves = [Dyadic.zero(), Dyadic(1, 1), Dyadic(1, 1), Dyadic.one()]
    return table_of(
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
        MartingaleTable.from_entries(-1, lambda s, up: (Dyadic.zero(), True, None))
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
    t = table_of(1, [(a + b).half(), a, b])
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
    depth_one = table_of(1, [Dyadic.one()] * 3).to_document()
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
    t = table_of(depth, shared_values(pool, picks)[: (2 << depth) - 1])
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
    # their values: 15 value objects from entry, of 4 distinct values (one
    # per depth up to 3), for 8,191 nodes.  The table keeps one object per
    # value.
    t = MartingaleTable.from_entries(12, lambda s, up: (Dyadic(len(s), 4), len(s) >= 3, None))
    doc = t.to_document()
    assert len({id(x) for x in t.values}) == len({id(x) for x in doc["values"]}) == 4
    with patch("divmart.table._canonical", wraps=table_module._canonical) as spy:
        text = dumps_document(doc)
    assert text == plain_dumps(doc)
    # one call per key name and per key other than values, one per distinct value
    assert spy.call_count == 2 * len(doc) - 1 + 4


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
# The reader against json.loads and the per-node parse it replaces, on
# canonical documents and on perturbed ones.


def parse_values_reference(raw: list) -> list:
    """The per-node parse: [Dyadic.from_json(x) for x in raw], each
    distinct (num, exp) pair of exactly a str and an int parsed once."""
    memo: dict = {}
    values = []
    for x in raw:
        if type(x) is dict:
            num, exp = x.get("num"), x.get("exp")
            if type(num) is str and type(exp) is int:
                if (num, exp) not in memo:
                    memo[num, exp] = Dyadic.from_json(x)
                values.append(memo[num, exp])
                continue
        values.append(Dyadic.from_json(x))
    return values


def reference_read(text: str):
    """json.loads, then the per-node from_document of a document whose
    kind and version are right: (document, (depth, value pairs, spec,
    truncation)), with a ParseError's text in place of what it stops."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        return f"invalid JSON: {e}"
    if not isinstance(doc, dict):
        return "top-level JSON value must be an object"
    assert doc["kind"] == DOCUMENT_KIND and doc["version"] == FORMAT_VERSION
    depth, raw = doc["depth"], doc.get("values")
    if not isinstance(depth, int) or not isinstance(raw, list):
        return doc, "table document needs integer depth and a values array"
    if len(raw) != (2 << depth) - 1:
        return doc, f"a table of depth {depth} needs 2^{depth + 1} - 1 values, got {len(raw)}"
    try:
        values = parse_values_reference(raw)
    except (ValueError, TypeError, OverflowError) as e:
        return doc, f"bad dyadic in table values: {e}"
    return doc, (depth, [(v.num, v.exp) for v in values], doc["spec"], doc["truncation"])


def new_read(text: str):
    """loads_document, then from_document, in reference_read's shape."""
    try:
        doc = loads_document(text)
    except ParseError as e:
        return str(e)
    try:
        table, spec, k = MartingaleTable.from_document(doc)
    except ParseError as e:
        return doc, str(e)
    assert_runs_of(table, table.values)
    return doc, (table.depth, [(v.num, v.exp) for v in table.values], spec, k)


def spaced_text(pairs: list, rnd, escapes: bool) -> str:
    """The object of pairs, in their order, duplicates and all, with JSON
    whitespace drawn around every token, inner keys shuffled and, with
    escapes, characters of strings drawn to be written as \\u escapes.  An
    element of the top-level values array is written once and its text
    repeated, so a run of one element is a run of one text."""
    def ws():
        return "".join(rnd.choice(" \t\n\r") for _ in range(rnd.randrange(3)))

    def string(x):
        return '"' + "".join(
            f"\\u{ord(c):04x}" if escapes and ord(c) < 0x10000 and rnd.random() < 0.3
            else json.dumps(c)[1:-1] for c in x) + '"'

    def obj(items, top=False):
        return "{" + ws() + ",".join(
            ws() + string(k) + ws() + ":" + ws()
            + (array(v, rnd.choice([",", ", ", None])) if top and k == "values"
               and isinstance(v, list) else value(v)) + ws()
            for k, v in items) + "}"

    def array(xs, sep=None):
        # sep None: whitespace drawn at each comma, and each element written
        # on its own; otherwise one separator and one text per element object
        texts: dict = {}
        elements = []
        for v in xs:
            if sep is None or id(v) not in texts:
                texts[id(v)] = value(v)
            elements.append(texts[id(v)])
        return "[" + ws() + (sep or "," + ws()).join(elements) + ws() + "]"

    def value(x):
        if isinstance(x, dict):
            items = list(x.items())
            rnd.shuffle(items)
            return obj(items)
        if isinstance(x, list):
            return array(x)
        if isinstance(x, str):
            return string(x)
        return json.dumps(x)

    return ws() + obj(pairs, top=True) + ws()


# Scalars whose texts are prefixes of one another's, for runs that end in
# a longer token.
prefix_scalars = [1, 12, 1.5, 10, -1, 1e5, "1", "1,1", True, None, [1], [1, [1]], {}]


def canonical_element(x) -> str:
    return json.dumps(x, sort_keys=True, separators=(",", ":"))


# Changes to one element's canonical text t: broken, not canonical, or the
# same value written another way.
element_edits = [
    lambda t: t[:-1],
    lambda t: t + "1",
    lambda t: t + ",",
    lambda t: t + "]",
    lambda t: "1" + t,
    lambda t: "",
    lambda t: t.replace(":", ": ", 1),
    lambda t: t.replace('"num"', '"\\u006eum"'),
    lambda t: t.replace('"exp"', '"exp":0,"exp"', 1),
    lambda t: '{"exp":1,"num":"2"}',
    lambda t: '{"exp":1,"num":1}',
    lambda t: '{"num":"1","exp":1}',
    lambda t: '{"exp":1.0,"num":"1"}',
    lambda t: "12" if t == "1" else t + t,
]

# Changes to the whole canonical text s.
text_edits = [
    lambda s: "\ufeff" + s,
    lambda s: s + "x",
    lambda s: s + "}",
    lambda s: s[:-2],
    lambda s: s[:-3] + ",]}\n",
    lambda s: " \t" + s + "\r\n ",
    lambda s: "[" + s + "]",
]

SENTINEL = {"sentinel": 0}


@st.composite
def document_texts(draw):
    depth = draw(st.integers(0, 6))
    size = (2 << depth) - 1
    elements = st.one_of(dyadics.map(Dyadic.to_json), dyadics.map(Dyadic.to_json), raw_values,
                         st.sampled_from(prefix_scalars))
    pool = draw(st.lists(elements, min_size=1, max_size=3))
    # runs of one element object, of drawn lengths
    cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=5)) if size > 1 else [])
    picks = draw(st.lists(st.integers(0, 2), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    values = []
    for pick, start, end in zip(picks, [0] + cuts, cuts + [size]):
        values += [pool[pick % len(pool)]] * (end - start)
    # stages: another top-level array, whose elements stay apart
    doc = {"version": FORMAT_VERSION, "kind": DOCUMENT_KIND, "spec": draw(spec_echoes),
           "truncation": draw(st.none() | st.integers(0, 9)), "depth": depth, "values": values,
           "stages": values[:3]}
    how = draw(st.sampled_from(["canonical", "spaced", "element", "text"]))
    if how == "canonical":
        return dumps_document(doc)
    if how == "spaced":
        pairs = list(doc.items())
        draw(st.randoms(use_true_random=False)).shuffle(pairs)
        # a duplicate key, before or after the real one
        decoy = draw(st.none() | st.sampled_from([[], values[:1], values, values * 2, 3]))
        if decoy is not None:
            key = draw(st.sampled_from(["values", "values", "depth", "spec"]))
            pairs.insert(draw(st.integers(0, len(pairs))), (key, decoy))
        return spaced_text(pairs, draw(st.randoms(use_true_random=False)), draw(st.booleans()))
    if how == "element":
        # one element, inside a run, written another way
        k = draw(st.integers(0, size - 1))
        edit = draw(st.sampled_from(element_edits))
        head, _, tail = dumps_document(
            {**doc, "values": values[:k] + [SENTINEL] + values[k + 1:]}
        ).rpartition(canonical_element(SENTINEL))
        return head + edit(canonical_element(values[k])) + tail
    return draw(st.sampled_from(text_edits))(dumps_document(doc))


def number_run_text(values: list) -> str:
    return dumps_document({"version": FORMAT_VERSION, "kind": DOCUMENT_KIND, "spec": None,
                           "truncation": None, "depth": 2, "values": values})


@settings(max_examples=300, deadline=None)
@given(text=document_texts())
@example(text=number_run_text([1] * 6 + [12]))
@example(text=number_run_text([1] * 6 + [1.5]))
@example(text=number_run_text([1] * 5 + [123, 1]))
# one value written two ways: one object, one run
@example(text=number_run_text([{"num": "1", "exp": 1}] * 3 + [{"num": 1, "exp": 1}] * 4))
# duplicate keys: the last one wins
@example(text='{"values":[],' + number_run_text([Dyadic(1, 1).to_json()] * 7)[1:])
@example(text='{"depth":5,' + number_run_text([Dyadic(1, 1).to_json()] * 7)[1:])
def test_reader_matches_json_loads_and_the_per_node_parse(text):
    got, want = new_read(text), reference_read(text)
    assert got == want
    if isinstance(want, tuple):
        assert list(got[0]) == list(want[0])  # keys in json.loads's order
        # Only the top-level values array shares its elements.
        for key, value in got[0].items():
            if key != "values" and isinstance(value, list):
                inner = [id(x) for x in value if isinstance(x, (dict, list))]
                assert len(set(inner)) == len(inner)


# ---------------------------------------------------------------------------
# Run-kept tables against the flat-list table and the Dyadic descent they
# replace: the same values node by node, the maximal equal-value runs, the
# same documents and the same round trips.


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


def equal_value_runs(values: list) -> list:
    """(start, (num, exp)) of each maximal run of equal values."""
    runs = []
    for i, v in enumerate(values):
        if not runs or runs[-1][1] != (v.num, v.exp):
            runs.append((i, (v.num, v.exp)))
    return runs


def assert_runs_of(table: MartingaleTable, flat: list):
    """table holds one object per distinct value, and its runs are the
    maximal equal-value runs of the flat values."""
    one = {}
    assert all(one.setdefault((v.num, v.exp), v) is v for v in table.values)
    assert [(i, (v.num, v.exp)) for i, v in zip(table._starts, table._objs)] == (
        equal_value_runs(flat))


def assert_same_table(got: MartingaleTable, want: FlatTable, spec=None, truncation=None):
    """got against the flat reference: values (exact pairs and runs),
    value(s) at every node, nodes(), the document bytes against json.dumps
    (each distinct value encoded once), and the round trip through the
    document."""
    values = got.values
    assert got.depth == want.depth
    assert [(v.num, v.exp) for v in values] == [(v.num, v.exp) for v in want.values]
    assert_runs_of(got, want.values)
    nodes = want.nodes()
    assert [got.value(s) for s, _ in nodes] == [v for _, v in nodes]
    assert all(got.value(s) is v for s, v in zip((s for s, _ in nodes), values))
    assert [(str(s), v) for s, v in got.nodes()] == [(str(s), v) for s, v in nodes]
    doc = got.to_document(spec_echo=spec, truncation=truncation)
    with patch("divmart.table._canonical", wraps=table_module._canonical) as spy:
        text = dumps_document(doc)
    assert text == plain_dumps(want.to_document(spec_echo=spec, truncation=truncation))
    distinct = len({(v.num, v.exp) for v in values})
    assert spy.call_count == 2 * len(doc) - 1 + distinct
    back, spec_back, k = MartingaleTable.from_document(loads_document(text))
    assert back.depth == got.depth and (spec_back, k) == (spec, truncation)
    assert [(v.num, v.exp) for v in back.values] == [(v.num, v.exp) for v in values]
    assert_runs_of(back, values)
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
    # as two equal but distinct objects, so neighbours share objects or
    # hold equal distinct ones; either way the table keeps one object and
    # one run.  A cut node is settled.
    pool = pool + [Dyadic(d.num, d.exp) for d in pool]

    def entry(s, up):
        return pool[picks[(1 << len(s)) - 1 + s.v] % len(pool)], str(s) in cuts, None

    got = MartingaleTable.from_entries(depth, entry)
    want = FlatTable.from_entries(depth, entry)
    assert_runs_of(got, want.values)
    assert_runs_of(table_of(depth, want.values), want.values)
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
    """A per-part nested descent entry with Dyadic sums and terms, the
    reference for the flat integer descent of truncated_table: r_j(s) from
    relative_measure, a part's value scaled by SCALE·4^-n, a constant
    settled at the root and a step mean settled from the step's depth on."""
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
    if isinstance(f, ConstantPart):
        return f.c, True, None
    return f.value(s), len(s) >= f.depth, None  # EmbeddedMartingale


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
        got = f.truncated_table(k, depth)
        assert_same_table(got, want, spec=spec, truncation=k)


def test_a_document_without_shared_elements_reads_to_the_same_table():
    # json.loads gives each element a dict of its own, so each is an
    # identity run of its own; from_document merges equal neighbours into
    # the table's runs, which the shared elements of loads_document give.
    spec = {"kind": "sigma3", "components": README_COMPONENTS}
    table = sigma3_pipeline(SigmaThreeSet.from_spec(spec)).truncated_table(5, 12)
    text = dumps_document(table.to_document(spec_echo=spec, truncation=5))
    shared, plain = loads_document(text), json.loads(text)
    assert shared == plain
    assert len({id(x) for x in plain["values"]}) == len(plain["values"]) == 8191
    assert len({id(x) for x in shared["values"]}) == len(table._starts)
    for doc in (shared, plain):
        got = MartingaleTable.from_document(doc)[0]
        assert got._starts == table._starts
        assert [(v.num, v.exp) for v in got._objs] == [(v.num, v.exp) for v in table._objs]
        assert_runs_of(got, table.values)
