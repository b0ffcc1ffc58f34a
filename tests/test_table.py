"""Martingale tables: layout, slow-path recomputation, and the document
format (canonical JSON, lossless round-trips, strict parsing)."""

import pytest
from hypothesis import given, settings, strategies as st

from divmart.bits import BitString
from divmart.dyadic import Dyadic
from divmart.errors import HorizonExhausted, ParseError
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
    assert [str(s) for s, _ in t.interior_nodes()] == ["", "0", "1"]
    assert t.leaf_values() == [Dyadic.zero(), Dyadic(1, 1), Dyadic(1, 1), Dyadic.one()]


def test_leaf_average_matches_interior_values():
    t = small_table()
    for s, v in t.interior_nodes():
        assert t.leaf_average_below(s) == v


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

    def entry(s):
        asked.append(str(s))
        return value(s), any(str(s)[:l] in cuts for l in range(len(s) + 1))

    t = MartingaleTable.from_entries(depth, entry)
    assert t.values == [value(s) for s, _ in t.nodes()]
    # No node strictly below a settled one is ever queried.
    for name in asked:
        assert not any(name[:l] in cuts for l in range(len(name)))


def test_table_size_budget():
    with pytest.raises(HorizonExhausted) as exc:
        MartingaleTable.from_entries(21, lambda s: (Dyadic.zero(), True))
    assert f"table-size budget of {TABLE_NODE_CAP} nodes" in str(exc.value)
    assert f"needs {(1 << 22) - 1} nodes" in str(exc.value)
    with pytest.raises(HorizonExhausted):
        MartingaleTable.from_entries(40, lambda s: (Dyadic.zero(), False))
    # The cap itself is allowed: a settled root fills depth 20 by slices.
    t = MartingaleTable.from_entries(20, lambda s: (Dyadic(1, 1), True))
    assert len(t.values) == TABLE_NODE_CAP
    assert t.leaf_values()[-1] == Dyadic(1, 1)


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
