"""Exact finite martingale tables and their on-disk document format.

A table is one dyadic value per node of the binary tree up to a fixed
depth, in breadth-first order (index 2^l - 1 + v for the node of length l
and value v).  Everything here is exact: identity checks compare dyadics
with zero tolerance, and serialization round-trips losslessly.

A table keeps its values as runs: maximal stretches of breadth-first
indices holding equal values, with one value object per distinct value.
A settled subtree shares its root's value, one run per level below it,
so the README spec's depth-20 table of 2,097,151 nodes has 4,752 runs
of 30 distinct values.  Building, `value(s)` (one bisection) and
document I/O cost per run, not per node: only C-level passes (list
repetition, `is_not` scans, `str.startswith` and JSON's own scanner)
touch every node.  The writer encodes each distinct value once and writes
each run as its text repeated; the reader decodes one element of such a
run and skips its exact repeats, and `from_document` parses one element
per run.  Reading `values` expands the runs into a flat list.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from itertools import chain, compress, count, islice, repeat
from operator import is_not, sub
from typing import Any, Callable, Iterator, Optional

from .bits import BitString
from .dyadic import Dyadic
from .errors import HorizonExhausted, ParseError

FORMAT_VERSION = 1
DOCUMENT_KIND = "martingale-table"

# Table-size budget: the most nodes a table may have, 2^21 - 1 (depth 20).
# A table's runs are few, but its document holds every node, so a deeper
# request fails up front instead of writing an unbounded document.
TABLE_NODE_CAP = (1 << 21) - 1


def _node_index(s: BitString) -> int:
    return (1 << len(s)) - 1 + s.v


class MartingaleTable:
    """Total dyadic-valued map on tree nodes of length ≤ depth.

    Run i holds the value object `objs[i]` at the breadth-first indices
    from `starts[i]` up to the next run's start (the last run ends at the
    table's size).  A table holds one object per distinct value, and
    neighbouring runs hold unequal values, so the runs are the maximal
    runs of equal values.  `from_entries` and `from_document` build
    tables; the constructor takes their runs as they are."""

    def __init__(self, depth: int, starts: list[int], objs: list):
        self.depth, self._starts, self._objs = depth, starts, objs

    @staticmethod
    def from_entries(
        depth: int, entry: Callable[[BitString, Any], tuple[Dyadic, bool, Any]], root: Any = None
    ) -> "MartingaleTable":
        """Build the table by one top-down descent over the live nodes.

        entry(s, up) gives the value at s, whether s is *settled* (every
        node below s carries the same value), and a state handed down as
        `up` to both children of s; the root gets up = root.  The state
        lets an entry skip work that an ancestor already settled.  A
        settled node's value object is kept as one run per deeper level,
        the node's subtree on that level, and entry is never asked below
        it; a live node's two children are asked on the next level.
        The table is therefore exactly the one that entry gives at every
        node, whenever the settled claims are true.  Equal values are kept
        as one object, the first that entry gave.

        Raises HorizonExhausted, before computing anything, when the table
        would have more than TABLE_NODE_CAP nodes."""
        if depth < 0:
            raise ValueError("depth must be ≥ 0")
        size = (1 << (depth + 1)) - 1
        if size > TABLE_NODE_CAP:
            raise HorizonExhausted(
                f"table-size budget of {TABLE_NODE_CAP} nodes "
                f"(depth ≤ {TABLE_NODE_CAP.bit_length() - 1})",
                f"depth {depth} needs {size} nodes",
            )
        starts: list[int] = []
        objs: list = []
        one: dict = {}  # (num, exp) → the table's object of that value
        # Level l, in order of position v: (v, True, value) for a settled
        # run, from v up to the next item's position, and (v, False, up) for
        # a live node, which asks entry.  A settled run starts at 2v one
        # level down, and a live node's children are at 2v and 2v + 1.
        row = [(0, False, root)]
        for l in range(depth + 1):
            base = (1 << l) - 1
            below = []
            for v, settled, x in row:
                if settled:
                    value = x
                else:
                    value, settled, down = entry(BitString.raw(l, v), x)
                    value = one.setdefault((value.num, value.exp), value)
                if not objs or objs[-1] is not value:
                    starts.append(base + v)
                    objs.append(value)
                if settled:
                    below.append((2 * v, True, value))
                else:
                    below += ((2 * v, False, down), (2 * v + 1, False, down))
            row = below
        return MartingaleTable(depth, starts, objs)

    def _lengths(self) -> Iterator[int]:
        starts = self._starts
        size = (2 << self.depth) - 1
        return map(sub, chain(islice(starts, 1, None), (size,)), starts)

    @property
    def values(self) -> list:
        """Every node's value object, flat in breadth-first order: the runs,
        expanded on each read."""
        return list(chain.from_iterable(map(repeat, self._objs, self._lengths())))

    def value(self, s: BitString) -> Dyadic:
        if len(s) > self.depth:
            raise KeyError(f"node {s!r} deeper than table depth {self.depth}")
        return self._objs[bisect_right(self._starts, _node_index(s)) - 1]

    def nodes(self) -> Iterator[tuple[BitString, Dyadic]]:
        """Every (node, value), breadth-first, from one read of `values`."""
        values = iter(self.values)
        for l in range(self.depth + 1):
            for v in range(1 << l):
                yield BitString.raw(l, v), next(values)

    def to_document(self, spec_echo: Optional[dict] = None, truncation: Optional[int] = None) -> dict:
        """The table as a document.  The nodes of one value share one
        `values` entry dict, converted once."""
        objs = self._objs
        as_json = {i: v.to_json() for i, v in dict(zip(map(id, objs), objs)).items()}
        values: list = []
        for entry, n in zip(map(as_json.__getitem__, map(id, objs)), self._lengths()):
            values += [entry] * n
        return {
            "version": FORMAT_VERSION,
            "kind": DOCUMENT_KIND,
            "spec": spec_echo,
            "truncation": truncation,
            "depth": self.depth,
            "values": values,
        }

    @staticmethod
    def from_document(doc: dict) -> tuple["MartingaleTable", Optional[dict], Optional[int]]:
        if not isinstance(doc, dict) or doc.get("kind") != DOCUMENT_KIND:
            raise ParseError("not a martingale-table document")
        version = doc.get("version")
        # bool is an int subclass: true == 1, so it must be refused by type
        if isinstance(version, bool) or version != FORMAT_VERSION:
            raise ParseError(f"unsupported table version {version!r}")
        depth = doc.get("depth")
        raw = doc.get("values")
        if not isinstance(depth, int) or isinstance(depth, bool) or not isinstance(raw, list):
            raise ParseError("table document needs integer depth and a values array")
        if depth < 0:
            raise ParseError(f"table depth must be ≥ 0, got {depth}")
        # A table of depth d has 2^(d+1) - 1 values, which has bit length
        # d + 1; testing that first never builds 2^(d+1) for an absurd d.
        if depth >= len(raw).bit_length() or len(raw) != (1 << (depth + 1)) - 1:
            raise ParseError(
                f"a table of depth {depth} needs 2^{depth + 1} - 1 values, got {len(raw)}"
            )
        try:
            starts, objs = _parse_runs(raw)
        except (ValueError, TypeError, OverflowError) as e:  # int(inf) overflows
            raise ParseError(f"bad dyadic in table values: {e}") from None
        return MartingaleTable(depth, starts, objs), doc.get("spec"), doc.get("truncation")


def _run_starts(items: list) -> Iterator[int]:
    """0 and each index whose item is not the same object as the one
    before it: where the identity runs of a nonempty items begin, found by
    one C-level scan."""
    return compress(count(), chain((True,), map(is_not, islice(items, 1, None), items)))


def _parse_runs(raw: list) -> tuple[list[int], list]:
    """The table runs (starts, objs) of the values raw, parsing the first
    entry of each identity run of raw (loads_document shares one entry
    dict across a run) and each distinct (num, exp) pair once.  Only a
    dict whose num is exactly a str and whose exp is exactly an int is
    looked up in the memo: the key then cannot equal a pair of other types
    (exponents 1, 1.0 and true are equal as keys).  Every other entry, and
    the first entry of each pair, goes through Dyadic.from_json itself, so
    each error keeps its message and the first bad entry in document order
    is the one reported.  Equal values are kept as one object, so equal
    neighbouring runs merge."""
    memo: dict = {}  # (num text, exp) → its value's object
    get = memo.get
    one: dict = {}  # (num, exp) → the table's object of that value

    def parse(x: Any) -> Dyadic:
        d = Dyadic.from_json(x)
        return one.setdefault((d.num, d.exp), d)

    starts: list[int] = []
    objs: list = []
    last = None
    for i in _run_starts(raw):
        x = raw[i]
        d = None
        if type(x) is dict:
            num, exp = x.get("num"), x.get("exp")
            if type(num) is str and type(exp) is int:
                d = get((num, exp))
                if d is None:
                    d = memo[num, exp] = parse(x)
        if d is None:
            d = parse(x)
        if d is not last:
            starts.append(i)
            objs.append(d)
            last = d
    return starts, objs


_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dumps_document(doc: dict) -> str:
    """Canonical serialization: sorted keys, no whitespace drift, newline
    terminated.  Byte-identical for identical documents, and to
    json.dumps(doc, sort_keys=True, separators=(",", ":")) plus a newline.

    A top-level `values` list is written run by run: each stretch of one
    element object is that object's text repeated, and each distinct
    object is encoded once, so the shared entry dicts of to_document cost
    one encoding each; every other key is encoded whole."""
    values = doc.get("values") if type(doc) is dict else None
    if type(values) is not list or not all(type(key) is str for key in doc):
        return _canonical(doc) + "\n"
    runs = ["["]
    if values:
        texts: dict = {}
        starts = list(_run_starts(values))
        for start, end in zip(starts, starts[1:] + [len(values)]):
            x = values[start]
            text = texts.get(id(x))
            if text is None:
                text = texts[id(x)] = _canonical(x)
            runs += (text, ("," + text) * (end - start - 1), ",")
        runs.pop()
    runs.append("]")
    pieces = []
    for key in sorted(doc):
        pieces.append(("," if pieces else "{") + _canonical(key) + ":")
        if key == "values":
            pieces += runs
        else:
            pieces.append(_canonical(doc[key]))
    pieces.append("}\n")
    return "".join(pieces)


def loads_json(text: str) -> Any:
    """Any JSON value; malformed text is a ParseError."""
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer over the digit limit
        raise ParseError(f"invalid JSON: {e}") from None


def loads_document(text: str) -> dict:
    """A JSON object, equal to json.loads(text), read per run: each run
    of one element's exact text repeated in the top-level `values` array
    is one element dict shared by the run.  Text this reader does not
    follow, malformed text included, is read by json.loads itself, so the
    same documents are accepted and each error keeps its text."""
    try:
        doc = _read_object(text)
    except (StopIteration, ValueError, RecursionError):
        doc = loads_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


_scan = json.JSONDecoder().scan_once  # one JSON value at an index: (value, end)
_skip_space = json.decoder.WHITESPACE.match  # JSON's whitespace, as json.loads skips it
_scan_string = json.decoder.scanstring  # a string's body after its quote: (text, end)


def _read_object(text: str) -> dict:
    """text as one JSON object followed by whitespace alone, read by
    json's own scanner, with the top-level `values` array read by
    _read_runs.  Keys go in as json.loads puts them: a repeated key keeps
    its first place and its last value.  Where text is not such an object,
    raises ValueError, or StopIteration where JSON's scanner finds no
    value."""
    if type(text) is not str:
        raise ValueError("not a str")
    i = _skip_space(text, 0).end()
    if not text.startswith("{", i):
        raise ValueError("expected '{'")
    doc = {}
    i = _skip_space(text, i + 1).end()
    more = not text.startswith("}", i)
    while more:
        if not text.startswith('"', i):
            raise ValueError("expected a key")
        key, i = _scan_string(text, i + 1)
        i = _skip_space(text, i).end()
        if not text.startswith(":", i):
            raise ValueError("expected ':'")
        i = _skip_space(text, i + 1).end()
        if key == "values" and text.startswith("[", i):
            doc[key], i = _read_runs(text, i)
        else:
            doc[key], i = _scan(text, i)
        i = _skip_space(text, i).end()
        more = text.startswith(",", i)
        if more:
            i = _skip_space(text, i + 1).end()
        elif not text.startswith("}", i):
            raise ValueError("expected ',' or '}'")
    if _skip_space(text, i + 1).end() != len(text):
        raise ValueError("extra data")
    return doc


def _read_runs(text: str, i: int) -> tuple[list, int]:
    """The JSON array at text[i] == "[" and the index past it.  After each
    element, the exact copies of the separator that follows it (a comma in
    whitespace) plus the element's text, back to back, are counted on
    doubling blocks, and the element is shared by all of them.  A copy is
    the same element: its text follows a separator, and if it were the
    front of a longer number, the digits, point or exponent after it would
    stop the array.  Raises ValueError, or StopIteration where JSON's
    scanner finds no value, where the text is not a JSON array."""
    values: list = []
    i = _skip_space(text, i + 1).end()
    if text.startswith("]", i):
        return values, i + 1
    while True:
        start = i
        element, i = _scan(text, i)
        n = 1
        comma = _skip_space(text, i).end()
        if text.startswith(",", comma):
            blocks = [text[i:_skip_space(text, comma + 1).end()] + text[start:i]]
            # blocks[b] is 2^b copies
            while text.startswith(blocks[-1], i):
                i += len(blocks[-1])
                n += 1 << (len(blocks) - 1)
                blocks.append(blocks[-1] * 2)
            for b in range(len(blocks) - 2, -1, -1):
                if text.startswith(blocks[b], i):
                    i += len(blocks[b])
                    n += 1 << b
        values += [element] * n
        i = _skip_space(text, i).end()
        if text.startswith("]", i):
            return values, i + 1
        if not text.startswith(",", i):
            raise ValueError("expected ',' or ']'")
        i = _skip_space(text, i + 1).end()
