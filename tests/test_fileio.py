"""Hyperedge-list and canonical COO formats."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgtensor import Hypergraph, build_e_adjacency, reconstruct
from hgtensor.errors import ParseError, RepeatedHyperedge
from hgtensor.fileio import (
    format_rational,
    parse_hypergraph,
    parse_tensor,
    write_hypergraph,
    write_tensor,
)
from tests.gen import corpus

EXAMPLE_TEXT = """\
# worked example
v1
v1 v2
v2 v3 v4  # trailing comment
"""


def test_parse_hypergraph_interns_labels_in_order():
    parsed = parse_hypergraph(EXAMPLE_TEXT)
    assert parsed.labels == ("v1", "v2", "v3", "v4")
    assert parsed.hypergraph == Hypergraph(4, ((1,), (1, 2), (2, 3, 4)))
    assert parsed.edge_lines == (2, 3, 4)
    assert parsed.label_of(3) == "v3"
    # Lines end at \n, \r\n and \r only: the other separators that
    # str.splitlines knows are whitespace, here inside a comment.
    for sep in "\v\f\x1c\x1d\x1e\x85\u2028\u2029":
        parsed = parse_hypergraph(f"a b\r\n# note{sep}c d\re f g\n")
        assert parsed.hypergraph == Hypergraph(5, ((1, 2), (3, 4, 5)))
        assert parsed.edge_lines == (1, 3)


def test_parse_hypergraph_duplicate_label_in_line():
    with pytest.raises(ParseError) as exc:
        parse_hypergraph("a b\nc c\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_hypergraph("a b\n\u2028\na a\n")
    assert exc.value.line == 3


def test_parse_hypergraph_empty_input():
    parsed = parse_hypergraph("# only comments\n\n")
    assert parsed.hypergraph == Hypergraph(0, ())


def first_repeat(edges) -> tuple[int, int] | None:
    """Oracle: 1-based (i, j) for the first j whose vertex set is that of
    an earlier edge, and the first such i."""
    for j in range(len(edges)):
        for i in range(j):
            if set(edges[i]) == set(edges[j]):
                return i + 1, j + 1
    return None


@st.composite
def families_with_repeats(draw):
    """Vertex lists of a small family, copies of some edges inserted
    anywhere, each list in its own shuffled order; and the number of
    blank or comment lines before each edge in its file."""
    n = draw(st.integers(1, 5))
    # An edge is drawn as the bit mask of its vertex set: far cheaper to
    # draw than a unique list of sets.
    masks = draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=6, unique=True))
    family = list(masks)
    for _ in range(draw(st.integers(0, 3))):
        family.insert(draw(st.integers(0, len(family))), draw(st.sampled_from(masks)))
    rng = draw(st.randoms(use_true_random=False))
    edges = [rng.sample([v for v in range(1, n + 1) if m >> (v - 1) & 1], m.bit_count())
             for m in family]
    return n, edges, [rng.randint(0, 2) for _ in edges]


@settings(max_examples=100, deadline=None)
@given(families_with_repeats())
def test_repeats_raise_at_their_positions_and_lines(case):
    n, edges, gaps = case
    pair = first_repeat(edges)
    if pair is None:
        assert Hypergraph(n, tuple(edges)).edges == tuple(tuple(sorted(e)) for e in edges)
    else:
        with pytest.raises(RepeatedHyperedge) as exc:
            Hypergraph(n, tuple(edges))
        assert (exc.value.first, exc.value.second) == pair

    # The same family as a file, with blank and comment lines in between.
    lines, edge_lines = [], []
    for e, gap in zip(edges, gaps):
        lines += ["", "# v1 v2"][:gap]
        lines.append(" ".join(f"v{v}" for v in e))
        edge_lines.append(len(lines))
    text = "\n".join(lines) + "\n"
    if pair is None:
        assert parse_hypergraph(text).edge_lines == tuple(edge_lines)
    else:
        first, second = (edge_lines[i - 1] for i in pair)
        with pytest.raises(RepeatedHyperedge) as exc:
            parse_hypergraph(text)
        assert (exc.value.first, exc.value.second) == (first, second)
        assert str(exc.value) == f"lines {first} and {second} hold the same hyperedge"


def test_write_hypergraph_roundtrip():
    parsed = parse_hypergraph(EXAMPLE_TEXT)
    text = write_hypergraph(parsed.hypergraph, parsed.labels)
    assert text == "v1\nv1 v2\nv2 v3 v4\n"
    assert parse_hypergraph(text).hypergraph == parsed.hypergraph
    # without labels each vertex is written as its index, at any n
    assert write_hypergraph(Hypergraph(2**63 - 2, ((1, 2),))) == "1 2\n"


def test_format_rational():
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_tensor_roundtrip_exact():
    for h in corpus(count=40, seed=43):
        t = build_e_adjacency(h)
        text = write_tensor(t)
        back = parse_tensor(text)
        assert back.to_sparse() == t.to_sparse() and back.n == h.n
        # writing what was parsed is byte-identical modulo the label comments
        assert write_tensor(back) == text


def test_tensor_write_format():
    t = build_e_adjacency(Hypergraph(4, ((1,), (1, 2), (2, 3, 4))))
    text = write_tensor(t, labels=("v1", "v2", "v3", "v4"))
    lines = text.splitlines()
    assert lines[0] == "order=3 dim=6 n=4 format=canonical-coo"
    assert lines[1] == "# label 1 = v1"
    assert lines[5:] == ["1 2 6 1/2", "1 5 6 1/2", "2 3 4 1/2"]


def test_tensor_parse_records_entry_lines():
    header = "# written by hand\norder=2 dim=4 n=3 format=canonical-coo\n"
    text = header + "2 3 1/1\n\n# a comment\n1 2 1/1  # trailing comment\n"
    parsed = parse_tensor(text)
    assert parsed.n == 3 and parsed.order == 2
    assert parsed.rows.tolist() == [[2, 3], [1, 2]]  # file order
    # a fault found across rows names the file line of its row
    with pytest.raises(ParseError) as exc:
        parse_tensor(header + "2 3 1/1\n\n# a comment\n1 1 1/1\n")
    assert exc.value.line == 6
    assert str(exc.value) == "line 6: entry (1, 1) repeats an original vertex"
    with pytest.raises(ParseError) as exc:
        parse_tensor(header + "1 2 1/1\n# a comment\n2 3 1/1\n\n1 2 1/1\n")
    assert exc.value.line == 7 and "duplicate" in str(exc.value)
    # a line separator inside a comment does not end the comment
    parsed = parse_tensor(header + "2 3 1/1\n# a comment\u20281 1 1/1\n1 2 1/1\n")
    assert parsed.rows.tolist() == [[2, 3], [1, 2]]


@pytest.mark.parametrize(
    "body,message",
    [
        ("1 2 0.5\n", "p/q"),
        ("1 2 2/4\n", "lowest terms"),
        ("1 2 1/0\n", "denominator"),
        ("1 2 1/-2\n", "denominator"),
        ("1 2 0/1\n", "nonzero"),
        ("2 1 1/1\n", "non-decreasing"),
        ("1 9 1/1\n", "outside"),
        ("1 1/1\n", "tokens"),
        ("1 2 1/1\n1 2 1/1\n", "duplicate"),
        ("1 2 1/2\n", "has value 1/2, expected 1/1"),
        ("1 100000000000000000000 1/1\n", "outside"),
        ("-100000000000000000000 2 1/1\n", "outside"),
        ("1 -9223372036854775808 1/1\n", "is not non-decreasing"),
    ],
)
def test_tensor_entry_validation(body, message):
    header = "order=2 dim=3 n=2 format=canonical-coo\n"
    with pytest.raises(ParseError) as exc:
        parse_tensor(header + body)
    assert message in str(exc.value)
    assert exc.value.line == 1 + body.count("\n")  # the body's last line


def test_tensor_value_past_the_int_str_digit_limit():
    # 1/(k-1)! at k = 1,602 has a 4,437-digit denominator, more than the
    # 4,300 digits str(int) and int(str) accept by default
    k = 1602
    text = write_tensor(build_e_adjacency(Hypergraph(k, (tuple(range(1, k + 1)),))))
    assert write_tensor(parse_tensor(text)) == text
    header, entry = text.splitlines(keepends=True)
    *indices, value = entry.split()
    with pytest.raises(ParseError) as exc:
        parse_tensor(header + " ".join(indices) + " 1/2\n")
    assert exc.value.line == 2
    assert str(exc.value).endswith(f"has value 1/2, expected {value}")


def test_tensor_header_validation():
    with pytest.raises(ParseError):
        parse_tensor("")
    with pytest.raises(ParseError):
        parse_tensor("order=2 dim=3 format=canonical-coo\n")  # missing n
    with pytest.raises(ParseError):
        parse_tensor("order=2 dim=3 n=2 format=dense\n")
    with pytest.raises(ParseError):
        parse_tensor("order=x dim=3 n=2 format=canonical-coo\n")
    with pytest.raises(ParseError, match="positive"):
        parse_tensor("order=0 dim=0 n=0 format=canonical-coo\n")
    with pytest.raises(ParseError, match="positive"):
        parse_tensor("order=2 dim=1 n=0 format=canonical-coo\n")
    # n is fixed by dim and order; a header that disagrees names its line
    with pytest.raises(ParseError) as exc:
        parse_tensor("# c\norder=2 dim=4 n=9 format=canonical-coo\n1 2 1/1\n")
    assert exc.value.line == 2
    assert str(exc.value) == "line 2: dimension 4 incompatible with n=9 and order 2"
    with pytest.raises(ParseError, match="line 1: dimension .* exceeds the int64"):
        parse_tensor(
            "order=2 dim=100000000000000000000 n=99999999999999999999 "
            "format=canonical-coo\n"
        )


def test_tensor_without_entries_is_cheap_in_its_order():
    # Nothing bounds the order of an entry-free file but the header, so
    # reading one must not take memory or time in proportion to it.
    tracemalloc.start()
    try:
        t = parse_tensor("order=1000000 dim=1999999 n=1000000 format=canonical-coo\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (t.order, t.nnz, reconstruct(t)) == (1_000_000, 0, Hypergraph(1_000_000, ()))
    assert peak < 1_000_000


@st.composite
def coo_files(draw):
    """A small hypergraph's tensor and its COO text, with or without labels."""
    n = draw(st.integers(1, 6))
    edges = draw(st.lists(st.frozensets(st.integers(1, n), min_size=1, max_size=4),
                          min_size=1, max_size=8, unique=True))
    t = build_e_adjacency(Hypergraph(n, tuple(tuple(sorted(e)) for e in edges)))
    labels = tuple(f"v{i}" for i in range(1, n + 1)) if draw(st.booleans()) else None
    return t, labels, write_tensor(t, labels)


def padded_edge(row: list[int], n: int) -> bool:
    """Oracle: ``row`` is increasing originals (<= n), then n + j, ..."""
    j = next((p for p, v in enumerate(row) if v > n), len(row))
    return (j >= 1 and row[0] >= 1 and all(a < b for a, b in zip(row, row[1:j]))
            and row[j:] == list(range(n + j, n + len(row))))


@settings(max_examples=300, deadline=None)
@given(coo_files(), st.data())
def test_coo_roundtrip_and_single_corruption(case, data):
    t, labels, text = case
    back = parse_tensor(text)
    assert (back.n, back.order) == (t.n, t.order)
    assert np.array_equal(back.canonical_rows(), t.canonical_rows())
    assert write_tensor(back, labels) == text

    lines = text.splitlines(keepends=True)
    first = 1 + (len(labels) if labels else 0)  # index of the first entry line
    i = data.draw(st.integers(first, len(lines) - 1), label="line index")
    tokens = lines[i].split()
    kind = data.draw(st.sampled_from(("move", "value", "duplicate")), label="kind")
    if kind == "move":
        p = data.draw(st.integers(0, t.order - 1), label="position")
        row = list(map(int, tokens[:-1]))

        def moved(v: int) -> list[int]:
            return row[:p] + [v] + row[p + 1:]

        v = data.draw(st.integers(-1, t.dim + 2).filter(
            lambda v: not padded_edge(moved(v), t.n)), label="new index")
        lines[i] = " ".join(map(str, moved(v))) + f" {tokens[-1]}\n"
        bad_line = i + 1
    elif kind == "value":
        spellings = st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 7))
        token = data.draw(spellings.filter(lambda tok: tok != format_rational(t.value)))
        lines[i] = " ".join(tokens[:-1]) + f" {token}\n"
        bad_line = i + 1
    else:
        j = data.draw(st.integers(i + 1, len(lines)), label="copy index")
        lines.insert(j, lines[i])
        bad_line = j + 1
    with pytest.raises(ParseError) as exc:
        parse_tensor("".join(lines))
    assert exc.value.line == bad_line
