"""Hyperedge-list and canonical COO formats."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hgtensor import Hypergraph, build_e_adjacency
from hgtensor.errors import ParseError
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


def test_parse_hypergraph_duplicate_label_in_line():
    with pytest.raises(ParseError) as exc:
        parse_hypergraph("a b\nc c\n")
    assert exc.value.line == 2


def test_parse_hypergraph_empty_input():
    parsed = parse_hypergraph("# only comments\n\n")
    assert parsed.hypergraph == Hypergraph(0, ())


def test_write_hypergraph_roundtrip():
    parsed = parse_hypergraph(EXAMPLE_TEXT)
    text = write_hypergraph(parsed.hypergraph, parsed.labels)
    assert text == "v1\nv1 v2\nv2 v3 v4\n"
    assert parse_hypergraph(text).hypergraph == parsed.hypergraph


def test_format_rational():
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_tensor_roundtrip_exact():
    for h in corpus(count=40, seed=43):
        t = build_e_adjacency(h)
        text = write_tensor(t, h.n)
        back, n = parse_tensor(text)
        assert back == t and n == h.n
        # writing what was parsed is byte-identical modulo the label comments
        assert write_tensor(back, n) == write_tensor(t, h.n)


def test_tensor_write_format():
    t = build_e_adjacency(Hypergraph(4, ((1,), (1, 2), (2, 3, 4))))
    text = write_tensor(t, 4, labels=("v1", "v2", "v3", "v4"))
    lines = text.splitlines()
    assert lines[0] == "order=3 dim=6 n=4 format=canonical-coo"
    assert lines[1] == "# label 1 = v1"
    assert lines[5:] == ["1 2 6 1/2", "1 5 6 1/2", "2 3 4 1/2"]


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
    ],
)
def test_tensor_entry_validation(body, message):
    header = "order=2 dim=3 n=2 format=canonical-coo\n"
    with pytest.raises(ParseError) as exc:
        parse_tensor(header + body)
    assert message in str(exc.value)


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
