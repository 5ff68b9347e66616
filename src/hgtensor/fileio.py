"""Text formats: hyperedge lists and the canonical COO tensor format.

Hypergraph files hold one hyperedge per line as whitespace-separated
vertex labels (arbitrary strings); ``#`` starts a comment.  Labels are
interned to dense 1-based ids in first-appearance order.

Tensor files start with the header line

    order=<k> dim=<d> n=<n> format=canonical-coo

followed by one line per canonical entry: the k non-decreasing 1-based
indices, then the value as an exact rational ``p/q`` in lowest terms.
Comment lines are skipped; writers emit the label map as comments for
auditability.  ``write_tensor`` takes a ``LayeredTensor`` and
``parse_tensor`` reads a file straight into one, raising ``ParseError``
at the line of any fault; a written file round-trips byte for byte.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hgtensor.errors import MalformedTensor, ParseError
from hgtensor.hypergraph import Hypergraph
from hgtensor.tensor import INT64_MAX, LayeredTensor

COO_FORMAT = "canonical-coo"


@dataclass(frozen=True)
class ParsedHypergraph:
    hypergraph: Hypergraph
    labels: tuple[str, ...]
    edge_lines: tuple[int, ...]

    def label_of(self, vertex: int) -> str:
        return self.labels[vertex - 1]


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_hypergraph(text: str) -> ParsedHypergraph:
    labels: dict[str, int] = {}
    edges: list[tuple[int, ...]] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _strip_comment(raw).split()
        if not tokens:
            continue
        if len(set(tokens)) != len(tokens):
            raise ParseError(lineno, f"duplicate vertex label in {tokens}")
        edge = []
        for tok in tokens:
            if tok not in labels:
                labels[tok] = len(labels) + 1
            edge.append(labels[tok])
        edges.append(tuple(sorted(edge)))
        edge_lines.append(lineno)
    h = Hypergraph(len(labels), tuple(edges))
    return ParsedHypergraph(h, tuple(labels), tuple(edge_lines))


def write_hypergraph(h: Hypergraph, labels: tuple[str, ...] | None = None) -> str:
    if labels is None:
        labels = tuple(str(i) for i in range(1, h.n + 1))
    lines = [" ".join(labels[v - 1] for v in e) for e in h.edges]
    return "".join(line + "\n" for line in lines)


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _value_token(order: int) -> str:
    """1/(order-1)! spelled p/q.  ``str(int)`` refuses more than 4,300
    digits, reached at order 1,560; ``str(Decimal)`` has no such limit."""
    return f"1/{decimal.Decimal(math.factorial(order - 1))}"


def _check_value(token: str, order: int, entry: list[int], lineno: int) -> str:
    """Check that ``token`` is 1/(order-1)! as p/q in lowest terms, q > 0;
    return the spelling ``write_tensor`` gives that value."""
    expected = _value_token(order)
    if token == expected:
        return expected
    try:
        p, q = map(int, token.split("/"))
    except ValueError:
        raise ParseError(lineno, f"value {token!r} is not of the form p/q")
    if q <= 0:
        raise ParseError(lineno, f"value {token!r} must have denominator > 0")
    if math.gcd(p, q) != 1:
        raise ParseError(lineno, f"value {token!r} is not in lowest terms")
    if p == 0:
        raise ParseError(lineno, "stored entries must be nonzero")
    if (p, q) != (1, math.factorial(order - 1)):
        raise ParseError(lineno, f"entry {tuple(entry)} has value {Fraction(p, q)}, "
                                 f"expected {expected}")
    return expected


def write_tensor(t: LayeredTensor, labels: tuple[str, ...] | None = None) -> str:
    lines = [f"order={t.order} dim={t.dim} n={t.n} format={COO_FORMAT}"]
    if labels is not None:
        lines += [f"# label {i} = {lab}" for i, lab in enumerate(labels, start=1)]
    entry = " ".join(["%d"] * t.order) + f" {_value_token(t.order)}"
    lines += [entry % tuple(row) for row in t.canonical_rows().tolist()]
    return "".join(line + "\n" for line in lines)


def parse_tensor(text: str) -> LayeredTensor:
    """Read a canonical COO file as a layered e-adjacency tensor.

    Each line is checked for what only the line shows: the header, the
    token count, integer indices and the value 1/(order-1)!.  The
    ``LayeredTensor`` constructor checks the pattern and repeats of all
    rows at once; its fault is raised at the file line of the bad row.
    """
    lines = enumerate(text.splitlines(), start=1)
    for header_line, raw in lines:
        tokens = _strip_comment(raw).split()
        if tokens:
            break
    else:
        raise ParseError(1, "missing header line")
    header: dict[str, str] = {}
    for tok in tokens:
        key, sep, val = tok.partition("=")
        if not sep:
            raise ParseError(header_line, f"bad header token {tok!r}")
        header[key] = val
    missing = {"order", "dim", "n", "format"} - header.keys()
    if missing:
        raise ParseError(header_line, f"header is missing {sorted(missing)}")
    if header["format"] != COO_FORMAT:
        raise ParseError(header_line, f"unknown format {header['format']!r}")
    try:
        order, dim, n = int(header["order"]), int(header["dim"]), int(header["n"])
    except ValueError:
        raise ParseError(header_line, "order, dim and n must be integers")
    if min(order, dim, n) < 1:
        raise ParseError(header_line, "order, dim and n must be positive")
    if n != dim - order + 1:
        raise ParseError(
            header_line, f"dimension {dim} incompatible with n={n} and order {order}"
        )
    if dim > INT64_MAX:
        raise ParseError(header_line, f"dimension {dim} exceeds the int64 index range")

    flat: list[int] = []  # the rows' indices, row-major
    entry_lines: list[int] = []
    expected = None  # the value token, once a line has shown its spelling
    for lineno, raw in lines:
        tokens = _strip_comment(raw).split()
        if not tokens:
            continue
        if len(tokens) != order + 1:
            raise ParseError(
                lineno, f"expected {order} indices and a value, got {len(tokens)} tokens"
            )
        try:
            flat.extend(map(int, tokens[:order]))
        except ValueError:
            raise ParseError(lineno, f"non-integer index in {tokens[:order]}")
        if tokens[order] != expected:
            expected = _check_value(tokens[order], order, flat[-order:], lineno)
        entry_lines.append(lineno)
    try:
        rows = np.array(flat, dtype=np.int64).reshape(-1, order)
    except OverflowError:
        i = next(i for i, v in enumerate(flat) if abs(v) > INT64_MAX)
        line = entry_lines[i // order]
        raise ParseError(line, f"index {flat[i]} outside 1..{dim}") from None
    try:
        return LayeredTensor(n, order, rows)
    except MalformedTensor as exc:  # every fault found here is in one row
        raise ParseError(entry_lines[exc.row], exc.args[0]) from None
