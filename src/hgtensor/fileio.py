"""Text formats: hyperedge lists and the canonical COO tensor format.

Hypergraph files hold one hyperedge per line as whitespace-separated
vertex labels (arbitrary strings); ``#`` starts a comment.  Labels are
interned to dense 1-based ids in first-appearance order.

Tensor files start with the header line

    order=<k> dim=<d> n=<n> format=canonical-coo

followed by one line per canonical entry: the k non-decreasing 1-based
indices, then the value as an exact rational ``p/q`` in lowest terms.
Comment lines are skipped; writers emit the label map as comments for
auditability.  The writer takes a ``LayeredTensor``; the parser reads
any such file into a ``SymSparseTensor`` and records each entry's line,
so ``LayeredTensor.from_sparse`` of what it read round-trips exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from hgtensor.errors import ParseError
from hgtensor.hypergraph import Hypergraph
from hgtensor.tensor import LayeredTensor, SymSparseTensor

COO_FORMAT = "canonical-coo"


@dataclass(frozen=True)
class ParsedHypergraph:
    hypergraph: Hypergraph
    labels: tuple[str, ...]
    edge_lines: tuple[int, ...]

    def label_of(self, vertex: int) -> str:
        return self.labels[vertex - 1]


@dataclass(frozen=True)
class ParsedTensor:
    tensor: SymSparseTensor
    n: int
    entry_lines: tuple[int, ...]  # file line of each entry, in entry order

    def line_of(self, entry: tuple[int, ...]) -> int:
        return self.entry_lines[list(self.tensor.entries).index(entry)]


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


def _parse_rational(token: str, lineno: int) -> Fraction:
    parts = token.split("/")
    if len(parts) != 2:
        raise ParseError(lineno, f"value {token!r} is not of the form p/q")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"value {token!r} is not of the form p/q")
    if q <= 0:
        raise ParseError(lineno, f"value {token!r} must have denominator > 0")
    if math.gcd(p, q) != 1:
        raise ParseError(lineno, f"value {token!r} is not in lowest terms")
    if p == 0:
        raise ParseError(lineno, "stored entries must be nonzero")
    return Fraction(p, q)


def write_tensor(t: LayeredTensor, labels: tuple[str, ...] | None = None) -> str:
    lines = [f"order={t.order} dim={t.dim} n={t.n} format={COO_FORMAT}"]
    if labels is not None:
        lines += [f"# label {i} = {lab}" for i, lab in enumerate(labels, start=1)]
    entry = " ".join(["%d"] * t.order) + f" {format_rational(t.value)}"
    lines += [entry % tuple(row) for row in t.canonical_rows().tolist()]
    return "".join(line + "\n" for line in lines)


def parse_tensor(text: str) -> ParsedTensor:
    """Read a canonical COO file: the tensor, the header's n, entry lines."""
    header: dict[str, str] | None = None
    entries: dict[tuple[int, ...], Fraction] = {}
    entry_lines: list[int] = []
    order = dim = n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if header is None:
            header = {}
            for tok in line.split():
                key, sep, val = tok.partition("=")
                if not sep:
                    raise ParseError(lineno, f"bad header token {tok!r}")
                header[key] = val
            missing = {"order", "dim", "n", "format"} - header.keys()
            if missing:
                raise ParseError(lineno, f"header is missing {sorted(missing)}")
            if header["format"] != COO_FORMAT:
                raise ParseError(lineno, f"unknown format {header['format']!r}")
            try:
                order, dim, n = (
                    int(header["order"]),
                    int(header["dim"]),
                    int(header["n"]),
                )
            except ValueError:
                raise ParseError(lineno, "order, dim and n must be integers")
            if order < 1 or dim < 1:
                raise ParseError(lineno, "order and dim must be positive")
            continue
        tokens = line.split()
        if len(tokens) != order + 1:
            raise ParseError(
                lineno, f"expected {order} indices and a value, got {len(tokens)} tokens"
            )
        try:
            tup = tuple(int(tok) for tok in tokens[:order])
        except ValueError:
            raise ParseError(lineno, f"non-integer index in {tokens[:order]}")
        if any(a > b for a, b in zip(tup, tup[1:])):
            raise ParseError(lineno, f"indices {tup} are not non-decreasing")
        if any(i < 1 or i > dim for i in tup):
            raise ParseError(lineno, f"indices {tup} outside 1..{dim}")
        if tup in entries:
            raise ParseError(lineno, f"duplicate canonical entry {tup}")
        entries[tup] = _parse_rational(tokens[order], lineno)
        entry_lines.append(lineno)
    if header is None:
        raise ParseError(1, "missing header line")
    return ParsedTensor(SymSparseTensor(order, dim, entries), n, tuple(entry_lines))
