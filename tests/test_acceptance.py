"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hgtensor import (
    Hypergraph,
    LayeredTensor,
    build_e_adjacency,
    degrees_from_tensor,
    edge_count_from_handshake,
    largest_h_eigenvalue,
    php_polynomials,
    polynomial_to_tensor,
    reconstruct,
    spectral_bound,
)
from hgtensor.cli import main
from hgtensor.errors import MalformedTensor, ParseError
from hgtensor.fileio import format_rational, parse_tensor, write_tensor
from tests.gen import corpus, graph_corpus
from tests.oracles import semantic_total, to_dense

CORPUS = corpus(count=200)
EXAMPLE = "v1\nv1 v2\nv2 v3 v4\n"


def acceptance(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {num} ({name}): PASS")

        return wrapper

    return decorate


@acceptance(1, "route equivalence")
def test_route_equivalence():
    start = time.perf_counter()
    for h in CORPUS:
        k_max = h.range()
        direct = build_e_adjacency(h)
        via_php = polynomial_to_tensor(php_polynomials(h)[-1], k_max, h.n + k_max - 1)
        assert direct.to_sparse() == via_php  # exact rational, entry for entry
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"route equivalence took {elapsed:.2f}s"


@acceptance(2, "entry law")
def test_entry_law():
    for h in CORPUS:
        t = build_e_adjacency(h)
        expected = Fraction(1, math.factorial(t.order - 1))
        assert t.nnz == len(h.edges)
        assert all(v == expected for v in t.to_sparse().entries.values())


@acceptance(3, "generalized handshake")
def test_handshake():
    for h in CORPUS:
        t = build_e_adjacency(h)
        assert edge_count_from_handshake(t) == Fraction(len(h.edges))
        # the same identity summed entry by entry over the exact tensor
        assert semantic_total(t.to_sparse()) / t.order == Fraction(len(h.edges))


@acceptance(4, "degree and layer identities")
def test_degree_identities():
    for h in CORPUS:
        t = build_e_adjacency(h)
        report = degrees_from_tensor(t)
        assert report.degrees[: h.n] == h.degrees()
        direct_layers = tuple(len(layer.edges) for layer in h.layers())
        assert report.layer_counts == direct_layers


@acceptance(5, "eigenvalue bound")
def test_eigenvalue_bound():
    for h in CORPUS:
        t = build_e_adjacency(h)
        if t.order < 2:
            continue
        bound = spectral_bound(degrees_from_tensor(t))
        result = largest_h_eigenvalue(t, max_iter=100_000)
        assert result.eigenvalue <= bound + 1e-6
        assert result.residual <= 1e-8


def three_uniform_three_regular(n: int = 9) -> Hypergraph:
    """Brute-force search for a 3-uniform hypergraph with all degrees 3."""
    triples = list(itertools.combinations(range(1, n + 1), 3))
    need = n  # n vertices * degree 3 / edge size 3
    chosen: list[tuple[int, ...]] = []
    deg = [0] * (n + 1)

    def search(start: int) -> bool:
        if len(chosen) == need:
            return all(d == 3 for d in deg[1:])
        for idx in range(start, len(triples)):
            t = triples[idx]
            if all(deg[v] < 3 for v in t):
                chosen.append(t)
                for v in t:
                    deg[v] += 1
                if search(idx + 1):
                    return True
                for v in t:
                    deg[v] -= 1
                chosen.pop()
        return False

    assert search(0), "no 3-regular 3-uniform design found"
    h = Hypergraph(n, tuple(chosen))  # raises RepeatedHyperedge on a repeat
    assert h.degrees() == (3,) * n  # regular by construction
    return h


@acceptance(6, "regular uniform equality")
def test_regular_uniform_equality():
    suite = [Hypergraph(4, tuple(itertools.combinations(range(1, 5), 2)))]  # K4
    for n in range(3, 9):  # cycles C_3 .. C_8
        edges = tuple(
            tuple(sorted((v, v % n + 1))) for v in range(1, n + 1)
        )
        suite.append(Hypergraph(n, edges))
    suite.append(three_uniform_three_regular())
    for h in suite:
        t = build_e_adjacency(h)
        bound = spectral_bound(degrees_from_tensor(t))
        result = largest_h_eigenvalue(t)
        assert abs(result.eigenvalue - bound) <= 1e-6


def _corrupt_value(t: LayeredTensor) -> str:
    """The COO text of ``t`` with its first entry's value doubled."""
    header, first, *rest = write_tensor(t).splitlines(keepends=True)
    *indices, value = first.split()
    bad = format_rational(2 * Fraction(value))
    return "".join([header, " ".join(indices) + f" {bad}\n", *rest])


def _corrupt_index(t: LayeredTensor) -> np.ndarray:
    """The rows of ``t`` with the first entry's first index duplicated."""
    rows = t.canonical_rows().copy()
    rows[0] = sorted([rows[0][0], *rows[0][:-1]])
    return rows


@acceptance(7, "bijective reconstruction")
def test_bijective_reconstruction():
    for h in CORPUS:
        t = build_e_adjacency(h)
        assert sorted(reconstruct(t).edges) == sorted(h.edges)
        assert sorted(reconstruct(parse_tensor(write_tensor(t))).edges) == sorted(h.edges)
        with pytest.raises(ParseError, match="has value"):
            parse_tensor(_corrupt_value(t))
        if t.order >= 2:
            with pytest.raises(MalformedTensor):
                LayeredTensor(h.n, t.order, _corrupt_index(t))


@acceptance(8, "order-2 dense oracle")
def test_order_2_dense_oracle():
    graphs = graph_corpus(count=50)
    assert all(g.n + 1 <= 20 for g in graphs)
    for g in graphs:
        t = build_e_adjacency(g)
        lam_dense = float(np.linalg.eigvalsh(to_dense(t.to_sparse())).max())
        result = largest_h_eigenvalue(t)
        assert abs(result.eigenvalue - lam_dense) <= 1e-8


@acceptance(9, "CLI roundtrip")
def test_cli_roundtrip(tmp_path, capsys):
    for pos, h in enumerate(CORPUS):
        t = build_e_adjacency(h)
        text = write_tensor(t)
        parsed = parse_tensor(text)
        assert parsed.to_sparse() == t.to_sparse() and parsed.n == h.n
        assert write_tensor(parsed) == text  # byte-exact re-emission

        src = tmp_path / f"h{pos}.hg"
        src.write_text(
            "".join(" ".join(map(str, e)) + "\n" for e in h.edges)
        )
        coo = tmp_path / f"h{pos}.coo"
        assert main(["build", str(src), "--output", str(coo)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", str(coo)]) == 0
        out = capsys.readouterr().out
        got = sorted(tuple(map(int, line.split())) for line in out.splitlines())
        # the CLI interns labels densely, so compare against the re-parsed form
        relabel: dict[int, int] = {}
        for e in h.edges:
            for v in e:
                relabel.setdefault(v, len(relabel) + 1)
        expected = sorted(tuple(sorted(relabel[v] for v in e)) for e in h.edges)
        assert got == expected

    example = tmp_path / "example.hg"
    example.write_text(EXAMPLE)
    assert main(["stats", str(example)]) == 0
    fields = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert [fields[f"d_v{i}"] for i in (1, 2, 3, 4)] == ["2", "2", "1", "1"]
    assert fields["d_y1"] == "1" and fields["d_y2"] == "2"
    assert fields["bound"] == "2"
