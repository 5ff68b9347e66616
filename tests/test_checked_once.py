"""Each structure is checked once, where input enters.

Structures derived from checked input (a parsed file's edges, a
hypergraph's layers, the tensor built from a hypergraph, the hypergraph
read back from a tensor) are wrapped without a second check.  These
tests show that the wrapped results equal what the checking constructors
give, and that each CLI command runs the checks only on its input.
"""

from __future__ import annotations

import string
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hgtensor import Hypergraph, LayeredTensor, build_e_adjacency, cli, reconstruct
from hgtensor import hypergraph as hypergraph_module
from hgtensor import tensor as tensor_module
from hgtensor.fileio import parse_hypergraph, parse_tensor, write_hypergraph, write_tensor


@st.composite
def labelled_families(draw):
    """A family of distinct edges over 1..n, each vertex list in its own
    shuffled order, and a distinct label per vertex."""
    n = draw(st.integers(1, 7))
    # An edge is drawn as the bit mask of its vertex set.
    masks = draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=12, unique=True))
    rng = draw(st.randoms(use_true_random=False))
    family = tuple(
        tuple(rng.sample([v for v in range(1, n + 1) if m >> (v - 1) & 1], m.bit_count()))
        for m in masks
    )
    labels = draw(st.lists(st.text(string.ascii_letters + string.digits + "_.", min_size=1,
                                   max_size=3), min_size=n, max_size=n, unique=True))
    return n, family, labels


@settings(max_examples=100, deadline=None)
@given(labelled_families())
def test_wrapped_results_equal_the_checked_ones(case):
    n, family, labels = case
    h = Hypergraph(n, family)

    # A parsed file, up to the labels: its ids are in first-appearance order.
    parsed = parse_hypergraph("".join(" ".join(labels[v - 1] for v in e) + "\n"
                                      for e in family))
    ids = {label: i for i, label in enumerate(parsed.labels, start=1)}
    relabelled = tuple(tuple(ids[labels[v - 1]] for v in e) for e in family)
    assert parsed.hypergraph == Hypergraph(len(parsed.labels), relabelled)
    assert parse_hypergraph(write_hypergraph(parsed.hypergraph, parsed.labels)) == parsed

    # The layers.
    for k, layer in enumerate(h.layers(), start=1):
        assert layer == Hypergraph(n, tuple(e for e in h.edges if len(e) == k))

    # The built tensor passes the checks it skipped, and the hypergraph
    # read back from its file is the one the constructor gives.
    t = build_e_adjacency(h)
    checked = LayeredTensor(t.n, t.order, t.rows)
    assert np.array_equal(checked.canonical_rows(), t.canonical_rows())
    back = reconstruct(parse_tensor(write_tensor(t)))
    assert back == Hypergraph(n, back.edges)
    assert sorted(back.edges) == sorted(h.edges)


def test_each_command_checks_its_input_once(tmp_path, monkeypatch, capsys):
    calls: Counter[str] = Counter()
    for module, name in ((hypergraph_module, "_canonical_edge"),
                         (tensor_module, "_pattern_fault")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)

    hg, coo = tmp_path / "ex.hg", tmp_path / "ex.coo"
    hg.write_text("v1\nv1 v2\nv2 v3 v4\n")
    for argv in (["stats", hg], ["spectral", hg], ["build", hg, "--output", coo]):
        assert cli.main(list(map(str, argv))) == 0
        assert calls == {}, argv[0]
    assert cli.main(["reconstruct", str(coo)]) == 0
    assert calls == {"_pattern_fault": 1}
    capsys.readouterr()
