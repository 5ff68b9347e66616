"""The package's import surface."""

from __future__ import annotations

import hgtensor
from hgtensor import errors, uniformise

# Names deleted from the package; none may come back through __all__.
REMOVED = (
    (hgtensor, ("WeightedHypergraph", "uniform_weights", "vertex_augment", "merge")),
    (uniformise, ("vertex_augment", "merge")),
    (errors, ("VertexCollision",)),
    (hgtensor.Hypergraph, ("find_repeated_edge", "require_no_repeats")),
)


def test_all_resolves_and_removed_names_are_gone():
    assert len(set(hgtensor.__all__)) == len(hgtensor.__all__)
    for name in hgtensor.__all__:
        assert hasattr(hgtensor, name), name
    for owner, names in REMOVED:
        for name in names:
            assert name not in hgtensor.__all__, name
            assert not hasattr(owner, name), name
