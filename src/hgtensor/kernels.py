"""The sparse symmetric tensor-vector product A x^{k-1}, in NumPy.

This is the only inner loop of the power iteration; it operates on the
canonical square-free COO arrays that ``LayeredTensor.coords()`` returns.
"""

from __future__ import annotations

import numpy as np


def apply_coords(
    indices: np.ndarray, values: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """y_i = sum over canonical tuples containing i of w * prod_others(x).

    ``indices`` is the (nnz, k) array of 0-based canonical tuples, each
    with k distinct entries; ``values`` the matching weights w, each the
    tensor entry times (k-1)!, the number of orderings of the other k-1
    indices.  For a layered e-adjacency tensor every weight is 1.
    """
    nnz, k = indices.shape
    out = np.zeros(x.shape[0], dtype=np.float64)
    if nnz == 0:
        return out
    cols = [x[indices[:, l]] for l in range(k)]
    for m in range(k):
        contrib = values
        for l in range(k):
            if l != m:
                contrib = contrib * cols[l]
        np.add.at(out, indices[:, m], contrib)
    return out
