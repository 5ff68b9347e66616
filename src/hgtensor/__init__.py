"""Layered e-adjacency tensors of general hypergraphs.

Build the symmetric, bijective e-adjacency tensor of a general
hypergraph via uniformisation (special padding vertices) or the
equivalent polynomial homogenisation route, recover the hypergraph from
the tensor, and validate degree identities and the spectral-radius
bound with a nonnegative-tensor power iteration.
"""

from hgtensor import errors
from hgtensor.hypergraph import Hypergraph, WeightedHypergraph, uniform_weights
from hgtensor.polynomial import Polynomial
from hgtensor.spectral import (
    DegreeReport,
    EigenResult,
    apply,
    degrees_from_tensor,
    largest_h_eigenvalue,
    spectral_bound,
)
from hgtensor.tensor import (
    LayeredTensor,
    SymSparseTensor,
    build_e_adjacency,
    edge_count_from_handshake,
    layer_adjacency,
    permutation_count,
    php_build,
    php_polynomials,
    polynomial_to_tensor,
    reconstruct,
    semantic_total,
    tensor_to_polynomial,
    to_dense,
)
from hgtensor.uniformise import (
    SpecialVertex,
    UniformisedHypergraph,
    default_coefficients,
    merge,
    uniformise,
    uniformise_iterative,
    vertex_augment,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeReport",
    "EigenResult",
    "Hypergraph",
    "LayeredTensor",
    "Polynomial",
    "SpecialVertex",
    "SymSparseTensor",
    "UniformisedHypergraph",
    "WeightedHypergraph",
    "apply",
    "build_e_adjacency",
    "default_coefficients",
    "degrees_from_tensor",
    "edge_count_from_handshake",
    "errors",
    "largest_h_eigenvalue",
    "layer_adjacency",
    "merge",
    "permutation_count",
    "php_build",
    "php_polynomials",
    "polynomial_to_tensor",
    "reconstruct",
    "semantic_total",
    "spectral_bound",
    "tensor_to_polynomial",
    "to_dense",
    "uniform_weights",
    "uniformise",
    "uniformise_iterative",
    "vertex_augment",
]
