"""Multivariate polynomials with exact rational coefficients.

Terms are stored as exponent vectors over a fixed variable universe
(z^1..z^n followed by y^1..y^{k_max-1}); only what the homogenisation
recursion needs is implemented.

Exponent vectors are checked once, when a polynomial is built from
outside input by the public constructor.  The arithmetic below, and
``tensor.php_polynomials`` on a checked hypergraph, derive terms that
are valid by construction, and their coefficients are nonzero (a sum
that cancels is dropped where it is formed), so they build through
``_derived``, which wraps the dict as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat


@dataclass(frozen=True)
class Polynomial:
    nvars: int
    terms: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, "
                    f"expected {self.nvars}"
                )
            if not all(map(isinstance, exps, repeat(int))) or min(exps, default=0) < 0:
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[exps] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _derived(
        cls, nvars: int, terms: dict[tuple[int, ...], Fraction]
    ) -> Polynomial:
        """Wrap terms that are valid and nonzero by construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    def __add__(self, other: Polynomial) -> Polynomial:
        if self.nvars != other.nvars:
            raise ValueError("cannot add polynomials over different universes")
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = terms.get(exps, 0) + coeff
            if total:
                terms[exps] = total
            else:  # only a key of both can cancel
                del terms[exps]
        return Polynomial._derived(self.nvars, terms)

    def scaled(self, c: Fraction | int) -> Polynomial:
        c = Fraction(c)
        terms = {e: c * v for e, v in self.terms.items()} if c else {}
        return Polynomial._derived(self.nvars, terms)

    def times_var(self, var: int) -> Polynomial:
        """Multiply by the variable with 1-based index ``var``."""
        if var < 1 or var > self.nvars:
            raise ValueError(f"variable index {var} outside 1..{self.nvars}")
        i = var - 1
        terms = {
            e[:i] + (e[i] + 1,) + e[i + 1:]: v for e, v in self.terms.items()
        }
        return Polynomial._derived(self.nvars, terms)
