"""References computed from the generated edge list, and output checks.

Nothing here calls hgtensor: every expected value is derived from the
instance the benchmark generated, so a check cannot inherit a fault of
the program.  Each ``check_*`` raises ``CheckFailed`` naming the first
mismatch it finds.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from instances import Instance

# Relative distance allowed between the program's eigenvalue and the
# reference.  Today's correct solves land within about 1e-11; the defective
# k_max = 5 solve is off by 99 %.
LAMBDA_RTOL = 1e-6
# Relative width at which the reference's Collatz-Wielandt bracket counts
# as closed; the reference eigenvalue is the bracket's midpoint.
REFERENCE_RTOL = 1e-11
REFERENCE_SHIFT = 1.0
REFERENCE_MAX_ITER = 5000


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def _report(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckFailed(f"report line {line!r} is not key=value")
        out[key] = value
    return out


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def exit_ok(code: int, err: str) -> None:
    if code != 0:
        raise CheckFailed(f"exit status {code}: {err.strip()[:200]}")


@dataclass(frozen=True)
class Counts:
    """Degrees and layer sizes counted from the edge list.

    ``ids`` numbers the labels by first appearance in the file, which is
    how the file format defines vertex ids.
    """

    k_max: int
    n: int
    edges: int
    degree: dict[str, int]
    ids: dict[str, int]
    layer: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.n + self.k_max - 1

    @property
    def special(self) -> tuple[int, ...]:
        """Degree of special vertex y_level: edges of size <= level."""
        return tuple(sum(self.layer[:level]) for level in range(1, self.k_max))

    @property
    def delta(self) -> int:
        return max(self.degree.values())

    @property
    def delta_star(self) -> int:
        """Edges smaller than k_max."""
        return self.edges - self.layer[-1]

    @property
    def bound(self) -> int:
        return max(self.delta, self.delta_star)

    def padded(self, line: tuple[str, ...]) -> tuple[int, ...]:
        """1-based canonical tensor index of one edge line."""
        j = len(line)
        return tuple(sorted(self.ids[lab] for lab in line)) + tuple(
            range(self.n + j, self.n + self.k_max)
        )


def count(inst: Instance) -> Counts:
    ids: dict[str, int] = {}
    degree: Counter[str] = Counter()
    layer = [0] * inst.spec.k_max
    for line in inst.lines:
        for lab in line:
            if lab not in ids:
                ids[lab] = len(ids) + 1
        degree.update(line)
        layer[len(line) - 1] += 1
    return Counts(
        inst.spec.k_max, len(ids), len(inst.lines), dict(degree), ids, tuple(layer)
    )


def entry_value(k_max: int) -> Fraction:
    return Fraction(1, math.factorial(k_max - 1))


# --- stats -----------------------------------------------------------------


def check_stats(c: Counts, code: int, out: str, err: str) -> None:
    """Every printed count against the edge-list counts.

    The program's own ``*_check`` lines are ignored: a check that reports
    on itself proves nothing.
    """
    exit_ok(code, err)
    rep = _report(out)
    for key, want in (
        ("n", c.n),
        ("k_max", c.k_max),
        ("edges", c.edges),
        ("dim", c.dim),
        ("nnz", c.edges),
        ("Delta", c.delta),
        ("DeltaStar", c.delta_star),
        ("bound", c.bound),
    ):
        _expect(key, rep.get(key), str(want))
    degrees = {k[2:]: v for k, v in rep.items() if k.startswith("d_")}
    want_degrees = {lab: str(d) for lab, d in c.degree.items()}
    for level, d in enumerate(c.special, start=1):
        want_degrees[f"y{level}"] = str(d)
    if degrees != want_degrees:
        bad = sorted(set(degrees.items()) ^ set(want_degrees.items()))[:3]
        raise CheckFailed(f"degree lines differ, e.g. {bad}")
    for j, size in enumerate(c.layer, start=1):
        _expect(f"layer_count_{j}", rep.get(f"layer_count_{j}"), str(size))


# --- archive ---------------------------------------------------------------


def check_coo(c: Counts, lines: tuple[tuple[str, ...], ...], text: str) -> dict[int, str]:
    """The COO file holds exactly the padded edges at 1/(k_max-1)!.

    Returns the label map the file declares in its comments.
    """
    rows = text.splitlines()
    _expect("COO header", rows[0],
            f"order={c.k_max} dim={c.dim} n={c.n} format=canonical-coo")
    labels: dict[int, str] = {}
    value = entry_value(c.k_max)
    want_value = f"{value.numerator}/{value.denominator}"
    entries = []
    for row in rows[1:]:
        if row.startswith("# label "):
            vid, _, lab = row[len("# label "):].partition(" = ")
            labels[int(vid)] = lab
            continue
        *idx, val = row.split()
        if val != want_value:
            raise CheckFailed(f"COO entry {row!r}: value is not {want_value}")
        entries.append(tuple(map(int, idx)))
    if len(entries) != len(lines):
        raise CheckFailed(f"COO file holds {len(entries)} entries, "
                          f"expected {len(lines)}")
    want = {c.padded(line) for line in lines}
    for tup in entries:
        if tup not in want:
            raise CheckFailed(f"COO entry {tup} is no padded edge")
    if len(set(entries)) != len(entries):
        raise CheckFailed("COO file repeats an entry")
    _expect("COO label map", labels, {i: lab for lab, i in c.ids.items()})
    return labels


def check_reconstruct(family: list[frozenset[str]], labels: dict[int, str],
                      code: int, out: str, err: str) -> None:
    """The reconstructed edges, mapped through the labels, are the family."""
    exit_ok(code, err)
    got = Counter(frozenset(labels[int(v)] for v in row.split())
                  for row in out.splitlines())
    want = Counter(family)
    if got != want:
        missing = list((want - got).elements())[:2]
        extra = list((got - want).elements())[:2]
        raise CheckFailed(f"reconstructed family differs: missing {missing}, "
                          f"extra {extra}")


# --- spectral --------------------------------------------------------------


@dataclass(frozen=True)
class Eigen:
    """Reference eigenvalue, the bracket it is the midpoint of, and the
    iterations the reference took."""

    value: float
    lo: float
    hi: float
    iterations: int


def padded_array(c: Counts, lines) -> np.ndarray:
    """(|E|, k_max) array of 0-based padded edges."""
    return np.array([c.padded(line) for line in lines], dtype=np.int64) - 1


def reference_eigenvalue(rows: np.ndarray, dim: int) -> Eigen:
    """Largest H-eigenvalue of the layered tensor given by padded edges.

    Shifted power iteration (Ng-Qi-Zhou) on A + sigma*I with the iterate
    normalised to max 1, where (A x^{k-1})_i is the sum over edges holding
    i of the product of the edge's other entries (the (k-1)! orderings
    cancel the entry value).  It stops when the Collatz-Wielandt bracket
    min_i, max_i of (A x^{k-1})_i / x_i^{k-1} closes to REFERENCE_RTOL
    relative width; the bracket holds the eigenvalue at every step.
    """
    k = rows.shape[1]
    x = np.ones(dim)
    ones = np.ones((rows.shape[0], 1))
    for it in range(1, REFERENCE_MAX_ITER + 1):
        cols = x[rows]
        before = np.cumprod(np.hstack([ones, cols[:, :-1]]), axis=1)
        after = np.cumprod(np.hstack([ones, cols[:, :0:-1]]), axis=1)[:, ::-1]
        ax = np.bincount(rows.ravel(), weights=(before * after).ravel(),
                         minlength=dim)
        xk1 = x ** (k - 1)
        y = ax + REFERENCE_SHIFT * xk1
        ratios = ax / xk1
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= REFERENCE_RTOL * hi:
            return Eigen((lo + hi) / 2, lo, hi, it)
        x = y ** (1.0 / (k - 1))
        x /= x.max()
    raise RuntimeError(f"reference bracket still [{lo}, {hi}] after "
                       f"{REFERENCE_MAX_ITER} iterations")


def check_spectral(c: Counts, ref: Eigen, code: int, out: str, err: str) -> None:
    """lambda against the reference, and k_max|E|/dim <= lambda <= bound."""
    exit_ok(code, err)
    rep = _report(out)
    _expect("bound", rep.get("bound"), str(c.bound))
    lam = float(rep["lambda"])
    if not abs(lam - ref.value) <= LAMBDA_RTOL * ref.value:
        raise CheckFailed(f"lambda={lam!r}, reference {ref.value!r} "
                          f"(bracket [{ref.lo!r}, {ref.hi!r}])")
    lower = c.k_max * c.edges / c.dim
    if not lower * (1 - 1e-12) <= lam <= c.bound * (1 + 1e-12):
        raise CheckFailed(f"lambda={lam!r} outside [{lower!r}, {c.bound}]")


def is_one_step_lambda(c: Counts, result) -> bool:
    """Whether a spectral output is the solver's known 1-iteration stop.

    That output exits 0 and reports 1 iteration and the Rayleigh quotient
    of the uniform start vector, k_max |E| / dim.  Any other wrong output
    is a different fault.
    """
    if result is None:
        return False
    code, out, _ = result
    try:
        rep = _report(out)
        lam = float(rep["lambda"])
    except (CheckFailed, KeyError, ValueError):
        return False
    start = c.k_max * c.edges / c.dim
    return (code == 0 and rep.get("iterations") == "1"
            and abs(lam - start) <= 1e-9 * start)


# --- homogenise ------------------------------------------------------------


def check_hup(edges: tuple[tuple[int, ...], ...], n: int, k_max: int, uni) -> None:
    """HUP output: each edge padded with y_j..y_{k_max-1}, weight k_max/j."""
    want = Counter(
        (e + tuple(range(n + len(e), n + k_max)), Fraction(k_max, len(e)), len(e))
        for e in edges
    )
    got = Counter(zip(uni.edges, uni.weights, uni.origin_sizes))
    if got != want:
        bad = list((want - got).elements())[:1] + list((got - want).elements())[:1]
        raise CheckFailed(f"uniformised edges differ, e.g. {bad}")


def check_php(edges: tuple[tuple[int, ...], ...], n: int, k_max: int,
              rs, entries) -> None:
    """PHP output: R_k homogeneous of degree k with one term per edge of
    size <= k, and the tensor entries are the padded edges."""
    _expect("number of R_k", len(rs), k_max)
    sizes = Counter(len(e) for e in edges)
    for k, r in enumerate(rs, start=1):
        if any(sum(exps) != k for exps in r.terms):
            raise CheckFailed(f"R_{k} is not homogeneous of degree {k}")
        _expect(f"terms of R_{k}", len(r.terms),
                sum(sizes[j] for j in range(1, k + 1)))
    value = entry_value(k_max)
    want = {e + tuple(range(n + len(e), n + k_max)): value for e in edges}
    if entries != want:
        bad = sorted(set(entries.items()) ^ set(want.items()))[:2]
        raise CheckFailed(f"PHP tensor entries differ, e.g. {bad}")
