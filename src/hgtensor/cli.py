"""Command-line interface.

Subcommands: build, stats, spectral, reconstruct, uniformise.  Reports
are key=value lines on stdout; diagnostics go to stderr.  The exit
status is 0 iff no error line was emitted, or 141 with no error line if
the reader closes stdout early.  An input path of ``-`` reads standard
input.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from hgtensor import fileio
from hgtensor.errors import HgTensorError, NoConvergence, ParseError
from hgtensor.spectral import (
    degrees_from_tensor,
    largest_h_eigenvalue,
    spectral_bound,
)
from hgtensor.tensor import (
    build_e_adjacency,
    edge_count_from_handshake,
    reconstruct,
)
from hgtensor.uniformise import uniformise

BOUND_SLACK = 1e-8


def _read(path: str) -> str:
    """The file's text; raises ParseError at the first byte not in UTF-8."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; "_" stands in for its line.
        line = len(fileio.split_lines(data[: exc.start].decode("utf-8") + "_"))
        raise ParseError(line, f"byte {data[exc.start]:#04x} is not UTF-8") from None


def _at_least(kind, low):
    """argparse type: ``kind(text)``, rejected unless >= ``low`` (NaN too)."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _fail(exc: Exception) -> int:
    print(f"error={type(exc).__name__}", file=sys.stderr)
    print(f"detail={exc}", file=sys.stderr)
    return 1


def cmd_build(args: argparse.Namespace) -> int:
    parsed = fileio.parse_hypergraph(_read(args.input))
    h = parsed.hypergraph
    t = build_e_adjacency(h)
    out = fileio.write_tensor(t, parsed.labels)
    if args.output == "-":
        sys.stdout.write(out)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    for key, val in (
        ("n", h.n),
        ("k_max", t.order),
        ("edges", len(h.edges)),
        ("dim", t.dim),
        ("nnz", t.nnz),
    ):
        print(f"{key}={val}", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    parsed = fileio.parse_hypergraph(_read(args.input))
    h = parsed.hypergraph
    t = build_e_adjacency(h)
    report = degrees_from_tensor(t)

    # Counted on the edge list, not the tensor, so the check stays independent.
    sizes = np.fromiter(map(len, h.edges), np.int64, len(h.edges))
    direct_counts = tuple(np.bincount(sizes, minlength=report.k_max + 1)[1:].tolist())
    degrees_ok = report.degrees[: h.n] == h.degrees()
    layers_ok = report.layer_counts == direct_counts
    handshake_ok = edge_count_from_handshake(t) == Fraction(len(h.edges))

    print(f"n={h.n}")
    print(f"k_max={report.k_max}")
    print(f"edges={len(h.edges)}")
    print(f"dim={t.dim}")
    print(f"nnz={t.nnz}")
    for v in range(1, h.n + 1):
        print(f"d_{parsed.label_of(v)}={report.degrees[v - 1]}")
    for level in range(1, report.k_max):
        print(f"d_y{level}={report.degrees[h.n + level - 1]}")
    for j, count in enumerate(report.layer_counts, start=1):
        print(f"layer_count_{j}={count}")
    print(f"degree_check={'pass' if degrees_ok else 'fail'}")
    print(f"layer_check={'pass' if layers_ok else 'fail'}")
    print(f"handshake={'pass' if handshake_ok else 'fail'}")
    print(f"Delta={report.delta}")
    print(f"DeltaStar={report.delta_star}")
    print(f"bound={spectral_bound(report)}")
    return 0


def cmd_spectral(args: argparse.Namespace) -> int:
    t = build_e_adjacency(fileio.parse_hypergraph(_read(args.input)).hypergraph)
    result = largest_h_eigenvalue(t, tol=args.tol, max_iter=args.max_iter)
    bound = spectral_bound(degrees_from_tensor(t))
    print(f"lambda={result.eigenvalue:.17g}")
    print(f"bound={bound}")
    satisfied = result.eigenvalue <= bound + BOUND_SLACK
    print(f"bound_satisfied={'true' if satisfied else 'false'}")
    print(f"iterations={result.iterations}")
    print(f"residual={result.residual:.17g}")
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    h = reconstruct(fileio.parse_tensor(_read(args.input)))
    sys.stdout.write(fileio.write_hypergraph(h))
    return 0


def cmd_uniformise(args: argparse.Namespace) -> int:
    parsed = fileio.parse_hypergraph(_read(args.input))
    h = parsed.hypergraph
    uni = uniformise(h)
    for edge, weight in zip(uni.edges, uni.weights):
        members = [
            parsed.label_of(v) if v <= h.n else f"@y{v - h.n}" for v in edge
        ]
        print(" ".join(members) + f" w={fileio.format_rational(weight)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgtensor",
        description="Layered e-adjacency tensors of general hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the tensor and write a COO file")
    p.add_argument("input", help="hyperedge list file, or - for stdin")
    p.add_argument("--output", default="-", help="COO output path (default stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="degrees, layer counts, handshake, bound")
    p.add_argument("input", help="hyperedge list file, or - for stdin")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("spectral", help="largest H-eigenvalue vs the degree bound")
    p.add_argument("input", help="hyperedge list file, or - for stdin")
    p.add_argument("--tol", type=_at_least(float, 0), default=1e-10)
    p.add_argument("--max-iter", type=_at_least(int, 1), default=100_000)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("reconstruct", help="recover the hypergraph from a COO file")
    p.add_argument("input", help="tensor COO file, or - for stdin")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("uniformise", help="list the uniformised weighted edges")
    p.add_argument("input", help="hyperedge list file, or - for stdin")
    p.set_defaults(func=cmd_uniformise)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader went away: exit quietly with 128 + SIGPIPE, stdout on
        # devnull so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except NoConvergence as exc:
        print(f"lambda_min={exc.lambda_min:.17g}", file=sys.stderr)
        print(f"lambda_max={exc.lambda_max:.17g}", file=sys.stderr)
        return _fail(exc)
    except (HgTensorError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
