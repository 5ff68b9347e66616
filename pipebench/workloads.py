"""The four workloads: seeded inputs, the timed operations, their checks.

A workload is a round of operations.  Building the round generates the
inputs from the seed, writes the files the CLI reads and computes every
reference; none of that is timed.  An operation's ``run`` is the timed
call into hgtensor, and ``check`` compares its output with the reference.
Every call goes through a module attribute looked up at call time, so a
tracer that patches those attributes sees it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checks
from instances import Instance, Spec, generate

cli = importlib.import_module("hgtensor.cli")
hypergraph = importlib.import_module("hgtensor.hypergraph")
tensor = importlib.import_module("hgtensor.tensor")
uniformise = importlib.import_module("hgtensor.uniformise")

# The k_max = 5 spectral instance is fixed, so that the operation kept as
# failed runs on the same input in every run (see README).
FAULT_SEED = 1

# (full size, warm-up size) per instance, as (n, |E|, k_max).
SPECS: dict[str, tuple[Spec, Spec]] = {
    name: (Spec(name, *full, k), Spec(name + "-warm", *warm, k))
    for name, k, full, warm in (
        ("stats", 5, (20_000, 100_000), (1_000, 5_000)),
        ("archive", 5, (20_000, 100_000), (1_000, 5_000)),
        ("spectral-k4", 4, (10_000, 40_000), (1_000, 4_000)),
        ("spectral-k3", 3, (20_000, 100_000), (1_000, 5_000)),
        ("spectral-k5", 5, (20_000, 100_000), (1_000, 5_000)),
        ("homogenise", 4, (2_000, 5_000), (200, 500)),
    )
}


@dataclass(frozen=True)
class Op:
    """One timed operation on ``edges`` input hyperedges.

    ``known_fault``, when given, tells whether a failed output is the
    program fault the benchmark keeps as a failed operation; any other
    failure of the operation is unexpected.
    """

    name: str
    edges: int
    run: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: Callable[[Any], bool] | None = None


def cli_call(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _instance(name: str, seed: int, warm: bool, workdir: Path) -> tuple[Instance, str]:
    spec = SPECS[name][warm]
    inst = generate(spec, seed)
    path = workdir / f"{spec.name}.hg"
    path.write_text(inst.text(), encoding="utf-8")
    return inst, str(path)


def stats_round(workdir: Path, seed: int, warm: bool) -> list[Op]:
    inst, path = _instance("stats", seed, warm, workdir)
    counts = checks.count(inst)
    return [Op("stats", counts.edges, lambda: cli_call("stats", path),
               lambda r: checks.check_stats(counts, *r))]


def archive_round(workdir: Path, seed: int, warm: bool) -> list[Op]:
    inst, path = _instance("archive", seed, warm, workdir)
    counts = checks.count(inst)
    family = inst.label_edges()
    coo = workdir / (Path(path).stem + ".coo")

    def run():
        built = cli_call("build", path, "--output", str(coo))
        return built, cli_call("reconstruct", str(coo))

    def check(result):
        (code, _, err), rebuilt = result
        checks.exit_ok(code, err)
        labels = checks.check_coo(counts, inst.lines, coo.read_text(encoding="utf-8"))
        checks.check_reconstruct(family, labels, *rebuilt)

    return [Op("build+reconstruct", counts.edges, run, check)]


def spectral_round(workdir: Path, seed: int, warm: bool) -> list[Op]:
    ops = []
    for name in ("spectral-k4", "spectral-k3", "spectral-k5"):
        fault = name == "spectral-k5"
        inst, path = _instance(name, FAULT_SEED if fault else seed, warm, workdir)
        counts = checks.count(inst)
        ref = checks.reference_eigenvalue(
            checks.padded_array(counts, inst.lines), counts.dim)

        def check(r, counts=counts, ref=ref):
            checks.check_spectral(counts, ref, *r)

        def one_step(r, counts=counts):
            return checks.is_one_step_lambda(counts, r)

        ops.append(Op(name, counts.edges,
                      lambda path=path: cli_call("spectral", path), check,
                      one_step if fault else None))
    return ops


def homogenise_round(workdir: Path, seed: int, warm: bool) -> list[Op]:
    spec = SPECS["homogenise"][warm]
    inst = generate(spec, seed)
    n, k = spec.n, spec.k_max
    h = hypergraph.Hypergraph(n, inst.edges)

    def php():
        rs = tensor.php_polynomials(h)
        return rs, tensor.polynomial_to_tensor(rs[-1], k, n + k - 1)

    return [
        Op("hup", len(inst.edges), lambda: uniformise.uniformise_iterative(h),
           lambda u: checks.check_hup(inst.edges, n, k, u)),
        Op("php", len(inst.edges), php,
           lambda r: checks.check_php(inst.edges, n, k, r[0], r[1].entries)),
    ]


WORKLOADS: dict[str, Callable[[Path, int, bool], list[Op]]] = {
    "stats": stats_round,
    "archive": archive_round,
    "spectral": spectral_round,
    "homogenise": homogenise_round,
}
