"""Show that every benchmark check rejects a wrong output.

    python3 pipebench/selftest.py

For each workload the program's output on a small seeded instance must
pass its check, and the same output with one fault planted must fail
it.  The planted faults include today's 1-iteration eigenvalue, a COO
entry with a wrong special suffix and a dropped edge.  Exits 1 if any
check accepts a wrong output or rejects a right one.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from hgtensor.polynomial import Polynomial  # noqa: E402
from instances import Spec, generate  # noqa: E402

SEED = 7
failures: list[str] = []


def expect(case: str, check, wrong: bool) -> None:
    try:
        check()
    except checks.CheckFailed as exc:
        ok, seen = wrong, f"rejected ({str(exc)[:90]})"
    else:
        ok, seen = not wrong, "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {case}: {seen}")
    if not ok:
        failures.append(case)


def known(case: str, matched: bool, want: bool) -> None:
    print(f"{'ok  ' if matched == want else 'FAIL'} {case}: "
          f"{'matched' if matched else 'not matched'}")
    if matched != want:
        failures.append(case)


def drop_line(text: str, index: int) -> str:
    lines = text.splitlines(keepends=True)
    del lines[index]
    return "".join(lines)


def stats_cases(tmp: Path) -> None:
    inst = generate(Spec("selftest", 300, 1_000, 5), SEED)
    path = tmp / "s.hg"
    path.write_text(inst.text())
    counts = checks.count(inst)
    code, out, err = workloads.cli_call("stats", str(path))
    expect("stats: program output", lambda: checks.check_stats(counts, code, out, err), False)
    label = inst.lines[0][0]
    bad = out.replace(f"d_{label}={counts.degree[label]}\n",
                      f"d_{label}={counts.degree[label] + 1}\n")
    expect("stats: one degree off by one",
           lambda: checks.check_stats(counts, code, bad, err), True)
    bad = out.replace(f"DeltaStar={counts.delta_star}\n",
                      f"DeltaStar={counts.edges}\n")
    expect("stats: Delta* counting every edge",
           lambda: checks.check_stats(counts, code, bad, err), True)


def archive_cases(tmp: Path) -> None:
    inst = generate(Spec("selftest", 300, 1_000, 5), SEED)
    path, coo = tmp / "a.hg", tmp / "a.coo"
    path.write_text(inst.text())
    counts = checks.count(inst)
    family = inst.label_edges()
    workloads.cli_call("build", str(path), "--output", str(coo))
    text = coo.read_text()
    code, out, err = workloads.cli_call("reconstruct", str(coo))

    def both(text, out):
        labels = checks.check_coo(counts, inst.lines, text)
        checks.check_reconstruct(family, labels, code, out, err)

    expect("archive: program output", lambda: both(text, out), False)
    # The entry of a singleton edge is (v, n+1, ..., n+k-1); putting n in
    # place of n+1 keeps the indices in range and sorted but breaks the
    # padding law.
    n, k = counts.n, counts.k_max
    rows = text.splitlines(keepends=True)
    for i, row in enumerate(rows):
        idx = row.split()[:-1]
        if not row.startswith(("#", "order")) and idx[1] == str(n + 1):
            rows[i] = " ".join([idx[0], str(n)] + idx[2:] + [row.split()[-1]]) + "\n"
            break
    expect("archive: COO entry with a wrong suffix",
           lambda: both("".join(rows), out), True)
    expect("archive: reconstruct drops an edge",
           lambda: both(text, drop_line(out, 0)), True)
    expect("archive: COO file drops an entry",
           lambda: both(drop_line(text, len(text.splitlines()) - 1), out), True)
    value = checks.entry_value(k)
    wrong_value = text.replace(f" 1/{value.denominator}\n",
                               f" 2/{value.denominator}\n", 1)
    expect("archive: COO entry with a wrong value",
           lambda: both(wrong_value, out), True)


def spectral_cases(tmp: Path) -> None:
    inst = generate(Spec("selftest", 300, 1_500, 4), SEED)
    path = tmp / "p.hg"
    path.write_text(inst.text())
    counts = checks.count(inst)
    ref = checks.reference_eigenvalue(checks.padded_array(counts, inst.lines),
                                      counts.dim)
    code, out, err = workloads.cli_call("spectral", str(path))
    expect("spectral: program output",
           lambda: checks.check_spectral(counts, ref, code, out, err), False)
    # After one step the defective solver returns the Rayleigh quotient of
    # its uniform start vector, k_max |E| / dim: the lower bound itself.
    start = counts.k_max * counts.edges / counts.dim
    lines = [f"lambda={start!r}" if line.startswith("lambda=") else line
             for line in out.splitlines()]
    one_step = "\n".join("iterations=1" if line.startswith("iterations=")
                          else line for line in lines)
    expect("spectral: 1-iteration lambda",
           lambda: checks.check_spectral(counts, ref, code, one_step, err), True)
    # Only that output may count as the fault the benchmark keeps.
    known("spectral: 1-iteration lambda is the known fault",
          checks.is_one_step_lambda(counts, (code, one_step, err)), True)
    known("spectral: a correct output is not the known fault",
          checks.is_one_step_lambda(counts, (code, out, err)), False)
    known("spectral: a crash is not the known fault",
          checks.is_one_step_lambda(counts, (1, "", "error=Boom\n")), False)
    known("spectral: the start lambda after 2 iterations is not the known fault",
          checks.is_one_step_lambda(
              counts, (code, one_step.replace("iterations=1", "iterations=2"), err)),
          False)
    over = [f"lambda={counts.bound * 1.01!r}" if line.startswith("lambda=") else line
            for line in out.splitlines()]
    far = checks.Eigen(counts.bound * 1.01, 0.0, 0.0, 0)
    expect("spectral: lambda above max(Delta, Delta*)",
           lambda: checks.check_spectral(counts, far, code, "\n".join(over), err),
           True)


def homogenise_cases() -> None:
    spec = Spec("selftest", 60, 150, 4)
    inst = generate(spec, SEED)
    n, k = spec.n, spec.k_max
    h = workloads.hypergraph.Hypergraph(n, inst.edges)
    uni = workloads.uniformise.uniformise_iterative(h)
    rs = workloads.tensor.php_polynomials(h)
    t = workloads.tensor.polynomial_to_tensor(rs[-1], k, n + k - 1)
    expect("homogenise: HUP output",
           lambda: checks.check_hup(inst.edges, n, k, uni), False)
    expect("homogenise: PHP output",
           lambda: checks.check_php(inst.edges, n, k, rs, t.entries), False)

    small = inst.edges.index(min(inst.edges, key=len))
    weights = list(uni.weights)
    pos = uni.edges.index(inst.edges[small] + tuple(
        range(n + len(inst.edges[small]), n + k)))
    weights[pos] = Fraction(1)
    reweighted = dataclasses.replace(uni, weights=tuple(weights))
    expect("homogenise: HUP weight not k_max/j",
           lambda: checks.check_hup(inst.edges, n, k, reweighted), True)
    dropped = dict(t.entries)
    dropped.popitem()
    expect("homogenise: PHP drops an edge",
           lambda: checks.check_php(inst.edges, n, k, rs, dropped), True)
    r2 = Polynomial(rs[1].nvars,
                    {**rs[1].terms, (1,) + (0,) * (rs[1].nvars - 1): Fraction(1)})
    expect("homogenise: R_2 not homogeneous",
           lambda: checks.check_php(inst.edges, n, k, [rs[0], r2, *rs[2:]],
                                    t.entries), True)


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        stats_cases(Path(tmp))
        archive_cases(Path(tmp))
        spectral_cases(Path(tmp))
    homogenise_cases()
    print(f"{len(failures)} check(s) misjudged" if failures else "every check "
          "accepts the program's output and rejects each planted fault")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
