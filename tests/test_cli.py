"""CLI subcommands, exercised in-process through main()."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hgtensor
from hgtensor import build_e_adjacency, degrees_from_tensor, spectral_bound
from hgtensor.cli import main
from tests.gen import corpus

EXAMPLE = "v1\nv1 v2\nv2 v3 v4\n"
# Child interpreters import the same hgtensor as this one.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(hgtensor.__file__).parent.parent))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fields(out: str) -> dict[str, str]:
    pairs = [line.split("=", 1) for line in out.splitlines() if "=" in line]
    return {k: v for k, v in pairs}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- build -------------------------------------------------------------------


def test_build_worked_example(tmp_path, capsys):
    src = write(tmp_path, "ex.hg", EXAMPLE)
    out_path = tmp_path / "ex.coo"
    code, out, err = run(capsys, "build", src, "--output", str(out_path))
    assert code == 0
    body = out_path.read_text()
    entry_lines = [l for l in body.splitlines()[1:] if not l.startswith("#")]
    assert len(entry_lines) == 3
    assert all(line.endswith(" 1/2") for line in entry_lines)
    info = fields(err)
    assert info["n"] == "4" and info["k_max"] == "3"
    assert info["edges"] == "3" and info["dim"] == "6" and info["nnz"] == "3"


def test_build_duplicate_edges(tmp_path, capsys):
    src = write(tmp_path, "dup.hg", "a b\nc\nb a\n")
    code, out, err = run(capsys, "build", src)
    assert code == 1
    assert "error=RepeatedHyperedge" in err
    assert "lines 1 and 3" in err


def test_build_empty_file(tmp_path, capsys):
    src = write(tmp_path, "empty.hg", "# nothing here\n")
    code, out, err = run(capsys, "build", src)
    assert code == 1
    assert "error=EmptyHypergraph" in err


def test_build_parse_error_carries_line(tmp_path, capsys):
    src = write(tmp_path, "bad.hg", "a b\nc c\n")
    code, out, err = run(capsys, "build", src)
    assert code == 1
    assert "error=ParseError" in err and "line 2" in err


def test_build_missing_file(capsys):
    code, out, err = run(capsys, "build", "/nonexistent/path.hg")
    assert code == 1 and "error=" in err


# --- stats -------------------------------------------------------------------


def test_stats_worked_example(tmp_path, capsys):
    src = write(tmp_path, "ex.hg", EXAMPLE)
    code, out, err = run(capsys, "stats", src)
    assert code == 0
    got = fields(out)
    assert got["d_v1"] == "2" and got["d_v2"] == "2"
    assert got["d_v3"] == "1" and got["d_v4"] == "1"
    assert got["d_y1"] == "1" and got["d_y2"] == "2"
    assert got["layer_count_1"] == "1"
    assert got["layer_count_2"] == "1"
    assert got["layer_count_3"] == "1"
    assert got["degree_check"] == "pass"
    assert got["layer_check"] == "pass"
    assert got["handshake"] == "pass"
    assert got["Delta"] == "2" and got["DeltaStar"] == "2" and got["bound"] == "2"


def test_stats_triangle(tmp_path, capsys):
    src = write(tmp_path, "c3.hg", "a b\nb c\na c\n")
    code, out, _ = run(capsys, "stats", src)
    assert code == 0
    got = fields(out)
    assert got["layer_count_2"] == "3" and got["bound"] == "2"


def test_stats_singleton_has_no_special_degrees(tmp_path, capsys):
    src = write(tmp_path, "one.hg", "a\n")
    code, out, _ = run(capsys, "stats", src)
    assert code == 0
    got = fields(out)
    assert "d_y1" not in got
    assert got["bound"] == "1" and got["DeltaStar"] == "0"


# --- spectral ----------------------------------------------------------------


def test_spectral_triangle(tmp_path, capsys):
    src = write(tmp_path, "c3.hg", "a b\nb c\na c\n")
    code, out, _ = run(capsys, "spectral", src)
    assert code == 0
    got = fields(out)
    assert abs(float(got["lambda"]) - 2.0) <= 1e-8
    assert got["bound"] == "2" and got["bound_satisfied"] == "true"
    assert int(got["iterations"]) >= 1
    assert float(got["residual"]) <= 1e-8


def test_spectral_worked_example_respects_bound(tmp_path, capsys):
    src = write(tmp_path, "ex.hg", EXAMPLE)
    code, out, _ = run(capsys, "spectral", src, "--tol", "1e-12")
    assert code == 0
    got = fields(out)
    assert float(got["lambda"]) <= 2 + 1e-6
    assert got["bound_satisfied"] == "true"


def test_spectral_bound_matches_tensor_degrees(tmp_path, capsys):
    for i, h in enumerate(corpus()):
        if h.range() < 2:
            continue
        text = "".join(" ".join(f"v{v}" for v in e) + "\n" for e in h.edges)
        code, out, _ = run(capsys, "spectral", write(tmp_path, f"h{i}.hg", text))
        assert code == 0
        want = spectral_bound(degrees_from_tensor(build_e_adjacency(h)))
        assert fields(out)["bound"] == str(want)


def test_spectral_rejects_order_1(tmp_path, capsys):
    src = write(tmp_path, "one.hg", "a\nb\n")
    code, out, err = run(capsys, "spectral", src)
    assert code == 1
    assert err == ("error=OrderTooSmall\n"
                   "detail=the eigensolver needs a tensor of order >= 2\n")


@pytest.mark.parametrize("k", [172, 180])
def test_spectral_edge_past_the_float_factorial_range(tmp_path, capsys, k):
    # (k-1)! overflows a float from k = 172, and 1/(k-1)! is 0.0 from k = 179
    wide = " ".join(f"v{i}" for i in range(1, k + 1))
    src = write(tmp_path, "wide.hg", f"{wide}\na b\n")
    code, out, err = run(capsys, "spectral", src)
    assert (code, err) == (0, "")
    report = fields(out)
    assert report["bound"] == "1" and report["bound_satisfied"] == "true"
    assert abs(float(report["lambda"]) - 1.0) <= 1e-8


def test_spectral_no_convergence_reports_bracket(tmp_path, capsys):
    src = write(tmp_path, "ex.hg", EXAMPLE)
    code, out, err = run(capsys, "spectral", src, "--tol", "0", "--max-iter", "3")
    assert code == 1
    assert "error=NoConvergence" in err
    assert "lambda_min=" in err and "lambda_max=" in err


def test_spectral_rejects_non_positive_max_iter(tmp_path, capsys):
    src = write(tmp_path, "ex.hg", EXAMPLE)
    for option, value in (("--max-iter", "0"), ("--tol", "-1"), ("--tol", "nan")):
        with pytest.raises(SystemExit) as exc:
            main(["spectral", src, option, value])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err


# --- reconstruct -------------------------------------------------------------


def test_build_reconstruct_roundtrip(tmp_path, capsys):
    src = write(tmp_path, "ex.hg", EXAMPLE)
    coo = tmp_path / "ex.coo"
    assert main(["build", str(src), "--output", str(coo)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "reconstruct", str(coo))
    assert code == 0
    assert sorted(out.splitlines()) == ["1", "1 2", "2 3 4"]


def test_build_reconstruct_past_the_int_str_digit_limit(tmp_path, capsys):
    # 1/(k-1)! at k = 1,602 has a 4,437-digit denominator, more than the
    # 4,300 digits str(int) and int(str) accept by default
    k = 1602
    src = write(tmp_path, "wide.hg", " ".join(f"v{i}" for i in range(1, k + 1)) + "\n")
    coo = tmp_path / "wide.coo"
    code, _, err = run(capsys, "build", src, "--output", str(coo))
    assert code == 0 and fields(err)["k_max"] == str(k)
    value = coo.read_text().split()[-1]
    digits = value.removeprefix("1/")
    q = 0
    for i in range(0, len(digits), 1000):  # int() takes up to 4,300 digits
        q = q * 10 ** len(digits[i : i + 1000]) + int(digits[i : i + 1000])
    assert len(digits) == 4437 and q == math.factorial(k - 1)
    code, out, _ = run(capsys, "reconstruct", str(coo))
    assert (code, out) == (0, " ".join(map(str, range(1, k + 1))) + "\n")


def test_reconstruct_malformed(tmp_path, capsys):
    coo = write(
        tmp_path,
        "bad.coo",
        "order=3 dim=6 n=4 format=canonical-coo\n5 6 6 1/2\n",
    )
    code, out, err = run(capsys, "reconstruct", coo)
    assert code == 1
    assert "error=ParseError" in err
    assert "detail=line 2: entry (5, 6, 6) holds no original vertex" in err

    # semantic errors name the file line of the first bad entry in
    # canonical order, past comments and blank lines
    header = "order=3 dim=6 n=4 format=canonical-coo\n# a comment\n"
    for body, detail in (
        ("1 2 6 1/2\n\n2 3 4 1/2\n1 5 6 1/3\n",
         "detail=line 6: entry (1, 5, 6) has value 1/3, expected 1/2\n"),
        ("2 3 4 1/2\n1 6 6 1/2\n1 2 6 1/2\n",
         "detail=line 4: entry (1, 6, 6) has special indices (6, 6), "
         "not the suffix (5, 6) for origin size 1\n"),
    ):
        code, out, err = run(capsys, "reconstruct", write(tmp_path, "bad.coo", header + body))
        assert code == 1 and out == ""
        assert err == "error=ParseError\n" + detail


def test_reconstruct_non_positive_header(tmp_path, capsys):
    coo = write(tmp_path, "zero.coo", "order=0 dim=0 n=0 format=canonical-coo\n")
    code, out, err = run(capsys, "reconstruct", coo)
    assert code == 1
    assert "error=ParseError" in err and "detail=line 1: " in err

    # sizes and indices past int64 are reported at their line, too
    huge = ("order=2 dim=100000000000000000000 n=99999999999999999999 "
            "format=canonical-coo\n")
    small = "order=2 dim=3 n=2 format=canonical-coo\n"
    for text, detail in (
        (huge, "line 1: dimension 100000000000000000000 exceeds the int64 index range"),
        (small + "1 100000000000000000000 1/1\n",
         "line 2: index 100000000000000000000 outside 1..3"),
    ):
        code, out, err = run(capsys, "reconstruct", write(tmp_path, "big.coo", text))
        assert (code, out) == (1, "")
        assert err == f"error=ParseError\ndetail={detail}\n"


def test_reconstruct_graph(tmp_path, capsys):
    coo = write(
        tmp_path,
        "graph.coo",
        "order=2 dim=4 n=3 format=canonical-coo\n1 2 1/1\n2 3 1/1\n",
    )
    code, out, _ = run(capsys, "reconstruct", coo)
    assert code == 0
    assert out.splitlines() == ["1 2", "2 3"]


def test_reconstruct_cost_does_not_grow_with_n(tmp_path, capsys):
    # reconstruct is O(nnz * k): a header with n near INT64_MAX and one row
    # prints at once, with no table over the n vertices
    n = 2**63 - 2
    coo = write(
        tmp_path,
        "huge_n.coo",
        f"order=2 dim={n + 1} n={n} format=canonical-coo\n1 2 1/1\n",
    )
    assert run(capsys, "reconstruct", coo) == (0, "1 2\n", "")


def test_reconstruct_inconsistent_header(tmp_path, capsys):
    # n is fixed by dim - order + 1, so a header that disagrees is a parse
    # error at its line; there is no option to override it
    coo = write(
        tmp_path,
        "graph.coo",
        "# hand-made\norder=2 dim=4 n=9 format=canonical-coo\n1 2 1/1\n",
    )
    code, out, err = run(capsys, "reconstruct", coo)
    assert (code, out) == (1, "")
    assert err == (
        "error=ParseError\n"
        "detail=line 2: dimension 4 incompatible with n=9 and order 2\n"
    )
    with pytest.raises(SystemExit):
        main(["reconstruct", coo, "--n", "3"])


@pytest.mark.parametrize(
    "command", ["build", "stats", "spectral", "reconstruct", "uniformise"]
)
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff1 2\n")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == "error=ParseError\ndetail=line 1: byte 0xff is not UTF-8\n"
    # a line separator before the bad byte does not end a line
    path.write_bytes("1 2\n\u2028\n".encode() + b"\xff\n")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == "error=ParseError\ndetail=line 3: byte 0xff is not UTF-8\n"


def test_non_utf8_stdin_names_its_line():
    proc = subprocess.run(
        [sys.executable, "-m", "hgtensor", "stats", "-"],
        input="v1\r\nv1 v2\n".encode() + "v\u00e9 ".encode() + b"\xc3(\n",
        capture_output=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 1
    assert proc.stderr.decode() == (
        "error=ParseError\ndetail=line 3: byte 0xc3 is not UTF-8\n"
    )
    assert b"Traceback" not in proc.stderr


# --- golden output ----------------------------------------------------------


EXAMPLE_COO = """\
order=3 dim=6 n=4 format=canonical-coo
# label 1 = v1
# label 2 = v2
# label 3 = v3
# label 4 = v4
1 2 6 1/2
1 5 6 1/2
2 3 4 1/2
"""


def test_readme_example_output_is_pinned(tmp_path, capsys):
    src = write(tmp_path, "ex.hg", EXAMPLE)
    assert run(capsys, "build", src) == (
        0, EXAMPLE_COO, "n=4\nk_max=3\nedges=3\ndim=6\nnnz=3\n")
    assert run(capsys, "stats", src) == (0, (
        "n=4\nk_max=3\nedges=3\ndim=6\nnnz=3\n"
        "d_v1=2\nd_v2=2\nd_v3=1\nd_v4=1\nd_y1=1\nd_y2=2\n"
        "layer_count_1=1\nlayer_count_2=1\nlayer_count_3=1\n"
        "degree_check=pass\nlayer_check=pass\nhandshake=pass\n"
        "Delta=2\nDeltaStar=2\nbound=2\n"), "")
    assert run(capsys, "spectral", src) == (0, (
        "lambda=1.6566253896185723\nbound=2\nbound_satisfied=true\n"
        "iterations=79\nresidual=1.777750169296155e-11\n"), "")
    coo = write(tmp_path, "ex.coo", EXAMPLE_COO)
    assert run(capsys, "reconstruct", coo) == (0, "1 2\n1\n2 3 4\n", "")
    assert run(capsys, "uniformise", src) == (0, (
        "v1 @y1 @y2 w=3/1\nv1 v2 @y2 w=3/2\nv2 v3 v4 w=1/1\n"), "")


# --- uniformise --------------------------------------------------------------


def test_uniformise_worked_example(tmp_path, capsys):
    src = write(tmp_path, "ex.hg", EXAMPLE)
    code, out, _ = run(capsys, "uniformise", src)
    assert code == 0
    assert out.splitlines() == [
        "v1 @y1 @y2 w=3/1",
        "v1 v2 @y2 w=3/2",
        "v2 v3 v4 w=1/1",
    ]


def test_uniformise_uniform_input(tmp_path, capsys):
    src = write(tmp_path, "uni.hg", "a b c\nb c d\n")
    code, out, _ = run(capsys, "uniformise", src)
    assert code == 0
    assert out.splitlines() == ["a b c w=1/1", "b c d w=1/1"]


def test_uniformise_empty(tmp_path, capsys):
    src = write(tmp_path, "empty.hg", "\n")
    code, out, err = run(capsys, "uniformise", src)
    assert (code, out) == (1, "")
    assert err == ("error=EmptyHypergraph\n"
                   "detail=range is undefined without hyperedges\n")


# --- plumbing ----------------------------------------------------------------


def test_stdin_input():
    proc = subprocess.run(
        [sys.executable, "-m", "hgtensor", "stats", "-"],
        input=EXAMPLE,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "bound=2" in proc.stdout


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "hgtensor", "--help"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    for name in ("build", "stats", "spectral", "reconstruct", "uniformise"):
        assert name in proc.stdout


def test_closed_output_pipe_ends_quietly(tmp_path):
    # 10^4 pair edges give about 220 KB of degree lines, more than a pipe
    # holds, so the writer still has output when the reader goes away.
    pairs = "".join(f"v{2 * i - 1} v{2 * i}\n" for i in range(1, 10_001))
    src = write(tmp_path, "pairs.hg", pairs)
    with subprocess.Popen(
        [sys.executable, "-m", "hgtensor", "stats", src],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    ) as proc:
        assert proc.stdout.readline() == b"n=20000\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141  # 128 + SIGPIPE, as `head` expects
    assert err == b""  # no error= lines, no "Exception ignored" at exit
