"""CLI subcommands, exercised in-process through main()."""

from __future__ import annotations

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
        want = spectral_bound(degrees_from_tensor(build_e_adjacency(h), h.n))
        assert fields(out)["bound"] == str(want)


def test_spectral_rejects_order_1(tmp_path, capsys):
    src = write(tmp_path, "one.hg", "a\nb\n")
    code, out, err = run(capsys, "spectral", src)
    assert code == 1
    assert "error=OrderTooSmall" in err


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


def test_reconstruct_malformed(tmp_path, capsys):
    coo = write(
        tmp_path,
        "bad.coo",
        "order=3 dim=6 n=4 format=canonical-coo\n5 6 6 1/2\n",
    )
    code, out, err = run(capsys, "reconstruct", coo)
    assert code == 1
    assert "error=MalformedTensor" in err


def test_reconstruct_non_positive_header(tmp_path, capsys):
    coo = write(tmp_path, "zero.coo", "order=0 dim=0 n=0 format=canonical-coo\n")
    code, out, err = run(capsys, "reconstruct", coo)
    assert code == 1
    assert "error=ParseError" in err and "detail=line 1: " in err


def test_reconstruct_graph(tmp_path, capsys):
    coo = write(
        tmp_path,
        "graph.coo",
        "order=2 dim=4 n=3 format=canonical-coo\n1 2 1/1\n2 3 1/1\n",
    )
    code, out, _ = run(capsys, "reconstruct", coo)
    assert code == 0
    assert out.splitlines() == ["1 2", "2 3"]


def test_reconstruct_n_flag_overrides_header(tmp_path, capsys):
    coo = write(
        tmp_path,
        "graph.coo",
        "order=2 dim=4 n=3 format=canonical-coo\n1 2 1/1\n",
    )
    code, out, err = run(capsys, "reconstruct", coo, "--n", "2")
    assert code == 1  # dim 4 is inconsistent with n=2 at order 2
    assert "error=MalformedTensor" in err


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
    assert code == 1 and "error=EmptyHypergraph" in err


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
