import csv
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from eucdyn import cli
from eucdyn.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_MATH,
    main,
    parse_grid,
    parse_rational,
)
from eucdyn.coding import code_qpoint
from eucdyn.partition import Partition
from eucdyn.torus import PointXY


def test_parse_rational():
    assert parse_rational("3/20") == Fraction(3, 20)
    assert parse_rational("0.15") == Fraction(3, 20)
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_parse_grid():
    assert parse_grid("0.10:0.25:0.005") == (
        Fraction(1, 10),
        Fraction(1, 4),
        Fraction(1, 200),
    )
    with pytest.raises(ValueError):
        parse_grid("1:2")


def test_curve_row_count_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["curve", "--D", "5", "--n", "1", "--t", "0.10:0.25:0.005"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    rows1 = out1.read_text().splitlines()
    assert len(rows1) == 32  # header + 31 grid values
    assert out1.read_text() == out2.read_text()
    manifest = json.loads((tmp_path / "a.json").read_text())
    assert manifest["D"] == 5 and manifest["grid"]["size"] == 31


def test_curve_d3_n3_matches_reference(tmp_path):
    # D=3 level 3 has 21,728 cells, beyond the benchmark configs; the
    # float columns depend on the power iteration's summation order, so
    # they are compared to 1e-12 relative and the exact ones byte for byte
    out = tmp_path / "c.csv"
    assert main(["curve", "--D", "3", "--n", "3", "--out", str(out)]) == 0
    ref_text = (Path(__file__).parent / "data" / "curve_D3_n3.csv").read_text()
    ref = list(csv.reader(ref_text.splitlines()))
    got = list(csv.reader(out.read_text().splitlines()))
    assert len(got) == len(ref) == 32 and got[0] == ref[0]
    for r, g in zip(ref[1:], got[1:]):
        assert g[:5] + g[7:] == r[:5] + r[7:]  # t_num .. alphabet_size, empty_flag
        for k in (5, 6):  # entropy, dim_upper
            assert math.isclose(float(g[k]), float(r[k]), rel_tol=1e-12)


def test_curve_rejects_non_squarefree(tmp_path, capsys):
    rc = main(["curve", "--D", "4", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    assert "square-free" in capsys.readouterr().err


def test_curve_io_failure(tmp_path):
    rc = main(
        ["curve", "--D", "5", "--n", "1", "--t", "0.2:0.21:0.01",
         "--out", str(tmp_path / "missing" / "x.csv")]
    )
    assert rc == EXIT_IO


def test_curve_rejects_empty_grid(tmp_path):
    rc = main(["curve", "--D", "5", "--t", "0.3:0.2:0.01", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("grid", ["-1/10:1/4:1/20", "0:1/4:1/20"])
def test_curve_rejects_nonpositive_threshold(tmp_path, capsys, grid):
    out = tmp_path / "x.csv"
    rc = main(["curve", "--D", "5", "--n", "1", f"--t={grid}", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["curve", "ik-dump"])
def test_rejects_negative_i_extra(tmp_path, capsys, command):
    out = tmp_path / "x.out"
    rc = main([command, "--D", "5", "--i-extra", "-3", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_minima_table(capsys):
    assert main(["minima", "--D", "5", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert "1/4" in out and "1/5" in out and "19/121" in out


def test_minima_wrong_field(capsys):
    assert main(["minima", "--D", "7"]) == EXIT_CONFIG
    assert "D=5" in capsys.readouterr().err


def test_verify_passes(capsys):
    assert main(["verify", "--D", "5", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_d13(capsys):
    assert main(["verify", "--D", "13", "--n", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("D", [2, 3, 5, 13])
def test_verify_lines_match_reference(capsys, D):
    # the reference check lines, ms field stripped, were written before
    # soundness was checked once per orbit, cells were found down the
    # refinement chain and refined levels were checked edge by edge; none
    # may change a line
    assert main(["verify", "--D", str(D), "--n", "2"]) == 0
    got = [
        re.sub(r" +\d+\.\d ms  ", "  ", line).rstrip()
        for line in capsys.readouterr().out.splitlines()
    ]
    ref = (Path(__file__).parent / "data" / f"verify_D{D}_n2.txt").read_text()
    assert got == ref.splitlines()


def test_verify_soundness_checks_every_orbit(capsys, monkeypatch, parts2):
    # negative control: ban exactly the cells coding the one nonzero
    # denominator-3 orbit of D=2, found on a parentless copy that tests
    # every cell; the orbit is the last one the check visits
    part = parts2[2]
    flat = Partition(part.ctx, 2, part.rects, base=part.base)
    p = PointXY(Fraction(0), Fraction(1, 3))
    banned = sorted({s for sp in code_qpoint(flat, p) for s in sp.right_loop})
    monkeypatch.setattr(cli.trapping, "trapped", lambda thresholds, t: banned)
    assert main(["verify", "--D", "2", "--n", "2"]) == EXIT_MATH
    out = capsys.readouterr().out
    assert "FAIL  trapping soundness" in out
    assert f"trapped word in coding of {p}" in out


def test_verify_perturbed_fails(capsys):
    assert main(["verify", "--D", "5", "--perturb"]) == EXIT_MATH
    out = capsys.readouterr().out
    assert "FAIL" in out and "pair" in out


def test_partition_dump(tmp_path):
    out = tmp_path / "p.json"
    assert main(["partition-dump", "--D", "5", "--n", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["level"] == 1 and len(doc["rectangles"]) == 5


def test_ik_dump(tmp_path):
    out = tmp_path / "ik.json"
    assert main(["ik-dump", "--D", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == len(doc["points"]) > 0
    assert any(p["x"] == [0, 1] and p["y"] == [0, 1] for p in doc["points"])


def test_verify_m1_bound_too_small(capsys):
    # M(0, 1/2) = 1/4 for D=5, so a bound of 1/100 cannot size the search
    rc = main(["verify", "--D", "5", "--n", "1", "--m1-bound", "1/100"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: search for M(P)")
    assert "bound is too small" in err and "Traceback" not in err
