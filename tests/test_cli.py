import json
import math
import subprocess
import sys

import numpy as np
import pytest

from tensorspectra.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_density_csv(capsys):
    code, out = run_cli(["density", "--p", "3", "--grid", "51"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# tensorspectra")
    assert lines[1].startswith("# config:")
    assert lines[2] == "y,rho"
    assert len(lines) == 3 + 51
    edge = 3 ** 1.5 / 2
    first = lines[3].split(",")
    assert float(first[0]) == pytest.approx(-edge)
    assert float(first[1]) == 0.0


def test_moments_match(capsys):
    code, out = run_cli(["moments", "--p", "2", "--nmax", "4"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[3:]]
    catalans = [1, 1, 2, 5, 14]
    for row, expected in zip(rows, catalans):
        assert int(row[2]) == expected
        assert float(row[3]) < 1e-6


def test_resolvent_points(capsys):
    code, out = run_cli(["resolvent", "--p", "2", "--w", "3", "--w", "2.8+0.5j"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[3:]]
    assert float(rows[0][2]) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
    assert float(rows[1][1]) == 0.5


def test_maps_json(capsys):
    code, out = run_cli(["maps", "--p", "3", "--n", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["version"]
    assert len(payload["data"]) == 5
    for item in payload["data"]:
        assert set(item) == {"p", "n", "half_edges", "successor", "pairing", "root"}


def test_invariants_exact_and_mc(capsys):
    code, out = run_cli(
        ["invariants", "--p", "3", "--N", "8", "--n", "2", "--samples", "200", "--seed", "5"],
        capsys,
    )
    assert code == 0
    row = out.strip().splitlines()[3].split(",")
    assert row[3] == "15/8"
    mean, err = float(row[5]), float(row[6])
    assert abs(mean - 1.875) < 6 * err


def test_sample_eigen_round_trip(tmp_path, capsys):
    path = str(tmp_path / "t.tsp")
    code, out = run_cli(["sample", "--p", "3", "--N", "4", "--seed", "7", "--output", path], capsys)
    assert code == 0
    meta = json.loads(out)
    assert meta["path"] == path

    code, out = run_cli(["eigen", "--input", path, "--starts", "60", "--seed", "1"], capsys)
    assert code == 0
    data = json.loads(out)["data"]
    assert data
    for rec in data:
        assert set(rec) == {"lambda", "x", "residual", "degenerate"}
        assert rec["residual"] < 1e-9


def _bad_tensor_files(tmp_path):
    good = tmp_path / "good.tsp"
    assert main(["sample", "--p", "3", "--N", "4", "--seed", "7", "--output", str(good)]) == 0
    blob = good.read_bytes()
    header, data = blob.split(b"\n", 1)
    files = {
        "missing": tmp_path / "missing.tsp",
        "not_a_tensor": tmp_path / "notes.txt",
        "truncated": tmp_path / "truncated.tsp",
        "header_mismatch": tmp_path / "mismatch.tsp",
    }
    files["not_a_tensor"].write_text("p,N\n3,4\n")
    files["truncated"].write_bytes(blob[:-3])
    files["header_mismatch"].write_bytes(header.replace(b'"N": 4', b'"N": 5') + b"\n" + data)
    return files


@pytest.mark.parametrize("case", ["missing", "not_a_tensor", "truncated", "header_mismatch"])
def test_eigen_input_rejects_bad_files(tmp_path, capsys, case):
    path = _bad_tensor_files(tmp_path)[case]
    capsys.readouterr()
    code = main(["eigen", "--input", str(path), "--starts", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("validation error:")


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
def test_eigen_rejects_bad_tol(capsys, tol):
    code = main(["eigen", "--tol", tol, "--starts", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "tol" in captured.err


def test_spike_sweep_shows_jump(capsys):
    code, out = run_cli(
        ["spike", "--p", "3", "--b-sweep", "2.5:3.1:0.05"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[3:]]
    bs = [float(r[1]) for r in rows]
    ycs = [float(r[2]) for r in rows]
    b_t = math.sqrt(8)
    below = [y for b, y in zip(bs, ycs) if b < b_t - 0.01]
    above = [y for b, y in zip(bs, ycs) if b > b_t + 0.01]
    assert all(abs(y - math.sqrt(27 / 4)) < 1e-9 for y in below)
    assert all(y > 3**1.5 - 1e-9 for y in above)


def test_annealed_subcommand(capsys):
    code, out = run_cli(["annealed", "--p", "3", "--w", "5", "--N", "100,200"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[3:]]
    assert rows[0][3] == "saddle"
    errs = [float(r[6]) for r in rows[1:]]
    assert errs[0] > errs[1] > 0


def test_borel_json(capsys):
    code, out = run_cli(
        ["borel", "--p", "4", "--g", "0.1", "--q", "0", "--format", "json"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)["data"][0]
    assert rec["ratio"] == pytest.approx(0.9445, abs=2e-3)
    assert rec["instanton_im"] == pytest.approx(2 / math.sqrt(2) * math.exp(-2.5), rel=1e-9)


def test_byte_identical_reruns(capsys):
    argv = ["invariants", "--p", "3", "--N", "6", "--n", "2", "--samples", "50", "--seed", "3"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second


def test_validation_exit_code(capsys):
    code = main(["moments", "--p", "1"])
    capsys.readouterr()
    assert code == 2


def test_numerical_exit_code(capsys):
    # w on the spectral cut: numerical failure channel
    code = main(["resolvent", "--p", "3", "--w", "1.0"])
    capsys.readouterr()
    assert code == 3


def test_usage_error_names_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "tensorspectra.cli", "density", "--grid", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "--p" in proc.stderr


def test_schema_covers_all_subcommands():
    from tensorspectra.cli import _schema, build_parser

    schema = _schema()
    sub = {
        "density", "moments", "resolvent", "maps", "invariants",
        "sample", "eigen", "spike", "annealed", "borel",
    }
    assert set(schema) == sub
    # and --help epilogs carry the column docs
    parser = build_parser()
    assert parser._subparsers is not None
