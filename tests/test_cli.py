import ast
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tensorspectra import cli
from tensorspectra.annealed import spike_threshold
from tensorspectra.cli import _schema, main
from tensorspectra.fuss_catalan import support_edge
from tensorspectra.tensors import load_tensor


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def exit_code(argv):
    """The process exit code main(argv) gives, argparse's usage errors included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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


def test_eigen_p2_returns_every_class(capsys):
    code, out = run_cli(["eigen", "--p", "2", "--N", "16", "--starts", "40", "--seed", "3"], capsys)
    assert code == 0
    data = json.loads(out)["data"]
    assert len(data) == 16
    assert all(rec["residual"] <= 1e-10 for rec in data)


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


def test_spike_p6_branch_point_rounding(capsys):
    # theta_1 at this p = 6 probe lies next to the branch point v_c of its
    # curve, the end of the search interval: the row must exit 0 with a
    # finite locus and an f1 value
    code, out = run_cli(["spike", "--p", "6", "--b", "9.5"], capsys)
    assert code == 0
    row = out.strip().splitlines()[3].split(",")
    assert math.isfinite(float(row[2])) and float(row[2]) > 6**3
    assert row[7] != ""  # theta_1 found just inside the locus


@pytest.mark.parametrize(
    "argv",
    [
        ["resolvent", "--p", "3", "--w", "abc"],
        ["annealed", "--p", "3", "--w", "x"],
        ["annealed", "--p", "3", "--w", "5", "--N", "5,"],
        ["borel", "--p", "3"],
        ["moments", "--p", "3", "--nmax", "-1"],
        ["density", "--p", "3", "--grid", "0"],
        ["density", "--p", "3", "--grid", "-5"],
        ["invariants", "--p", "3", "--N", "4", "--n", "2", "--samples", "-1"],
        ["spike", "--p", "3", "--b-sweep", "1:0:0.1"],
        ["borel", "--p", "3", "--g-sweep", "1:0:0.1"],
        ["spike", "--p", "3", "--b", "nan"],
        ["spike", "--p", "3", "--b", "inf"],
        ["spike", "--p", "3", "--b-sweep", "0:nan:0.1"],
        ["spike", "--p", "3", "--b-sweep", "0:1:1e-300"],
    ],
)
def test_invalid_input_exits_2_without_output(capsys, argv):
    assert exit_code(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["resolvent", "--p", "3", "--w", "1e-300j"],  # w^2 underflows to 0
        ["borel", "--p", "3", "--g", "1e-300"],
    ],
)
def test_arithmetic_error_exits_3(capsys, argv):
    assert exit_code(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure:")


def test_density_large_p_has_no_interior_zero(capsys):
    code, out = run_cli(["density", "--p", "150", "--grid", "41"], capsys)
    assert code == 0
    rho = [float(line.split(",")[1]) for line in out.strip().splitlines()[3:]]
    assert rho[0] == rho[-1] == 0.0
    assert all(r > 0 for r in rho[1:-1])


@pytest.mark.parametrize("p", [256, 289, 1000, 5000])
def test_density_at_large_p_exits_0(capsys, p):
    code, out = run_cli(["density", "--p", str(p), "--grid", "7"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[3:]]
    assert len(rows) == 7
    assert float(rows[-1][0]) == pytest.approx(math.sqrt(math.e * p), rel=0.1)


def test_moments_large_p_finishes_fast(capsys):
    # a first run pays, once per process, for the parser and the cold
    # Gauss-Legendre nodes up to order 1024; the bound is on the second run
    argv = ["moments", "--p", "1000", "--nmax", "8"]
    exit_code(argv)
    capsys.readouterr()
    t0 = time.perf_counter()
    code = exit_code(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    # F_1000(8) ~ 5e22 is beyond the absolute tolerance: exit 3 is the contract
    assert code in (0, 3) and (captured.out != "") == (code == 0)
    assert elapsed < 1.0


# One cheap, valid invocation per subcommand.
CHEAP_ARGV = {
    "density": ["density", "--p", "3", "--grid", "5"],
    "moments": ["moments", "--p", "2", "--nmax", "2"],
    "resolvent": ["resolvent", "--p", "3", "--w", "4"],
    "maps": ["maps", "--p", "3", "--n", "2"],
    "invariants": ["invariants", "--p", "3", "--N", "4", "--n", "2"],
    "sample": ["sample", "--p", "3", "--N", "3"],
    "eigen": ["eigen", "--p", "3", "--N", "3", "--starts", "4"],
    "spike": ["spike", "--p", "3", "--b", "1"],
    "annealed": ["annealed", "--p", "3", "--w", "5"],
    "borel": ["borel", "--p", "3", "--g", "0.1"],
}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["density", "--p", "3", "--method", "hypergeometric"], id="density-method"),
        pytest.param(["spike", "--p", "3", "--b", "1", "--threads", "2"], id="spike-threads"),
    ]
    + [
        pytest.param(CHEAP_ARGV[name] + ["--format", "json"], id=f"{name}-format")
        for name in sorted(CHEAP_ARGV)
        if name != "borel"
    ],
)
def test_removed_flag_exits_2(tmp_path, capsys, argv):
    # --output keeps every argv valid without the removed flag (sample needs it)
    assert exit_code(argv + ["--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("p", [256, 300, 1000])
def test_spike_below_threshold_at_large_p_exits_0(capsys, p):
    # b_t(p) is in the hundreds here; only the locus at b_t overflows a float
    code, out = run_cli(["spike", "--p", str(p), "--b", "5"], capsys)
    assert code == 0
    row = out.strip().splitlines()[3].split(",")
    assert float(row[2]) == pytest.approx(support_edge(p), rel=1e-12)


@pytest.mark.parametrize("p, b_over_bt", [(68, 1000.0), (103, 10.0), (150, 2.0)])
def test_spike_above_threshold_at_large_p_exits_0(capsys, p, b_over_bt):
    # |w|^2 at the probe overflows a float here while y_c does not
    b = b_over_bt * spike_threshold(p).b_t
    code, out = run_cli(["spike", "--p", str(p), "--b", repr(b)], capsys)
    assert code == 0
    y_c = float(out.strip().splitlines()[3].split(",")[2])
    assert math.isfinite(y_c) and y_c >= support_edge(p)


JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    st.sampled_from(["0", "-0", "1e-320", "1e308", "nan", "inf", "-inf", "1j", "2+1e-300j"]),
    st.text(max_size=8),
)
TOKENS = st.one_of(JUNK, st.integers(-10**6, 10**6).map(str))


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


def counts(lo, hi):
    """Integer flag values in [lo, hi], or values that are not integers at all."""
    return st.one_of(st.integers(lo, hi).map(str), JUNK.filter(_not_an_int))


# start:stop:step with at most ~40 points when well formed, or a malformed spec
SWEEPS = st.one_of(
    TOKENS,
    st.tuples(
        st.one_of(st.integers(-5, 15).map(str), TOKENS),
        st.one_of(st.integers(-5, 15).map(str), TOKENS),
        st.sampled_from(["0.5", "1", "7", "0", "-1", "nan", "inf", "1e-300", "x"]),
    ).map(":".join),
)


@st.composite
def cheap_invocations(draw):
    command = draw(st.sampled_from(["resolvent", "moments", "density", "spike", "borel"]))
    # density, moments and spike hold at every p; the others stay at small p
    # to keep the test fast.
    top = 1000 if command in ("moments", "density", "spike") else 9
    argv = [command, "--p", draw(counts(-2, top))]
    if command == "resolvent":
        for token in draw(st.lists(TOKENS, min_size=1, max_size=3)):
            argv.append(f"--w={token}")
    elif command == "moments":
        argv.append(f"--nmax={draw(counts(-3, 8))}")
    elif command == "density":
        argv.append(f"--grid={draw(counts(-3, 50))}")
    else:
        name = "b" if command == "spike" else "g"
        if draw(st.booleans()):
            argv.append(f"--{name}={draw(TOKENS)}")
        if draw(st.booleans()):
            argv.append(f"--{name}-sweep={draw(SWEEPS)}")
        if command == "borel" and draw(st.booleans()):
            argv.append(f"--q={draw(counts(-1, 4))}")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cheap_invocations())
def test_every_invocation_exits_0_2_or_3(capsys, argv):
    code = exit_code(argv)
    out = capsys.readouterr().out
    assert code in (0, 2, 3)
    assert (out != "") == (code == 0)


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
    schema = _schema()
    sub = {
        "density", "moments", "resolvent", "maps", "invariants",
        "sample", "eigen", "spike", "annealed", "borel",
    }
    assert set(schema) == sub


@pytest.mark.parametrize("name", sorted(CHEAP_ARGV))
def test_output_matches_schema_format(tmp_path, capsys, name):
    entry = _schema()[name]
    argv = list(CHEAP_ARGV[name])
    if entry["format"] == "binary":
        path = tmp_path / "t.bin"
        code, out = run_cli(argv + ["--output", str(path)], capsys)
        assert code == 0
        assert load_tensor(str(path)).p == 3
        config = json.loads(out)["meta"]["config"]
    elif entry["format"] == "json":
        code, out = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "data"}
        config = payload["meta"]["config"]
    else:
        assert entry["format"] == "csv"
        code, out = run_cli(argv, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# tensorspectra ")
        assert lines[1].startswith("# config: ")
        assert lines[2] == ",".join(entry["columns"])
        config = json.loads(lines[1].removeprefix("# config: "))
    # only borel has a choice of format, so only its config echoes one
    assert ("format" in config) == (name == "borel")


# ----------------------------------------------------- one parser per process

def fresh_processes(argvs, env):
    """(exit code, stdout, stderr) of each argv, each run in a new interpreter."""
    procs = [
        subprocess.Popen([sys.executable, "-m", "tensorspectra.cli", *argv], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for argv in argvs
    ]
    results = []
    for proc in procs:
        out, err = proc.communicate()
        results.append((proc.returncode, out.decode(), err.decode()))
    return results


def in_process(argv, capsys):
    """(exit code, stdout, stderr) of main(argv) in this interpreter."""
    code = exit_code(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


REUSE_SEQUENCE = [
    ["resolvent", "--p", "3", "--w", "4", "--w", "5"],
    ["resolvent", "--p", "3", "--w", "4", "--output", "resolvent.csv"],
    ["density", "--grid", "10"],  # usage error: --p is missing
    ["eigen", "--p", "3", "--N", "3", "--starts", "4", "--output", "eigen.json"],
    ["spike", "--p", "3", "--b", "4"],
    ["borel", "--p", "3", "--g", "0.1", "--format", "json"],
    ["density", "--p", "3", "--grid", "5", "--output", "density.csv"],
]


def test_reused_parser_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    # relative --output paths keep the config echo equal across the two outdirs
    monkeypatch.setenv("COLUMNS", "80")
    (tmp_path / "warm").mkdir()
    (tmp_path / "cold").mkdir()
    monkeypatch.setenv("TENSORSPECTRA_OUTDIR", str(tmp_path / "warm"))
    warm = [in_process(argv, capsys) for argv in REUSE_SEQUENCE]
    cold_env = dict(os.environ, TENSORSPECTRA_OUTDIR=str(tmp_path / "cold"))
    cold = fresh_processes(REUSE_SEQUENCE, cold_env)
    assert [code for code, _, _ in warm] == [0, 0, 2, 0, 0, 0, 0]
    assert warm == cold
    files = sorted(path.name for path in (tmp_path / "cold").iterdir())
    assert files == ["density.csv", "eigen.json", "resolvent.csv"]
    for name in files:
        assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()
    # the second resolvent call starts from a fresh --w list
    lines = (tmp_path / "warm" / "resolvent.csv").read_text().splitlines()
    assert json.loads(lines[1].removeprefix("# config: "))["w"] == ["4"]
    assert len(lines) == 4 and lines[3].startswith("4,0,")


def test_help_of_reused_parser_matches_fresh_processes(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [[name, "--help"] for name in sorted(CHEAP_ARGV)]
    narrow = fresh_processes(argvs, dict(os.environ))
    for argv, expected in zip(argvs, narrow):
        assert expected[0] == 0 and expected[1]
        assert in_process(argv, capsys) == expected
        assert in_process(argv, capsys) == expected
    # the help width is read when help is formatted, not when the parser is built
    monkeypatch.setenv("COLUMNS", "120")
    (wide,) = fresh_processes(argvs[:1], dict(os.environ))
    assert wide != narrow[0]
    assert in_process(argvs[0], capsys) == wide


IMPORT_PROBE = """
import json, sys
from tensorspectra import cli
heavy = lambda: sorted(m for m in ("scipy", "mpmath") if m in sys.modules)
print(heavy())
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(heavy())
"""


def test_cli_import_leaves_scipy_and_mpmath_unloaded(tmp_path):
    # a fresh interpreter: the test modules themselves import scipy
    argvs = [
        ["maps", "--p", "3", "--n", "2"],
        ["invariants", "--p", "3", "--N", "4", "--n", "2", "--samples", "2"],
        ["sample", "--p", "3", "--N", "4", "--output", str(tmp_path / "t.bin")],
        ["eigen", "--p", "3", "--N", "4", "--starts", "4"],
        ["spike", "--p", "3", "--b", "4"],  # above b_t: both root searches run
        ["spike", "--p", "4", "--b-sweep", "0:15:0.5"],
        ["annealed", "--p", "3", "--w", "5", "--N", "400"],
        ["resolvent", "--p", "3", "--w", "4"],
        ["density", "--p", "3", "--grid", "50"],
        ["moments", "--p", "3", "--nmax", "4"],
        ["borel", "--p", "3", "--g-sweep", "0.02:0.1:0.01"],
        ["borel", "--p", "3", "--g", "0.003"],  # the thimble route
    ]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(argvs)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"  # after the import
    assert lines[-1] == "[]"  # after every subcommand


def test_runtime_dependencies_are_the_third_party_imports_of_src():
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parents[1]
    imported = set()
    for path in (root / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"tensorspectra"}
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = lambda specs: {re.split(r"[<>=!~;\[ ]", spec, maxsplit=1)[0] for spec in specs}
    assert names(project["dependencies"]) == third_party
    assert "mpmath" in names(project["optional-dependencies"]["test"])  # the tests' references


WARNING_PROBE = """
import contextlib, io, json, sys, warnings
warnings.simplefilter("error")
from tensorspectra import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps(codes))
"""


def test_no_warning_reaches_the_cli(tmp_path):
    # every subcommand once, in a fresh interpreter that turns any warning
    # into an exception; the last is an eigen run where no start converges
    argvs = [CHEAP_ARGV[name] for name in sorted(CHEAP_ARGV) if name != "sample"]
    argvs.append(CHEAP_ARGV["sample"] + ["--output", str(tmp_path / "t.bin")])
    argvs.append(["eigen", "--p", "3", "--N", "48", "--starts", "8", "--seed", "0"])
    proc = subprocess.run(
        [sys.executable, "-c", WARNING_PROBE, json.dumps(argvs)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    assert all(code in (0, 2, 3) for code in codes), codes
    assert codes[-1] == 3
