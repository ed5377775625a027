"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import Runner, _import_cli  # noqa: E402

CLI, _ = _import_cli()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_job_stream_is_deterministic_given_the_seed(workload):
    first = [workloads.cycle(workload, 7, i) for i in range(3)]
    assert first == [workloads.cycle(workload, 7, i) for i in range(3)]
    assert first[0] != workloads.cycle(workload, 8, 0)
    # every cycle holds every config once, whatever the order and seeded values
    kinds = [sorted(job.kind for job in jobs) for jobs in first]
    assert kinds[0] == kinds[1] == kinds[2]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_minimal_run_passes_every_oracle_check(workload, tmp_path):
    runner = Runner(CLI, workload, 3, str(tmp_path))
    runner.warmup()
    for job in workloads.cycle(workload, 3, 0):
        _, records = runner.run_checked(job)
        assert records, job
    runner.finish()
    assert runner.failures == []


def test_traced_outputs_are_byte_identical(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        runner = Runner(CLI, "eigen", 5, str(tmp_path), tracer)
        listed = runner.traced_list(1)
    finally:
        tracer.remove()
    assert listed["differ"] == [] and listed["failed"] == 0
    calls = tracer.per_function()
    assert calls["cli.main"][0] == listed["jobs"]
    assert calls["eigenpairs.find_real_eigenpairs"][0] > 0
    assert calls["tensors.load_tensor"][0] == 1
    assert getattr(CLI.main, "__wrapped__", None) is None  # originals restored


def _output(tmp_path, argv):
    out = tmp_path / "out"
    assert CLI.main([*argv, "--output", str(out)]) == 0
    return out.read_text()


def test_oracles_reject_corrupted_outputs(tmp_path):
    checker = oracles.Checker(0)
    density = workloads.Job("density", ("density", "--p", "3", "--grid", "400"), {"p": 3, "grid": 400})
    text = _output(tmp_path, density.argv)
    assert checker.job(density, text.encode(), "", "") == 400
    lines = text.splitlines()
    y, rho = lines[3 + 25].split(",")
    lines[3 + 25] = f"{y},{float(rho) * (1 + 1e-8)!r}"
    with pytest.raises(oracles.CheckFailed):
        checker.job(density, "\n".join(lines).encode(), "", "")

    eigen = workloads.Job("eigen", ("eigen", "--p", "3", "--N", "8", "--starts", "20", "--seed", "1"),
                          {"p": 3, "N": 8, "starts": 20, "seed": 1})
    payload = json.loads(_output(tmp_path, eigen.argv))
    assert checker.job(eigen, json.dumps(payload).encode(), "", "") == len(payload["data"])
    payload["data"][0]["lambda"] += 1e-6
    with pytest.raises(oracles.CheckFailed):
        checker.job(eigen, json.dumps(payload).encode(), "", "")


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analytic",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in bench[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analytic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_command_runs_with_many_inherited_descriptors(tmp_path):
    """A caller that leaks descriptors must not push the worker pipes past select's limit."""
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("open-file limit too low to inherit 1100 descriptors")
    fds = [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analytic",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=180,
                              pass_fds=fds)
    finally:
        for fd in fds:
            os.close(fd)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
