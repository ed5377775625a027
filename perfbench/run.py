"""tensorspectra benchmark: closed-loop CLI workloads, cold set-up, traced layers.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {analytic,ensemble,eigen} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` measures set-up time over several cold workers (median), then
runs the timed closed loop in the last one and reports the end-to-end
metrics.  ``--trace 1`` runs one worker whose calls into each library
module are timed from outside, and reports the per-layer metrics.  Every
job output is checked by an oracle; the last stdout line is one JSON
object {correct, attempted, failed, metrics}, and the exit code is nonzero
when any check failed.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Cold workers per --trace 0 run; set-up time is their median.
SETUPS = 3
# Every run ends within this many seconds, or is killed and fails.
DEADLINE_S = 170
# Wall seconds kept back from the deadline for what follows the timed loop
# (the eigen defect probe, run-end checks, the result line).
AFTER_LOOP_S = 30
# Host speed every time is scaled to: `worker.calibrate` takes about this
# long on the measuring host at its typical speed (NOTES.md, Noise).
CALIB_REF_S = 0.003
# Jobs on each side whose calibration times give a job's host speed.
CALIB_WINDOW = 4
# One thread per BLAS library: the client is single-threaded by design.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _percentile(values, q):
    """Linear-interpolated percentile of a non-empty list (numpy's default rule)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def machine_facts(args) -> dict:
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "cpu": "unknown", "blas_env": BLAS_ENV, "workload": args.workload,
             "seed": args.seed, "git_commit": "unknown (not a git checkout)"}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():  # read the commit without a git binary or leaving the checkout
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                ref = ref_file.read_text().strip()
            elif packed.is_file():
                ref = next((ln.split()[0] for ln in packed.read_text().splitlines()
                            if ln.endswith(" " + ref[5:])), ref)
        facts["git_commit"] = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    facts["source_sha256"] = digest.hexdigest()[:16]
    return facts


class Worker:
    """One worker process and its line protocol."""

    def __init__(self, args, tmp: str, log):
        env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tmp", tmp]
        self.deadline = args.deadline
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=log, text=True)

    def read(self, kind: str) -> dict:
        remaining = self.deadline - time.monotonic()
        # poll, not select: a caller may pass down so many open descriptors
        # that the pipe's number exceeds select's FD_SETSIZE
        poller = select.poll()
        poller.register(self.proc.stdout, select.POLLIN)
        ready = poller.poll(1e3 * max(remaining, 0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError(f"worker gave no {kind!r} line (exit {self.proc.poll()})")
        return json.loads(line)[kind]

    def send(self, command: str):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self, kill: bool = False):
        """Stops the process (at once if `kill`) and waits until it has ended."""
        if not kill:
            try:
                self.proc.stdin.close()  # a waiting worker exits on end of input
                self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1))
            except (subprocess.TimeoutExpired, BrokenPipeError):
                kill = True
        if kill:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def spawn_ready(args, tmp, log) -> tuple[Worker, float, dict]:
    """A cold worker through import and warm-up.

    Set-up seconds exclude the worker's checks and calibrations and are
    scaled to the reference host speed.
    """
    t0 = time.perf_counter()
    worker = Worker(args, tmp, log)
    try:
        ready = worker.read("ready")
    except BaseException:
        worker.close(kill=True)
        raise
    setup_s = (time.perf_counter() - t0 - ready["untimed_s"]) * CALIB_REF_S / ready["calib_s"]
    return worker, setup_s, ready


def run_worker(worker: Worker) -> dict:
    try:
        worker.send(f"run {max(worker.deadline - time.monotonic() - AFTER_LOOP_S, 0):.1f}")
        result = worker.read("result")
    except BaseException:
        worker.close(kill=True)
        raise
    worker.close()
    return result


def measure(args, tmp, log) -> tuple[dict, dict]:
    if args.trace:
        worker, setup_s, ready = spawn_ready(args, tmp, log)
        return run_worker(worker), {"setup_s": [setup_s], "ready": ready}
    setups = []
    for _ in range(SETUPS - 1):
        worker, setup_s, _ = spawn_ready(args, tmp, log)
        setups.append(setup_s)
        worker.close()
    worker, setup_s, ready = spawn_ready(args, tmp, log)
    setups.append(setup_s)
    return run_worker(worker), {"setup_s": setups, "ready": ready}


def normalized_latencies_ms(result) -> list[float]:
    """Job times scaled to the reference host speed.

    The host's speed at a job is the median calibration time of the jobs
    within CALIB_WINDOW of it; the job's time is multiplied by
    CALIB_REF_S / speed, which removes the host's drift and keeps the
    library's own cost.
    """
    calib = result["calib_s"]
    return [1e3 * t * CALIB_REF_S / statistics.median(calib[max(0, j - CALIB_WINDOW):j + CALIB_WINDOW + 1])
            for j, t in enumerate(result["latencies_s"])]


def end_to_end(result, setup) -> dict:
    lat_ms = normalized_latencies_ms(result)
    n = len(lat_ms)
    return {
        "setup_s": (statistics.median(setup["setup_s"]), "s"),
        "jobs_per_s": (1e3 * n / sum(lat_ms), "1/s"),
        "job_p50_ms": (_percentile(lat_ms, 50), "ms"),
        "job_p90_ms": (_percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "records_per_job": (result["records"] / n, "count"),
    }


def report(args, facts, result, setup, metrics) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"# tensorspectra benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine " + json.dumps({**facts, **result["versions"]}, sort_keys=True))
    if args.trace:
        print(f"# traced fixed list: {result['jobs']} jobs x2 (traced/untraced); "
              f"identical outputs: {not result['differ']}")
        print("# self-time share of the warm jobs per layer (the ceiling on any gain there):")
        for name, (value, _) in metrics.items():
            if name.endswith(".share"):
                print(f"#   {name[:-6]:<14} {100 * value:6.2f} %   set-up "
                      f"{100 * metrics[name[:-6] + '.setup_share'][0]:6.2f} %")
        print("# heaviest caller -> callee edges (calls, total s, self s):")
        for caller, callee, calls, total, self_s in result["edges"][:12]:
            print(f"#   {caller or '-'} -> {callee}: {calls}, {total:.4f}, {self_s:.4f}")
    else:
        n = len(result["latencies_s"])
        print(f"# timed loop: {n} jobs in {result['cycles']} cycles, {result['busy_s']:.3f} s busy "
              f"in {result['wall_s']:.1f} s wall; "
              f"scaled set-ups (s): {', '.join(f'{s:.3f}' for s in setup['setup_s'])}")
        if result["busy_s"] < args.seconds or n < 100:
            print(f"# WARNING: the host was too slow to finish the timed loop before the deadline; "
                  f"it stopped at {result['busy_s']:.1f} s busy")
        raw_ms = [1e3 * t for t in result["latencies_s"]]
        print(f"# unscaled: jobs_per_s {n / result['busy_s']:.4g}, job_p50_ms "
              f"{_percentile(raw_ms, 50):.4g}, job_p90_ms {_percentile(raw_ms, 90):.4g}; "
              f"calibration median {1e3 * statistics.median(result['calib_s']):.3f} ms "
              f"(reference {1e3 * CALIB_REF_S:g} ms)")
        print(f"# fail_frac {result['failed'] / n:.4f} ratio ({result['failed']}/{n}); "
              f"job_p90_ms rests on {n - int(0.9 * n)} samples above it")
        if result["eigen"]:
            jobs, classes = (sum(t[i] for t in result["eigen"].values()) for i in (0, 1))
            by_config = ", ".join(f"({pn}): {c / j:.2f}" for pn, (j, c) in result["eigen"].items())
            print(f"# classes_per_job {classes / jobs:.4f} count ({jobs} eigen jobs); "
                  f"by (p, N): {by_config}")
        if "defect_probe_classes" in result:
            print(f"# known defect: eigen --p 3 --N 48 --starts 8 classes per seed "
                  f"{result['defect_probe_classes']} (0 = empty output with exit 0)")
    ready = setup["ready"]
    print(f"# worker import {ready['import_s']:.3f} s, warm-up jobs {ready['warmup_s']:.3f} s")
    for line in result["run_end"]:
        print(f"# run-end check: {line}")
    for line in result["failures"]:
        print(f"# FAILED: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still stop workers, remove temp files

    if not (ROOT / "src" / "tensorspectra" / "cli.py").is_file():
        print(f"error: no tensorspectra source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        with open(os.path.join(tmp, "worker.log"), "w+") as log:
            try:
                result, setup = measure(args, tmp, log)
            except Exception as exc:  # a broken run prints no result, only why it broke
                log.seek(0)
                sys.stderr.write(log.read()[-4000:])
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    facts = machine_facts(args)
    if args.trace:
        metrics = {k: tuple(v) for k, v in result["metrics"].items()}
        attempted = result["jobs"]
    else:
        metrics = end_to_end(result, setup)
        attempted = len(result["latencies_s"])
    failed = result["failed"]
    correct = failed == 0 and not result["failures"] and not result.get("differ")
    report(args, facts, result, setup, metrics)
    if not correct:  # the reasons also go to stderr, which a harness may keep apart
        for line in result["failures"] + [f"traced output differs: {j}" for j in result.get("differ", [])]:
            print(f"FAILED: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
