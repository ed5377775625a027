"""One benchmark worker: a single closed-loop client calling ``cli.main``.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
It imports ``tensorspectra.cli``, runs the warm-up pass (every job config
of the workload once), prints a ``ready`` line and waits for a command on
stdin: end of input ends a worker that only measured set-up; ``run
<wall budget>`` runs the timed loop (``--trace 0``) or the traced fixed job list (``--trace 1``)
and prints one ``result`` line.  Protocol lines are JSON on the original
stdout; anything else written to stdout goes to stderr.

The worker can also be imported: the benchmark's tests drive `Runner`
in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import spans
import workloads
from workloads import TENSOR_FILE, WARMUP_CYCLE

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A run keeps going, in whole cycles, until it has this many jobs: enough
# that the 90th percentile has at least ten samples above it.
MIN_JOBS = 100
# The known-defect probe: an eigen config that returns empty output on some
# seeds, run outside the timed loop on DEFECT_PROBE_SEEDS seeds.
DEFECT_PROBE = ("eigen", "--p", "3", "--N", "48", "--starts", "8")
DEFECT_PROBE_SEEDS = 3
# Calibrations at the end of set-up; their median scales the set-up time.
SETUP_CALIBRATIONS = 5


def calibrate() -> float:
    """Seconds for a fixed piece of reference work that never touches the library.

    A Python loop plus small matrix products, about 3 ms; timed after
    every job, it measures how fast the host runs at that moment (NOTES.md).
    """
    import numpy as np  # already loaded by the library; imported here so set-up timing is unaffected

    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    a = np.eye(120) + 1e-3
    for _ in range(5):
        a = a @ a
        a /= np.abs(a).max()
    return time.perf_counter() - t0


def _import_cli():
    t0 = time.perf_counter()
    from tensorspectra import cli

    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tensorspectra imported from {cli.__file__}, not from {SRC}")
    return cli, import_s


class Runner:
    """Runs jobs through ``cli.main`` and checks each output afterwards."""

    def __init__(self, cli, workload: str, seed: int, tmp: str, tracer=None):
        import oracles  # imports the library: only after _import_cli has timed that

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out = os.path.join(tmp, "out")
        self.tensor_file = os.path.join(tmp, "tensor.bin")
        self.checker = oracles.Checker(seed)
        self.tracer = tracer
        self.check_s = 0.0
        self.failures: list[str] = []

    def execute(self, job) -> tuple[float, object, bytes, str]:
        """One timed ``cli.main`` call; returns (seconds, exit code, output bytes, stdout)."""
        output = self.tensor_file if job.kind == "sample" else self.out
        argv = [self.tensor_file if a == TENSOR_FILE else a for a in job.argv]
        argv += ["--output", output]
        with contextlib.suppress(FileNotFoundError):
            os.remove(output)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a job that raises is a failed job
            rc = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        try:
            with open(output, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        return dt, rc, data, buf.getvalue()

    def check(self, job, rc, data: bytes, stdout: str) -> int | None:
        """Records in the output, or None (and a failure note) if the job failed."""
        t0 = time.perf_counter()
        active = self.tracer is not None and self.tracer.active
        if active:
            self.tracer.active = False
        try:
            if rc != 0:
                raise RuntimeError(f"exit {rc}")
            return self.checker.job(job, data, stdout, self.tensor_file)
        except Exception as exc:  # any error while checking fails the job
            if len(self.failures) < 20:
                self.failures.append(f"{' '.join(job.argv)}: {exc}")
            return None
        finally:
            if active:
                self.tracer.active = True
            self.check_s += time.perf_counter() - t0

    def run_checked(self, job) -> tuple[float, int | None]:
        dt, rc, data, stdout = self.execute(job)
        return dt, self.check(job, rc, data, stdout)

    def warmup(self) -> float:
        """Every job config once; returns the summed job time."""
        return sum(self.run_checked(job)[0] for job in workloads.cycle(self.workload, self.seed, WARMUP_CYCLE))

    def finish(self) -> list[str]:
        """Run-end checks; a failure is recorded, not raised."""
        try:
            return self.checker.finish()
        except Exception as exc:  # any error while checking fails the run
            self.failures.append(f"run-end check: {exc}")
            return []

    # ------------------------------------------------------------ timed
    def timed_loop(self, seconds: float, wall_budget: float = float("inf")) -> dict:
        """Closed loop over whole cycles until `seconds` of job time and MIN_JOBS jobs.

        After each job, outside its span, the reference work of `calibrate`
        is timed once.  On a host so slow that the loop would outlast
        `wall_budget` wall seconds, it stops after the cycle that crosses it.
        """
        latencies, calib, failed, records, busy = [], [], 0, 0, 0.0
        index = 0
        start = time.perf_counter()
        while index == 0 or ((busy < seconds or len(latencies) < MIN_JOBS)
                             and time.perf_counter() - start < wall_budget):
            for job in workloads.cycle(self.workload, self.seed, index):
                dt, n = self.run_checked(job)
                latencies.append(dt)
                calib.append(calibrate())
                busy += dt
                if n is None:
                    failed += 1
                else:
                    records += n
            index += 1
        return {"cycles": index, "latencies_s": latencies, "calib_s": calib, "failed": failed,
                "records": records, "busy_s": busy, "wall_s": time.perf_counter() - start,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "eigen": self.checker.eigen}

    def defect_probe(self) -> list[int]:
        """Classes found by the eigen config that returns empty output on some seeds."""
        found = []
        for i in range(DEFECT_PROBE_SEEDS):
            argv = DEFECT_PROBE + ("--seed", str(self.seed * DEFECT_PROBE_SEEDS + i))
            _, rc, data, _ = self.execute(workloads.Job("eigen", argv, {}))
            found.append(len(json.loads(data)["data"]) if rc == 0 else -1)
        return found

    # ----------------------------------------------------------- traced
    def traced_list(self, cycles: int) -> dict:
        """The fixed job list run traced and untraced, alternating which goes first.

        Returns the traced and untraced job-time sums and the jobs whose
        traced output differed from the untraced one.
        """
        times = {True: 0.0, False: 0.0}
        jobs, failed, differ = 0, 0, []
        for index in range(cycles):
            for job in workloads.cycle(self.workload, self.seed, index):
                outputs = {}
                for traced in ((False, True) if jobs % 2 == 0 else (True, False)):
                    self.tracer.active = traced
                    dt, rc, data, stdout = self.execute(job)
                    times[traced] += dt
                    outputs[traced] = (rc, data, stdout)
                self.tracer.active = True
                jobs += 1
                if outputs[True] != outputs[False]:
                    differ.append(" ".join(job.argv))
                if self.check(job, *outputs[False]) is None:
                    failed += 1
        return {"jobs": jobs, "failed": failed, "traced_s": times[True],
                "untraced_s": times[False], "differ": differ}


def _versions() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def layer_metrics(tracer, setup_layers, setup_total, listed, import_s, warmup_s) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    per_fn = tracer.per_function()
    layers = tracer.layer_self()
    total = per_fn[spans.ROOT][1]
    warm_total = total - setup_total
    m = {}
    for key, (calls, _, self_s) in per_fn.items():
        m[f"{key}.calls"] = (calls, "count")
        m[f"{key}.self_s"] = (self_s, "s")
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = (layers[layer], "s")
        m[f"{layer}.share"] = ((layers[layer] - setup_layers[layer]) / warm_total, "ratio")
        m[f"{layer}.setup_share"] = (setup_layers[layer] / setup_total, "ratio")
    c = tracer.counts
    m["cli.errors"] = (c["cli_errors"], "count")
    for key, misses in tracer.cache_misses().items():
        m[f"{key}.cache_misses"] = (misses, "count")
    m["tensors.dense_bytes"] = (c["dense_bytes"], "B-computed")
    m["tensors.packed_bytes"] = (c["packed_bytes"], "B-computed")
    starts = c["starts"]
    m["eigenpairs.classes_per_start"] = (c["classes"] / starts if starts else 0.0, "ratio")
    eig_self = per_fn["eigenpairs.find_real_eigenpairs"][2]
    m["eigenpairs.self_ms_per_start"] = (1e3 * eig_self / starts if starts else 0.0, "ms")
    pp = per_fn["fuss_catalan.pp_density"][0]
    m["fuss_catalan.boundary_route_frac"] = (
        per_fn["fuss_catalan.fc_function_boundary"][0] / pp if pp else 0.0, "ratio")
    b_pos = c["spike_b_pos"]
    m["annealed.theta1_found_frac"] = (c["theta1_found"] / b_pos if b_pos else 0.0, "ratio")
    m["trace.overhead_frac"] = (1 - listed["untraced_s"] / listed["traced_s"], "ratio")
    m["setup.import_s"] = (import_s, "s")
    m["setup.warmup_s"] = (warmup_s, "s")
    return m


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()

    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # stray prints from the library must not corrupt the protocol

    def send(kind, payload):
        proto.write(json.dumps({kind: payload}) + "\n")
        proto.flush()

    cli, import_s = _import_cli()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    runner = Runner(cli, args.workload, args.seed, args.tmp, tracer)
    warmup_s = runner.warmup()
    t0 = time.perf_counter()
    calib = sorted(calibrate() for _ in range(SETUP_CALIBRATIONS))[SETUP_CALIBRATIONS // 2]
    send("ready", {"import_s": import_s, "warmup_s": warmup_s, "calib_s": calib,
                   "untimed_s": runner.check_s + time.perf_counter() - t0})

    command = sys.stdin.readline().split()  # "run <wall budget in seconds>"
    if not command or command[0] != "run":
        return
    result = {"versions": _versions()}
    if tracer is None:
        result.update(runner.timed_loop(args.seconds, float(command[1])))
        if args.workload == "eigen":
            result["defect_probe_classes"] = runner.defect_probe()
    else:
        setup_layers = tracer.layer_self()
        setup_total = tracer.per_function()[spans.ROOT][1]
        listed = runner.traced_list(workloads.TRACE_CYCLES[args.workload])
        tracer.remove()
        result.update(listed)
        result["edges"] = sorted(([a, b, *v] for (a, b), v in tracer.edges.items()),
                                 key=lambda e: -e[4])
        result["metrics"] = layer_metrics(tracer, setup_layers, setup_total, listed,
                                          import_s, warmup_s)
    result["run_end"] = runner.finish()
    result["failures"] = runner.failures
    send("result", result)


if __name__ == "__main__":
    main()
