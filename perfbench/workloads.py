"""Job streams of the three benchmark workloads.

A job is one ``tensorspectra`` CLI request: a subcommand and its options,
exactly as a user would type them, minus ``--output`` (the worker adds
it).  A workload is a list of job configs; one *cycle* runs every config
once, in a seeded order, with seeded free parameters (spike strengths,
sampling and start seeds).  Cycle ``i`` of workload ``w`` under seed ``s``
is a pure function of ``(w, s, i)``, so the stream is reproducible and the
program sees only the generated argv.

This module imports nothing from the library and no numpy, so the parent
process stays light.
"""

from __future__ import annotations

import random
from typing import NamedTuple

# Placeholder in an argv for the tensor file a preceding `sample` job wrote.
TENSOR_FILE = "{tensor_file}"

# Cycle index of the warm-up pass that every worker runs before timing.
WARMUP_CYCLE = -1


class Job(NamedTuple):
    kind: str  # oracle to apply: the subcommand, or "eigen_input"
    argv: tuple  # CLI arguments without --output
    params: dict  # parsed values the oracle needs


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _analytic(rng: random.Random) -> list[list[Job]]:
    units = []
    for p in (3, 4):
        units.append([Job("density", ("density", "--p", str(p), "--grid", "400"),
                          {"p": p, "grid": 400})])
        units.append([Job("moments", ("moments", "--p", str(p), "--nmax", "6"),
                          {"p": p, "nmax": 6})])
        units.append([Job("borel", ("borel", "--p", str(p), "--g-sweep", "0.02:0.1:0.01"),
                          {"p": p})])
    for p in (3, 4, 5):
        b = f"{rng.uniform(0.5, 12.0):.6f}"
        units.append([Job("spike", ("spike", "--p", str(p), "--b", b),
                          {"p": p, "b": float(b)})])
    for N in (400, 800):
        units.append([Job("annealed", ("annealed", "--p", "3", "--w", "5", "--N", str(N)),
                          {"p": 3, "w": 5.0, "N": [N]})])
    ws = ("4", "2.8+0.5j", "-3+1j")
    for p in (3, 4):  # two short jobs put the median latency inside one block of configs
        units.append([Job("resolvent", ("resolvent", "--p", str(p), *(f"--w={w}" for w in ws)),
                          {"p": p, "w": [complex(w) for w in ws]})])
    return units


# (p, N, n, samples): both call sites of the einsum contraction (MC samples
# of I_n) and the Wick enumeration, at index-table sizes up to N = 64.
ENSEMBLE_CONFIGS = ((3, 12, 4, 2), (3, 32, 2, 64), (3, 64, 2, 16), (4, 12, 2, 16), (5, 8, 2, 0))
# (p, n) of `maps` jobs, which list the rooted maps two of the invariants sum
# over; they also put the median latency inside one config's spread.
ENSEMBLE_MAPS = ((3, 4), (4, 2))


def _ensemble(rng: random.Random) -> list[list[Job]]:
    units = [[Job("maps", ("maps", "--p", str(p), "--n", str(n)), {"p": p, "n": n})]
             for p, n in ENSEMBLE_MAPS]
    for p, N, n, samples in ENSEMBLE_CONFIGS:
        seed = _seed(rng)
        argv = ("invariants", "--p", str(p), "--N", str(N), "--n", str(n),
                "--samples", str(samples), "--seed", str(seed))
        units.append([Job("invariants", argv,
                          {"p": p, "N": N, "n": n, "samples": samples, "seed": seed})])
    return units


# (p, N, starts) of the sampled-tensor eigen jobs.  N = 32 with 16 starts is
# the largest size found to return a non-empty result on every seed tried;
# larger N with few starts returns empty output on some seeds (NOTES.md).
# Three of seven jobs sit above and three below the (4, 10) job, so the
# median latency falls inside one config's spread, not between two.
EIGEN_CONFIGS = ((3, 8, 50), (4, 10, 30), (3, 32, 16), (3, 32, 16), (2, 16, 40))
EIGEN_INPUT = (3, 32, 16)


def _eigen(rng: random.Random) -> list[list[Job]]:
    units = []
    for p, N, starts in EIGEN_CONFIGS:
        seed = _seed(rng)
        argv = ("eigen", "--p", str(p), "--N", str(N), "--starts", str(starts), "--seed", str(seed))
        units.append([Job("eigen", argv, {"p": p, "N": N, "starts": starts, "seed": seed})])
    # serialization round trip: sample to a file, then solve from that file
    p, N, starts = EIGEN_INPUT
    seed = _seed(rng)
    params = {"p": p, "N": N, "starts": starts, "seed": seed}
    units.append([
        Job("sample", ("sample", "--p", str(p), "--N", str(N), "--seed", str(seed)), params),
        Job("eigen_input", ("eigen", "--input", TENSOR_FILE, "--starts", str(starts),
                            "--seed", str(seed)), params),
    ])
    return units


WORKLOADS = {"analytic": _analytic, "ensemble": _ensemble, "eigen": _eigen}

# Cycles in the fixed job list of a traced run (sized to take a few seconds).
TRACE_CYCLES = {"analytic": 8, "ensemble": 10, "eigen": 6}


def cycle(workload: str, seed: int, index: int) -> list[Job]:
    """Every job config of `workload` once, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    units = WORKLOADS[workload](rng)
    rng.shuffle(units)  # a unit keeps a sample job next to the job that reads its file
    return [job for unit in units for job in unit]
