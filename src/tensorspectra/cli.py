"""Command-line front end.

Every subcommand wraps one library capability and writes deterministic,
plot-ready output: CSV with '#'-prefixed header lines carrying the full
run configuration, or JSON with a {meta, data} envelope.  Stochastic
subcommands are deterministic given --seed.  Exit codes: 0 success,
2 validation error, 3 numerical failure.

Column names and their documentation live in cli_schema.json next to
this module; each subcommand's --help repeats them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from importlib import resources

import numpy as np

from . import __version__, annealed, borel, eigenpairs, maps, tensors
from . import fuss_catalan as fc
from .errors import CapExceeded, DomainError, ParityError, TensorSpectraError

VALIDATION_ERRORS = (DomainError, ParityError, CapExceeded)
# every other library error, and overflow or division by zero at extreme inputs
NUMERICAL_ERRORS = (TensorSpectraError, ArithmeticError)
# A sweep longer than this is refused rather than built.
MAX_SWEEP_POINTS = 100_000


@lru_cache(maxsize=None)
def _schema():
    with resources.files("tensorspectra").joinpath("cli_schema.json").open() as fh:
        return json.load(fh)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _meta(args):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func",) and v is not None}
    return {"version": __version__, "config": cfg}


def _columns(subcommand):
    return list(_schema()[subcommand]["columns"])


def _emit_csv(args, rows):
    lines = [f"# tensorspectra {__version__}", f"# config: {json.dumps(_meta(args)['config'], sort_keys=True)}"]
    lines.append(",".join(_columns(args.subcommand)))
    for row in rows:
        lines.append(",".join(_fmt(v) if v is not None else "" for v in row))
    _write(args, "\n".join(lines) + "\n")


def _emit_json(args, data):
    payload = {"meta": _meta(args), "data": data}
    _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _resolve_output(path):
    """Relative output paths land in $TENSORSPECTRA_OUTDIR when it is set."""
    if path is None:
        return None
    outdir = os.environ.get("TENSORSPECTRA_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _write(args, text):
    path = _resolve_output(getattr(args, "output", None))
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_sweep(spec):
    """start:stop:step -> inclusive grid (also accepts a single value)."""
    parts = spec.split(":")
    try:
        values = [float(v) for v in parts]
    except ValueError:
        values = []
    if len(values) not in (1, 3):
        raise DomainError(f"sweep must be start:stop:step, got {spec!r}")
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"sweep values must be finite, got {spec!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0:
        raise DomainError("sweep step must be positive")
    count = (stop - start) / step + 1e-9
    if not 0 <= count < MAX_SWEEP_POINTS:
        raise DomainError(f"sweep {spec!r} must hold 1 to {MAX_SWEEP_POINTS} points")
    return [start + i * step for i in range(math.floor(count) + 1)]


def _points(value, sweep, flag):
    """The grid of --<flag>-sweep when given, else the single --<flag> value."""
    if sweep:
        return _parse_sweep(sweep)
    if value is None:
        raise DomainError(f"provide --{flag} or --{flag}-sweep")
    return [value]


def _complex(token):
    try:
        return complex(token)
    except ValueError:
        raise DomainError(f"not a complex number: {token!r}") from None


# ------------------------------------------------------------- subcommands

def cmd_density(args):
    if args.grid < 1:
        raise DomainError("--grid must be >= 1")
    edge = fc.support_edge(args.p)
    ys = np.linspace(-edge, edge, args.grid)
    rows = zip(ys.tolist(), fc.wigner_density(args.p, ys).tolist())
    _emit_csv(args, rows)


def cmd_moments(args):
    if args.nmax < 0:
        raise DomainError("--nmax must be >= 0")
    rows = []
    for n in range(args.nmax + 1):
        moment = fc.density_moment(args.p, n)
        exact = fc.fuss_catalan_number(args.p, n)
        rows.append((n, moment, exact, abs(moment - exact)))
    _emit_csv(args, rows)


def cmd_resolvent(args):
    rows = []
    for token in args.w:
        w = _complex(token)
        omega = fc.expected_resolvent(args.p, w)
        rows.append((w.real, w.imag, omega.real, omega.imag))
    _emit_csv(args, rows)


def cmd_maps(args):
    classes = maps.enumerate_rooted_maps(args.p, args.n)
    _emit_json(args, [maps.map_to_json(m) for m in classes])


def cmd_invariants(args):
    if args.samples < 0:
        raise DomainError("--samples must be >= 0")
    exact = maps.wick_expectation(args.p, args.N, args.n)
    if args.samples > 0:
        est = maps.mc_expected_invariant(args.p, args.N, args.n, args.samples, args.seed)
        mc_mean, mc_stderr = est.mean, est.std_error
    else:
        mc_mean = mc_stderr = None
    rows = [
        (
            args.p,
            args.N,
            args.n,
            str(exact),
            float(exact),
            mc_mean,
            mc_stderr,
            args.samples,
            args.seed,
        )
    ]
    _emit_csv(args, rows)


def cmd_sample(args):
    T = tensors.sample_goe(args.p, args.N, args.seed)
    path = _resolve_output(args.output)
    if path is None:
        raise DomainError("sample writes a binary tensor file: --output is required")
    tensors.save_tensor(T, path)
    meta = {"meta": _meta(args), "components": len(T.data), "path": path}
    sys.stdout.write(json.dumps(meta, sort_keys=True) + "\n")


def cmd_eigen(args):
    if args.input is not None:
        T = tensors.load_tensor(args.input)
    else:
        T = tensors.sample_goe(args.p, args.N, args.seed)
    pairs = eigenpairs.find_real_eigenpairs(T, n_starts=args.starts, tol=args.tol, seed=args.seed)
    data = [
        {
            "lambda": pair.lam,
            "x": [float(v) for v in pair.x],
            "residual": pair.residual,
            "degenerate": pair.degenerate,
        }
        for pair in pairs
    ]
    _emit_json(args, data)


def _spike_row(p, b):
    locus = annealed.spike_locus(p, b)
    saddles = locus.probe.saddles
    f1 = saddles[1].f_value.real if len(saddles) > 1 else None
    return (p, b, locus.y_c, locus.theta_c, locus.rho_c_sq, locus.probe.dominant_index,
            saddles[0].f_value.real, f1)


def cmd_spike(args):
    rows = [_spike_row(args.p, b) for b in _points(args.b, args.b_sweep, "b")]
    _emit_csv(args, rows)


def cmd_annealed(args):
    w = _complex(args.w)
    saddle = annealed.annealed_resolvent(args.p, w, mode="saddle")
    rows = [(args.p, w.real, 0, "saddle", saddle.real, saddle.imag, 0.0)]

    def one(N):
        omega = annealed.annealed_resolvent(args.p, w, N, mode="quadrature")
        return (args.p, w.real, N, "quadrature", omega.real, omega.imag, abs(omega - saddle))

    if args.N:
        try:
            Ns = [int(v) for v in args.N.split(",")]
        except ValueError:
            raise DomainError(f"--N must be comma-separated integers, got {args.N!r}") from None
        rows.extend(one(N) for N in Ns)
    _emit_csv(args, rows)


def cmd_borel(args):
    def one(g_abs):
        disc = borel.discontinuity(args.p, g_abs, args.q)
        inst = borel.instanton_discontinuity(args.p, g_abs)
        ratio = abs(disc) / abs(inst)
        return (args.p, args.q, g_abs, disc.real, disc.imag, inst.real, inst.imag, ratio)

    rows = [one(g_abs) for g_abs in _points(args.g, args.g_sweep, "g")]
    if args.format == "json":
        _emit_json(args, [dict(zip(_columns("borel"), row)) for row in rows])
    else:
        _emit_csv(args, rows)


# ------------------------------------------------------------------ parser

def _column_help(name):
    entry = _schema()[name]
    if "columns" in entry:
        return "columns: " + "; ".join(f"{k}: {v}" for k, v in entry["columns"].items())
    return entry.get("data", "")


@lru_cache(maxsize=None)
def build_parser():
    """The one parser of this process; argparse keeps no state between parses."""
    parser = argparse.ArgumentParser(
        prog="tensorspectra",
        description="Spectral laws, invariants and saddle analysis of random symmetric tensors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn):
        sp = sub.add_parser(name, epilog=_column_help(name))
        sp.set_defaults(func=fn)
        sp.add_argument("--output", help="output file; relative paths resolve in $TENSORSPECTRA_OUTDIR")
        return sp

    sp = add("density", cmd_density)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--grid", type=int, default=400)

    sp = add("moments", cmd_moments)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--nmax", type=int, default=6)

    sp = add("resolvent", cmd_resolvent)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--w", action="append", required=True, help="complex point, e.g. 4 or 2.8+0.5j (repeatable)")

    sp = add("maps", cmd_maps)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = add("invariants", cmd_invariants)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("sample", cmd_sample)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("eigen", cmd_eigen)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--N", type=int, default=4)
    sp.add_argument("--input", help="packed tensor file; omit to sample a fresh draw")
    sp.add_argument("--starts", type=int, default=100)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("spike", cmd_spike)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--b", type=float)
    sp.add_argument("--b-sweep", dest="b_sweep", help="start:stop:step")

    sp = add("annealed", cmd_annealed)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--w", required=True)
    sp.add_argument("--N", help="comma-separated dimensions for quadrature mode")

    sp = add("borel", cmd_borel)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, default=0)
    sp.add_argument("--g", type=float)
    sp.add_argument("--g-sweep", dest="g_sweep", help="start:stop:step")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
