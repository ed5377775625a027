"""Spans around the calls into each library module, recorded from outside.

`Tracer.install` replaces every public function listed in `LAYERS` with a
timing wrapper in every ``tensorspectra`` namespace that binds it (and
``SymmetricTensor.to_dense`` on the class); `Tracer.remove` puts the
originals back.  Nothing inside the library is edited.

Spans are aggregated in memory per (caller, callee) edge into a call count,
total time and self time, where self time is the span minus the time of
its child spans.  A paused tracer passes calls straight through, so oracle
checks run between traced jobs do not count.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from time import perf_counter

# Wrapped public functions per layer; a layer is a library module.
LAYERS = {
    "cli": ("main",),
    "fuss_catalan": ("fc_function", "fc_function_boundary", "pp_density", "wigner_density",
                     "density_moment", "expected_resolvent"),
    "tensors": ("multiset_table", "full_index_map", "sample_goe", "to_dense", "contract_gradient",
                "contract_matrix", "contract_full", "save_tensor", "load_tensor"),
    "maps": ("enumerate_rooted_maps", "wick_expectation", "mc_expected_invariant",
             "balanced_invariant"),
    "eigenpairs": ("find_real_eigenpairs",),
    "annealed": ("singular_locus", "spike_threshold", "spike_saddles", "annealed_resolvent",
                 "annealed_logZ"),
    "borel": ("discontinuity", "sector_Z", "instanton_discontinuity"),
}

# lru_cached functions whose cache_info() the trace reports.
CACHED = ("tensors.multiset_table", "tensors.full_index_map", "maps.enumerate_rooted_maps")

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.active = False
        self.edges: dict[tuple[str, str], list] = {}  # (caller, callee) -> [calls, total_s, self_s]
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._patched: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self.originals: dict[str, object] = {}
        # derived counters, bumped by the per-function hooks below
        self.counts = {"cli_errors": 0, "starts": 0, "classes": 0, "spike_b_pos": 0,
                       "theta1_found": 0, "dense_bytes": 0, "packed_bytes": 0}
        self._densified = weakref.WeakValueDictionary()

    # ---------------------------------------------------------- patching
    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tensorspectra" or name.startswith("tensorspectra."))]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"tensorspectra.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                if name == "to_dense":
                    owners = [mod.SymmetricTensor]
                    original = mod.SymmetricTensor.__dict__[name]
                else:
                    original = getattr(mod, name)
                    owners = [m for m in modules if m.__dict__.get(name) is original]
                self.originals[key] = original
                wrapper = self._wrap(key, original, getattr(self, "_hook_" + name, None))
                for owner in owners:
                    self._patched.append((owner, name, original))
                    setattr(owner, name, wrapper)
        self.active = True

    def remove(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        self.active = False

    def _wrap(self, key, fn, hook):
        stack = self._stack

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if hook is not None:
                    hook(args, kwargs, None, failed=True)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                edge = self.edges.setdefault((parent, key), [0, 0.0, 0.0])
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(args, kwargs, result, failed=False)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", key)
        return span

    # ------------------------------------------------------------- hooks
    def _hook_main(self, _args, _kwargs, result, failed):
        if failed or result != 0:
            self.counts["cli_errors"] += 1

    def _hook_find_real_eigenpairs(self, args, kwargs, result, failed):
        if not failed:
            self.counts["starts"] += kwargs.get("n_starts", args[1] if len(args) > 1 else 100)
            self.counts["classes"] += len(result)

    def _hook_spike_saddles(self, args, kwargs, result, failed):
        b = kwargs.get("b", args[2] if len(args) > 2 else None)
        if b is not None and b > 0:
            self.counts["spike_b_pos"] += 1
            if not failed and len(result.saddles) > 1:
                self.counts["theta1_found"] += 1

    def _hook_to_dense(self, args, _kwargs, result, failed):
        # to_dense caches its array on the tensor: count bytes only when a new one is built
        if failed or self._densified.get(id(result)) is result:
            return
        self._densified[id(result)] = result
        self.counts["dense_bytes"] += result.nbytes
        self.counts["packed_bytes"] += args[0].data.nbytes

    # ----------------------------------------------------------- reports
    def per_function(self) -> dict[str, list]:
        """key -> [calls, total_s, self_s], summed over callers."""
        out = {f"{layer}.{name}": [0, 0.0, 0.0] for layer, names in LAYERS.items() for name in names}
        for (_, key), (calls, total, self_s) in self.edges.items():
            agg = out[key]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, (_, _, self_s) in self.per_function().items():
            out[key.split(".")[0]] += self_s
        return out

    def cache_misses(self) -> dict[str, int]:
        return {key: self.originals[key].cache_info().misses for key in CACHED}
