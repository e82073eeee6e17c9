"""Outside-in tracing of splitcouple's module boundaries.

``install`` replaces the functions at each layer boundary with timed
wrappers, by rebinding every module attribute of the package that refers to
the original function.  Nothing under ``src/`` is edited.  Spans are kept
in memory as per-name totals: wall time, self time (wall time minus the
time of the traced calls nested inside) and call count, plus counters taken
from the calls' arguments and results.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # time spent in nested spans, one entry per open span

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` in a span; ``observe(args, result)`` adds counters."""

        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = perf_counter() - start
                nested = self._stack.pop()
                if self._stack:
                    self._stack[-1] += wall
                self.total[name] += wall
                self.self_time[name] += wall - nested
                self.calls[name] += 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def layers(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of one run whose untraced-equivalent time is ``run_s``."""
        tot, own, calls, cnt = self.total, self.self_time, self.calls, self.counts
        steps = cnt["kernels.element_steps"]
        coupling = [k for k in tot if k.startswith("coupling.")]
        return {
            "streams.calls": calls["streams.replica_rng"],
            "streams.s": tot["streams.replica_rng"],
            "kernels.split_apply_s": tot["kernels.split_apply"],
            "kernels.element_steps": steps,
            "kernels.cdf_evals_per_element": cnt["kernels.cdf_evals"] / steps if steps else 0.0,
            "kernels.regen_frac": cnt["kernels.regen_steps"] / steps if steps else 0.0,
            "coupling.s": sum(tot[k] for k in coupling),
            "coupling.self_s": sum(own[k] for k in coupling),
            "coupling.coupled_frac": (cnt["coupling.coupled"] / cnt["coupling.replicas"]
                                      if cnt["coupling.replicas"] else 0.0),
            "logvol.conv_s": tot["logvol.conv"],
            "logvol.sim_s": own["logvol.sim"],
            "logvol.kernel_builds": calls["logvol.kernel"],
            "logvol.kernel_s": tot["logvol.kernel"],
            "fracvol.ensemble_s": tot["fracvol.ensemble"],
            "fracvol.ensemble_self_s": own["fracvol.ensemble"],
            "fracvol.conv_s": tot["fracvol.conv"],
            "fracvol.conv_calls": calls["fracvol.conv"],
            "fracvol.euler_s": tot["fracvol.euler"],
            "fracvol.euler_calls": calls["fracvol.euler"],
            "fracvol.euler_element_steps": cnt["fracvol.euler_element_steps"],
            "metrics.tv_s": tot["metrics.tv"],
            "harness.write_s": tot["harness.write"],
            "harness.csv_rows": cnt["harness.csv_rows"],
            "harness.bytes_written": cnt["harness.bytes_written"],
            "harness.self_s": own["harness.run"],
            # Self times of all spans partition the traced run; what is left
            # is time spent between the timed calls, outside every span.
            "trace.gap_s": run_s - sum(own.values()),
        }


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "splitcouple" and not name.startswith("splitcouple."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Trace the package's layer boundaries for the rest of the process."""
    from splitcouple import coupling, fracvol, harness, kernels, logvol, metrics, streams

    tr = Tracer()
    cnt = tr.counts

    def wrap(name, fn, observe=None):
        _rebind(fn, tr.span(name, fn, observe))

    wrap("streams.replica_rng", streams.replica_rng)

    split_apply = kernels.split_apply_batch

    def counted_split_apply(kernel, n, x, u1, u2, in_set=None):
        # The regeneration branch fires where the state is in the set and
        # u1 <= alpha_n, exactly as split_apply_batch decides it.
        x_arr = np.asarray(x, float)
        idx = kernel.ladder.check_index(n)
        member = np.abs(x_arr) <= kernel.ladder.radii[idx] if in_set is None else in_set
        cnt["kernels.element_steps"] += x_arr.size
        cnt["kernels.regen_steps"] += int(np.count_nonzero(
            member & (np.asarray(u1, float) <= kernel.ladder.alphas[idx])))
        cdf = kernel.cdf

        def counted_cdf(xs, zs):
            out = cdf(xs, zs)
            cnt["kernels.cdf_evals"] += np.size(out)
            return out

        counted = dataclasses.replace(kernel, cdf=counted_cdf)
        return split_apply(counted, n, x, u1, u2, in_set=in_set)

    _rebind(split_apply, tr.span("kernels.split_apply", counted_split_apply))

    def coupled(args, traces):
        cnt["coupling.coupled"] += sum(t.coupled for t in traces)
        cnt["coupling.replicas"] += len(traces)

    wrap("coupling.pair", coupling.coupled_pair_batch, coupled)
    wrap("coupling.mcre", coupling.mcre_coupled_chains_batch, coupled)
    wrap("coupling.schedule", coupling.block_schedule)

    wrap("logvol.sim", logvol.simulate_logvol_batch)
    wrap("logvol.conv", logvol.ma_env_values)
    wrap("logvol.kernel", logvol.logvol_kernel)

    def euler_elements(args, result):
        cnt["fracvol.euler_element_steps"] += np.size(result)

    wrap("fracvol.ensemble", fracvol.simulate_ensemble)
    wrap("fracvol.conv", fracvol._volatility_paths)
    wrap("fracvol.euler", fracvol.euler_step, euler_elements)

    for fn in (metrics.tv_empirical, metrics.tv_empirical_se, metrics.tv_gaussian):
        wrap("metrics.tv", fn)

    def written(args, paths):
        cnt["harness.csv_rows"] += len(args[0].table_rows)
        cnt["harness.bytes_written"] += sum(os.path.getsize(p) for p in paths)

    wrap("harness.run", harness.run)
    wrap("harness.write", harness.write_report, written)
    return tr
