"""Set-up, timed loops, correctness checks and the traced passes.

Library calls go through module attributes (`tensor.conv2d_direct`, not a
name imported from it), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

from orepa import blockspec, dynamics, okt, squeeze, tensor

from tracer import STEP, Tracer

ROUTES = ("online", "offline", "verify")
BACKWARD = {"online": "backward_through_squeeze", "offline": "backward_through_expanded"}
SETUP_REPEATS = 5       # setup_s is the median of this many set-ups
REPRO_STEPS = 2         # steps compared bit for bit against train_toy
RESIDUAL_TOL = 1e-9     # squeezed vs expanded forward, and online vs offline gradient
MIB = 2.0 ** 20

_CONV = ("calls", "self_ms", "gmults", "peak_mib")
_SQUEEZE = (
    ("layers.as_dense", ("calls", "self_ms", "peak_mib")),
    ("squeeze.merge_sequential", ("calls", "self_ms", "gmults", "useful_frac", "peak_mib")),
    ("squeeze.merge_parallel", ("self_ms",)),
    ("squeeze.apply_branch_scaling", ("self_ms",)),
    ("squeeze.squeeze_block", ("self_ms",)),
)
_UPDATE = tuple((f, ("self_ms",)) for f in (
    "dynamics.sgd_step", "dynamics.ParamSet.get_flat", "dynamics.ParamSet.set_flat"))

# route -> ((function, stats), ...): the per-layer metrics, named
# <route>.<function>.<stat>. A route lists only functions it calls.
ROUTE_STATS = {
    "setup": (("blockspec.load_spec", ("self_ms",)), ("blocks.build_preset", ("self_ms",)),
              ("tensor.conv2d_direct", ("self_ms",))),
    "online": (("tensor.conv2d_direct", _CONV),) + _SQUEEZE + (
        ("dynamics._conv_grad_w", _CONV),
        ("dynamics._merge_backward", ("calls", "self_ms", "gmults", "useful_frac")),
        ("dynamics.backward_through_squeeze", ("self_ms", "peak_mib")),
    ) + _UPDATE,
    "offline": (("tensor.conv2d_direct", _CONV),) + _SQUEEZE + (
        ("dynamics._conv_grad_w", _CONV),
        ("dynamics._conv_grad_x", _CONV),
        ("dynamics.backward_through_expanded", ("self_ms", "peak_mib")),
    ) + _UPDATE,
    "verify": (("tensor.conv2d_direct", _CONV),) + _SQUEEZE + (
        ("squeeze.expanded_forward", ("self_ms",)),
        ("tensor.pad_spatial", ("self_ms",)),
        ("tensor.scale_by_channel", ("self_ms",)),
        ("tensor.sum_over", ("self_ms",)),
        ("okt.write_okt", ("self_ms",)),
        ("okt.read_okt", ("self_ms",)),
    ),
}

UNITS = {"calls": ("count", "lower"), "self_ms": ("ms", "lower"), "gmults": ("Gmult", "lower"),
         "useful_frac": ("ratio", "higher"), "peak_mib": ("MiB", "lower"),
         "total_ms": ("ms", "lower"), "overhead_ms": ("ms", "lower"),
         "buffer_mib": ("MiB", "lower")}

END_TO_END = (
    ("setup_s", "s"),
    ("online_step_ms.p50", "ms"), ("online_step_ms.p75", "ms"),
    ("offline_step_ms.p50", "ms"), ("offline_step_ms.p75", "ms"),
    ("verify_ms.p50", "ms"), ("verify_ms.p75", "ms"),
    ("online_peak_mib", "MiB"), ("offline_peak_mib", "MiB"), ("verify_peak_mib", "MiB"),
)


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for route, funcs in ROUTE_STATS.items():
        for func, stats in funcs:
            out += [(f"{route}.{func}.{s}",) + UNITS[s] for s in stats]
        if route != "setup":
            out.append((f"{route}.{STEP}.total_ms",) + UNITS["total_ms"])
    out.append((f"online.{STEP}.overhead_ms",) + UNITS["overhead_ms"])
    for route in ("online", "offline"):
        out.append((f"model.{route}.buffer_mib",) + UNITS["buffer_mib"])
        out.append((f"model.{route}.gmults",) + UNITS["gmults"])
    return out


class Checks:
    """Correctness checks, counted against attempts. A check passes only
    when its condition is True, so a NaN in a comparison fails it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not bool(ok):
            self.failed += 1
            if len(self.first_failures) < 10:
                self.first_failures.append(what)


def max_abs_diff(a, b):
    """max |a - b|; NaN anywhere makes it NaN, which fails every <= check."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class RouteRun:
    """One training route on one block, built the way train_toy builds it."""

    def __init__(self, route, block, case_run):
        self.route = route
        self.block = block
        self.case = case_run
        self.ps = dynamics.ParamSet(block)
        self.initial = self.ps.get_flat()
        self.reset()

    def reset(self):
        self.ps.set_flat(self.initial)
        self.state = dynamics.SgdState()
        self.losses = []

    def step(self):
        c = self.case
        y = tensor.conv2d_direct(c.x, squeeze.squeeze_block(self.block).kernel, c.geom).data
        r = y - c.y_t
        loss = float(0.5 * np.mean(r * r))
        upstream = tensor.Tensor(r / r.size)
        grads = getattr(dynamics, BACKWARD[self.route])(self.block, c.x, upstream)
        self.ps.set_flat(dynamics.sgd_step(self.ps.get_flat(), grads, c.cfg, self.state))
        self.losses.append(loss)
        return loss


class CaseRun:
    """Blocks, inputs and target for one case, loaded from its spec file.

    The target and the training batch are drawn exactly as `orepa
    train-toy` draws them from the spec seed.
    """

    def __init__(self, case, spec_path, okt_path, verify_rng):
        self.case = case
        self.spec_path = spec_path
        self.okt_path = okt_path
        self.cfg = dynamics.OptimizerConfig(eta=case.eta)
        self.verify_rng = verify_rng
        self.doc, block = blockspec.load_spec(spec_path)
        self.dtype = self.doc.get("dtype", "f64")
        keh, kew = block.effective_k
        rng = np.random.default_rng(self.doc["seed"] + 1)
        self.target = tensor.KernelTensor(
            rng.standard_normal((block.out_ch, block.in_ch, keh, kew)) * 0.2, dtype=self.dtype)
        rng = np.random.default_rng(self.doc["seed"])
        self.x = tensor.Tensor(rng.standard_normal((case.batch, block.in_ch) + tuple(case.hw)),
                               dtype=block.dtype)
        self.geom = block.eval_geometry()
        self.y_t = tensor.conv2d_direct(self.x, self.target.astype(block.dtype), self.geom).data
        self.routes = {"online": RouteRun("online", block, self),
                       "offline": RouteRun("offline", blockspec.load_spec(spec_path)[1], self)}
        self.verify_block = blockspec.load_spec(spec_path)[1]

    def fresh_input(self):
        shape = (self.case.batch, self.case.ch) + tuple(self.case.hw)
        return tensor.Tensor(self.verify_rng.uniform(-1, 1, size=shape), dtype=self.dtype)

    def verify_op(self, x):
        """Squeeze, round-trip through OKT, convolve, compare with expanded.
        Returns (kernel bytes survived the round trip, max residual)."""
        kernel = squeeze.squeeze_block(self.verify_block).kernel
        okt.write_okt(self.okt_path, kernel)
        back = okt.read_okt(self.okt_path)
        direct = tensor.conv2d_direct(x, back, self.geom)
        expanded = squeeze.expanded_forward(self.verify_block, x)
        same = (back.groups == kernel.groups and back.data.dtype == kernel.data.dtype
                and back.shape == kernel.shape and back.data.tobytes() == kernel.data.tobytes())
        return same, max_abs_diff(direct.data, expanded.data)


class WorkloadRun:
    """Everything one run of one workload does, in order."""

    def __init__(self, workload, seed, workdir, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.checks = Checks()
        self.spec_paths = []
        for i, case in enumerate(workload.cases):
            path = os.path.join(workdir, f"case{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(case.spec_doc(self.case_seed(i)), fh)
            self.spec_paths.append(path)
        self.cases = None
        self.samples = {r: [] for r in ROUTES}
        self.untraced_online = []
        self.verify_ops = 0

    def case_seed(self, i):
        return self.seed * len(self.workload.cases) + i

    # -- set-up -----------------------------------------------------------

    def setup_once(self):
        """Load, build, draw inputs, warm up each route once. Returns seconds."""
        t0 = perf_counter()
        traced = (self.tracer.routed("setup", "time") if self.tracer
                  else contextlib.nullcontext())
        with traced:
            cases = [CaseRun(case, path, os.path.join(self.workdir, f"case{i}.okt"),
                             np.random.default_rng([self.seed, i]))
                     for i, (case, path) in enumerate(zip(self.workload.cases, self.spec_paths))]
        for c in cases:
            for run in c.routes.values():
                run.step()
                run.reset()
            c.verify_op(c.fresh_input())
        elapsed = perf_counter() - t0
        self.cases = cases
        return elapsed

    def setup(self):
        return statistics.median(self.setup_once() for _ in range(SETUP_REPEATS))

    # -- timed loops --------------------------------------------------------

    def _time(self, route, traced, fn, *args):
        t = perf_counter()
        if traced:
            with self.tracer.routed(route, "time"):
                out = self.tracer.step(fn, *args)
        else:
            out = fn(*args)
        return perf_counter() - t, out

    def _round(self, traced):
        """One online step, one offline step and one verify op per case."""
        n = len(self.cases)
        times = dict.fromkeys(ROUTES, 0.0)
        untraced = 0.0
        for c in self.cases:
            if traced:
                # an untraced online step in the same round: the baseline
                # for the tracing overhead
                untraced += self._time("online", False, c.routes["online"].step)[0]
            for route, run in c.routes.items():
                times[route] += self._time(route, traced, run.step)[0]
            dt, (same, residual) = self._time("verify", traced, c.verify_op, c.fresh_input())
            times["verify"] += dt
            self.checks.check(same, f"{c.case.preset}: OKT round trip changed the kernel bytes")
            self.checks.check(residual <= RESIDUAL_TOL,
                              f"{c.case.preset}: squeezed vs expanded residual {residual:.3e}")
            self.verify_ops += 1
        for route, total in times.items():
            self.samples[route].append(total / n)
        if traced:
            self.untraced_online.append(untraced / n)

    def measure(self, seconds, traced=False):
        """Closed loop of rounds until `seconds` have passed. Each round runs
        every route on every case, so all routes sample the same stretch of
        machine time; each sample is a route's mean time over the round's
        cases, so a workload that cycles several blocks gives one unimodal
        sample per round."""
        end = perf_counter() + seconds
        while True:
            self._round(traced)
            if perf_counter() >= end:
                break

    # -- correctness --------------------------------------------------------

    def check_training(self):
        """Finite losses, train_toy reproduction, and route agreement."""
        for c in self.cases:
            for route, run in c.routes.items():
                for i, loss in enumerate(run.losses):
                    self.checks.check(np.isfinite(loss),
                                      f"{c.case.preset} {route}: loss {loss} at step {i}")
        for c in self.cases:
            for route, run in c.routes.items():
                mine = run.losses[:REPRO_STEPS]
                _, fresh = blockspec.load_spec(c.spec_path)
                ref = dynamics.train_toy(fresh, c.target, len(mine), c.cfg, mode=route,
                                         seed=c.doc["seed"], batch=c.case.batch,
                                         hw=tuple(c.case.hw))
                self.checks.check(ref["losses"] == mine,
                                  f"{c.case.preset} {route}: loss curve differs from train_toy")
            block = c.routes["online"].block
            y = tensor.conv2d_direct(c.x, squeeze.squeeze_block(block).kernel, c.geom).data
            r = y - c.y_t
            upstream = tensor.Tensor(r / r.size)
            diff = max_abs_diff(dynamics.backward_through_squeeze(block, c.x, upstream),
                                dynamics.backward_through_expanded(block, c.x, upstream))
            self.checks.check(diff <= RESIDUAL_TOL,
                              f"{c.case.preset}: online vs offline gradient differ by {diff:.3e}")

    def check_call_counts(self, calls_by_case):
        """The traced count pass saw exactly the calls the topology implies."""
        for c, calls in zip(self.cases, calls_by_case):
            for route in ROUTES:
                for func, want in expected_calls(c.verify_block, route).items():
                    got = calls.get((route, func), 0)
                    self.checks.check(got == want,
                                      f"{c.case.preset} {route}: {func} called {got}x, "
                                      f"topology implies {want}x")

    # -- untimed passes -----------------------------------------------------

    def _one_of_each(self, wrap, cases=None):
        """One training step per route and one verify op on every case, each
        passed through wrap(case, route, fn, *args)."""
        for c in cases or self.cases:
            for route, run in c.routes.items():
                wrap(c, route, run.step)
            wrap(c, "verify", c.verify_op, c.fresh_input())

    def peak_pass(self):
        """End-to-end tracemalloc peak of one step or op, in MiB, per route;
        the mean over the workload's cases."""
        sums = defaultdict(float)

        def measure(c, route, fn, *args):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fn(*args)
                sums[route] += (tracemalloc.get_traced_memory()[1] - base) / MIB
            finally:
                tracemalloc.stop()

        self._one_of_each(measure)
        return {r: v / len(self.cases) for r, v in sums.items()}

    def layer_peak_pass(self):
        """Per-layer peaks through the tracer's memory mode, mean over cases."""
        sums = defaultdict(float)

        def measure(c, route, fn, *args):
            self.tracer.peaks = {}
            tracemalloc.start()
            try:
                with self.tracer.routed(route, "memory"):
                    self.tracer.step(fn, *args)
            finally:
                tracemalloc.stop()
            for key, value in self.tracer.peaks.items():
                sums[key] += value / MIB

        self._one_of_each(measure)
        return {k: v / len(self.cases) for k, v in sums.items()}

    def count_pass(self):
        """Calls, multiplies and useful multiplies per step, through the
        tracer's count mode. Returns the per-case call tables too."""
        t = self.tracer
        per_case = []
        calls, mults, useful = defaultdict(int), defaultdict(int), defaultdict(int)

        def measure(c, route, fn, *args):
            with t.routed(route, "count"):
                fn(*args)

        for c in self.cases:
            for table in (t.calls, t.mults, t.useful):
                table.clear()
            self._one_of_each(measure, [c])
            per_case.append(dict(t.calls))
            for src, dst in ((t.calls, calls), (t.mults, mults), (t.useful, useful)):
                for k, v in src.items():
                    dst[k] += v
        return per_case, calls, mults, useful

    def model(self):
        """squeeze.cost_report per case, as MiB of f64 buffers and Gmult."""
        out = defaultdict(float)
        for c in self.cases:
            rep = squeeze.cost_report(c.verify_block, tuple(c.case.hw), c.case.batch)
            item = np.dtype(c.x.data.dtype).itemsize
            for route in ("online", "offline"):
                out[f"model.{route}.buffer_mib"] += rep[route]["buffer_elems"] * item / MIB
                out[f"model.{route}.gmults"] += rep[route]["mults"] / 1e9
        return {k: v / len(self.cases) for k, v in out.items()}


def expected_calls(block, route):
    """Calls per step (or op) of each layer function, from the topology."""
    depth = [len(b.weights) for b in block.branches]
    scaled = sum(b.scaling is not None for b in block.branches)
    merges = sum(depth) - len(depth)
    squeezes = {"layers.as_dense": sum(depth), "squeeze.merge_sequential": merges,
                "squeeze.apply_branch_scaling": scaled,
                "squeeze.merge_parallel": int(len(depth) > 1)}
    if route == "verify":
        return {**squeezes, "squeeze.squeeze_block": 1, "okt.write_okt": 1, "okt.read_okt": 1,
                "tensor.conv2d_direct": 1 + sum(depth), "squeeze.expanded_forward": 1,
                "tensor.pad_spatial": 1, "tensor.scale_by_channel": scaled,
                "tensor.sum_over": 1}
    out = {**squeezes, "squeeze.squeeze_block": 1, "tensor.conv2d_direct": 1,
           "dynamics.sgd_step": 1, "dynamics.ParamSet.get_flat": 1,
           "dynamics.ParamSet.set_flat": 1}
    if route == "online":
        # backward_through_squeeze rebuilds the same prefix products
        out.update({k: 2 * v for k, v in squeezes.items()})
        out.update({"dynamics._conv_grad_w": 1, "dynamics._merge_backward": merges,
                    "dynamics.backward_through_squeeze": 1})
    else:
        out.update({"tensor.conv2d_direct": 1 + sum(depth), "dynamics._conv_grad_w": sum(depth),
                    "dynamics._conv_grad_x": merges, "dynamics.backward_through_expanded": 1})
    return out


def percentile(samples, q):
    return float(np.percentile(np.asarray(samples), q))


def end_to_end(run, setup_s, peaks):
    """The end-to-end metrics of one untraced run, with their units."""
    m = {"setup_s": setup_s}
    for route, name in (("online", "online_step_ms"), ("offline", "offline_step_ms"),
                        ("verify", "verify_ms")):
        ms = [s * 1e3 for s in run.samples[route]]
        m[f"{name}.p50"] = percentile(ms, 50)
        m[f"{name}.p75"] = percentile(ms, 75)
    for route in ROUTES:
        m[f"{route}_peak_mib"] = peaks[route]
    units = dict(END_TO_END)
    return {k: {"value": m[k], "unit": units[k]} for k, _ in END_TO_END}


def per_layer(run, layer_peaks, counts, model):
    """The per-layer metrics of one traced run, with their units."""
    tracer = run.tracer
    _, calls, mults, useful = counts
    n_cases = len(run.cases)
    steps = {r: len(run.samples[r]) * n_cases for r in ROUTES}
    steps["setup"] = SETUP_REPEATS * n_cases
    self_s = tracer.self_times()
    values = {}
    for route, funcs in ROUTE_STATS.items():
        for func, stats in funcs:
            key = (route, func)
            for stat in stats:
                if stat == "calls":
                    v = calls.get(key, 0) / n_cases
                elif stat == "self_ms":
                    v = self_s.get(key, 0.0) * 1e3 / steps[route]
                elif stat == "gmults":
                    v = mults.get(key, 0) / n_cases / 1e9
                elif stat == "useful_frac":
                    v = useful.get(key, 0) / mults[key] if mults.get(key) else 0.0
                else:
                    v = layer_peaks.get(key, 0.0)
                values[f"{route}.{func}.{stat}"] = v
        if route != "setup":
            roots = tracer.root_durations(route)
            values[f"{route}.{STEP}.total_ms"] = sum(roots) * 1e3 / steps[route]
    traced_online = [s * 1e3 for s in run.samples["online"]]
    values[f"online.{STEP}.overhead_ms"] = (
        percentile(traced_online, 50) - percentile([s * 1e3 for s in run.untraced_online], 50))
    values.update(model)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_names()}


def run_untraced(workload, seed, seconds, workdir):
    """The end-to-end run: set-up, timed rounds, checks, then the peak pass.
    Nothing is wrapped."""
    run = WorkloadRun(workload, seed, workdir)
    setup_s = run.setup()
    run.measure(seconds)
    run.check_training()
    return run, end_to_end(run, setup_s, run.peak_pass())


def run_traced(workload, seed, seconds, workdir):
    """The per-layer run: the same rounds with every layer function wrapped,
    then a memory pass and a count pass. Returns the run, its per-layer
    metrics, the per-layer peaks and the counts."""
    tracer = Tracer()
    with tracer.installed():
        run = WorkloadRun(workload, seed, workdir, tracer)
        run.setup()
        run.measure(seconds, traced=True)
        run.check_training()
        layer_peaks = run.layer_peak_pass()
        counts = run.count_pass()
        run.check_call_counts(counts[0])
    return run, per_layer(run, layer_peaks, counts, run.model()), layer_peaks, counts
