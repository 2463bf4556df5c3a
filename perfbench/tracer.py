"""Per-layer tracing by wrapping the library's layer functions from outside.

`Tracer.installed()` replaces each function listed in LAYER_FUNCS with a
wrapper in every `orepa` module namespace that holds it (a name imported
with `from .tensor import conv2d_direct` is a separate binding in each
importing module), and restores the originals on exit. Only the traced
run installs it; the end-to-end timings never run through a wrapper.

A wrapper does nothing unless the tracer has a route set, and then one of
three things, one mode per pass so that no pass disturbs another's numbers:

  time    record a span (route, name, parent, start, end) in memory;
  memory  record the tracemalloc peak above the level at entry;
  count   count the call and the multiplies it computes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

from orepa.tensor import KernelTensor, Tensor

# "<module>.<function>" under orepa; a dotted function is a method.
LAYER_FUNCS = (
    "tensor.conv2d_direct", "tensor.pad_spatial", "tensor.scale_by_channel",
    "tensor.sum_over",
    "layers.as_dense",
    "squeeze.merge_sequential", "squeeze.merge_parallel",
    "squeeze.apply_branch_scaling", "squeeze.squeeze_block",
    "squeeze.expanded_forward",
    "dynamics._conv_grad_w", "dynamics._conv_grad_x", "dynamics._merge_backward",
    "dynamics.backward_through_squeeze", "dynamics.backward_through_expanded",
    "dynamics.sgd_step", "dynamics.ParamSet.get_flat", "dynamics.ParamSet.set_flat",
    "okt.write_okt", "okt.read_okt",
    "blockspec.load_spec", "blocks.build_preset",
)

STEP = "perfbench.step"


def _arr(t):
    return np.asarray(t.data if isinstance(t, (Tensor, KernelTensor)) else t)


def _nz(t):
    return _arr(t) != 0


def _count_conv(a, y):
    w = a["w"]
    return _arr(y).size * w.in_channels_per_group * w.kh * w.kw, None


def _count_grad_w(a, _):
    k = a["kernel"]
    return _arr(a["gout"]).size * k.in_channels_per_group * k.kh * k.kw, None


def _count_grad_x(a, gx):
    k = a["kernel"]
    return gx.size * (k.out_channels // k.groups) * k.kh * k.kw, None


def _seq_mults(w1, w2):
    return w2.out_channels * w2.kh * w2.kw * w1.out_channels * w1.in_channels * w1.kh * w1.kw


def _count_merge(a, _):
    """merge_sequential multiplies w2[q, c, a, b] by w1[c, p, i, j] for every
    index; a pair is useful when both operands are non-zero."""
    w1, w2 = a["w1"], a["w2"]
    n1 = _nz(w1).sum(axis=(1, 2, 3))                  # per c
    n2 = _nz(w2).sum(axis=0)                          # (c, a, b)
    return _seq_mults(w1, w2), int(np.einsum("cab,c->", n2, n1))


def _count_merge_backward(a, _):
    """Per w2 tap (a, b): dw2 pairs g[q, p, a+m, b+n] with w1[c, p, m, n];
    dw1 pairs w2[q, c, a, b] with g[q, p, a+m, b+n]."""
    w1, w2 = a["w1"], a["w2"]
    g = _nz(a["gout"])
    k1h, k1w = w1.kh, w1.kw
    nw1 = _nz(w1).sum(axis=0)                         # (p, m, n)
    nw2 = _nz(w2).sum(axis=1)                         # (q, a, b)
    g_q = g.sum(axis=0)                               # (p, H, W)
    useful = 0
    for ta in range(w2.kh):
        for tb in range(w2.kw):
            useful += int(np.sum(g_q[:, ta:ta + k1h, tb:tb + k1w] * nw1))
            g_tap = g[:, :, ta:ta + k1h, tb:tb + k1w].sum(axis=(1, 2, 3))  # per q
            useful += int(np.sum(g_tap * nw2[:, ta, tb]))
    return 2 * _seq_mults(w1, w2), useful


COUNTERS = {
    "tensor.conv2d_direct": _count_conv,
    "dynamics._conv_grad_w": _count_grad_w,
    "dynamics._conv_grad_x": _count_grad_x,
    "squeeze.merge_sequential": _count_merge,
    "dynamics._merge_backward": _count_merge_backward,
}


def _resolve(qualname):
    mod_name, _, attr = qualname.partition(".")
    owner = importlib.import_module(f"orepa.{mod_name}")
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Wraps LAYER_FUNCS; per-pass results live on the instance."""

    def __init__(self):
        self.mode = None
        self.route = None
        self.spans = []              # [route, name, parent index, start, end]
        self._stack = []
        self.peaks = {}              # (route, name) -> max bytes above entry
        self._mstack = []
        self.calls = defaultdict(int)
        self.mults = defaultdict(int)
        self.useful = defaultdict(int)

    @contextlib.contextmanager
    def installed(self):
        rebound = []
        try:
            for qualname in LAYER_FUNCS:
                owner, attr = _resolve(qualname)
                fn = getattr(owner, attr)
                wrapper = self._wrap(qualname, fn)
                targets = [owner] if inspect.isclass(owner) else [
                    m for n, m in list(sys.modules.items())
                    if n == "orepa" or n.startswith("orepa.")]
                for mod in targets:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapper)
                            rebound.append((mod, name, fn))
            yield self
        finally:
            for mod, name, fn in reversed(rebound):
                setattr(mod, name, fn)

    @contextlib.contextmanager
    def routed(self, route, mode):
        """Trace calls made inside the block under `route` in `mode`."""
        self.route, self.mode = route, mode
        try:
            yield
        finally:
            self.route, self.mode = None, None

    def step(self, fn, *args):
        """Run one step or op as the root span of its route."""
        if self.mode is None:
            return fn(*args)
        return self._dispatch(STEP, fn, args, {})

    def _wrap(self, qualname, fn):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.mode is None:
                return fn(*args, **kwargs)
            return tracer._dispatch(qualname, fn, args, kwargs, sig)
        return wrapper

    def _dispatch(self, name, fn, args, kwargs, sig=None):
        if self.mode == "time":
            return self._timed(name, fn, args, kwargs)
        if self.mode == "memory":
            return self._peaked(name, fn, args, kwargs)
        return self._counted(name, fn, args, kwargs, sig)

    def _timed(self, name, fn, args, kwargs):
        span = [self.route, name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            self._stack.pop()

    def _peaked(self, name, fn, args, kwargs):
        # tracemalloc keeps one peak, so each call resets it and folds the
        # peak seen so far into its caller's running peak on the stack.
        entry, outer_peak = tracemalloc.get_traced_memory()
        if self._mstack:
            self._mstack[-1] = max(self._mstack[-1], outer_peak)
        tracemalloc.reset_peak()
        self._mstack.append(entry)
        try:
            return fn(*args, **kwargs)
        finally:
            peak = max(self._mstack.pop(), tracemalloc.get_traced_memory()[1])
            key = (self.route, name)
            self.peaks[key] = max(self.peaks.get(key, 0), peak - entry)
            if self._mstack:
                self._mstack[-1] = max(self._mstack[-1], peak)

    def _counted(self, name, fn, args, kwargs, sig):
        result = fn(*args, **kwargs)
        key = (self.route, name)
        self.calls[key] += 1
        counter = COUNTERS.get(name)
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            mults, useful = counter(bound.arguments, result)
            self.mults[key] += mults
            if useful is not None:
                self.useful[key] += useful
        return result

    def self_times(self):
        """Per (route, name): summed span time minus time in child spans."""
        child = [0.0] * len(self.spans)
        for route, name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for (route, name, _, t0, t1), c in zip(self.spans, child):
            out[(route, name)] += (t1 - t0) - c
        return out

    def root_durations(self, route):
        return [t1 - t0 for r, name, parent, t0, t1 in self.spans
                if r == route and name == STEP]
