"""The text lines printed before the result line: each metric with its unit,
the analytic model beside the measured numbers, and the traced layer shares."""

from __future__ import annotations

import harness
from tracer import STEP


def _row(name, value, unit, note=""):
    print(f"{name:<52} {value:>14.6g} {unit:<6} {note}".rstrip())


def print_end_to_end(run, metrics):
    """Every end-to-end metric with its unit, sample count and model beside it."""
    names = {"online_step_ms": "online", "offline_step_ms": "offline", "verify_ms": "verify"}
    for name, m in metrics.items():
        note = ""
        route = names.get(name.split(".")[0])
        if route:
            ms = [s * 1e3 for s in run.samples[route]]
            note = f"n={len(ms)} samples, {sum(x > m['value'] for x in ms)} above"
        elif name == "setup_s":
            note = f"median of {harness.SETUP_REPEATS} set-ups"
        _row(name, m["value"], m["unit"], note)
    _print_model(run.model(), {r: metrics[f"{r}_peak_mib"]["value"] for r in ("online", "offline")})


def print_per_layer(run, metrics, layer_peaks, counts):
    """Every per-layer metric, then the layer shares of each traced step."""
    for name, m in metrics.items():
        _row(name, m["value"], m["unit"])
    v = {k: m["value"] for k, m in metrics.items()}
    _print_model(v, {r: layer_peaks[(r, STEP)] for r in ("online", "offline")})
    _, _, mults, _ = counts
    for route in ("online", "offline"):
        computed = sum(n for (r, _), n in mults.items() if r == route) / len(run.cases) / 1e9
        ref = v[f"model.{route}.gmults"]
        print(f"# {route}: {computed:.4g} Gmult per step computed from traced shapes "
              f"(forward and backward), model.{route}.gmults {ref:.4g} (forward only), "
              f"ratio {computed / ref:.3g}")
    for route in ("online", "offline"):
        total = v[f"{route}.{STEP}.total_ms"]
        conv = sum(v.get(f"{route}.{f}.self_ms", 0.0) for f in (
            "tensor.conv2d_direct", "dynamics._conv_grad_w", "dynamics._conv_grad_x"))
        merge = sum(v.get(f"{route}.{f}.self_ms", 0.0) for f in (
            "squeeze.merge_sequential", "dynamics._merge_backward"))
        print(f"# {route} step {total:.4g} ms traced: convolutions and their adjoints "
              f"{conv / total:.1%}, sequential merges and their adjoint {merge / total:.1%}")
    print(f"# tracing overhead on online_step_ms.p50: {v[f'online.{STEP}.overhead_ms']:.4g} ms")


def _print_model(model, measured):
    for route in ("online", "offline"):
        ref = model[f"model.{route}.buffer_mib"]
        print(f"# {route}_peak_mib {measured[route]:.4f} MiB measured vs "
              f"model.{route}.buffer_mib {ref:.4f} MiB, measured/model {measured[route] / ref:.3g}; "
              f"model.{route}.gmults {model[f'model.{route}.gmults']:.4g}")
