"""Command-line surface: squeeze, verify, gradcheck, dynamics, bench,
train-toy, analyze.

main checks the flags, then loads the spec (analyze: the checkpoint); each
command gets (args, spec doc, block), prints its table and returns (report
body, verdict), and main alone writes the report and picks the exit code.
Exit codes: 0 pass, 1 invariant violation, 2 usage, spec (including one no
block can be built from), checkpoint, kernel-file (including a kernel that
does not fit the spec), file-system error or an input too large to allocate,
3 internal error (a merge/shape error, or any other exception with its
traceback). Reports are deterministic for a given (spec, seed, flags); no
timestamps are emitted, and a NaN or infinite number is written as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import asdict

import numpy as np

from . import __version__
from .blockspec import SpecError, load_checkpoint, load_spec, save_checkpoint
from .dynamics import (OptimizerConfig, branch_similarity, channel_norm_profile,
                       gradcheck_block, probe_branchwise_gamma,
                       probe_conv_scale_update, probe_multilayer_lemma,
                       probe_shared_gamma, train_toy)
from .okt import FormatError, read_okt, write_okt
from .squeeze import MergeError, _output_hw, cost_report, expanded_forward, squeeze_block
from .tensor import KernelTensor, ShapeError, Tensor, _addressable, conv2d_direct

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# verify's default --tol per spec dtype. A pass guarantees only that the two routes'
# outputs agree within tol * max(1, max |output|). f32 routes round apart by a few
# eps(f32) of the output (1.5e-3 at |y| 3e3 on a 512-channel deepstem), so an f32
# kernel with one tap off by 1% can pass (orepa3x3, 16 and 64 ch: gaps 4.7e-3, 3.3e-3)
VERIFY_TOL = {"f64": 1e-9, "f32": 1e-3}


class UsageError(Exception):
    """A flag value is out of range or does not fit the spec; main reports
    it with exit code 2."""


def _check_flags(args):
    """Reject out-of-range numeric flags before any work starts, the spec's load included."""
    for name in ("trials", "batch", "steps", "layers", "hw"):
        if min(np.atleast_1d(getattr(args, name, 1))) < 1:
            raise UsageError(f"--{name} must be >= 1")
    if not 0 < getattr(args, "eta", 1.0) < math.inf:
        raise UsageError("--eta must be finite and > 0")
    for name in ("tol", "weight_decay"):
        if getattr(args, name, None) is not None and not 0 <= getattr(args, name) < math.inf:
            raise UsageError(f"--{name.replace('_', '-')} must be finite and >= 0")
    if not 0 <= getattr(args, "momentum", 0.0) < 1:
        raise UsageError("momentum must be in [0, 1)")


def _finite_or_null(v):
    """The report as plain Python with numpy arrays and scalars converted
    and every NaN or infinite float replaced by None, so that it
    serializes as strict JSON (null)."""
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return v


def _print_table(rows):
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")


def cmd_squeeze(args, doc, block):
    result = squeeze_block(block)
    write_okt(args.out, result.kernel)
    trace_path = args.trace or (args.out + ".trace.jsonl")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(result.trace_json_lines() + "\n")
    keh, kew = result.effective_k
    print(f"effective kernel {keh}x{kew}")
    return {
        "effective_k": [keh, kew],
        "kernel_shape": list(result.kernel.shape),
        "out": args.out,
        "trace_steps": len(result.trace),
    }, True


@np.errstate(over="ignore", invalid="ignore")  # a non-finite output is reported, and fails
def cmd_verify(args, doc, block):
    dtype = block.dtype
    tol = VERIFY_TOL[dtype] if args.tol is None else args.tol
    if args.kernel:
        kernel = read_okt(args.kernel)
        if not isinstance(kernel, KernelTensor):
            raise UsageError(f"--kernel holds a feature map of shape {kernel.shape}, not a kernel")
        got = (kernel.dtype, kernel.out_channels, kernel.in_channels, kernel.kh, kernel.kw)
        want = (dtype, block.out_ch, block.in_ch, *block.effective_k)
        if got != want:
            raise UsageError(f"--kernel has (dtype, Co, Ci, kh, kw) {got}, the spec needs {want}")
    else:
        kernel = squeeze_block(block).kernel
    rng = np.random.default_rng(doc["seed"])
    geom = block.eval_geometry()
    residuals, y_max = [], 1.0
    for _ in range(args.trials):
        x = Tensor(rng.uniform(-1, 1, size=_addressable((args.batch, block.in_ch, *args.hw))),
                   dtype=dtype)
        ys = conv2d_direct(x, kernel, geom).data, expanded_forward(block, x).data
        residuals.append(np.abs(ys[0] - ys[1]).max())
        y_max = max(y_max, *(float(np.abs(y).max()) for y in ys))
    worst = float(np.max(residuals))  # NaN propagates and then fails `<= tol`
    # an infinite output would scale the tolerance to inf: it fails like a NaN
    ok = worst <= tol * y_max < math.inf
    print(f"max residual {worst:.3e} over {args.trials} trials (tol {tol:.1e})")
    return {"trials": args.trials, "tol": tol, "max_residual": worst, "pass": ok}, ok


def cmd_gradcheck(args, doc, block):
    rng = np.random.default_rng(doc["seed"])
    x = Tensor(rng.standard_normal(_addressable((args.batch, block.in_ch, *args.hw))),
               dtype=block.dtype)
    up_shape = (args.batch, block.out_ch) + _output_hw(block, args.hw)
    upstream = Tensor(rng.standard_normal(_addressable(up_shape)), dtype=block.dtype)
    res = gradcheck_block(block, x, upstream)
    _print_table([("params", res["n_params"]),
                  ("route diff (squeezed vs expanded)", f"{res['route_diff']:.3e}"),
                  ("finite-difference rel err", f"{res['fd_rel_err']:.3e}"),
                  ("ok", res["ok"])])
    return res, res["ok"]


@np.errstate(over="ignore", invalid="ignore")  # a probe that overflows is reported, and fails
def cmd_dynamics(args, doc, block):
    rng = np.random.default_rng(doc["seed"])
    eta = args.eta
    if args.probe == "convscale":
        # the canonical scalar instance: residual is exactly eta^2
        rep = probe_conv_scale_update(1.0, 1.0, 1.0, 1.0, eta)
        ok = abs(rep.residual_norm - eta * eta) <= 1e-12
    elif args.probe == "shared":
        rep = probe_shared_gamma(rng.uniform(0.5, 1.5, size=4), rng.uniform(0.5, 1.5),
                                 rng.uniform(-1, 1, size=4), rng.uniform(0.5, 1.5),
                                 n_branches=3, eta=eta, rng=rng)
        ok = rep.first_order_diff <= 1e-9
    elif args.probe == "branchwise":
        branches = [(rng.uniform(0.5, 1.5), rng.uniform(-1, 1, size=4)) for _ in range(3)]
        rep = probe_branchwise_gamma(branches, rng.uniform(-1, 1, size=4),
                                     rng.uniform(0.5, 1.5), eta)
        ok = rep.first_order_diff > 1e-6 and rep.details["min_branch_gradient_gap"] > 0
    else:
        rep = probe_multilayer_lemma(args.layers, eta, rng=rng)
        ok = rep.details["balanced"] and rep.residual_norm <= 10 * eta * eta * args.layers
    # inf <= inf and inf > 1e-6 would pass; eta * eta is inf where eta ** 2 raises
    ok = ok and all(map(math.isfinite, (rep.residual_norm, rep.first_order_diff or 0, eta * eta)))
    rows = [("probe", rep.probe), ("eta", rep.eta),
            ("residual", f"{rep.residual_norm:.3e}")]
    if rep.first_order_diff is not None:
        rows.append(("first_order_diff", f"{rep.first_order_diff:.3e}"))
    if rep.residual_ratio is not None:
        rows.append(("residual_ratio (eta vs eta/2)", f"{rep.residual_ratio:.3f}"))
    _print_table(rows)
    return {**asdict(rep), "pass": ok}, ok


def cmd_bench(args, doc, block):
    costs = cost_report(block, (args.hw[0], args.hw[1]), args.batch)
    off, on = costs["offline"], costs["online"]
    buf_ratio = on["buffer_elems"] / off["buffer_elems"] if off["buffer_elems"] else 0.0
    mult_ratio = on["mults"] / off["mults"] if off["mults"] else 0.0
    _print_table([
        ("offline intermediate buffer elems", off["buffer_elems"]),
        ("online intermediate buffer elems", on["buffer_elems"]),
        ("buffer ratio online/offline", f"{buf_ratio:.4f}"),
        ("offline mults", off["mults"]),
        ("online mults", on["mults"]),
        ("mult ratio online/offline", f"{mult_ratio:.4f}"),
    ])
    return {"hw": list(args.hw), "batch": args.batch, **costs,
            "buffer_ratio": buf_ratio, "mult_ratio": mult_ratio}, True


def cmd_train_toy(args, doc, block):
    rng = np.random.default_rng(doc["seed"] + 1)
    keh, kew = block.effective_k
    target_arr = rng.standard_normal((block.out_ch, block.in_ch, keh, kew)) * 0.2
    target = KernelTensor(target_arr, dtype=block.dtype)
    cfg = OptimizerConfig(eta=args.eta, weight_decay=args.weight_decay, momentum=args.momentum)
    res = train_toy(block, target, args.steps, cfg, mode=args.mode,
                    seed=doc["seed"], batch=args.batch, hw=tuple(args.hw))
    if res["diverged_at"] is not None:
        print(f"diverged at step {res['diverged_at']}")
        return {"mode": args.mode, "diverged_at": res["diverged_at"]}, False
    _print_table([("steps", args.steps), ("mode", args.mode),
                  ("first loss", f"{res['losses'][0]:.6e}"),
                  ("final loss", f"{res['final_loss']:.6e}")])
    if args.save:
        save_checkpoint(args.save, doc, block)
    return {
        "mode": args.mode, "steps": args.steps,
        "eta": args.eta, "first_loss": res["losses"][0],
        "final_loss": res["final_loss"], "loss_curve": res["losses"],
        "diverged_at": None,
    }, True


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def cmd_analyze(args, doc, block):
    sim = branch_similarity(block)
    prof = channel_norm_profile(block)
    names = [b.name or f"branch{i}" for i, b in enumerate(block.branches)]
    _write_csv(args.similarity_csv, ["branch"] + names,
               [[names[i]] + [f"{v:.12g}" for v in sim[i]] for i in range(len(names))])
    _write_csv(args.norms_csv, ["branch"] + [f"ch{c}" for c in range(prof.shape[1])],
               [[names[i]] + [f"{v:.12g}" for v in prof[i]] for i in range(len(names))])
    off_diag = [abs(sim[i, j]) for i in range(len(names)) for j in range(len(names)) if i != j]
    mean_off = float(np.mean(off_diag)) if off_diag else 0.0
    print(f"mean off-diagonal |cosine| {mean_off:.4f}")
    return {"mean_offdiag_abs_cos": mean_off,
            "similarity_csv": args.similarity_csv,
            "norms_csv": args.norms_csv}, True


def build_parser():
    p = argparse.ArgumentParser(prog="orepa", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("spec", help="block-spec JSON path")
        sp.add_argument("--json", help="write the machine-readable report here")

    sp = sub.add_parser("squeeze", help="collapse a block to one kernel")
    common(sp)
    sp.add_argument("--out", required=True, help="output OKT1 kernel path")
    sp.add_argument("--trace", help="trace JSONL path (default: <out>.trace.jsonl)")
    sp.set_defaults(func=cmd_squeeze)

    sp = sub.add_parser("verify", help="squeeze-forward equivalence on random inputs")
    common(sp)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--tol", type=float,
                    help="max |residual| relative to max(1, max |output|) "
                         "(default: 1e-9 for an f64 spec, 1e-3 for f32)")
    sp.add_argument("--kernel", help="check this OKT1 kernel instead of re-squeezing")
    sp.add_argument("--batch", type=int, default=2)
    sp.add_argument("--hw", type=int, nargs=2, default=(12, 12))
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("gradcheck", help="squeezed vs expanded vs finite differences")
    common(sp)
    sp.add_argument("--batch", type=int, default=1)
    sp.add_argument("--hw", type=int, nargs=2, default=(6, 6))
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub.add_parser("dynamics", help="first-order update probes")
    common(sp)
    sp.add_argument("--probe", required=True,
                    choices=("convscale", "shared", "branchwise", "lemma"))
    sp.add_argument("--eta", type=float, default=1e-2)
    sp.add_argument("--layers", type=int, default=3, help="chain depth for the lemma probe")
    sp.set_defaults(func=cmd_dynamics)

    sp = sub.add_parser("bench", help="analytic buffer and multiply accounting")
    common(sp)
    sp.add_argument("--hw", type=int, nargs=2, default=(56, 56))
    sp.add_argument("--batch", type=int, default=32)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("train-toy", help="fit the squeezed kernel to a random target")
    common(sp)
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--eta", type=float, default=0.05)
    sp.add_argument("--weight-decay", type=float, default=0.0)
    sp.add_argument("--momentum", type=float, default=0.0)
    sp.add_argument("--mode", choices=("online", "offline"), default="online")
    sp.add_argument("--batch", type=int, default=2)
    sp.add_argument("--hw", type=int, nargs=2, default=(8, 8))
    sp.add_argument("--save", help="write a checkpoint here after training")
    sp.set_defaults(func=cmd_train_toy)

    sp = sub.add_parser("analyze", help="branch similarity and norm profiles from a checkpoint")
    sp.add_argument("ckpt", help="checkpoint path from train-toy --save")
    sp.add_argument("--similarity-csv", required=True)
    sp.add_argument("--norms-csv", required=True)
    sp.add_argument("--json", help="write the machine-readable report here")
    sp.set_defaults(func=cmd_analyze)
    return p


# (exception, stderr prefix, exit code), first match wins; any other
# exception exits EXIT_INTERNAL with its traceback
FAILURES = ((UsageError, "error", EXIT_USAGE), (SpecError, "spec error", EXIT_USAGE),
            (FormatError, "kernel file error", EXIT_USAGE), (OSError, "error", EXIT_USAGE),
            (MemoryError, "out of memory", EXIT_USAGE),
            ((MergeError, ShapeError), "merge/shape error", EXIT_INTERNAL))


def main(argv=None):
    args = build_parser().parse_args(argv)  # argparse exits 2 on usage errors
    try:
        _check_flags(args)
        doc, block = load_spec(args.spec) if "spec" in args else load_checkpoint(args.ckpt)
        body, verdict = args.func(args, doc, block)
        if args.json:
            report = {"tool_version": __version__, "seed": doc["seed"],
                      "dtype": doc.get("dtype", "f64"),
                      "command": args.command.replace("-", "_"), **body}
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(_finite_or_null(report), fh, sort_keys=True, indent=2,
                          allow_nan=False)
                fh.write("\n")
        return EXIT_OK if verdict else EXIT_VIOLATION
    except Exception as exc:
        for kind, prefix, code in FAILURES:
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
