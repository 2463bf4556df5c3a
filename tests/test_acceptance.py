"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import time

import numpy as np
import pytest

from orepa import layers as L
from orepa.blocks import SCALING_INIT, build_preset
from orepa.dynamics import (OptimizerConfig, backward_through_expanded,
                            backward_through_squeeze, finite_difference_grads,
                            probe_branchwise_gamma, probe_conv_scale_update,
                            probe_shared_gamma, train_toy)
from orepa.okt import read_okt, write_okt
from orepa.squeeze import (BlockGraph, block_forward_squeezed, build_branch,
                           cost_report, expanded_forward, squeeze_block)
from orepa.tensor import KernelTensor, Tensor

from oracles import freq_filter_loop
from util import make_random_block, rand_input

PRESET_CASES = [
    ("orepa3x3", dict(in_ch=3, out_ch=4, k=3, seed=1)),
    ("orepa1x1", dict(in_ch=4, out_ch=3, k=1, seed=2)),
    ("deepstem", dict(in_ch=3, out_ch=8, k=3, seed=3)),
    ("orepavgg", dict(in_ch=4, out_ch=4, k=3, seed=4)),
    ("dbb", dict(in_ch=3, out_ch=5, k=3, seed=5)),
]


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _equivalence_gap(block, x):
    direct = block_forward_squeezed(block, x)
    expanded = expanded_forward(block, x)
    return float(np.max(np.abs(direct.data - expanded.data)))


def test_criterion_1_squeeze_forward_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    gaps = []
    for preset, kwargs in PRESET_CASES:
        block = build_preset(preset, **kwargs)
        x = rand_input(rng, block, hw=(16, 16), batch=4)
        gaps.append(_equivalence_gap(block, x))
    for seed in range(200):
        block = make_random_block(seed)
        h = int(rng.integers(6, 17))
        w = int(rng.integers(6, 17))
        b = int(rng.integers(1, 5))
        x = rand_input(rng, block, hw=(h, w), batch=b)
        gaps.append(_equivalence_gap(block, x))
    worst = float(np.max(gaps))  # NaN-propagating, so a NaN gap fails
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 60
    report(1, ok, f"max residual {worst:.3e} over 5 presets + 200 random blocks "
                  f"(tol 1e-9), {elapsed:.1f}s")


def test_criterion_2_gradient_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(2002)
    worst_route = 0.0
    worst_fd = 0.0
    for seed in range(50):
        block = make_random_block(seed + 3000, max_branches=4, max_depth=2,
                                  max_ch=4, ks=(1, 3))
        x = rand_input(rng, block, hw=(5, 5), batch=1)
        s_h, s_w = block.output_geometry.stride
        g = Tensor(rng.standard_normal(
            (1, block.out_ch, (5 - 1) // s_h + 1, (5 - 1) // s_w + 1)))
        g_sq = backward_through_squeeze(block, x, g)
        g_ex = backward_through_expanded(block, x, g)
        g_fd = finite_difference_grads(block, x, g, eps=1e-6)
        worst_route = max(worst_route, float(np.max(np.abs(g_sq - g_ex))))
        denom = np.maximum(1.0, np.maximum(np.abs(g_sq), np.abs(g_fd)))
        worst_fd = max(worst_fd, float(np.max(np.abs(g_sq - g_fd) / denom)))
    elapsed = time.monotonic() - t0
    ok = worst_route <= 1e-9 and worst_fd <= 1e-6 and elapsed < 120
    report(2, ok, f"50 blocks: route gap {worst_route:.3e} (tol 1e-9), "
                  f"fd rel err {worst_fd:.3e} (tol 1e-6), {elapsed:.1f}s")


def test_criterion_3_deep_stem_fold():
    block = build_preset("deepstem", 3, 16, 3, seed=33)
    res = squeeze_block(block)
    rng = np.random.default_rng(3003)
    x = rand_input(rng, block, hw=(14, 14), batch=2)
    gap = _equivalence_gap(block, x)
    ok = res.effective_k == (7, 7) and gap <= 1e-9
    report(3, ok, f"three stacked 3x3 fold to {res.effective_k[0]}x{res.effective_k[1]} "
                  f"(want 7x7), equivalence gap {gap:.3e}")


def test_criterion_4_conv_scale_first_order_law():
    rep = probe_conv_scale_update(1.0, 1.0, 1.0, 1.0, 0.01)
    exact = abs(rep.residual_norm - 1e-4) <= 1e-12
    rng = np.random.default_rng(4004)
    ratios_ok = 0
    for _ in range(100):
        w, gm, x, g = rng.uniform(0.5, 1.5, size=4)
        r = probe_conv_scale_update(w, gm, x, g, 0.01)
        if abs(r.residual_ratio - 4.0) <= 0.05 * 4.0:
            ratios_ok += 1
    ok = exact and ratios_ok == 100
    report(4, ok, f"scalar residual {rep.residual_norm:.12e} (want 1e-4 +- 1e-12), "
                  f"eta-halving ratio within 4 +- 5% on {ratios_ok}/100 instances")


def test_criterion_5_shared_invariance_branchwise_divergence():
    rng = np.random.default_rng(5005)
    worst_shared = 0.0
    for _ in range(50):
        r = probe_shared_gamma(rng.uniform(0.5, 1.5, size=6), rng.uniform(0.5, 1.5),
                               rng.uniform(-1, 1, size=6), rng.uniform(0.5, 1.5),
                               n_branches=int(rng.integers(2, 6)), eta=1e-3, rng=rng)
        worst_shared = max(worst_shared, r.first_order_diff)

    diverged = 0
    for seed in range(100):
        srng = np.random.default_rng(seed)
        branches = [(1.0, srng.uniform(-1, 1, size=6)) for _ in range(2)]
        r = probe_branchwise_gamma(branches, srng.uniform(-1, 1, size=6),
                                   srng.uniform(0.5, 1.5), 1e-2)
        if r.details["conditions_hold"] and r.first_order_diff > 1e-6:
            diverged += 1

    vrng = np.random.default_rng(55)
    w = vrng.uniform(-1, 1, size=6)
    one_active = probe_branchwise_gamma(
        [(0.8, w), (0.0, np.zeros(6))], vrng.uniform(-1, 1, size=6), 1.0, 1e-2)
    identical = probe_branchwise_gamma(
        [(0.8, w), (0.8, w.copy())], vrng.uniform(-1, 1, size=6), 1.0, 1e-2)
    violated_ok = (one_active.first_order_diff <= 1e-9
                   and identical.first_order_diff <= 1e-9)

    ok = worst_shared <= 1e-9 and diverged >= 99 and violated_ok
    report(5, ok, f"shared first-order diff {worst_shared:.3e} (tol 1e-9); "
                  f"branch-wise > 1e-6 on {diverged}/100 seeds; "
                  f"violated-condition diffs {one_active.first_order_diff:.1e}/"
                  f"{identical.first_order_diff:.1e}")


def test_criterion_6_cost_accounting_analog():
    block = build_preset("orepa3x3", 64, 64, 3, seed=6)
    costs = cost_report(block, (56, 56), 32)
    ratio = costs["online"]["buffer_elems"] / costs["offline"]["buffer_elems"]
    ok = ratio <= 0.10
    report(6, ok, f"online extra buffer {costs['online']['buffer_elems']} vs offline "
                  f"{costs['offline']['buffer_elems']} at 56x56 B=32 C=64 "
                  f"(ratio {ratio:.4f}, need <= 0.10)")


def test_criterion_7_trajectory_equivalence():
    def run(mode):
        block = build_preset("orepa3x3", 2, 2, 3, seed=77)
        keh, kew = block.effective_k
        target = KernelTensor(
            np.random.default_rng(770).standard_normal((2, 2, keh, kew)) * 0.2)
        return train_toy(block, target, 200, OptimizerConfig(eta=0.05),
                         mode=mode, seed=7, record_params=True)

    on, off = run("online"), run("offline")
    traj_gap = max(float(np.max(np.abs(a - b)))
                   for a, b in zip(on["params"], off["params"]))
    decreasing = all(a > b for a, b in zip(on["losses"], on["losses"][1:]))

    branch = build_branch([L.LayerSpec("conv", 1, 1, k=3)], np.random.default_rng(42),
                          scaling=np.ones(1), name="kxk")
    single = BlockGraph(branches=[branch])
    target = KernelTensor(np.random.default_rng(0).standard_normal((1, 1, 3, 3)) * 0.3)
    fit = train_toy(single, target, 500, OptimizerConfig(eta=0.05), seed=123)

    ok = traj_gap <= 1e-8 and decreasing and fit["final_loss"] <= 1e-6
    report(7, ok, f"online/offline trajectory gap {traj_gap:.3e} over 200 steps "
                  f"(tol 1e-8); loss strictly decreasing: {decreasing}; "
                  f"single-conv final loss {fit['final_loss']:.3e} (tol 1e-6)")


def test_criterion_8_catalog_fidelity():
    pool = L.materialize(L.LayerSpec("avgpool", 3, 3, k=2), 0)
    pool_ok = np.array_equal(pool.data, np.full((3, 1, 2, 2), 0.25))

    ident = L.materialize(L.LayerSpec("identity1x1", 2, 2), 0)
    ident_ok = np.array_equal(ident.data[:, :, 0, 0], np.eye(2))

    filt = L.materialize(L.LayerSpec("freqfilter", 5, 5, k=3), 0)
    filt_gap = float(np.max(np.abs(filt.data - freq_filter_loop(5, 3, 3))))

    gamma = L.materialize(L.LayerSpec("scaling", 4, 4, init=L.InitRule("constant", value=0.3)), 0)
    scal_ok = np.array_equal(gamma.data[:, 0, 0, 0], np.full(4, 0.3)) and \
        np.count_nonzero(gamma.data) == 4

    init_ok = [SCALING_INIT[k] for k in
               ("1x1", "kxk", "1x1_kxk", "1x1_pool", "1x1_filter", "dw_pw")] == \
        [1.0, 0.25, 0.5, 0.5, 0.0, 0.5]

    ok = pool_ok and ident_ok and filt_gap <= 1e-12 and scal_ok and init_ok
    report(8, ok, f"avgpool {pool_ok}, identity {ident_ok}, freq-filter gap "
                  f"{filt_gap:.1e} (tol 1e-12), scaling {scal_ok}, "
                  f"scaling-init defaults {init_ok}")


def test_criterion_9_format_round_trip(tmp_path):
    exact = True
    for preset, kwargs in PRESET_CASES:
        for dtype in ("f32", "f64"):
            kw = dict(kwargs)
            kw["dtype"] = dtype
            kernel = squeeze_block(build_preset(preset, **kw)).kernel
            path = tmp_path / f"{preset}_{dtype}.okt"
            write_okt(path, kernel)
            back = read_okt(path)
            exact = exact and back.data.tobytes() == kernel.data.tobytes() \
                and back.dtype == dtype and back.shape == kernel.shape
    report(9, exact, "OKT1 write/read bit-exact for f32 and f64 kernels of all 5 presets")
