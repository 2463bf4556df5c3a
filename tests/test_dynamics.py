import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orepa import layers as L
from orepa.blocks import build_preset
from orepa.dynamics import (OptimizerConfig, ParamSet, SgdState, _conv_grad_w,
                            _conv_grad_x, _dense_grad_to_native, _merge_backward,
                            _relative_gap,
                            backward_through_expanded, backward_through_squeeze,
                            branch_similarity, channel_norm_profile,
                            finite_difference_grads, gradcheck_block,
                            probe_branchwise_gamma,
                            probe_conv_scale_update, probe_multilayer_lemma,
                            probe_shared_gamma, project_onto, sgd_step,
                            train_toy)
from orepa.squeeze import (BlockGraph, MergeError, build_branch, merge_sequential,
                           squeeze_block)
from orepa.tensor import ConvGeometry, KernelTensor, Tensor, conv2d_direct

from oracles import merge_backward_loop, merge_kernels_loop
from util import block_graphs, fd_grads_via_expanded, make_random_block, rand_input


# --------------------------------------------------------------------------
# Parameter flattening
# --------------------------------------------------------------------------

def test_paramset_round_trip():
    block = build_preset("orepa3x3", 2, 3, 3, seed=1)
    ps = ParamSet(block)
    flat = ps.get_flat()
    assert flat.size == ps.size > 0
    rng = np.random.default_rng(0)
    new = rng.standard_normal(flat.shape)
    ps.set_flat(new)
    np.testing.assert_array_equal(ps.get_flat(), new)
    # fixed layers (avgpool, freqfilter) are not in the map
    kinds = {e.kind for e in ps.entries}
    assert "avgpool" not in kinds and "freqfilter" not in kinds
    assert "gamma" in kinds


def test_paramset_scaling_layer_exposes_diagonal():
    rng = np.random.default_rng(1)
    branch = build_branch([L.conv(2, 2, 3), L.scaling(2, value=0.5)], rng)
    block = BlockGraph(branches=[branch])
    ps = ParamSet(block)
    entry = [e for e in ps.entries if e.kind == "scaling"][0]
    assert entry.shape == (2, 1, 1, 1)
    flat = ps.get_flat()
    np.testing.assert_array_equal(flat[entry.offset:entry.offset + 2], [0.5, 0.5])


# --------------------------------------------------------------------------
# Gradients
# --------------------------------------------------------------------------

def _scalar_block(w_val, gamma_val):
    spec = L.conv(1, 1, 1)
    kern = KernelTensor(np.full((1, 1, 1, 1), w_val))
    branch = build_branch([spec], np.random.default_rng(0),
                          scaling=np.array([gamma_val]))
    branch.weights[0] = kern
    return BlockGraph(branches=[branch])


def test_scalar_product_rule():
    w_val, gamma_val, x_val, g_val = 1.3, 0.7, 0.9, 1.1
    block = _scalar_block(w_val, gamma_val)
    x = Tensor(np.full((1, 1, 1, 1), x_val))
    g = Tensor(np.full((1, 1, 1, 1), g_val))
    grads = backward_through_squeeze(block, x, g)
    # order: conv weight then gamma
    assert grads[0] == pytest.approx(gamma_val * x_val * g_val, abs=1e-15)
    assert grads[1] == pytest.approx(w_val * x_val * g_val, abs=1e-15)


def test_zero_upstream_zero_grads():
    block = build_preset("orepa3x3", 2, 2, 3, seed=2)
    rng = np.random.default_rng(3)
    x = rand_input(rng, block, hw=(6, 6), batch=1)
    g = Tensor(np.zeros((1, 2, 6, 6)))
    assert np.all(backward_through_squeeze(block, x, g) == 0.0)
    assert np.all(backward_through_expanded(block, x, g) == 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_gradient_routes_agree_on_random_blocks(seed):
    block = make_random_block(seed + 400, max_branches=4, max_depth=3, max_ch=5,
                              ks=(1, 3))
    rng = np.random.default_rng(seed)
    x = rand_input(rng, block, hw=(7, 6), batch=2)
    s_h, s_w = block.output_geometry.stride
    g = Tensor(rng.standard_normal((2, block.out_ch, (7 - 1) // s_h + 1,
                                    (6 - 1) // s_w + 1)))
    gs = backward_through_squeeze(block, x, g)
    ge = backward_through_expanded(block, x, g)
    assert np.max(np.abs(gs - ge)) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(block=block_graphs(), hw=st.tuples(st.integers(3, 8), st.integers(3, 8)),
       seed=st.integers(0, 2 ** 16))
def test_gradient_routes_agree_property(block, hw, seed):
    rng = np.random.default_rng(seed)
    x = rand_input(rng, block, hw=hw, batch=2)
    s_h, s_w = block.output_geometry.stride
    g = Tensor(rng.standard_normal((2, block.out_ch, (hw[0] - 1) // s_h + 1,
                                    (hw[1] - 1) // s_w + 1)), dtype=block.dtype)
    even = any(k % 2 == 0 for b in block.branches for k in b.effective_k)
    if even and len(block.branches) > 1:
        for route in (backward_through_squeeze, backward_through_expanded):
            with pytest.raises(MergeError):
                route(block, x, g)
        return
    gs = backward_through_squeeze(block, x, g)
    ge = backward_through_expanded(block, x, g)
    assert np.max(np.abs(gs - ge), initial=0.0) <= {"f64": 1e-9, "f32": 1e-3}[block.dtype]


@pytest.mark.parametrize("seed", range(4))
def test_gradients_match_independent_fd(seed):
    block = make_random_block(seed + 800, max_branches=3, max_depth=2, max_ch=3,
                              ks=(1, 3))
    rng = np.random.default_rng(seed)
    x = rand_input(rng, block, hw=(5, 5), batch=1)
    g = Tensor(rng.standard_normal((1, block.out_ch, 5, 5)))
    gs = backward_through_squeeze(block, x, g)
    fd = fd_grads_via_expanded(block, x, g)
    denom = np.maximum(1.0, np.maximum(np.abs(gs), np.abs(fd)))
    assert np.max(np.abs(gs - fd) / denom) <= 1e-6


def test_gradcheck_block_on_preset():
    block = build_preset("orepa1x1", 3, 3, 1, seed=9)
    rng = np.random.default_rng(9)
    x = rand_input(rng, block, hw=(4, 4), batch=1)
    g = Tensor(rng.standard_normal((1, 3, 4, 4)))
    res = gradcheck_block(block, x, g)
    assert res["ok"], res


def test_gradcheck_block_passes_a_wide_f32_block():
    # upstream x1000 stands in for a wide block: gradients near 2e4, so the f32
    # routes differ by 5e-3 in absolute terms but by 1e-5 relative to |g|
    block = build_preset("deepstem", 3, 4, 3, dtype="f32", seed=3)
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((1, 3, 4, 4)), dtype="f32")
    g = Tensor(1e3 * rng.standard_normal((1, 4, 4, 4)), dtype="f32")
    gap = np.abs(backward_through_squeeze(block, x, g) - backward_through_expanded(block, x, g))
    assert gap.max() > 1e-3
    res = gradcheck_block(block, x, g)
    assert res["ok"] and res["route_diff"] <= 1e-4, res


def test_relative_gap_of_an_infinite_gradient_is_nan():
    assert np.isnan(_relative_gap(np.array([np.inf, 1.0]), np.array([1.0, 1.0])))
    assert np.isnan(_relative_gap(np.array([np.inf]), np.array([np.inf])))
    assert _relative_gap(np.zeros(0), np.zeros(0)) == 0.0


def test_src_fd_agrees_with_test_fd():
    block = build_preset("orepa1x1", 2, 2, 1, seed=5)
    rng = np.random.default_rng(5)
    x = rand_input(rng, block, hw=(3, 3), batch=1)
    g = Tensor(rng.standard_normal((1, 2, 3, 3)))
    a = finite_difference_grads(block, x, g)
    b = fd_grads_via_expanded(block, x, g)
    assert np.max(np.abs(a - b)) <= 1e-8


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("groups", [1, 2, 4])
def test_conv_adjoints_dot_product_identity(groups, stride, k):
    # <g, conv(x, w)> = <grad_x, x> = <grad_w, w>; grad_x covers stride 1 only
    rng = np.random.default_rng(100 * groups + 10 * stride + k)
    x = rng.standard_normal((2, 4, 7, 8))
    w = KernelTensor(rng.standard_normal((8, 4 // groups, k, k + 1)), groups=groups)
    geom = ConvGeometry(stride=(stride, stride))
    y = conv2d_direct(Tensor(x), w, geom).data
    g = rng.standard_normal(y.shape)
    lhs = np.vdot(g, y)
    dw = _conv_grad_w(x, g, w, geom)
    assert dw.shape == w.shape
    assert np.vdot(dw, w.data) == pytest.approx(lhs, rel=1e-12, abs=0)
    if stride == 1:
        dx = _conv_grad_x(g, w)
        assert dx.shape == x.shape
        assert np.vdot(dx, x) == pytest.approx(lhs, rel=1e-12, abs=0)


@pytest.mark.parametrize("k1,k2", [(1, 3), (3, 1), (2, 3), (3, 2), (3, 3)])
def test_merge_adjoint_dot_product_identity(k1, k2):
    # merge_sequential is bilinear, so <G, merge(w1, w2)> = <dw1, w1> = <dw2, w2>
    rng = np.random.default_rng(10 * k1 + k2)
    w1 = KernelTensor(rng.standard_normal((5, 3, k1, k1 + 1)))
    w2 = KernelTensor(rng.standard_normal((4, 5, k2, k2)))
    merged = merge_sequential(w1, w2).data
    gout = rng.standard_normal(merged.shape)
    lhs = np.vdot(gout, merged)
    dw1, dw2 = _merge_backward(w1, w2, gout)
    assert (dw1.shape, dw2.shape) == (w1.shape, w2.shape)
    assert np.vdot(dw1, w1.data) == pytest.approx(lhs, rel=1e-12, abs=0)
    assert np.vdot(dw2, w2.data) == pytest.approx(lhs, rel=1e-12, abs=0)
    # a grouped w1 gets its gradient in its native shape, equal to the
    # dense expansion's gradient restricted to the diagonal blocks
    for groups, cig, cog in [(2, 2, 3), (6, 1, 1), (3, 1, 2)]:
        w1 = KernelTensor(rng.standard_normal((groups * cog, cig, k1, k1 + 1)), groups=groups)
        w2 = KernelTensor(rng.standard_normal((4, groups * cog, k2, k2)))
        merged = merge_sequential(w1, w2).data
        gout = rng.standard_normal(merged.shape)
        lhs = np.vdot(gout, merged)
        dw1, dw2 = _merge_backward(w1, w2, gout)
        assert (dw1.shape, dw2.shape) == (w1.shape, w2.shape)
        assert np.vdot(dw1, w1.data) == pytest.approx(lhs, rel=1e-12, abs=0)
        assert np.vdot(dw2, w2.data) == pytest.approx(lhs, rel=1e-12, abs=0)
        dense_dw1, dense_dw2 = _merge_backward(L.as_dense(w1), w2, gout)
        np.testing.assert_allclose(dw1, _dense_grad_to_native(dense_dw1, w1), rtol=1e-12)
        np.testing.assert_allclose(dw2, dense_dw2, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(groups=st.integers(1, 4), cig=st.integers(1, 3), cog=st.integers(1, 3),
       c2=st.integers(1, 3), k1=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       k2=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       one_by_one=st.sampled_from(["w1", "w2", "neither"]), seed=st.integers(0, 2 ** 16))
def test_merge_backward_matches_loop_oracle(groups, cig, cog, c2, k1, k2, one_by_one, seed):
    # "w1" and "w2" force that side to 1x1 (one GEMM over all taps); "neither"
    # keeps the drawn extents, which mostly take the tap-loop path
    k1 = (1, 1) if one_by_one == "w1" else k1
    k2 = (1, 1) if one_by_one == "w2" else k2
    rng = np.random.default_rng(seed)
    w1 = KernelTensor(rng.uniform(-1, 1, size=(groups * cog, cig) + k1), groups=groups)
    w2 = KernelTensor(rng.uniform(-1, 1, size=(c2, groups * cog) + k2))
    merged = merge_sequential(w1, w2).data
    np.testing.assert_allclose(merged, merge_kernels_loop(L.as_dense(w1).data, w2.data),
                               rtol=1e-12, atol=1e-14)
    gout = rng.uniform(-1, 1, size=merged.shape)
    want1, want2 = merge_backward_loop(w1.data, w2.data, gout, groups)
    # <gout, merge(w1, w2)> = <dw1, w1> = <dw2, w2>, relative to the size of
    # the summed terms so that a cancelling sum cannot fail it
    scale = np.vdot(np.abs(gout), np.abs(merged))
    for dtype, rtol in (("f64", 1e-12), ("f32", 1e-5)):
        a, b = w1.astype(dtype), w2.astype(dtype)
        g32 = gout.astype(a.data.dtype)
        dw1, dw2 = _merge_backward(a, b, g32)
        assert (dw1.shape, dw2.shape) == (w1.shape, w2.shape)
        assert dw1.dtype == dw2.dtype == a.data.dtype
        np.testing.assert_allclose(dw1, want1, rtol=rtol, atol=rtol * np.abs(want1).max())
        np.testing.assert_allclose(dw2, want2, rtol=rtol, atol=rtol * np.abs(want2).max())
        lhs = np.vdot(g32.astype(np.float64), merge_sequential(a, b).data.astype(np.float64))
        for dw, w in ((dw1, a), (dw2, b)):
            got = np.vdot(dw.astype(np.float64), w.data.astype(np.float64))
            assert abs(got - lhs) <= rtol * scale


# --------------------------------------------------------------------------
# SGD
# --------------------------------------------------------------------------

def test_sgd_plain_step():
    cfg = OptimizerConfig(eta=0.1)
    out = sgd_step(np.array([1.0]), np.array([1.0]), cfg)
    assert out[0] == pytest.approx(0.9, abs=1e-15)


def test_sgd_decay_only():
    cfg = OptimizerConfig(eta=0.1, weight_decay=0.5)
    out = sgd_step(np.array([2.0]), np.array([0.0]), cfg)
    assert out[0] == pytest.approx(0.95 * 2.0, abs=1e-15)


def test_sgd_momentum_two_steps_literal_form():
    # decayed-gradient momentum: the second step applies eta * (1 + eta*mu)
    cfg = OptimizerConfig(eta=0.1, momentum=0.9)
    state = SgdState()
    w = np.array([1.0])
    g = np.array([1.0])
    w = sgd_step(w, g, cfg, state)
    assert w[0] == pytest.approx(0.9, abs=1e-15)
    w2 = sgd_step(w, g, cfg, state)
    assert w[0] - w2[0] == pytest.approx(0.1 * (1 + 0.09), abs=1e-12)


def test_sgd_momentum_matches_explicit_sum():
    cfg = OptimizerConfig(eta=0.05, momentum=0.7)
    state = SgdState()
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(3) for _ in range(6)]
    w = rng.standard_normal(3)
    w_seq = w.copy()
    for t, g in enumerate(grads, start=1):
        w_prev = w_seq
        w_seq = sgd_step(w_seq, g, cfg, state)
        factor = cfg.eta * cfg.momentum
        velocity = sum(factor ** (t - tau) * grads[tau - 1] for tau in range(1, t + 1))
        expected = w_prev - cfg.eta * velocity
        np.testing.assert_allclose(w_seq, expected, atol=1e-12)


def test_sgd_standard_momentum_mode():
    cfg = OptimizerConfig(eta=0.1, momentum=0.9, momentum_mode="standard")
    state = SgdState()
    w = sgd_step(np.array([1.0]), np.array([1.0]), cfg, state)
    w2 = sgd_step(w, np.array([1.0]), cfg, state)
    assert w[0] - w2[0] == pytest.approx(0.1 * (1 + 0.9), abs=1e-12)


def test_sgd_mu_zero_is_memoryless():
    cfg = OptimizerConfig(eta=0.1)
    state = SgdState()
    sgd_step(np.array([1.0]), np.array([5.0]), cfg, state)
    a = sgd_step(np.array([1.0]), np.array([1.0]), cfg, state)
    b = sgd_step(np.array([1.0]), np.array([1.0]), cfg, SgdState())
    assert a[0] == b[0]


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(eta=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(eta=0.1, weight_decay=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(eta=0.1, momentum=1.0)


# --------------------------------------------------------------------------
# Probes
# --------------------------------------------------------------------------

def test_convscale_worked_example():
    rep = probe_conv_scale_update(1.0, 1.0, 1.0, 1.0, 0.01)
    observed_next = rep.details["end_to_end_after"][0]
    assert observed_next == pytest.approx(0.9801, abs=1e-12)
    assert rep.residual_norm == pytest.approx(1e-4, abs=1e-12)


def test_convscale_zero_upstream():
    rep = probe_conv_scale_update(1.2, 0.8, 0.5, 0.0, 0.01)
    assert rep.residual_norm == 0.0
    assert np.all(rep.details["observed"] == 0.0)


def test_convscale_eta_scaling_law():
    rng = np.random.default_rng(12)
    for _ in range(100):
        w, gm, x, g = rng.uniform(0.5, 1.5, size=4)
        rep = probe_conv_scale_update(w, gm, x, g, 0.01)
        assert rep.residual_ratio == pytest.approx(4.0, rel=0.05)


def test_shared_gamma_first_order_invariance():
    rng = np.random.default_rng(21)
    for m in (2, 3, 5):
        rep = probe_shared_gamma(rng.uniform(0.5, 1.5, size=6), rng.uniform(0.5, 1.5),
                                 rng.uniform(-1, 1, size=6), rng.uniform(0.5, 1.5),
                                 n_branches=m, eta=1e-3, rng=rng)
        assert rep.first_order_diff <= 1e-9
        assert 3.5 <= rep.residual_ratio <= 4.5
        # at matched effective step the two updates coincide beyond first order
        assert np.max(np.abs(rep.details["observed"] - rep.details["reference"])) <= 1e-12
        # the unnormalized gap is first order: (m - 1) * gamma^2 * |g x|
        assert rep.details["unnormalized_first_order_diff"] > 1e-6


def test_shared_gamma_m1_exact():
    rng = np.random.default_rng(22)
    rep = probe_shared_gamma(rng.uniform(0.5, 1.5, size=4), 1.1,
                             rng.uniform(-1, 1, size=4), 0.9,
                             n_branches=1, eta=1e-3, rng=rng)
    assert rep.first_order_diff <= 1e-15
    assert np.max(np.abs(rep.details["observed"] - rep.details["reference"])) <= 1e-15


def test_shared_gamma_zero_branch_pinned():
    w = np.array([0.4, -0.2, 0.7])
    rep = probe_shared_gamma(w, 0.8, np.array([0.3, 0.1, -0.5]), 1.0,
                             n_branches=2, eta=1e-3,
                             parts=[w, np.zeros(3)], pin_gamma=True)
    assert rep.first_order_diff <= 1e-12
    assert np.max(np.abs(rep.details["observed"] - rep.details["reference"])) <= 1e-12


def test_branchwise_diverges_when_conditions_hold():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        branches = [(1.0, rng.uniform(-1, 1, size=6)) for _ in range(2)]
        rep = probe_branchwise_gamma(branches, rng.uniform(-1, 1, size=6),
                                     rng.uniform(0.5, 1.5), 1e-2)
        assert rep.details["conditions_hold"]
        if rep.first_order_diff > 1e-6:
            hits += 1
    assert hits >= 99


def test_branchwise_equal_when_one_active():
    rng = np.random.default_rng(30)
    w = rng.uniform(-1, 1, size=5)
    rep = probe_branchwise_gamma([(0.9, w), (0.0, np.zeros(5)), (0.0, np.zeros(5))],
                                 rng.uniform(-1, 1, size=5), 1.2, 1e-2)
    assert not rep.details["conditions_hold"]
    assert rep.first_order_diff <= 1e-9


def test_branchwise_equal_when_branches_identical():
    rng = np.random.default_rng(31)
    w = rng.uniform(-1, 1, size=5)
    rep = probe_branchwise_gamma([(0.6, w), (0.6, w.copy())],
                                 rng.uniform(-1, 1, size=5), 1.0, 1e-2)
    assert not rep.details["conditions_hold"]
    assert rep.first_order_diff <= 1e-9


def test_branchwise_gradient_gap_reported():
    rng = np.random.default_rng(32)
    branches = [(1.0, rng.uniform(-1, 1, size=4)) for _ in range(3)]
    rep = probe_branchwise_gamma(branches, rng.uniform(-1, 1, size=4), 1.0, 1e-2)
    assert rep.details["min_branch_gradient_gap"] > 0
    assert 3.5 <= rep.residual_ratio <= 4.5


def test_identical_branches_stay_identical_forever():
    # two branches with equal starts receive equal gradients every step
    spec = L.conv(2, 2, 3)
    w0 = L.materialize(spec, 7)
    branches = [build_branch([spec], np.random.default_rng(0), scaling=np.full(2, 0.5),
                             name=f"t{i}") for i in range(2)]
    for b in branches:
        b.weights[0] = w0
    block = BlockGraph(branches=branches)
    target = KernelTensor(np.random.default_rng(1).standard_normal((2, 2, 3, 3)))
    train_toy(block, target, 100, OptimizerConfig(eta=0.05), seed=3)
    a, b = block.branches
    assert a.weights[0].data.tobytes() == b.weights[0].data.tobytes()
    assert a.scaling.tobytes() == b.scaling.tobytes()


def test_projection_zero_weight_is_zero():
    g = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(project_onto(np.zeros(3), g), np.zeros(3))
    w = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(project_onto(w, g), [1.0, 0.0, 0.0], atol=1e-15)


def test_lemma_n1_reduces_to_plain_sgd():
    rep = probe_multilayer_lemma(1, 1e-3, rng=np.random.default_rng(0))
    assert rep.details["balanced"]
    assert rep.residual_norm <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lemma_balanced_residual_scales_quadratically(n):
    rep = probe_multilayer_lemma(n, 1e-3, rng=np.random.default_rng(n), scale=1.5)
    assert rep.details["balanced"]
    assert rep.residual_norm <= 1e-4
    assert 3.5 <= rep.residual_ratio <= 4.5


def test_lemma_unbalanced_reports_without_asserting():
    chain = [np.array([[2.0]]), np.array([[0.25]])]
    rep = probe_multilayer_lemma(2, 1e-3, chain=chain, x=np.array([1.0]), g=1.0)
    assert not rep.details["balanced"]
    assert rep.residual_norm > 0


def test_lemma_n2_scalar_reproduces_convscale_numbers():
    # gamma as the second layer, balanced scalar start (W = gamma = 1)
    rep_l = probe_multilayer_lemma(2, 0.01, chain=[np.array([[1.0]]), np.array([[1.0]])],
                                   x=np.array([1.0]), g=1.0)
    rep_c = probe_conv_scale_update(1.0, 1.0, 1.0, 1.0, 0.01)
    assert rep_l.details["balanced"]
    np.testing.assert_allclose(rep_l.details["observed"], rep_c.details["observed"],
                               atol=1e-15)
    np.testing.assert_allclose(rep_l.details["predicted"], rep_c.details["predicted"],
                               atol=1e-15)
    assert rep_l.residual_norm == pytest.approx(rep_c.residual_norm, abs=1e-15)


# --------------------------------------------------------------------------
# Toy training
# --------------------------------------------------------------------------

def test_train_toy_zero_loss_at_target():
    block = build_preset("orepa3x3", 2, 2, 3, seed=8)
    target = squeeze_block(block).kernel
    res = train_toy(block, target, 10, OptimizerConfig(eta=0.05), seed=1)
    assert res["final_loss"] == 0.0
    assert all(l == 0.0 for l in res["losses"])
    np.testing.assert_array_equal(squeeze_block(block).kernel.data, target.data)


def test_train_toy_online_offline_trajectories_agree():
    def run(mode):
        block = build_preset("orepa3x3", 2, 2, 3, seed=14)
        keh, kew = block.effective_k
        target = KernelTensor(
            np.random.default_rng(70).standard_normal((2, 2, keh, kew)) * 0.2)
        return train_toy(block, target, 200, OptimizerConfig(eta=0.05),
                         mode=mode, seed=6, record_params=True)

    on = run("online")
    off = run("offline")
    worst = max(float(np.max(np.abs(a - b)))
                for a, b in zip(on["params"], off["params"]))
    assert worst <= 1e-8
    assert on["losses"] == pytest.approx(off["losses"], abs=1e-12)


def test_train_toy_single_conv_converges():
    rng = np.random.default_rng(0)
    branch = build_branch([L.conv(1, 1, 3)], np.random.default_rng(42),
                          scaling=np.ones(1), name="kxk")
    block = BlockGraph(branches=[branch])
    target = KernelTensor(rng.standard_normal((1, 1, 3, 3)) * 0.3)
    res = train_toy(block, target, 500, OptimizerConfig(eta=0.05), seed=123)
    assert res["diverged_at"] is None
    assert all(a > b for a, b in zip(res["losses"], res["losses"][1:]))
    assert res["final_loss"] <= 1e-6


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_toy_divergence_reported():
    branch = build_branch([L.conv(1, 1, 3)], np.random.default_rng(0),
                          scaling=np.ones(1))
    block = BlockGraph(branches=[branch])
    target = KernelTensor(np.zeros((1, 1, 3, 3)))
    res = train_toy(block, target, 200, OptimizerConfig(eta=1e6), seed=0)
    assert res["diverged_at"] is not None


def test_train_toy_rejects_bad_target_geometry():
    block = build_preset("deepstem", 3, 4, 3, seed=0)
    bad = KernelTensor(np.zeros((4, 3, 3, 3)))
    with pytest.raises(Exception):
        train_toy(block, bad, 5, OptimizerConfig(eta=0.01))


# --------------------------------------------------------------------------
# Branch diagnostics
# --------------------------------------------------------------------------

def test_similarity_identical_branches():
    spec = L.conv(2, 2, 3)
    w = L.materialize(spec, 3)
    branches = [build_branch([spec], np.random.default_rng(0), scaling=np.ones(2))
                for _ in range(2)]
    for b in branches:
        b.weights[0] = w
    sim = branch_similarity(BlockGraph(branches=branches))
    assert sim[0, 1] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(np.diag(sim), [1.0, 1.0])


def test_similarity_orthogonal_one_hot():
    a = np.zeros((1, 1, 3, 3))
    a[0, 0, 0, 0] = 1.0
    b = np.zeros((1, 1, 3, 3))
    b[0, 0, 2, 2] = 1.0
    spec = L.conv(1, 1, 3)
    b1 = build_branch([spec], np.random.default_rng(0))
    b2 = build_branch([spec], np.random.default_rng(0))
    b1.weights[0] = KernelTensor(a)
    b2.weights[0] = KernelTensor(b)
    sim = branch_similarity(BlockGraph(branches=[b1, b2]))
    assert sim[0, 1] == 0.0


def test_similarity_zero_norm_branch():
    spec = L.conv(1, 1, 3)
    b1 = build_branch([spec], np.random.default_rng(1))
    b2 = build_branch([spec], np.random.default_rng(2))
    b2.weights[0] = KernelTensor(np.zeros((1, 1, 3, 3)))
    sim = branch_similarity(BlockGraph(branches=[b1, b2]))
    assert sim[0, 1] == 0.0
    assert sim[1, 1] == 1.0


def test_branches_stay_diverse_after_training():
    block = build_preset("orepa3x3", 2, 2, 3, seed=15)
    keh, kew = block.effective_k
    target = KernelTensor(np.random.default_rng(9).standard_normal((2, 2, keh, kew)) * 0.2)
    train_toy(block, target, 150, OptimizerConfig(eta=0.05), seed=4)
    sim = branch_similarity(block)
    m = sim.shape[0]
    off = [abs(sim[i, j]) for i in range(m) for j in range(m) if i != j]
    assert np.mean(off) < 0.9


def test_channel_norm_profile_sums_to_one():
    block = build_preset("orepa3x3", 3, 4, 3, seed=16)
    prof = channel_norm_profile(block)
    assert prof.shape == (6, 4)
    np.testing.assert_allclose(prof.sum(axis=0), np.ones(4), atol=1e-12)
    assert np.all(prof >= 0)
