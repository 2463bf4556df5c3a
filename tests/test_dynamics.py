import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orepa import layers as L
from orepa.blocks import build_preset
from orepa.dynamics import (OptimizerConfig, ParamSet, SgdState, _relative_gap,
                            backward_through_expanded, backward_through_squeeze,
                            branch_similarity, channel_norm_profile,
                            finite_difference_grads, gradcheck_block,
                            probe_branchwise_gamma,
                            probe_conv_scale_update, probe_multilayer_lemma,
                            probe_shared_gamma, project_onto, sgd_step,
                            train_toy)
from orepa.layers import _dense_grad_to_native
from orepa.squeeze import (BlockGraph, MergeError, _merge_backward, build_branch,
                           merge_sequential, squeeze_block)
from orepa.tensor import (ConvGeometry, KernelTensor, ShapeError, Tensor, _conv_grad_w,
                          _conv_grad_x, conv2d_direct)

from oracles import (branch_scaling_grad_loop, conv2d_loop, merge_backward_loop,
                     merge_kernels_loop)
from util import (block_graphs, check_edge, fd_grads_via_expanded, make_random_block,
                  peak_bytes, rand_input)


def _zero_gamma_report():
    """probe_branchwise_gamma with every gamma at 0: no scaling energy to
    share, so the reference pair falls back to (1, sum of W)."""
    rep = probe_branchwise_gamma([(0.0, np.array([1.0, 2.0])), (0.0, np.array([0.0, -1.0]))],
                                 np.ones(2), 1.0, 0.5)
    return (rep.residual_norm, rep.residual_ratio, rep.first_order_diff,
            rep.details["reference"].tolist(), rep.details["observed"].tolist())


@pytest.mark.parametrize("call,want", [
    (lambda: ParamSet(build_preset("orepa3x3", 2, 2, 3)).set_flat(np.zeros(3)),
     ShapeError("flat params", (122,), (3,))),
    (lambda: probe_shared_gamma(np.ones(4), 0.5, np.ones(4), 1.0, 3, 0.1, parts=[np.ones(4)]),
     ShapeError("parts", 3, 1)),
    (lambda: OptimizerConfig(eta=0.1, momentum_mode="x"),
     ValueError("momentum_mode must be 'scaled' or 'standard'")),
    (lambda: train_toy(build_preset("orepa3x3", 2, 2, 3), None, 1, OptimizerConfig(eta=0.1),
                       mode="x"),
     ValueError("mode must be 'online' or 'offline'")),
    # the pair (1, [1, 1]) steps to (0, [0.5, 0.5]): W_e changes by [-1, -1]
    (_zero_gamma_report, (0.0, None, 2.0, [-1.0, -1.0], [-1.5, -3.5])),
], ids=["flat_length", "parts_count", "momentum_mode", "train_mode", "zero_gammas"])
def test_documented_edges(call, want):
    check_edge(call, want)


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
    specs = L.layer_specs([{"kind": "conv"}, {"kind": "scaling", "value": 0.5}], 2, 3)
    branch = build_branch(specs, rng)
    block = BlockGraph(branches=[branch])
    ps = ParamSet(block)
    entry = [e for e in ps.entries if e.kind == "scaling"][0]
    assert entry.shape == (2, 1, 1, 1)
    flat = ps.get_flat()
    np.testing.assert_array_equal(flat[entry.offset:entry.offset + 2], [0.5, 0.5])


def test_set_flat_keeps_its_vector_frozen_as_the_storage():
    # an f64 block's kernels and scalings are views of the vector set_flat
    # was given, and get_flat returns that vector without a gather
    block = build_preset("orepa3x3", 4, 4, 3, seed=2)
    ps = ParamSet(block)
    v = np.random.default_rng(0).standard_normal(ps.size)
    ps.set_flat(v)
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        v[0] = 1.0
    assert ps.get_flat() is v
    assert peak_bytes(ps.get_flat) <= 1024 < v.nbytes  # a gather would be v.nbytes
    e = ps.entries[0]
    assert np.shares_memory(v, block.branches[e.branch].weights[e.layer].data)


@pytest.mark.parametrize("replaced", ["kernel", "scaling"])
def test_get_flat_reads_an_entry_replaced_from_outside(replaced):
    block = build_preset("orepa3x3", 4, 4, 3, seed=2)
    ps = ParamSet(block)
    v = np.random.default_rng(0).standard_normal(ps.size)
    ps.set_flat(v)
    e = next(e for e in ps.entries if (e.layer < 0) == (replaced == "scaling"))
    branch = block.branches[e.branch]
    new = np.full(e.shape, 0.25)
    if replaced == "scaling":
        branch.scaling = new
    else:
        branch.weights[e.layer] = KernelTensor(new, groups=branch.weights[e.layer].groups)
    want = v.copy()
    want[e.offset:e.offset + e.size] = 0.25
    got = ps.get_flat()
    assert got is not v and got.tobytes() == want.tobytes()


def test_get_flat_of_an_f32_block_is_its_rounded_values():
    block = build_preset("orepa3x3", 4, 4, 3, dtype="f32", seed=2)
    ps = ParamSet(block)
    v = np.random.default_rng(0).standard_normal(ps.size)
    ps.set_flat(v)
    got = ps.get_flat()
    assert got is not v and got.dtype == np.float64
    assert got.tobytes() == v.astype(np.float32).astype(np.float64).tobytes()
    assert not np.array_equal(got, v)


def test_recorded_params_keep_their_bytes_as_training_goes_on():
    # each recorded vector is a step's frozen storage, never written again
    block = build_preset("orepa3x3", 2, 2, 3, seed=14)
    target = KernelTensor(np.full((2, 2) + block.effective_k, 0.1))
    cfg = OptimizerConfig(eta=0.05, momentum=0.5)
    history = train_toy(block, target, 3, cfg, record_params=True)["params"]
    before = [p.tobytes() for p in history]
    train_toy(block, target, 4, cfg, record_params=True)
    assert [p.tobytes() for p in history] == before
    assert len(set(before)) == 3


def test_flatten_grads_refuses_a_missing_gradient():
    ps = ParamSet(build_preset("orepa3x3", 2, 3, 3, seed=1))
    grad_map = {(e.branch, e.layer): np.zeros(e.shape) for e in ps.entries[1:]}
    with pytest.raises(KeyError):
        ps.flatten_grads(grad_map)


# --------------------------------------------------------------------------
# Gradients
# --------------------------------------------------------------------------

def _scalar_block(w_val, gamma_val):
    spec = L.LayerSpec("conv", 1, 1)
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


def _misaligned_block(k1, k2, dtype):
    """Width 6, a branch of groups 3 then 2 and one of groups 2 then 3:
    neither group size divides the other, so _merge_backward gathers each
    chunk's columns."""
    rng = np.random.default_rng(0)
    return BlockGraph([build_branch([L.LayerSpec("conv", 6, 6, k=k1, groups=g1),
                                     L.LayerSpec("conv", 6, 6, k=k2, groups=g2)], rng, dtype=dtype)
                       for g1, g2 in ((3, 2), (2, 3))])


@settings(max_examples=100, deadline=None)
@given(block=block_graphs(), hw=st.tuples(st.integers(3, 8), st.integers(3, 8)),
       seed=st.integers(0, 2 ** 16))
@example(block=_misaligned_block(1, 3, "f64"), hw=(5, 6), seed=0)  # the batched-GEMM regime
@example(block=_misaligned_block(3, 1, "f32"), hw=(4, 4), seed=1)  # the tap loop
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


def _offline_block(name):
    """orepa3x3, whose avgpool and freqfilter branches end in a fixed layer,
    at strides 1 and 2, and a block whose branches end in a grouped and a
    depthwise layer; every branch gets a non-zero scaling."""
    rng = np.random.default_rng(21)
    if name == "grouped_last":
        block = BlockGraph(branches=[
            build_branch(L.layer_specs([{"kind": "conv", "k": 1}, {"kind": "conv", "groups": 2}],
                                      4, 3), rng),
            build_branch([L.LayerSpec("depthwise", 4, 4, k=3)], rng)])
    else:
        stride = (2, 2) if name == "orepa3x3_stride2" else (1, 1)
        block = build_preset("orepa3x3", 2, 2, 3, seed=4, stride=stride)
    for branch in block.branches:
        branch.scaling = rng.uniform(0.3, 1.2, size=branch.out_ch)
    return block


@pytest.mark.parametrize("name", ["orepa3x3", "orepa3x3_stride2", "grouped_last"])
def test_offline_route_matches_fd_and_a_feature_map_gamma_oracle(name):
    # backward_through_expanded on its own, apart from the squeezed route: its
    # gamma gradient is taken on kernels, the oracle's on the branch's output map
    block = _offline_block(name)
    rng = np.random.default_rng(5)
    x = rand_input(rng, block, hw=(5, 5), batch=2)
    s_h, s_w = block.output_geometry.stride
    g = Tensor(rng.standard_normal((2, block.out_ch, 4 // s_h + 1, 4 // s_w + 1)))
    ge = backward_through_expanded(block, x, g)
    fd = fd_grads_via_expanded(block, x, g)
    denom = np.maximum(1.0, np.maximum(np.abs(ge), np.abs(fd)))
    assert np.max(np.abs(ge - fd) / denom) <= 1e-6

    p_t, p_b, p_l, p_r = block.eval_geometry().padding
    xp = np.pad(x.data, ((0, 0), (0, 0), (p_t, p_b), (p_l, p_r)))
    keh, kew = block.effective_k
    g_sum = np.zeros((2, block.out_ch, xp.shape[2] - keh + 1, xp.shape[3] - kew + 1))
    g_sum[:, :, ::s_h, ::s_w] = g.data
    gammas = [e for e in ParamSet(block).entries if e.layer < 0]
    assert len(gammas) == len(block.branches)
    for e in gammas:
        out = xp
        for w in block.branches[e.branch].weights:
            out = conv2d_loop(out, w.data, groups=w.groups)
        want = branch_scaling_grad_loop(out, g_sum)
        scale = branch_scaling_grad_loop(np.abs(out), np.abs(g_sum))
        assert np.all(np.abs(ge[e.offset:e.offset + e.size] - want) <= 1e-12 * scale)


@pytest.mark.parametrize("stride", [(1, 1), (2, 2)])
def test_offline_route_takes_an_f32_upstream_as_its_exact_f64_copy(stride):
    # map gradients are f64 whatever the storage, which gradcheck's f32
    # tolerances rest on
    block = build_preset("orepa3x3", 3, 3, 3, dtype="f32", seed=6, stride=stride)
    rng = np.random.default_rng(6)
    x = rand_input(rng, block, hw=(6, 6), batch=2)
    g = Tensor(rng.standard_normal((2, 3, 5 // stride[0] + 1, 5 // stride[1] + 1)), dtype="f32")
    got = backward_through_expanded(block, x, g)
    assert got.tobytes() == backward_through_expanded(block, x, g.astype("f64")).tobytes()


def test_a_branch_scaled_by_zero_gets_only_a_gamma_gradient():
    # orepa3x3's 1x1_filter branch starts at gamma = 0
    block = build_preset("orepa3x3", 3, 3, 3, seed=7)
    bi = [b.name for b in block.branches].index("1x1_filter")
    assert not np.any(block.branches[bi].scaling)
    rng = np.random.default_rng(7)
    x = rand_input(rng, block, hw=(6, 6), batch=2)
    g = Tensor(rng.standard_normal((2, 3, 6, 6)))
    entries = [e for e in ParamSet(block).entries if e.branch == bi]
    assert [e.layer for e in entries] == [0, -1]
    for route in (backward_through_expanded, backward_through_squeeze):
        grads = route(block, x, g)
        weight, gamma = (grads[e.offset:e.offset + e.size] for e in entries)
        assert np.all(weight == 0) and np.all(gamma != 0)


@pytest.mark.parametrize("route", [backward_through_squeeze, backward_through_expanded])
@pytest.mark.parametrize("stride,x_shape,up_shape", [
    (1, (2, 4, 6, 6), (2, 4, 5, 5)), (1, (2, 4, 6, 6), (2, 4, 7, 7)),
    (1, (2, 4, 6, 6), (1, 4, 6, 6)), (2, (2, 4, 6, 6), (2, 4, 2, 2)),
    (2, (2, 4, 6, 6), (2, 4, 6, 6)), (1, (2, 3, 6, 6), (2, 4, 6, 6)),
    (1, (2, 8, 6, 6), (2, 4, 6, 6))])
def test_both_routes_refuse_an_input_or_upstream_of_other_extents(route, stride, x_shape,
                                                                   up_shape):
    # each row was taken by one route and refused by the other, or refused
    # by numpy online; the block's output on x is (2, 4, 6 // stride, 6 // stride)
    block = build_preset("orepa3x3", 4, 4, k=3, seed=0, stride=(stride, stride))
    rng = np.random.default_rng(0)
    x, g = Tensor(rng.standard_normal(x_shape)), Tensor(rng.standard_normal(up_shape))
    with pytest.raises(ShapeError):
        route(block, x, g)


def test_offline_backward_allocation_bound():
    # orepa3x3 at 64 channels, 56x56, batch 2, f64: the measured peak,
    # 11859008 B, plus 2%. Each map dies at its weight adjoint and each
    # branch's last map gradient before the next branch runs: keeping the
    # first-layer map through the input adjoint (12846069 B) or the last
    # map gradient into the next branch (15305090 B) exceeds it
    block = build_preset("orepa3x3", 64, 64, 3, seed=0)
    rng = np.random.default_rng(0)
    x = rand_input(rng, block, hw=(56, 56), batch=2)
    g = Tensor(rng.standard_normal((2, 64, 56, 56)))
    assert peak_bytes(lambda: backward_through_expanded(block, x, g)) <= 1.02 * 11859008


def test_offline_backward_allocation_bound_in_kernel_space():
    # orepavgg at expansion 8, 128 channels, 8x8, batch 2, f64: the measured
    # peak, 8304441 B, plus 2%. The padded input dies before flatten_grads
    # makes the flat vector, and a fixed layer's weight adjoint runs but is
    # not kept. The padded input alive through flatten_grads (8509337 B)
    # exceeds it, and so does keeping it and the fixed layers' gradients,
    # as the route once did (8659690 B)
    block = build_preset("orepavgg", 128, 128, 3, seed=0, expansion=8)
    rng = np.random.default_rng(0)
    x = rand_input(rng, block, hw=(8, 8), batch=2)
    g = Tensor(rng.standard_normal((2, 128, 8, 8)))
    assert peak_bytes(lambda: backward_through_expanded(block, x, g)) <= 1.02 * 8304441


def _online_backward_peak(preset, ch, hw, batch, **options):
    block = build_preset(preset, ch, ch, 3, seed=0, **options)
    rng = np.random.default_rng(0)
    x = rand_input(rng, block, hw=hw, batch=batch)
    g = Tensor(rng.standard_normal((batch, ch) + hw))
    return peak_bytes(lambda: backward_through_squeeze(block, x, g))


def test_online_backward_allocation_bound():
    # orepavgg at expansion 8, 128 channels, 8x8, batch 2, f64: the measured
    # peak, 8327208 B, plus 2%. The squeezed conv's weight adjoint runs
    # before any fold is made, the branches are walked last to first, a fold
    # dies as its walk starts and a prefix product once the walk is below
    # it, the merge adjoint takes each later layer native, no fixed layer's
    # gradient is kept, and the squeezed weight's gradient g_e dies before
    # flatten_grads makes the flat vector. g_e alive through flatten_grads
    # (9482944 B) exceeds it
    assert _online_backward_peak("orepavgg", 128, (8, 8), 2, expansion=8) <= 1.02 * 8327208


@pytest.mark.parametrize("preset,measured", [("orepa3x3", 1006512), ("deepstem", 1701112)])
def test_online_backward_allocation_bound_at_32_channels(preset, measured):
    # 32 channels, 28x28, batch 4, f64: the measured peak plus 2%.
    # orepa3x3: every fold alive through the squeezed weight adjoint
    # (1302456 B) exceeds it. deepstem: its three-layer stem's prefix
    # products alive through the walk (2102664 B) exceed it
    assert _online_backward_peak(preset, 32, (28, 28), 4) <= 1.02 * measured


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("preset,k,stride", [
    ("orepa3x3", 3, 1), ("orepa3x3", 3, 2), ("orepa1x1", 1, 1), ("deepstem", 3, 1),
    ("orepavgg", 3, 1), ("dbb", 5, 1)])
def test_squeezed_weight_adjoint_reads_only_the_kernel_extents(monkeypatch, preset, k, stride,
                                                               dtype):
    # backward_through_squeeze takes the adjoint on a stand-in with W_e's
    # extents and no data; it gives the bytes W_e itself gives
    block = build_preset(preset, 4, 4, k, dtype=dtype, seed=0, stride=(stride, stride))
    rng = np.random.default_rng(0)
    x = rand_input(rng, block, hw=(7, 6), batch=2)
    g = Tensor(rng.standard_normal((2, 4, 6 // stride + 1, 5 // stride + 1)), dtype=dtype)
    kernels = []
    monkeypatch.setattr("orepa.dynamics._conv_grad_w",
                        lambda x, gout, kernel, geom: kernels.append(kernel) or
                        _conv_grad_w(x, gout, kernel, geom))
    backward_through_squeeze(block, x, g)
    geom = block.eval_geometry()
    assert not hasattr(kernels[0], "data")
    assert (_conv_grad_w(x, g, kernels[0], geom).tobytes()
            == _conv_grad_w(x, g, squeeze_block(block).kernel, geom).tobytes())


@pytest.mark.parametrize("w1_shape,groups,w2_shape,measured", [
    ((32, 32, 5, 5), 1, (32, 32, 3, 3), 689656),
    ((64, 16, 3, 3), 4, (48, 64, 3, 3), 591352),
    ((128, 128, 1, 1), 1, (128, 1, 3, 3), 141712)])
def test_merge_backward_allocation_bound(w1_shape, groups, w2_shape, measured):
    # the measured peak plus 2%; w2's groups are C1 over its input channels
    # per group. Dense w2: dw1, dw2, one tap window of gout and one dw1-sized
    # product (688128 and 589824 bytes) fit under it; a second window alive
    # at once, 204800 or 221184 bytes, exceeds it. The third pair has the
    # shapes of identity1x1 then avgpool, and w2 stays channel-wise: dw1 and
    # the native dw2 (140288 bytes) fit, and no room is left for one
    # (128, 128, 3, 3) f64 buffer (1179648 bytes), such as w2's dense
    # expansion or its dense gradient
    rng = np.random.default_rng(0)
    w1 = KernelTensor(rng.standard_normal(w1_shape), groups=groups)
    w2 = KernelTensor(rng.standard_normal(w2_shape), groups=w1_shape[0] // w2_shape[1])
    gout = rng.standard_normal(merge_sequential(w1, L.as_dense(w2)).shape)
    assert peak_bytes(lambda: _merge_backward(w1, w2, gout)) <= 1.02 * measured


# (groups, in channels, out channels, extents, batch) per layout; the
# layouts past 4 run the tap loops in several blocks of tensor._blocks:
# 61 and 64 are channel-wise maps at 58x58, 61 leaving a remainder block;
# "dense" is one 64 -> 64 conv that splits per batch item, "multiplier" a
# depthwise layer with 4 outputs per channel that splits by groups, and
# "channelwise116" a map whose stride-2 phases still split by groups
CONV_LAYOUTS = {1: (1, 4, 8, (7, 8), 2), 2: (2, 4, 8, (7, 8), 2), 4: (4, 4, 8, (7, 8), 2),
                61: (61, 61, 61, (58, 58), 2), 64: (64, 64, 64, (58, 58), 2),
                "dense": (1, 64, 64, (58, 58), 3), "multiplier": (64, 64, 256, (58, 58), 2),
                "channelwise116": (64, 64, 64, (116, 116), 2)}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("layout", CONV_LAYOUTS)
def test_conv_adjoints_dot_product_identity(layout, stride, k):
    # <g, conv(x, w)> = <grad_x, x> = <grad_w, w>; grad_x covers stride 1 only.
    groups, c, co, hw, batch = CONV_LAYOUTS[layout]
    # a named layout draws from a stream of its own, apart from the
    # integer layout with its group count
    seed = 100 * groups + 10 * stride + k
    rng = np.random.default_rng(seed if layout == groups else [seed, c, co, batch])
    x = rng.standard_normal((batch, c) + hw)
    w = KernelTensor(rng.standard_normal((co, c // groups, k, k + 1)), groups=groups)
    geom = ConvGeometry(stride=(stride, stride))
    y = conv2d_direct(Tensor(x), w, geom).data
    g = rng.standard_normal(y.shape)
    lhs = np.vdot(g, y)
    # relative to the size of the summed terms, as the merge property, so that
    # a cancelling <g, y> cannot fail it
    scale = np.sum(np.abs(g * y))
    dw = _conv_grad_w(x, g, w, geom)
    assert dw.shape == w.shape
    assert abs(np.vdot(dw, w.data) - lhs) <= 1e-12 * scale
    if stride == 1:
        dx = _conv_grad_x(g, w)
        assert dx.shape == x.shape
        assert abs(np.vdot(dx, x) - lhs) <= 1e-12 * scale


@pytest.mark.parametrize("k1,k2", [(1, 3), (3, 1), (2, 3), (3, 2), (3, 3)])
def test_merge_adjoint_dot_product_identity(k1, k2):
    # merge_sequential is bilinear, so <G, merge(w1, w2)> = <dw1, w1> = <dw2, w2>;
    # a grouped w1's native gradient is its dense gradient's diagonal blocks
    rng = np.random.default_rng(10 * k1 + k2)
    for groups, cig, cog in [(1, 3, 5), (2, 2, 3), (6, 1, 1), (3, 1, 2)]:
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


@settings(max_examples=80, deadline=None)
@given(groups=st.integers(1, 6), cig=st.integers(1, 4), cog=st.integers(1, 5),
       c2=st.integers(1, 4), k1=st.tuples(st.integers(1, 3), st.integers(1, 4)),
       k2=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       one_by_one=st.sampled_from(["w1", "w2", "neither"]),
       w2_layout=st.sampled_from(["dense", "channelwise", "grouped", "misaligned"]),
       seed=st.integers(0, 2 ** 16))
def test_merge_backward_matches_loop_oracle(groups, cig, cog, c2, k1, k2, one_by_one, w2_layout,
                                            seed):
    # "w1" forces a 1x1 w1, which takes the batched GEMM over all of w2's taps
    # (the tap loop's one tap if w2 is drawn 1x1 too); "w2" forces a 1x1 w2, the
    # tap loop's one tap; "neither" keeps the drawn extents, which mostly take
    # the tap loop over w2's taps. w2 is dense, channel-wise with c2 (cut to
    # 1 or 2) outputs per channel, grouped in 2 groups of more than one input
    # channel, which splits w1's groups when they do not line up, or the
    # misaligned 3 -> 2 chain at width 6; both kernels stay in their native
    # layouts, and the merge runs on w2's dense expansion
    k1 = (1, 1) if one_by_one == "w1" else k1
    k2 = (1, 1) if one_by_one == "w2" else k2
    if w2_layout == "grouped":  # C1 a multiple of 4, so each of 2 groups reads 2 or more
        cog = cog * 4 // math.gcd(groups * cog, 4)
    if w2_layout == "misaligned":
        groups, cog = 3, 2
    c1 = groups * cog
    groups2, c2 = {"dense": (1, c2), "channelwise": (c1, c1 * (1 + c2 % 2)),
                   "grouped": (2, 2 * c2), "misaligned": (2, 2 * c2)}[w2_layout]
    rng = np.random.default_rng(seed)
    w1 = KernelTensor(rng.uniform(-1, 1, size=(c1, cig) + k1), groups=groups)
    w2 = KernelTensor(rng.uniform(-1, 1, size=(c2, c1 // groups2) + k2), groups=groups2)
    merged = merge_sequential(w1, L.as_dense(w2))
    assert merged.groups == 1
    merged = merged.data
    np.testing.assert_allclose(merged, merge_kernels_loop(L.as_dense(w1).data,
                                                          L.as_dense(w2).data),
                               rtol=1e-12, atol=1e-14)
    gout = rng.uniform(-1, 1, size=merged.shape)
    want1, want2 = merge_backward_loop(w1.data, w2.data, gout, groups, groups2)
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
        lhs = np.vdot(g32.astype(np.float64),
                      merge_sequential(a, L.as_dense(b)).data.astype(np.float64))
        for dw, w in ((dw1, a), (dw2, b)):
            got = np.vdot(dw.astype(np.float64), w.data.astype(np.float64))
            assert abs(got - lhs) <= rtol * scale
    # each native gradient is the diagonal blocks of its dense expansion's:
    # with w2 expanded, and with both expanded
    dw1, dw2 = _merge_backward(w1, w2, gout)
    for x1, x2 in (w1, L.as_dense(w2)), (L.as_dense(w1), L.as_dense(w2)):
        dense_dw1, dense_dw2 = _merge_backward(x1, x2, gout)
        for native, dense, w in ((dw1, dense_dw1, w1), (dw2, dense_dw2, w2)):
            assert np.max(np.abs(_dense_grad_to_native(dense, w) - native)) <= \
                1e-12 * np.abs(native).max()


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


def test_sgd_mu_zero_keeps_no_gradient():
    state = SgdState()
    sgd_step(np.array([1.0]), np.array([5.0]), OptimizerConfig(eta=0.1), state)
    assert state.velocity is None


def test_sgd_mu_zero_is_memoryless():
    cfg = OptimizerConfig(eta=0.1)
    state = SgdState()
    sgd_step(np.array([1.0]), np.array([5.0]), cfg, state)
    a = sgd_step(np.array([1.0]), np.array([1.0]), cfg, state)
    b = sgd_step(np.array([1.0]), np.array([1.0]), cfg, SgdState())
    assert a[0] == b[0]


@pytest.mark.parametrize("mode", ["scaled", "standard"])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("weight_decay", [0.0, 0.3])
def test_sgd_step_is_the_literal_update_and_leaves_its_inputs(mode, momentum, weight_decay):
    cfg = OptimizerConfig(eta=0.07, weight_decay=weight_decay, momentum=momentum,
                          momentum_mode=mode)
    rng = np.random.default_rng(3)
    state, w = SgdState(), rng.standard_normal(257)
    factor = cfg.eta * momentum if mode == "scaled" else momentum
    velocity = np.zeros_like(w)
    for _ in range(3):
        g = rng.standard_normal(w.shape)
        inputs = [w, g] + ([] if state.velocity is None else [state.velocity])
        before = [a.copy() for a in inputs]
        velocity = factor * velocity + g
        want = (1 - cfg.eta * weight_decay) * w - cfg.eta * velocity
        w = sgd_step(w, g, cfg, state)
        assert w.tobytes() == want.tobytes()
        assert [a.tobytes() for a in inputs] == [b.tobytes() for b in before]


def test_sgd_step_allocates_only_its_output():
    # a decay-free step is one buffer, the 1 MiB output, plus 4096 B; each
    # temporary of (1 - eta*lambda) * p - eta * v would be another 1 MiB.
    # Weight decay adds one: decay * p.
    rng = np.random.default_rng(5)
    w, g = rng.standard_normal(1 << 17), rng.standard_normal(1 << 17)
    cfg = OptimizerConfig(eta=0.1)
    assert peak_bytes(lambda: sgd_step(w, g, cfg)) <= w.nbytes + 4096
    assert peak_bytes(lambda: sgd_step(w, g, cfg, SgdState())) <= w.nbytes + 4096
    decayed = OptimizerConfig(eta=0.1, weight_decay=0.3)
    assert peak_bytes(lambda: sgd_step(w, g, decayed)) <= 2 * w.nbytes + 4096


def test_update_of_adopted_weights_allocates_one_parameter_vector():
    # orepavgg at expansion 8, 32 channels, f64: once set_flat has adopted a
    # vector, get_flat returns it and set_flat views the update's output, so
    # the step allocates that output: the measured 277872 B, plus 2%, for a
    # 274432 B vector. A gather and a copy per kernel (551256 B) exceed it
    ps = ParamSet(build_preset("orepavgg", 32, 32, 3, seed=0, expansion=8))
    ps.set_flat(ps.get_flat())
    g = np.random.default_rng(0).standard_normal(ps.size)
    cfg, state = OptimizerConfig(eta=0.01), SgdState()
    peak = peak_bytes(lambda: ps.set_flat(sgd_step(ps.get_flat(), g, cfg, state)))
    assert ps.size * 8 == 274432 and peak <= 1.02 * 277872


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
    spec = L.LayerSpec("conv", 2, 2, k=3)
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
    branch = build_branch([L.LayerSpec("conv", 1, 1, k=3)], np.random.default_rng(42),
                          scaling=np.ones(1), name="kxk")
    block = BlockGraph(branches=[branch])
    target = KernelTensor(rng.standard_normal((1, 1, 3, 3)) * 0.3)
    res = train_toy(block, target, 500, OptimizerConfig(eta=0.05), seed=123)
    assert res["diverged_at"] is None
    assert all(a > b for a, b in zip(res["losses"], res["losses"][1:]))
    assert res["final_loss"] <= 1e-6


def test_train_toy_divergence_reported():
    branch = build_branch([L.LayerSpec("conv", 1, 1, k=3)], np.random.default_rng(0),
                          scaling=np.ones(1))
    block = BlockGraph(branches=[branch])
    target = KernelTensor(np.zeros((1, 1, 3, 3)))
    res = train_toy(block, target, 200, OptimizerConfig(eta=1e6), seed=0)
    assert res["diverged_at"] is not None


@pytest.mark.parametrize("mode", ["online", "offline"])
def test_train_toy_without_steps_reports_the_initial_loss(mode):
    def run(steps):
        block = build_preset("orepa3x3", 2, 2, 3, seed=14)
        target = KernelTensor(np.full((2, 2) + block.effective_k, 0.1))
        return train_toy(block, target, steps, OptimizerConfig(eta=0.05), mode=mode)

    res = run(0)
    assert res["losses"] == [] and res["params"] == [] and res["diverged_at"] is None
    assert np.isfinite(res["final_loss"]) and res["final_loss"] == run(1)["losses"][0]


@pytest.mark.parametrize("mode", ["online", "offline"])
def test_train_toy_reports_a_nan_first_loss_at_step_0(mode):
    branch = build_branch([L.LayerSpec("conv", 1, 1, k=3)], np.random.default_rng(0),
                          scaling=np.ones(1))
    branch.weights[0] = KernelTensor(np.full((1, 1, 3, 3), np.nan))
    res = train_toy(BlockGraph(branches=[branch]), KernelTensor(np.zeros((1, 1, 3, 3))), 5,
                    OptimizerConfig(eta=0.05), mode=mode)
    assert res["losses"] == [] and res["diverged_at"] == 0 and np.isnan(res["final_loss"])


@pytest.mark.parametrize("cfg", [
    OptimizerConfig(eta=0.5),
    OptimizerConfig(eta=0.5, momentum=0.9, momentum_mode="standard"),
    OptimizerConfig(eta=0.5, momentum=0.9),
    OptimizerConfig(eta=0.5, momentum=0.9, momentum_mode="standard", weight_decay=0.1)])
def test_frozen_scalings_train_as_one_conv_with_a_gradient_multiplier(cfg):
    # kxk at gamma 0.25, 1x1 at gamma 1.0 and a fixed identity, all scalings
    # frozen: W_e = C + sum_b gamma_b * embed(W_b), so each step moves W_e - C
    # as one conv whose gradient is multiplied by M = sum_b gamma_b^2 on b's
    # taps (RepOpt's multiplier); the decay acts on W_e - C
    c, steps = 16, 20
    rng = np.random.default_rng(0)
    branches = [build_branch([spec], rng, scaling=np.full(c, gamma), scaling_trainable=False)
                for spec, gamma in [(L.LayerSpec("conv", c, c, k=3), 0.25),
                                    (L.LayerSpec("conv", c, c, k=1), 1.0),
                                    (L.LayerSpec("identity1x1", c, c, trainable=False), 1.0)]]
    block = BlockGraph(branches=branches)
    const = np.zeros((c, c, 3, 3))
    const[np.arange(c), np.arange(c), 1, 1] = 1.0
    mult = np.full((c, c, 3, 3), 0.25 ** 2)
    mult[..., 1, 1] += 1.0 ** 2
    target = KernelTensor(rng.standard_normal((c, c, 3, 3)) * 0.2)
    w, geom = squeeze_block(block).kernel.data, block.eval_geometry()
    # train_toy's batch for seed 0
    x = Tensor(np.random.default_rng(0).standard_normal((2, c, 8, 8)))
    y_t = conv2d_direct(x, target, geom).data
    factor = cfg.momentum * (cfg.eta if cfg.momentum_mode == "scaled" else 1.0)
    losses, kernels, velocity = [], [], 0.0
    for _ in range(steps):
        kern = KernelTensor(w)
        r = conv2d_direct(x, kern, geom).data - y_t
        losses.append(0.5 * np.mean(r * r))
        velocity = factor * velocity + mult * _conv_grad_w(x.data, r / r.size, kern, geom)
        w = const + (1 - cfg.eta * cfg.weight_decay) * (w - const) - cfg.eta * velocity
        kernels.append(w)

    res = train_toy(block, target, steps, cfg, record_params=True)
    assert res["diverged_at"] is None and len(res["params"]) == steps
    ps = ParamSet(block)
    assert np.max(np.abs(np.subtract(res["losses"], losses))) <= 1e-12 * max(losses)
    assert losses[-1] < losses[0]
    for flat, want in zip(res["params"], kernels):
        ps.set_flat(flat)
        got = squeeze_block(block).kernel.data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_the_squeezed_loss_books_no_trace(monkeypatch):
    # train_toy's loss and finite_difference_grads' probes read only the
    # squeezed kernel, never the squeeze trace
    def no_trace(block):
        raise AssertionError("a trace was booked")

    monkeypatch.setattr("orepa.squeeze._trace", no_trace)
    block = build_preset("orepa3x3", 2, 2, 3, seed=14)
    target = KernelTensor(np.full((2, 2) + block.effective_k, 0.1))
    for mode in ("online", "offline"):
        assert train_toy(block, target, 2, OptimizerConfig(eta=0.05), mode=mode)["losses"]
    rng = np.random.default_rng(0)
    x = rand_input(rng, block, hw=(5, 5), batch=1)
    g = Tensor(rng.standard_normal((1, 2, 5, 5)))
    assert np.all(np.isfinite(finite_difference_grads(block, x, g)))


def test_train_toy_rejects_bad_target_geometry():
    block = build_preset("deepstem", 3, 4, 3, seed=0)
    bad = KernelTensor(np.zeros((4, 3, 3, 3)))
    with pytest.raises(Exception):
        train_toy(block, bad, 5, OptimizerConfig(eta=0.01))


# --------------------------------------------------------------------------
# Branch diagnostics
# --------------------------------------------------------------------------

def test_similarity_identical_branches():
    spec = L.LayerSpec("conv", 2, 2, k=3)
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
    spec = L.LayerSpec("conv", 1, 1, k=3)
    b1 = build_branch([spec], np.random.default_rng(0))
    b2 = build_branch([spec], np.random.default_rng(0))
    b1.weights[0] = KernelTensor(a)
    b2.weights[0] = KernelTensor(b)
    sim = branch_similarity(BlockGraph(branches=[b1, b2]))
    assert sim[0, 1] == 0.0


def test_similarity_zero_norm_branch():
    spec = L.LayerSpec("conv", 1, 1, k=3)
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
