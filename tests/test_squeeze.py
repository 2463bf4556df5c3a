import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orepa import layers as L
from orepa.blocks import build_preset
from orepa.squeeze import (BlockGraph, Branch, MergeError, _fold, _trace,
                           apply_branch_scaling, block_forward_squeezed, build_branch,
                           cost_report, expanded_forward, merge_parallel,
                           merge_sequential, squeeze_block)
from orepa.tensor import KernelTensor, ShapeError, Tensor, conv2d_direct

from oracles import merge_kernels_loop
from util import block_graphs, check_edge, peak_bytes, rand_input


def _conv(i, o):
    return L.materialize(L.LayerSpec("conv", i, o), 0)


@pytest.mark.parametrize("call,want", [
    (lambda: Branch([], []),
     ShapeError("branch", "one weight per layer, at least one layer", 0)),
    (lambda: Branch([L.LayerSpec("conv", 2, 3), L.LayerSpec("conv", 2, 2)],
                    [_conv(2, 3), _conv(2, 2)]),
     ShapeError("branch layer 1 in_channels", 3, 2)),
    (lambda: Branch([L.LayerSpec("conv", 2, 3)], [_conv(2, 3)], scaling=[1.0, 1.0]),
     ShapeError("scaling", (3,), (2,))),
    (lambda: BlockGraph([]), ShapeError("branches", ">= 1", 0)),
    (lambda: BlockGraph([build_branch([L.LayerSpec("conv", 2, o)], 0) for o in (2, 3)]),
     ShapeError("branch channels", (2, 2), (2, 3))),
    (lambda: apply_branch_scaling(_conv(2, 3), [1.0]), ShapeError("gamma", (3,), (1,))),
], ids=["empty_branch", "broken_chain", "scaling_length", "no_branches",
        "branch_channels", "gamma_length"])
def test_documented_edges(call, want):
    check_edge(call, want)


def test_1x1_merge_is_matmul():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, size=(4, 3, 1, 1))
    b = rng.uniform(-1, 1, size=(2, 4, 1, 1))
    merged = merge_sequential(KernelTensor(a), KernelTensor(b))
    want = b[:, :, 0, 0] @ a[:, :, 0, 0]
    np.testing.assert_allclose(merged.data[:, :, 0, 0], want, atol=1e-15)


def test_identity_absorption():
    rng = np.random.default_rng(1)
    ident = L.materialize(L.LayerSpec("identity1x1", 3, 3), 0)
    k = KernelTensor(rng.uniform(-1, 1, size=(2, 3, 3, 3)))
    merged = merge_sequential(ident, k)
    assert merged.shape == k.shape
    np.testing.assert_array_equal(merged.data, k.data)


def test_three_all_ones_kernels():
    ones = KernelTensor(np.ones((1, 1, 3, 3)))
    merged = merge_sequential(merge_sequential(ones, ones), ones)
    assert merged.shape == (1, 1, 7, 7)
    # oracle-derived tap values: the pairwise loop-nest merge gives the
    # same 7x7 kernel, integer-exact
    want = merge_kernels_loop(merge_kernels_loop(ones.data, ones.data), ones.data)
    np.testing.assert_array_equal(merged.data, want)
    assert merged.data[0, 0, 3, 3] == 49.0
    for i, j in ((0, 0), (0, 6), (6, 0), (6, 6)):
        assert merged.data[0, 0, i, j] == 1.0
    # cross-check conv-of-conv on a random input's interior
    rng = np.random.default_rng(2)
    x = Tensor(rng.uniform(-1, 1, size=(1, 1, 16, 16)))
    seq = conv2d_direct(conv2d_direct(conv2d_direct(x, ones), ones), ones)
    direct = conv2d_direct(x, merged)
    np.testing.assert_allclose(seq.data, direct.data, atol=1e-10)


def test_merge_composition_equals_conv_of_conv():
    rng = np.random.default_rng(3)
    w1 = KernelTensor(rng.uniform(-1, 1, size=(3, 2, 3, 3)))
    w2 = KernelTensor(rng.uniform(-1, 1, size=(4, 3, 5, 5)))
    merged = merge_sequential(w1, w2)
    assert merged.shape == (4, 2, 7, 7)
    x = Tensor(rng.uniform(-1, 1, size=(2, 2, 14, 14)))
    seq = conv2d_direct(conv2d_direct(x, w1), w2)
    direct = conv2d_direct(x, merged)
    np.testing.assert_allclose(seq.data, direct.data, atol=1e-12)


def test_merge_associativity():
    rng = np.random.default_rng(4)
    w1 = KernelTensor(rng.uniform(-1, 1, size=(3, 2, 3, 3)))
    w2 = KernelTensor(rng.uniform(-1, 1, size=(4, 3, 1, 1)))
    w3 = KernelTensor(rng.uniform(-1, 1, size=(2, 4, 5, 5)))
    left = merge_sequential(merge_sequential(w1, w2), w3)
    right = merge_sequential(w1, merge_sequential(w2, w3))
    assert np.max(np.abs(left.data - right.data)) <= 1e-12


def test_merge_channel_mismatch():
    w1 = KernelTensor(np.ones((2, 2, 1, 1)))
    w2 = KernelTensor(np.ones((2, 3, 1, 1)))
    with pytest.raises(MergeError):
        merge_sequential(w1, w2)
    # a kernel of another dtype is refused in either order, not rounded into w1's
    k32 = KernelTensor(np.ones((2, 2, 3, 3)), dtype="f32")
    k64 = KernelTensor(np.ones((2, 2, 1, 1)))
    for a, b in ((k32, k64), (k64, k32)):
        with pytest.raises(MergeError, match="dtype mismatch: w1 f.., w2 f.."):
            merge_sequential(a, b)


def test_merge_rejects_grouped():
    # a grouped first kernel is merged in its native layout; a grouped second one is not
    w1 = KernelTensor(np.ones((2, 2, 1, 1)))
    w2 = KernelTensor(np.ones((2, 1, 1, 1)), groups=2)
    with pytest.raises(MergeError):
        merge_sequential(w1, w2)


def test_merge_of_1x1_then_3x3_allocates_only_the_merged_kernel():
    # all taps contract in one GEMM written into the merged kernel: no
    # per-tap product and no (C2 * 9, C0) product scattered afterwards
    rng = np.random.default_rng(3)
    w1 = KernelTensor(rng.standard_normal((128, 128, 1, 1)))
    w2 = KernelTensor(rng.standard_normal((128, 128, 3, 3)))
    # the merged kernel has w2's shape
    assert peak_bytes(lambda: merge_sequential(w1, w2)) <= 1.15 * w2.data.nbytes


def test_parallel_zero_identity_and_commutativity():
    rng = np.random.default_rng(5)
    k = KernelTensor(rng.uniform(-1, 1, size=(2, 3, 3, 3)))
    zero = KernelTensor(np.zeros((2, 3, 3, 3)))
    np.testing.assert_array_equal(merge_parallel([k, zero]).data, k.data)
    other = KernelTensor(rng.uniform(-1, 1, size=(2, 3, 1, 1)))
    ab = merge_parallel([k, other]).data
    ba = merge_parallel([other, k]).data
    np.testing.assert_array_equal(ab, ba)


def test_parallel_center_alignment():
    rng = np.random.default_rng(6)
    k = rng.uniform(-1, 1, size=(1, 1, 3, 3))
    w = 0.7
    merged = merge_parallel([KernelTensor(np.full((1, 1, 1, 1), w)), KernelTensor(k)])
    want = k.copy()
    want[0, 0, 1, 1] += w
    np.testing.assert_array_equal(merged.data, want)

    center_one = np.zeros((1, 1, 3, 3))
    center_one[0, 0, 1, 1] = 1.0
    merged = merge_parallel([KernelTensor(np.full((1, 1, 1, 1), 2.0)),
                             KernelTensor(center_one)])
    assert merged.data[0, 0, 1, 1] == 3.0


def test_parallel_rejects_even_extent():
    with pytest.raises(MergeError):
        merge_parallel([KernelTensor(np.ones((1, 1, 2, 2)))])


def test_even_branch_rejected_by_both_routes():
    rng = np.random.default_rng(0)
    even = build_branch([L.LayerSpec("conv", 1, 1, k=2)], rng)
    odd = build_branch([L.LayerSpec("conv", 1, 1, k=3)], rng)
    block = BlockGraph(branches=[even, odd])
    x = Tensor(rng.uniform(-1, 1, size=(1, 1, 6, 6)))
    with pytest.raises(MergeError):
        squeeze_block(block)
    with pytest.raises(MergeError):
        expanded_forward(block, x)
    # a lone even-extent branch is fine: no center alignment involved
    single = BlockGraph(branches=[build_branch([L.LayerSpec("conv", 1, 1, k=2)], rng)])
    direct = block_forward_squeezed(single, x)
    expanded = expanded_forward(single, x)
    np.testing.assert_allclose(direct.data, expanded.data, atol=1e-12)


def test_parallel_rejects_channel_mismatch():
    with pytest.raises(MergeError):
        merge_parallel([KernelTensor(np.ones((1, 1, 3, 3))),
                        KernelTensor(np.ones((2, 1, 3, 3)))])


@pytest.mark.parametrize("extents", [(1, 3, 5), (5, 1), (3, 1, 3)],
                         ids=["grows", "shrinks", "3-1-3"])
def test_merge_parallel_reads_a_generator_one_kernel_at_a_time(extents):
    # each kernel is dropped once it is in the running sum: when kernel i >= 1
    # is asked for, every earlier one is dead. The bytes equal the list
    # form's and one zero canvas at the largest extents, added in order.
    rng = np.random.default_rng(43)
    values = [rng.standard_normal((4, 2, k, k)) for k in extents]
    refs = []

    def kernels():
        for i, v in enumerate(values):
            assert all(r() is None for r in refs), f"asking for kernel {i}"
            k = KernelTensor(v.copy(), groups=2)
            refs.append(weakref.ref(k.data))
            yield k
            del k

    got = merge_parallel(kernels())
    assert all(r() is None for r in refs)
    m = max(extents)
    want = np.zeros((4, 2, m, m))
    for v in values:
        o = (m - v.shape[-1]) // 2
        want[..., o:o + v.shape[-2], o:o + v.shape[-1]] += v
    listed = merge_parallel([KernelTensor(v, groups=2) for v in values])
    assert got.groups == listed.groups == 2
    assert got.data.tobytes() == listed.data.tobytes() == want.tobytes()


def test_merge_parallel_checks_each_kernel_of_a_generator():
    k3 = KernelTensor(np.ones((2, 1, 3, 3)))
    with pytest.raises(MergeError, match="at least one kernel"):
        merge_parallel(k for k in [])
    with pytest.raises(MergeError, match="kernel 2 has even extent"):
        merge_parallel(k for k in [k3, k3, KernelTensor(np.ones((2, 1, 2, 2)))])
    with pytest.raises(MergeError, match="kernel 1 channels/groups differ"):
        merge_parallel(k for k in [k3, KernelTensor(np.ones((2, 2, 5, 5)))])
    with pytest.raises(MergeError, match="kernel 1 channels/groups differ"):
        merge_parallel(k for k in [KernelTensor(np.ones((2, 2, 3, 3))),
                                   KernelTensor(np.ones((2, 1, 3, 3)), groups=2)])
    k32 = KernelTensor(np.ones((2, 1, 3, 3)), dtype="f32")
    k64 = KernelTensor(np.ones((2, 1, 1, 1)))
    for ks in ([k32, k64], [k64, k32]):
        with pytest.raises(MergeError, match="kernel 1 dtype f.. differs from kernel 0's"):
            merge_parallel(k for k in ks)


def test_branch_scaling_examples():
    rng = np.random.default_rng(7)
    k = KernelTensor(rng.uniform(-1, 1, size=(2, 3, 3, 3)))
    np.testing.assert_array_equal(apply_branch_scaling(k, np.ones(2)).data, k.data)
    zeroed = apply_branch_scaling(k, np.array([0.0, 1.0]))
    assert np.all(zeroed.data[0] == 0.0)
    np.testing.assert_array_equal(zeroed.data[1], k.data[1])

    gamma = rng.uniform(-1, 1, size=2)
    scale_kernel = KernelTensor(np.diag(gamma)[:, :, None, None])
    via_merge = merge_sequential(k, scale_kernel)
    np.testing.assert_array_equal(apply_branch_scaling(k, gamma).data, via_merge.data)


def test_single_branch_squeeze_returns_conv_weight():
    rng = np.random.default_rng(8)
    branch = build_branch([L.LayerSpec("conv", 2, 3, k=3)], rng, scaling=np.ones(3))
    block = BlockGraph(branches=[branch])
    res = squeeze_block(block)
    np.testing.assert_array_equal(res.kernel.data, branch.weights[0].data)


def test_deep_stem_squeezes_to_7x7():
    block = build_preset("deepstem", 3, 16, 3, seed=0)
    res = squeeze_block(block)
    assert res.effective_k == (7, 7)
    assert res.kernel.shape == (16, 3, 7, 7)


@pytest.mark.parametrize("preset,kwargs", [
    ("orepa3x3", {"in_ch": 3, "out_ch": 4, "k": 3}),
    ("orepa3x3", {"in_ch": 4, "out_ch": 4, "k": 5}),
    ("orepa1x1", {"in_ch": 3, "out_ch": 5, "k": 1}),
    ("deepstem", {"in_ch": 3, "out_ch": 8, "k": 3}),
    ("orepavgg", {"in_ch": 4, "out_ch": 4, "k": 3}),
    ("dbb", {"in_ch": 2, "out_ch": 6, "k": 3}),
])
def test_preset_squeeze_forward_equivalence(preset, kwargs):
    block = build_preset(preset, seed=31, **kwargs)
    rng = np.random.default_rng(17)
    x = rand_input(rng, block, hw=(16, 16), batch=2)
    direct = conv2d_direct(x, squeeze_block(block).kernel, block.eval_geometry())
    expanded = expanded_forward(block, x)
    assert np.max(np.abs(direct.data - expanded.data)) <= 1e-10


EQUIV_TOL = {"f64": 1e-9, "f32": 1e-3}


@settings(max_examples=100, deadline=None)
@given(block=block_graphs(max_branches=6, max_ch=8),
       hw=st.tuples(st.integers(3, 11), st.integers(3, 11)), seed=st.integers(0, 2 ** 16))
def test_squeezed_forward_equals_expanded_property(block, hw, seed):
    x = rand_input(np.random.default_rng(seed), block, hw=hw, batch=2)
    even = any(k % 2 == 0 for b in block.branches for k in b.effective_k)
    if even and len(block.branches) > 1:
        with pytest.raises(MergeError):
            squeeze_block(block)
        with pytest.raises(MergeError):
            expanded_forward(block, x)
        return
    res = squeeze_block(block)
    assert res.effective_k == (max(1 + sum(w.kh - 1 for w in b.weights) for b in block.branches),
                               max(1 + sum(w.kw - 1 for w in b.weights) for b in block.branches))
    # squeezing distributes over the branches, bit for bit
    parts = [squeeze_block(BlockGraph(branches=[b])).kernel for b in block.branches]
    whole = merge_parallel(parts) if len(parts) > 1 else parts[0]
    assert np.array_equal(res.kernel.data, whole.data)
    direct = block_forward_squeezed(block, x)
    expanded = expanded_forward(block, x)
    assert direct.shape == expanded.shape
    assert np.max(np.abs(direct.data - expanded.data)) <= EQUIV_TOL[block.dtype]


def test_expanded_identity_branch_is_input():
    branch = build_branch([L.LayerSpec("identity1x1", 3, 3)], np.random.default_rng(0))
    block = BlockGraph(branches=[branch])
    rng = np.random.default_rng(9)
    x = rand_input(rng, block, hw=(5, 5), batch=1)
    y = expanded_forward(block, x)
    np.testing.assert_array_equal(y.data, x.data)


def test_expanded_two_identical_branches_doubles():
    rng = np.random.default_rng(10)
    spec = L.LayerSpec("conv", 2, 2, k=3)
    w = L.materialize(spec, 3)
    b1 = Branch(layers=[spec], weights=[w], scaling=np.ones(2))
    b2 = Branch(layers=[spec], weights=[w], scaling=np.ones(2))
    single = BlockGraph(branches=[b1])
    double = BlockGraph(branches=[Branch(layers=[spec], weights=[w], scaling=np.ones(2)),
                                  b2])
    x = rand_input(rng, single, hw=(6, 6), batch=1)
    y1 = expanded_forward(single, x)
    y2 = expanded_forward(double, x)
    np.testing.assert_allclose(y2.data, 2 * y1.data, atol=1e-12)


def test_expanded_forward_allocation_bound():
    # orepa3x3 at 64 channels, 56x56, batch 2, f64: the measured peak,
    # 14361478 B, plus 2%. The branches stream into one running sum, so one
    # more (2, 64, 56, 56) f64 map alive at once, 3211264 B, exceeds it.
    block = build_preset("orepa3x3", 64, 64, 3, seed=0)
    x = rand_input(np.random.default_rng(0), block, hw=(56, 56), batch=2)
    assert peak_bytes(lambda: expanded_forward(block, x)) <= 1.02 * 14361478


def test_cost_single_conv_offline_equals_online():
    branch = build_branch([L.LayerSpec("conv", 4, 4, k=3)], np.random.default_rng(0))
    block = BlockGraph(branches=[branch])
    costs = cost_report(block, (16, 16), 8)
    assert costs["offline"]["buffer_elems"] == 0
    assert costs["online"]["buffer_elems"] == 0
    assert costs["offline"]["mults"] == costs["online"]["mults"]


def test_cost_1x1_then_3x3_worked_example():
    # 1x1 -> 3x3 branch at H = W = 56, B = 32, C = 64
    rng = np.random.default_rng(0)
    branch = build_branch(L.layer_specs([{"kind": "conv", "k": 1}, {"kind": "conv"}], 64, 3), rng)
    block = BlockGraph(branches=[branch])
    costs = cost_report(block, (56, 56), 32)
    assert costs["offline"]["buffer_elems"] == 32 * 64 * 56 * 56
    assert costs["online"]["buffer_elems"] == 64 * 64 * 3 * 3
    ratio = costs["offline"]["buffer_elems"] / costs["online"]["buffer_elems"]
    assert ratio > 100


@pytest.mark.parametrize("preset,kwargs,want", [
    # grouped 1x1_pool, 1x1_filter and dw_pw layers; the figures cost_report gave
    # while it still ran the squeeze
    ("orepa3x3", dict(in_ch=4, out_ch=8, k=3, expansion=2),
     {"offline": {"buffer_elems": 12288, "mults": 126720},
      "online": {"buffer_elems": 4352, "mults": 38336}}),
    ("orepavgg", dict(in_ch=8, out_ch=8, k=3),
     {"offline": {"buffer_elems": 20736, "mults": 271872},
      "online": {"buffer_elems": 11712, "mults": 109056}}),
])
def test_cost_report_books_from_shapes_without_merging(monkeypatch, preset, kwargs, want):
    block = build_preset(preset, **kwargs)

    def no_kernel_op(*args):
        raise AssertionError("cost_report computed a kernel")

    monkeypatch.setattr("orepa.squeeze.merge_sequential", no_kernel_op)
    monkeypatch.setattr("orepa.squeeze.as_dense", no_kernel_op)
    assert cost_report(block, (8, 6), 2) == want


def test_cost_report_refuses_an_even_branch_beside_another():
    rng = np.random.default_rng(0)
    block = BlockGraph([build_branch([L.LayerSpec("conv", 2, 2, k=k)], rng) for k in (2, 3)])
    with pytest.raises(MergeError, match="even effective extent 2x2"):
        cost_report(block, (8, 8), 1)


@settings(max_examples=100, deadline=None)
@given(block=block_graphs(max_branches=6, max_ch=8))
def test_trace_books_the_fold_property(block):
    # _trace walks kernel shapes apart from the fold; this holds the two
    # together, branch by branch, then at the parallel merge
    try:
        kernel = squeeze_block(block).kernel
    except MergeError:
        return
    steps = _trace(block)
    for branch in block.branches:
        folds = []
        fold = _fold(branch, folds)
        prefix, weights = folds[0], branch.weights
        grouped = [w for w in weights if w.groups != 1]
        mine = steps[:len(grouped) + len(weights) - 1 + (branch.scaling is not None)]
        del steps[:len(mine)]
        expands = [s for s in mine if s.op == "as_dense"]
        assert [(s.inputs, s.output) for s in expands] == [((w.shape,), L.as_dense(w).shape)
                                                         for w in grouped]
        merges = [s for s in mine if s.op == "merge_sequential"]
        assert [s.output for s in merges] == [p.shape for p in prefix[1:]]
        assert [s.inputs for s in merges] == [(L.as_dense(p).shape, L.as_dense(w).shape)
                                              for p, w in zip(prefix[:-1], weights[1:])]
        scales = [s for s in mine if s.op == "scale"]
        if branch.scaling is None:
            assert scales == []
        else:
            assert scales == [mine[-1]]
            assert mine[-1].output == apply_branch_scaling(fold, branch.scaling).shape
    if len(block.branches) == 1:
        assert steps == []
    else:
        assert [s.op for s in steps] == ["merge_parallel"]
        assert steps[0].output == kernel.shape


def test_cost_orepa_preset_buffer_reduction():
    block = build_preset("orepa3x3", 64, 64, 3, seed=0)
    costs = cost_report(block, (56, 56), 32)
    assert costs["online"]["buffer_elems"] <= 0.10 * costs["offline"]["buffer_elems"]


def test_trace_records_shapes_and_mults():
    block = build_preset("deepstem", 3, 4, 3, seed=0)
    res = squeeze_block(block)
    lines = res.trace_json_lines().strip().splitlines()
    assert len(lines) == len(res.trace)
    first = json.loads(lines[0])
    assert set(first) == {"step", "op", "shapes", "mults"}
    assert set(first["shapes"]) == {"inputs", "output"}
    merges = [json.loads(l) for l in lines if json.loads(l)["op"] == "merge_sequential"]
    assert len(merges) == 2
    assert merges[0]["shapes"]["output"][-2:] == [5, 5]
    assert merges[1]["shapes"]["output"][-2:] == [7, 7]
