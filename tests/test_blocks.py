import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from orepa import layers as L
from orepa.blocks import PRESET_TABLE, PRESETS, RECIPES, SCALING_INIT, build_preset, linearize
from orepa.blockspec import block_from_spec, validate_spec
from orepa.dynamics import OptimizerConfig, ParamSet, train_toy
from orepa.squeeze import BlockGraph, build_branch, expanded_forward, squeeze_block
from orepa.tensor import KernelTensor, ShapeError, Tensor

GOLDEN = Path(__file__).parent / "golden"


def test_orepa3x3_structure():
    block = build_preset("orepa3x3", 4, 8, 3, seed=0)
    assert [b.name for b in block.branches] == [
        "1x1", "kxk", "1x1_kxk", "1x1_pool", "1x1_filter", "dw_pw"]
    assert block.effective_k == (3, 3)


def test_scaling_init_defaults_golden():
    assert SCALING_INIT == {"1x1": 1.0, "kxk": 0.25, "1x1_kxk": 0.5,
                            "1x1_pool": 0.5, "1x1_filter": 0.0, "dw_pw": 0.5}
    block = build_preset("orepa3x3", 4, 4, 3, seed=0)
    got = [float(b.scaling[0]) for b in block.branches]
    assert got == [1.0, 0.25, 0.5, 0.5, 0.0, 0.5]
    for b in block.branches:
        assert np.all(b.scaling == b.scaling[0])
        assert b.scaling.shape == (4,)


# Each orepa3x3 branch's output std at init, unscaled, on a standard-normal
# (2, C, 28, 28) input (seed 0 for both), under the default one-sided Kaiming
# init (uniform on [0, bound]) and the symmetric one ([-bound, bound]; the
# identity, pool and filter layers are the same under both). Each row lists
# the branches from the largest std down.
BRANCH_STD_AT_INIT = {
    (16, "default"): {"1x1_kxk": 2.913, "1x1_filter": 2.076, "1x1": 1.050, "dw_pw": 0.978,
                      "kxk": 0.959, "1x1_pool": 0.328},
    (64, "default"): {"1x1_kxk": 5.740, "1x1_filter": 2.078, "dw_pw": 0.996, "1x1": 0.993,
                      "kxk": 0.970, "1x1_pool": 0.325},
    (128, "default"): {"1x1_kxk": 8.022, "1x1_filter": 2.059, "1x1": 1.004, "dw_pw": 0.962,
                       "kxk": 0.946, "1x1_pool": 0.326},
    (16, "symmetric"): {"1x1_filter": 2.076, "1x1": 1.040, "kxk": 0.980, "1x1_kxk": 0.934,
                        "dw_pw": 0.930, "1x1_pool": 0.328},
    (64, "symmetric"): {"1x1_filter": 2.078, "1x1": 1.001, "dw_pw": 0.990, "1x1_kxk": 0.978,
                        "kxk": 0.974, "1x1_pool": 0.325},
    (128, "symmetric"): {"1x1_filter": 2.059, "1x1": 1.001, "dw_pw": 0.985, "1x1_kxk": 0.977,
                         "kxk": 0.974, "1x1_pool": 0.326},
}


@pytest.mark.parametrize("channels,init", BRANCH_STD_AT_INIT)
def test_branch_output_std_at_init(channels, init):
    # PAPER.md sets SCALING_INIT to balance the branches' outputs, first
    # because a 1x1 conv's output variance is "generally much smaller" than
    # a kxk conv's. At init here it is not: under both inits the 1x1 branch's
    # std is no smaller than the kxk branch's, both near 1, since fan-in init
    # with a zero-mean input gives every product the same second moment. The
    # one-sided init correlates the 1x1_kxk branch's middle channels, so its
    # std grows about as sqrt(C) and it stays the largest after its 0.5
    # scaling.
    block = build_preset("orepa3x3", channels, channels, 3, seed=0)
    if init == "symmetric":
        rng = np.random.default_rng(0)
        block = replace(block, branches=[
            build_branch([replace(s, init=replace(s.init, symmetric=True)) for s in b.layers],
                         rng, name=b.name) for b in block.branches])
    x = Tensor(np.random.default_rng(0).standard_normal((2, channels, 28, 28)))
    std = {b.name: float(np.std(expanded_forward(BlockGraph([replace(b, scaling=None)]), x).data))
           for b in block.branches}
    want = BRANCH_STD_AT_INIT[(channels, init)]
    assert std == pytest.approx(want, abs=5e-4)
    assert sorted(std, key=std.get, reverse=True) == list(want)
    assert std["1x1"] > std["kxk"]
    scaled = {name: v * SCALING_INIT[name] for name, v in std.items()}
    top = "1x1_kxk" if init == "default" else "1x1"
    assert sorted(scaled, key=scaled.get, reverse=True)[0] == top
    assert sorted(scaled, key=scaled.get)[:3] == ["1x1_filter", "1x1_pool", "kxk"]


def _branch_std_in_training(scalings, steps=(0, 5, 20, 50, 100)):
    """Each orepa3x3 branch's scaled output std (16 channels, seed 0) on a
    standard-normal (2, 16, 28, 28) input, after each step count in steps
    of an online train_toy run of 100 steps at eta 0.05 that fits the
    target orepa train-toy draws for seed 0."""
    block = build_preset("orepa3x3", 16, 16, 3, seed=0)
    if scalings == "ones":
        for b in block.branches:
            b.scaling = np.ones(16)
    ps = ParamSet(block)
    params = [ps.get_flat()]
    target = KernelTensor(np.random.default_rng(1).standard_normal((16, 16, 3, 3)) * 0.2)
    params += train_toy(block, target, 100, OptimizerConfig(eta=0.05), mode="online",
                        record_params=True)["params"]
    x = Tensor(np.random.default_rng(0).standard_normal((2, 16, 28, 28)))
    std = {}
    for step in steps:
        ps.set_flat(params[step])
        std[step] = {b.name: float(np.std(expanded_forward(BlockGraph([b]), x).data))
                     for b in block.branches}
    return std


def test_branch_output_std_in_training():
    # PAPER.md's third reason lowers the pool and filter branches' scalings:
    # their weights settle early and would crowd out the other branches.
    # Under all-ones scalings, 1x1_filter is the largest branch from step 5
    # on. Under SCALING_INIT, the 0.0-scaled 1x1_filter does not stay the
    # smallest: it grows past 1x1_pool and kxk between steps 20 and 50.
    ones = _branch_std_in_training("ones")
    assert max(ones[0], key=ones[0].get) == "1x1_kxk"
    for step in (5, 20, 50, 100):
        assert max(ones[step], key=ones[step].get) == "1x1_filter"
    paper = _branch_std_in_training("SCALING_INIT")
    assert paper[0]["1x1_filter"] == 0.0
    assert min(paper[20], key=paper[20].get) == "1x1_filter"
    for step in (50, 100):
        assert paper[step]["1x1_filter"] > max(paper[step]["1x1_pool"], paper[step]["kxk"])
    assert paper[100]["1x1_filter"] > paper[50]["1x1_filter"] > paper[20]["1x1_filter"]


def test_orepa1x1_squeezes_to_1x1():
    block = build_preset("orepa1x1", 6, 3, 1, seed=0)
    assert [b.name for b in block.branches] == ["1x1", "1x1_kxk"]
    res = squeeze_block(block)
    assert res.effective_k == (1, 1)


def test_deepstem_three_layers():
    block = build_preset("deepstem", 3, 64, 3, seed=0)
    assert len(block.branches) == 1
    assert len(block.branches[0].layers) == 3
    assert all(s.k == 3 for s in block.branches[0].layers)
    assert squeeze_block(block).effective_k == (7, 7)


def test_orepavgg_structure():
    block = build_preset("orepavgg", 4, 4, 3, seed=0)
    names = [b.name for b in block.branches]
    assert names[:6] == ["1x1", "kxk", "1x1_kxk", "1x1_pool", "1x1_filter", "dw_pw"]
    assert names[6:] == ["vgg_identity", "vgg_1x1"]
    dw = block.branches[5]
    assert dw.layers[0].kind == "depthwise" and dw.layers[0].expansion == 8
    assert dw.weights[0].shape == (32, 1, 3, 3)
    # identity branch drops when channel counts differ
    block2 = build_preset("orepavgg", 4, 6, 3, seed=0)
    assert "vgg_identity" not in [b.name for b in block2.branches]


def test_dbb_structure():
    block = build_preset("dbb", 4, 4, 3, seed=0)
    assert [b.name for b in block.branches] == ["kxk", "1x1", "1x1_kxk", "1x1_pool"]


def test_dw_expansion_defaults():
    b3 = build_preset("orepa3x3", 4, 4, 3, seed=0)
    assert b3.branches[5].layers[0].expansion == 1
    vgg = build_preset("orepavgg", 4, 4, 3, seed=0)
    assert vgg.branches[5].layers[0].expansion == 8


@pytest.mark.parametrize("expansion", [0, -1])
def test_non_positive_expansion_is_named(expansion):
    # only None selects the preset default; 0 must not fall back to it
    with pytest.raises(ValueError, match="'expansion'"):
        build_preset("orepavgg", 4, 4, 3, seed=0, expansion=expansion)


def test_preset_invalid_k():
    with pytest.raises(ShapeError):
        build_preset("orepa3x3", 2, 2, 4)
    with pytest.raises(ShapeError):
        build_preset("orepa1x1", 2, 2, 3)
    with pytest.raises(ShapeError):
        build_preset("deepstem", 3, 8, 5)
    with pytest.raises(ValueError):
        build_preset("nope", 2, 2, 3)
    assert set(PRESETS) == {"orepa3x3", "orepa1x1", "deepstem", "orepavgg", "dbb"}


def test_linearize_adds_unit_scaling():
    rng = np.random.default_rng(0)
    branch = build_branch([L.LayerSpec("conv", 2, 3, k=3)], rng, name="mystery")
    block = BlockGraph(branches=[branch])
    lin = linearize(block)
    np.testing.assert_array_equal(lin.branches[0].scaling, np.ones(3))


def test_linearize_named_branches_get_catalog_defaults():
    rng = np.random.default_rng(0)
    defs = [("kxk", [{"kind": "conv", "out_ch": 4}]),
            ("1x1", [{"kind": "conv", "out_ch": 4, "k": 1}]),
            ("1x1_kxk", [{"kind": "conv", "out_ch": 4, "k": 1}, {"kind": "conv"}]),
            ("1x1_pool", [{"kind": "identity1x1", "out_ch": 4}, {"kind": "avgpool"}])]
    branches = [build_branch(L.layer_specs(objs, 2, 3), rng, name=n) for n, objs in defs]
    lin = linearize(BlockGraph(branches=branches))
    got = [float(b.scaling[0]) for b in lin.branches]
    assert got == [SCALING_INIT["kxk"], SCALING_INIT["1x1"],
                   SCALING_INIT["1x1_kxk"], SCALING_INIT["1x1_pool"]]
    # structurally the linearized block matches the dbb preset
    preset = build_preset("dbb", 2, 4, 3, seed=0)
    assert [b.name for b in lin.branches] == [b.name for b in preset.branches]
    assert [[s.kind for s in b.layers] for b in lin.branches] == \
           [[s.kind for s in b.layers] for b in preset.branches]
    assert [float(b.scaling[0]) for b in preset.branches] == got


def test_linearize_idempotent():
    rng = np.random.default_rng(0)
    branch = build_branch([L.LayerSpec("conv", 2, 2, k=3)], rng, name="kxk")
    once = linearize(BlockGraph(branches=[branch]))
    twice = linearize(once)
    np.testing.assert_array_equal(twice.branches[0].scaling, once.branches[0].scaling)
    assert twice.branches[0].weights[0] is once.branches[0].weights[0]


def test_zero_scalings_squeeze_to_zero_kernel():
    block = build_preset("orepa3x3", 3, 3, 3, seed=4)
    for b in block.branches:
        b.scaling = np.zeros_like(b.scaling)
    res = squeeze_block(block)
    assert np.all(res.kernel.data == 0.0)


def test_only_kxk_active_squeezes_to_that_branch():
    block = build_preset("orepa3x3", 3, 3, 3, seed=4)
    for b in block.branches:
        b.scaling = (np.ones_like(b.scaling) if b.name == "kxk"
                     else np.zeros_like(b.scaling))
    res = squeeze_block(block)
    kxk = next(b for b in block.branches if b.name == "kxk")
    np.testing.assert_array_equal(res.kernel.data, kxk.weights[0].data)


def test_frozen_scaling_excluded_from_params():
    block = build_preset("orepa3x3", 2, 2, 3, seed=0, frozen_scaling=True)
    ps = ParamSet(block)
    assert all(e.kind != "gamma" for e in ps.entries)
    default = ParamSet(build_preset("orepa3x3", 2, 2, 3, seed=0))
    assert any(e.kind == "gamma" for e in default.entries)


def test_preset_weights_deterministic_per_seed():
    a = build_preset("orepa3x3", 2, 2, 3, seed=5)
    b = build_preset("orepa3x3", 2, 2, 3, seed=5)
    c = build_preset("orepa3x3", 2, 2, 3, seed=6)
    a0 = a.branches[0].weights[0].data
    assert a0.tobytes() == b.branches[0].weights[0].data.tobytes()
    assert a0.tobytes() != c.branches[0].weights[0].data.tobytes()


# --------------------------------------------------------------------------
# Byte-level golden of every preset build
# --------------------------------------------------------------------------

PRESET_KS = [("orepa3x3", 3), ("orepa3x3", 5), ("orepa1x1", 1), ("deepstem", 3),
             ("orepavgg", 3), ("dbb", 3), ("dbb", 5)]
PRESET_OPTIONS = [{}, {"expansion": 2}, {"expansion": 0}, {"internal_ch": 3},
                  {"frozen_scaling": True}, {"stride": (2, 1)},
                  {"expansion": 3, "internal_ch": 5, "frozen_scaling": True}]
# builds that raise: the golden pins their error type and message
PRESET_ERRORS = [("orepa3x3", 4, 4, 4, {}), ("orepa3x3", 1, 4, 4, {}),
                 ("orepa1x1", 3, 4, 4, {}), ("deepstem", 5, 4, 4, {}),
                 ("orepavgg", 5, 4, 4, {}), ("dbb", 2, 4, 4, {}), ("nope", 3, 4, 4, {}),
                 ("orepa3x3", 3, 0, 4, {}), ("dbb", 3, 4, 0, {}),
                 ("orepavgg", 3, 4, 4, {"internal_ch": 0}),
                 ("orepa1x1", 1, 4, 4, {"internal_ch": -1})]


def _build_digest(block):
    """sha256 over everything a preset build decides: geometry, branch
    names, layer specs, weight bytes and groups, scaling and its mode."""
    h = hashlib.sha256(repr(block.output_geometry).encode())
    for b in block.branches:
        h.update(repr((b.name, b.scaling_trainable, b.layers)).encode())
        for w in b.weights:
            h.update(repr((w.shape, w.groups, w.data.dtype.str)).encode())
            h.update(w.data.tobytes())
        h.update(b"none" if b.scaling is None
                 else repr(b.scaling.dtype.str).encode() + b.scaling.tobytes())
    return h.hexdigest()


def _preset_case(preset, k, in_ch, out_ch, opts, dtype="f64"):
    key = f"{preset} k={k} {in_ch}->{out_ch} {dtype} {json.dumps(opts, sort_keys=True)}"
    try:
        return key, _build_digest(build_preset(preset, in_ch, out_ch, k, dtype=dtype,
                                               seed=11, **opts))
    except ValueError as exc:
        return key, f"{type(exc).__name__}: {exc}"


def preset_digests():
    """Every case of tests/golden/presets.json; regenerate that file with
    `PYTHONPATH=src python tests/test_blocks.py`."""
    cases = [(p, k, i, o, opts, dt) for p, k in PRESET_KS
             for i, o in ((4, 4), (3, 5)) for opts in PRESET_OPTIONS for dt in ("f64", "f32")]
    cases += [(*case, "f64") for case in PRESET_ERRORS]
    return dict(_preset_case(*case) for case in cases)


def test_preset_builds_match_golden():
    want = json.loads((GOLDEN / "presets.json").read_text())
    assert preset_digests() == want


def _preset_spec(preset, k, in_ch, out_ch, dtype, expansion=None, internal_ch=None,
                 stride=(1, 1)):
    """A preset build written as a spec document: its recipes' layer objects
    and the SCALING_INIT of each branch a recipe does not drop."""
    _, names, default_expansion = PRESET_TABLE[preset]
    mid = out_ch if internal_ch is None else internal_ch
    e = default_expansion if expansion is None else expansion
    recipes = [(name, RECIPES[name](out_ch, mid, e, in_ch == out_ch)) for name in names]
    kept = [(name, objs) for name, objs in recipes if objs]
    doc = {"in_ch": in_ch, "out_ch": out_ch, "k": k, "dtype": dtype, "seed": 11,
           "stride": stride, "branches": [objs for _, objs in kept],
           "scaling_init": [SCALING_INIT.get(name, 1.0) for name, _ in kept]}
    return json.loads(json.dumps(doc))


PRESET_SPEC_CASES = [(p, k, i, o, dt, {}) for p, k in PRESET_KS
                     for i, o in ((4, 4), (3, 5)) for dt in ("f64", "f32")]
PRESET_SPEC_CASES.append(("orepavgg", 3, 4, 4, "f64",
                          {"expansion": 2, "internal_ch": 3, "stride": (2, 1)}))


@pytest.mark.parametrize("preset,k,in_ch,out_ch,dtype,opts", PRESET_SPEC_CASES)
def test_preset_is_the_spec_of_its_recipes(preset, k, in_ch, out_ch, dtype, opts):
    doc = _preset_spec(preset, k, in_ch, out_ch, dtype, **opts)
    validate_spec(doc)
    got = block_from_spec(doc)
    want = build_preset(preset, in_ch, out_ch, k, dtype=dtype, seed=11, **opts)
    assert got.output_geometry == want.output_geometry
    assert len(got.branches) == len(want.branches)
    for g, w in zip(got.branches, want.branches):
        assert g.layers == w.layers
        assert [x.data.tobytes() for x in g.weights] == [x.data.tobytes() for x in w.weights]
        assert g.scaling.dtype == w.scaling.dtype
        assert g.scaling.tobytes() == w.scaling.tobytes()


if __name__ == "__main__":
    (GOLDEN / "presets.json").write_text(json.dumps(preset_digests(), indent=1,
                                                    sort_keys=True) + "\n")
