"""Preset training-time block topologies and the linearization transform.

A preset is data: its k rule, its branch names in order and its default
dw_pw expansion. Each branch name has one recipe for its layers, written as
the spec layer objects a block-spec file holds, so a preset is a spec. Branch
order inside each preset is fixed so scaling-init vectors and
similarity-matrix indices stay reproducible across runs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import layers as L
from .squeeze import BlockGraph, build_branch
from .tensor import ConvGeometry, ShapeError

# Default per-branch scaling factors, keyed by branch name; other names start at 1.0.
SCALING_INIT = {
    "1x1": 1.0,
    "kxk": 0.25,
    "1x1_kxk": 0.5,
    "1x1_pool": 0.5,
    "1x1_filter": 0.0,
    "dw_pw": 0.5,
}

# Each named branch's spec layer objects (see layers.layer_specs) from
# (out_ch, internal_ch, expansion, in_ch == out_ch); a layer without k takes
# the block's k. The 1x1 convolutions feeding the pooling and filtering
# branches start as identity layers so those branches begin as a pure pool /
# filter; the one feeding the kxk branch starts random. An empty recipe drops
# the branch.
RECIPES = {
    "1x1": lambda o, mid, e, same: [{"kind": "conv", "out_ch": o, "k": 1}],
    "kxk": lambda o, mid, e, same: [{"kind": "conv", "out_ch": o}],
    "1x1_kxk": lambda o, mid, e, same: [{"kind": "conv", "out_ch": mid, "k": 1},
                                        {"kind": "conv", "out_ch": o}],
    "1x1_pool": lambda o, mid, e, same: [{"kind": "identity1x1", "out_ch": o},
                                         {"kind": "avgpool"}],
    "1x1_filter": lambda o, mid, e, same: [{"kind": "identity1x1", "out_ch": o},
                                           {"kind": "freqfilter"}],
    "dw_pw": lambda o, mid, e, same: [{"kind": "depthwise", "expansion": e},
                                      {"kind": "pointwise", "out_ch": o}],
    "stem": lambda o, mid, e, same: [{"kind": "conv", "out_ch": mid},
                                     {"kind": "conv", "out_ch": mid},
                                     {"kind": "conv", "out_ch": o}],
    "vgg_identity": lambda o, mid, e, same: [{"kind": "identity1x1", "trainable": False}]
                                            if same else [],
    "vgg_1x1": lambda o, mid, e, same: [{"kind": "conv", "out_ch": o, "k": 1}],
}

ODD_K = "odd and >= 3"
_OREPA = ("1x1", "kxk", "1x1_kxk", "1x1_pool", "1x1_filter", "dw_pw")

# preset: (k rule, branch names in order, default dw_pw expansion)
PRESET_TABLE = {
    "orepa3x3": (ODD_K, _OREPA, 1),
    "orepa1x1": (1, ("1x1", "1x1_kxk"), 1),
    "deepstem": (3, ("stem",), 1),
    "orepavgg": (3, _OREPA + ("vgg_identity", "vgg_1x1"), 8),
    "dbb": (ODD_K, ("kxk", "1x1", "1x1_kxk", "1x1_pool"), 1),
}

PRESETS = tuple(PRESET_TABLE)


def _gamma(name, out_ch):
    return np.full(out_ch, float(SCALING_INIT.get(name, 1.0)))


def build_preset(preset, in_ch, out_ch, k=3, dtype="f64", seed=0, stride=(1, 1),
                 expansion=None, internal_ch=None, frozen_scaling=False):
    """Construct a linearized preset block with materialized weights.

    All randomness comes from one generator seeded with `seed`, consumed
    in branch order then layer order.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}, expected one of {PRESETS}")
    k_rule, names, default_expansion = PRESET_TABLE[preset]
    rng = np.random.default_rng(seed)
    mid = out_ch if internal_ch is None else internal_ch
    geom = ConvGeometry(stride=tuple(stride))
    if not ((k >= 3 and k % 2 == 1) if k_rule == ODD_K else k == k_rule):
        raise ShapeError("k", k_rule, k)
    if expansion is not None and expansion < 1:
        raise ShapeError("expansion", ">= 1, or None for the preset default", expansion)
    e = default_expansion if expansion is None else expansion
    recipes = [(name, L.layer_specs(RECIPES[name](out_ch, mid, e, in_ch == out_ch), in_ch, k))
               for name in names]
    branches = [build_branch(specs, rng, dtype=dtype, name=name,
                             scaling=_gamma(name, out_ch),
                             scaling_trainable=not frozen_scaling)
                for name, specs in recipes if specs]
    return BlockGraph(branches=branches, output_geometry=geom)


def linearize(block):
    """Make a block squeezable: add per-branch scalings.

    Branches that already carry a scaling keep it, so the transform is
    idempotent. New scalings start at the preset default for recognized
    branch names and at 1.0 otherwise.
    """
    return replace(block, branches=[
        replace(b, layers=list(b.layers), weights=list(b.weights),
                scaling=_gamma(b.name, b.out_ch) if b.scaling is None else b.scaling)
        for b in block.branches])
