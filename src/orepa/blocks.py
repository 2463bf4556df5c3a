"""Preset training-time block topologies and the linearization transform.

Branch order inside each preset is fixed so scaling-init vectors and
similarity-matrix indices stay reproducible across runs.
"""

from __future__ import annotations

import numpy as np

from . import layers as L
from .squeeze import BlockGraph, Branch, build_branch
from .tensor import ConvGeometry, ShapeError

PRESETS = ("orepa3x3", "orepa1x1", "deepstem", "orepavgg", "dbb")

# Default per-branch scaling factors, keyed by branch name.
SCALING_INIT = {
    "1x1": 1.0,
    "kxk": 0.25,
    "1x1_kxk": 0.5,
    "1x1_pool": 0.5,
    "1x1_filter": 0.0,
    "dw_pw": 0.5,
}


def _gamma(name, out_ch, override=None):
    value = SCALING_INIT.get(name, 1.0) if override is None else override
    return np.full(out_ch, float(value))


def _orepa_branches(in_ch, out_ch, k, mid, expansion, rng, dtype, gamma_overrides,
                    scaling_trainable):
    """The six-branch family shared by orepa3x3 and orepavgg.

    The 1x1 convolutions feeding the pooling and filtering branches start
    as identity layers so those branches begin as a pure pool / filter;
    the one feeding the kxk branch starts random.
    """
    ov = gamma_overrides or {}
    defs = [
        ("1x1", [L.conv(in_ch, out_ch, 1)]),
        ("kxk", [L.conv(in_ch, out_ch, k)]),
        ("1x1_kxk", [L.conv(in_ch, mid, 1), L.conv(mid, out_ch, k)]),
        ("1x1_pool", [L.identity_1x1(in_ch, out_ch), L.avg_pool(out_ch, k)]),
        ("1x1_filter", [L.identity_1x1(in_ch, out_ch), L.freq_filter(out_ch, k)]),
        ("dw_pw", [L.depthwise(in_ch, k, expansion=expansion),
                   L.pointwise(in_ch * expansion, out_ch)]),
    ]
    return [build_branch(specs, rng, dtype=dtype, name=name,
                         scaling=_gamma(name, out_ch, ov.get(name)),
                         scaling_trainable=scaling_trainable)
            for name, specs in defs]


def build_preset(preset, in_ch, out_ch, k=3, dtype="f64", seed=0, stride=(1, 1),
                 expansion=None, internal_ch=None, frozen_scaling=False,
                 gamma_overrides=None):
    """Construct a linearized preset block with materialized weights.

    All randomness comes from one generator seeded with `seed`, consumed
    in branch order then layer order.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}, expected one of {PRESETS}")
    rng = np.random.default_rng(seed)
    mid = out_ch if internal_ch is None else internal_ch
    geom = ConvGeometry(stride=tuple(stride))
    trainable_gamma = not frozen_scaling

    if preset == "orepa3x3":
        if k < 3 or k % 2 == 0:
            raise ShapeError("k", "odd and >= 3", k)
        branches = _orepa_branches(in_ch, out_ch, k, mid, expansion or 1, rng,
                                   dtype, gamma_overrides, trainable_gamma)
    elif preset == "orepa1x1":
        if k != 1:
            raise ShapeError("k", 1, k)
        ov = gamma_overrides or {}
        branches = [
            build_branch([L.conv(in_ch, out_ch, 1)], rng, dtype=dtype, name="1x1",
                         scaling=_gamma("1x1", out_ch, ov.get("1x1")),
                         scaling_trainable=trainable_gamma),
            build_branch([L.conv(in_ch, mid, 1), L.conv(mid, out_ch, 1)], rng,
                         dtype=dtype, name="1x1_kxk",
                         scaling=_gamma("1x1_kxk", out_ch, ov.get("1x1_kxk")),
                         scaling_trainable=trainable_gamma),
        ]
    elif preset == "deepstem":
        if k != 3:
            raise ShapeError("k", 3, k)
        specs = [L.conv(in_ch, mid, 3), L.conv(mid, mid, 3), L.conv(mid, out_ch, 3)]
        branches = [build_branch(specs, rng, dtype=dtype, name="stem",
                                 scaling=np.ones(out_ch),
                                 scaling_trainable=trainable_gamma)]
    elif preset == "orepavgg":
        if k != 3:
            raise ShapeError("k", 3, k)
        branches = _orepa_branches(in_ch, out_ch, k, mid, expansion or 8, rng,
                                   dtype, gamma_overrides, trainable_gamma)
        if in_ch == out_ch:
            branches.append(build_branch([L.identity_1x1(in_ch, trainable=False)], rng,
                                         dtype=dtype, name="vgg_identity",
                                         scaling=np.ones(out_ch),
                                         scaling_trainable=trainable_gamma))
        branches.append(build_branch([L.conv(in_ch, out_ch, 1)], rng, dtype=dtype,
                                     name="vgg_1x1", scaling=np.ones(out_ch),
                                     scaling_trainable=trainable_gamma))
    else:  # dbb
        if k < 3 or k % 2 == 0:
            raise ShapeError("k", "odd and >= 3", k)
        ov = gamma_overrides or {}
        defs = [
            ("kxk", [L.conv(in_ch, out_ch, k)]),
            ("1x1", [L.conv(in_ch, out_ch, 1)]),
            ("1x1_kxk", [L.conv(in_ch, mid, 1), L.conv(mid, out_ch, k)]),
            ("1x1_pool", [L.identity_1x1(in_ch, out_ch), L.avg_pool(out_ch, k)]),
        ]
        branches = [build_branch(specs, rng, dtype=dtype, name=name,
                                 scaling=_gamma(name, out_ch, ov.get(name)),
                                 scaling_trainable=trainable_gamma)
                    for name, specs in defs]

    return BlockGraph(branches=branches, post_add_norm=True, output_geometry=geom)


def linearize(block):
    """Make a block squeezable: drop norm markers, add per-branch scalings,
    and mark a single post-addition norm.

    Branches that already carry a scaling keep it, so the transform is
    idempotent. New scalings start at the preset default for recognized
    branch names and at 1.0 otherwise.
    """
    branches = []
    for b in block.branches:
        scaling = b.scaling
        if scaling is None:
            scaling = _gamma(b.name, b.out_ch)
        branches.append(Branch(layers=list(b.layers), weights=list(b.weights),
                               scaling=scaling, scaling_trainable=b.scaling_trainable,
                               name=b.name))
    return BlockGraph(branches=branches, post_add_norm=True,
                      output_geometry=block.output_geometry)
