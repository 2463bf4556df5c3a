"""Load block-spec JSON files into BlockGraphs, and checkpoint round-trips.

Spec files validate against the published schema (schemas/blockspec-1.json,
also shipped inside the package); unknown keys are rejected. One seed in
the file drives all initialization through numpy's default PCG64 stream,
consumed branch by branch, layer by layer.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import jsonschema
import numpy as np

from . import layers as L
from .blocks import build_preset
from .squeeze import BlockGraph, MergeError, build_branch, check_center_alignable
from .tensor import ConvGeometry, KernelTensor, ShapeError


class SpecError(ValueError):
    """The spec file is malformed or fails schema validation."""


def _finite(token):
    """json's parse_float and parse_constant hook: specs and checkpoints hold
    finite numbers only, so NaN, Infinity and a literal that overflows to an
    infinity (1e400) are all refused."""
    value = float(token)
    if not math.isfinite(value):
        raise SpecError(f"non-finite number {token}")
    return value


def load_schema():
    with resources.files("orepa.schemas").joinpath("blockspec-1.json").open("rb") as fh:
        return json.load(fh)


def validate_spec(doc):
    try:
        jsonschema.validate(doc, load_schema())
    except jsonschema.ValidationError as exc:
        raise SpecError(f"spec validation failed: {exc.message}") from exc


def block_from_spec(doc):
    """Validate a parsed spec document and build its BlockGraph.

    dtype defaults to f64; f32 is opt-in via the spec file. A block that
    cannot be built from a valid document is a SpecError too.
    """
    validate_spec(doc)
    try:
        return _build_block(doc)
    except (ShapeError, MergeError, OverflowError) as exc:
        raise SpecError(f"spec cannot be built: {exc}") from exc


def _build_block(doc):
    dtype, seed = doc.get("dtype", "f64"), doc["seed"]
    if "preset" in doc:
        opts = doc.get("options", {})
        return build_preset(doc["preset"], doc["in_ch"], doc["out_ch"], k=doc["k"],
                            dtype=dtype, seed=seed,
                            stride=tuple(opts.get("stride", (1, 1))),
                            expansion=opts.get("expansion"),
                            internal_ch=opts.get("internal_ch"),
                            frozen_scaling=opts.get("frozen_scaling", False))
    rng = np.random.default_rng(seed)
    scaling_init = doc.get("scaling_init")
    if scaling_init is not None and len(scaling_init) != len(doc["branches"]):
        raise SpecError("scaling_init length must equal branch count")
    branches = []
    for bi, layer_objs in enumerate(doc["branches"]):
        specs = L.layer_specs(layer_objs, doc["in_ch"], doc["k"])
        if specs[-1].out_ch != doc["out_ch"]:
            raise SpecError(f"branch {bi} ends at {specs[-1].out_ch} channels, "
                            f"block out_ch is {doc['out_ch']}")
        scaling = None if scaling_init is None else np.full(doc["out_ch"], float(scaling_init[bi]))
        branches.append(build_branch(specs, rng, dtype=dtype, scaling=scaling,
                                     name=f"branch{bi}"))
    # the schema's post-addition-norm key is accepted and ignored: nothing reads it
    block = BlockGraph(branches=branches,
                       output_geometry=ConvGeometry(stride=tuple(doc.get("stride", (1, 1)))))
    check_center_alignable(block)
    return block


def load_spec(path):
    """Read, validate and build; returns (document, BlockGraph)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    return doc, block_from_spec(doc)


CKPT_FORMAT = "orepa-ckpt-1"


def save_checkpoint(path, doc, block):
    """Persist a block's current weights next to the spec that built it."""
    payload = {
        "format": CKPT_FORMAT,
        "blockspec": doc,
        "branches": [
            {
                "name": b.name,
                "scaling": None if b.scaling is None else b.scaling.tolist(),
                "layers": [{"shape": list(w.shape), "groups": w.groups,
                            "data": w.data.ravel().tolist()}
                           for w in b.weights],
            }
            for b in block.branches
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, allow_nan=False)


def load_checkpoint(path):
    """Rebuild a block from a checkpoint; returns (document, BlockGraph)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CKPT_FORMAT:
        raise SpecError(f"not a checkpoint: {path}")
    if "blockspec" not in payload:
        raise SpecError(f"checkpoint {path} has no blockspec")
    doc = payload["blockspec"]
    block = block_from_spec(doc)
    dtype = doc.get("dtype", "f64")
    try:
        if len(payload["branches"]) != len(block.branches):
            raise SpecError(f"checkpoint {path} has {len(payload['branches'])} branches, "
                            f"spec builds {len(block.branches)}")
        for branch, saved in zip(block.branches, payload["branches"]):
            if len(saved["layers"]) != len(branch.weights):
                raise SpecError(f"branch {branch.name}: {len(saved['layers'])} saved layers, "
                                f"spec builds {len(branch.weights)}")
            for li, layer in enumerate(saved["layers"]):
                old = branch.weights[li]
                if (tuple(layer["shape"]), layer["groups"]) != (old.shape, old.groups):
                    raise SpecError(f"branch {branch.name} layer {li}: saved shape "
                                    f"{layer['shape']} groups {layer['groups']}, spec builds "
                                    f"{list(old.shape)} groups {old.groups}")
                arr = np.asarray(layer["data"]).reshape(old.shape)
                branch.weights[li] = KernelTensor(arr, groups=old.groups, dtype=dtype)
            got = None if saved["scaling"] is None else np.shape(saved["scaling"])
            want = None if branch.scaling is None else branch.scaling.shape
            if got != want:
                raise SpecError(f"branch {branch.name}: saved scaling shape {got}, "
                                f"spec builds {want}")
            if saved["scaling"] is not None:
                branch.scaling = np.asarray(saved["scaling"],
                                            dtype=branch.weights[-1].data.dtype)
    except SpecError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"malformed checkpoint {path}: {exc!r}") from exc
    return doc, block
