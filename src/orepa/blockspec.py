"""Load block-spec JSON files into BlockGraphs, and checkpoint round-trips.

Spec files validate against the published schema (schemas/blockspec-1.json,
also shipped inside the package); unknown keys are rejected. One seed in
the file drives all initialization through numpy's default PCG64 stream,
consumed branch by branch, layer by layer.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from importlib import resources

import jsonschema
import numpy as np

from . import layers as L
from .blocks import build_preset
from .squeeze import BlockGraph, MergeError, build_branch, check_center_alignable
from .tensor import ConvGeometry, KernelTensor


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


# The shape keys each layer kind reads; it ignores any other shape key.
# A kind that reads k defaults it to the block's k, every other kind is 1x1.
LAYER_KEYS = {"conv": ("out_ch", "k", "groups"), "identity1x1": ("out_ch", "groups"),
              "scaling": (), "avgpool": ("k",), "freqfilter": ("k",),
              "depthwise": ("k", "expansion"), "pointwise": ("out_ch",)}
# The InitRule field each init key sets; the others keep the kind's default rule.
_INIT_FIELDS = {"init": "kind", "theta": "theta", "value": "value", "symmetric": "symmetric"}


def _layer_from_obj(obj, in_ch, default_k):
    kind = obj["kind"]
    reads = LAYER_KEYS.get(kind, ())
    shape = {key: obj[key] for key in reads if key in obj}
    if "k" in reads:
        shape.setdefault("k", default_k)
    # a layer without out_ch keeps its width, times a depthwise expansion
    out_ch = shape.pop("out_ch", None) or in_ch * shape.get("expansion", 1)
    spec = L.LayerSpec(kind, in_ch, out_ch, trainable=obj.get("trainable"), **shape)
    rule = {field: obj[key] for key, field in _INIT_FIELDS.items() if key in obj}
    return replace(spec, init=replace(spec.init, **rule))


def block_from_spec(doc):
    """Validate a parsed spec document and build its BlockGraph.

    dtype defaults to f64; f32 is opt-in via the spec file.
    """
    validate_spec(doc)
    dtype = doc.get("dtype", "f64")
    seed = doc["seed"]
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
    branches = []
    for bi, layer_objs in enumerate(doc["branches"]):
        specs = []
        width = doc["in_ch"]
        for obj in layer_objs:
            spec = _layer_from_obj(obj, width, doc["k"])
            specs.append(spec)
            width = spec.out_ch
        if width != doc["out_ch"]:
            raise SpecError(f"branch {bi} ends at {width} channels, "
                            f"block out_ch is {doc['out_ch']}")
        scaling = None
        if scaling_init is not None:
            if len(scaling_init) != len(doc["branches"]):
                raise SpecError("scaling_init length must equal branch count")
            scaling = np.full(doc["out_ch"], float(scaling_init[bi]))
        branches.append(build_branch(specs, rng, dtype=dtype, scaling=scaling,
                                     name=f"branch{bi}"))
    # the schema's post-addition-norm key is accepted and ignored: nothing reads it
    block = BlockGraph(branches=branches,
                       output_geometry=ConvGeometry(stride=tuple(doc.get("stride", (1, 1)))))
    try:
        check_center_alignable(block)
    except MergeError as exc:
        raise SpecError(f"branches cannot be merged: {exc}") from exc
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
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed checkpoint {path}: {exc!r}") from exc
    return doc, block
