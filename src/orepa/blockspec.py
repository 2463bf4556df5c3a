"""Load block-spec JSON files into BlockGraphs, and checkpoint round-trips.

Spec files validate against the packaged schema, orepa/schemas/blockspec-1.json
(schemas/blockspec-1.json links to it); unknown keys are rejected. One seed
in the file drives all initialization through numpy's default PCG64 stream,
consumed branch by branch, layer by layer.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _validator():
    schema = load_schema()
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def validate_spec(doc):
    """Raise SpecError with jsonschema's best message, except for a spec
    that matches exactly one of the schema's forms by its required key but
    holds a key that form does not read: that error names the key."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is None:
        return
    if error.validator == "oneOf" and isinstance(error.instance, dict):
        forms = [f for f in error.validator_value if error.instance.keys() >= set(f["required"])]
        if len(forms) == 1:
            unread = [k for rule in forms[0]["not"]["anyOf"] for k in rule["required"]
                      if k in error.instance]
            raise SpecError(f"spec validation failed: a {forms[0]['required'][0]} spec does "
                            f"not read {', '.join(map(repr, unread))}")
    raise SpecError(f"spec validation failed: {error.message}")


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
    if "preset" in doc:  # the schema's option keys are build_preset's keywords
        return build_preset(doc["preset"], doc["in_ch"], doc["out_ch"], k=doc["k"],
                            dtype=dtype, seed=seed, **doc.get("options", {}))
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


def _read(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecError(f"cannot read {what} {path}: {exc}") from exc


def load_spec(path):
    """Read, validate and build; returns (document, BlockGraph)."""
    doc = _read(path, "spec")
    return doc, block_from_spec(doc)


CKPT_FORMAT = "orepa-ckpt-1"


def _payload(doc, block):
    """The checkpoint save_checkpoint writes for doc and block."""
    return {
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


def save_checkpoint(path, doc, block):
    """Persist a block's current weights next to the spec that built it."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_payload(doc, block), fh, sort_keys=True, allow_nan=False)


def load_checkpoint(path):
    """Rebuild a block from a checkpoint; returns (document, BlockGraph).
    The file is accepted only if save_checkpoint would write it back."""
    payload = _read(path, "checkpoint")
    try:
        doc = payload["blockspec"]
        block = block_from_spec(doc)
        # the strict zips and the built shapes make the comparison below check
        # the file against its spec, not only against itself
        for branch, saved in zip(block.branches, payload["branches"], strict=True):
            branch.weights = [KernelTensor(np.reshape(layer["data"], w.shape), w.groups, w.dtype)
                              for w, layer in zip(branch.weights, saved["layers"], strict=True)]
            if branch.scaling is not None:
                branch.scaling = np.reshape(np.asarray(saved["scaling"], branch.scaling.dtype),
                                            branch.scaling.shape)
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"malformed checkpoint {path}: {exc!r}") from exc
    if _payload(doc, block) != payload:
        raise SpecError(f"checkpoint {path} is not what save_checkpoint writes for its spec")
    return doc, block
