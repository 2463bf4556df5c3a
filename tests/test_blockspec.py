import inspect
import json
import runpy
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orepa.blocks import build_preset
from orepa.blockspec import (SpecError, block_from_spec, load_checkpoint, load_schema,
                             load_spec, save_checkpoint, validate_spec)

DATA = Path(__file__).parent / "data"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

PRESET = {"in_ch": 4, "out_ch": 4, "k": 3, "seed": 0, "preset": "orepa3x3"}
BRANCHES = {"in_ch": 4, "out_ch": 4, "k": 3, "seed": 0, "branches": [[{"kind": "conv"}]]}

INVALID_SPECS = {
    "unknown_key": {**PRESET, "surprise": 1},
    "both_forms": {**PRESET, "branches": BRANCHES["branches"]},
    "neither_form": {"in_ch": 4, "out_ch": 4, "k": 3, "seed": 0},
    "wrong_type": {**PRESET, "in_ch": "4"},
    "unknown_layer_kind": {**BRANCHES, "branches": [[{"kind": "deconv"}]]},
}

# specs of one form holding keys that only the other form reads, and what
# the error says about them
CROSS_FORM_SPECS = {
    "preset_with_stride": ({**PRESET, "stride": [2, 2]}, "a preset spec does not read 'stride'"),
    "preset_with_two_unread_keys": ({**PRESET, "scaling_init": [9.0], "stride": [2, 2]},
                                    "a preset spec does not read 'scaling_init', 'stride'"),
    "branches_with_options": ({**BRANCHES, "options": {"expansion": 2}},
                              "a branches spec does not read 'options'"),
}


@pytest.mark.parametrize("case", INVALID_SPECS)
def test_spec_error_says_what_jsonschema_validate_says(case):
    doc = INVALID_SPECS[case]
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, load_schema())
    with pytest.raises(SpecError) as got:
        validate_spec(doc)
    assert str(got.value) == f"spec validation failed: {want.value.message}"


@pytest.mark.parametrize("case", CROSS_FORM_SPECS)
def test_spec_error_names_the_key_its_form_does_not_read(case):
    doc, message = CROSS_FORM_SPECS[case]
    with pytest.raises(SpecError) as got:
        validate_spec(doc)
    assert str(got.value) == f"spec validation failed: {message}"


def test_spec_files_and_benchmark_cases_validate():
    docs = [json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))]
    docs += [case.spec_doc(0) for workload in runpy.run_path(WORKLOADS)["WORKLOADS"].values()
             for case in workload.cases]
    assert any("options" in doc for doc in docs)
    for doc in docs:
        validate_spec(doc)


def test_every_preset_option_is_a_build_preset_keyword():
    # a preset spec's options reach build_preset as they are, beside the
    # arguments the spec's own keys fill
    options = set(load_schema()["properties"]["options"]["properties"])
    assert options <= set(inspect.signature(build_preset).parameters)
    assert options.isdisjoint(["preset", "in_ch", "out_ch", "k", "dtype", "seed"])


def _saved(tmp_path, doc):
    path = tmp_path / "c.json"
    save_checkpoint(path, doc, block_from_spec(doc))
    return path, json.loads(path.read_text())


def _containers(node, path=()):
    """The path of every JSON object and array in node, node's own first."""
    if isinstance(node, (dict, list)):
        yield path
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _containers(child, (*path, key))


# small values only: an edited extent must not make the spec allocate much
JSON_VALUES = st.one_of(st.floats(-2, 2, width=32), st.floats(-2, 2), st.integers(-2, 9),
                        st.none(), st.booleans(), st.text(max_size=3),
                        st.lists(st.integers(0, 4), max_size=3),
                        st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2))


@settings(max_examples=150, deadline=None)
@given(dtype=st.sampled_from(["f64", "f32"]), data=st.data())
def test_mutated_checkpoint_loads_as_saved_or_raises_spec_error(tmp_path_factory, dtype, data):
    tmp_path = tmp_path_factory.mktemp("ckpt")
    path, payload = _saved(tmp_path, {**json.loads((DATA / "orepa3x3.json").read_text()),
                                      "dtype": dtype})
    containers = list(_containers(payload))
    # half the edits go to a list of weights or scalings, where a replaced number loads
    numbers = [p for p in containers if p[-1:] in (("data",), ("scaling",))]
    node = payload
    for key in data.draw(st.sampled_from(containers) | st.sampled_from(numbers)):
        node = node[key]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = data.draw(st.sampled_from(["drop", "replace", "add"] if keys else ["add"]))
    if op == "drop":
        del node[data.draw(st.sampled_from(keys))]
    elif op == "replace":
        node[data.draw(st.sampled_from(keys))] = data.draw(JSON_VALUES)
    elif isinstance(node, dict):
        node[data.draw(st.text(max_size=6))] = data.draw(JSON_VALUES)
    else:
        node.append(data.draw(JSON_VALUES))
    path.write_text(json.dumps(payload))
    try:
        doc, block = load_checkpoint(path)
    except SpecError:
        return
    save_checkpoint(tmp_path / "again.json", doc, block)
    assert json.loads((tmp_path / "again.json").read_text()) == payload
    # and what loads has the shapes the spec builds, not the ones the file names
    shapes = [[(w.shape, w.groups) for w in b.weights] + [np.shape(b.scaling)]
              for b in block.branches]
    assert shapes == [[(w.shape, w.groups) for w in b.weights] + [np.shape(b.scaling)]
                      for b in block_from_spec(doc).branches]


DROP = object()
FIRST_LAYER = ("branches", 0, "layers", 0)

# f32 checkpoints of orepa3x3.json that save_checkpoint never writes: one
# edit each, the path of a value and what replaces it
UNSAVED_CHECKPOINTS = {
    "extra_top_level_key": (("note",), "x"),
    "extra_branch_key": (("branches", 0, "note"), "x"),
    "extra_layer_key": ((*FIRST_LAYER, "note"), "x"),
    "branch_without_name": (("branches", 0, "name"), DROP),
    "branch_renamed": (("branches", 0, "name"), "other"),
    "kxk_layer_reshaped": (("branches", 1, "layers", 0, "shape"), [4, 4, 9, 1]),
    "nested_weights": ((*FIRST_LAYER, "data"), [[[[0.0]]] * 4] * 4),
    "weight_as_text": ((*FIRST_LAYER, "data", 0), "0.5"),
    "f32_weight_not_an_f32": ((*FIRST_LAYER, "data", 0), 0.1),
}


@pytest.mark.parametrize("case", UNSAVED_CHECKPOINTS)
def test_checkpoint_the_writer_never_writes_is_refused(tmp_path, case):
    doc = {**json.loads((DATA / "orepa3x3.json").read_text()), "dtype": "f32"}
    path, payload = _saved(tmp_path, doc)
    (*where, key), value = UNSAVED_CHECKPOINTS[case]
    node = payload
    for step in where:
        node = node[step]
    if value is DROP:
        del node[key]
    else:
        node[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(SpecError):
        load_checkpoint(path)


def test_checkpoint_with_integer_weights_loads(tmp_path):
    doc, block = load_spec(DATA / "orepa3x3.json")
    path, payload = _saved(tmp_path, doc)
    layer = payload["branches"][0]["layers"][0]
    layer["data"] = [0] * len(layer["data"])
    path.write_text(json.dumps(payload))
    _, back = load_checkpoint(path)
    assert back.branches[0].weights[0].dtype == "f64"
    assert not back.branches[0].weights[0].data.any()
    np.testing.assert_array_equal(back.branches[1].weights[0].data,
                                  block.branches[1].weights[0].data)
