import contextlib
import hashlib
import io
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orepa import layers as L
from orepa.blockspec import SpecError, block_from_spec, load_spec, save_checkpoint
from orepa.cli import _finite_or_null, main
from orepa.okt import read_okt, write_okt
from orepa.tensor import KernelTensor, Tensor

from util import check_edge, okt_bytes

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SCHEMA = Path(__file__).resolve().parents[1] / "schemas" / "blockspec-1.json"


def run(args):
    return main([str(a) for a in args])


def _exit_and_stderr(args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        return run(args), err.getvalue()


def _train_toy_momentum(m):
    return lambda: _exit_and_stderr(["train-toy", DATA / "orepa3x3.json", "--momentum", m])


@pytest.mark.parametrize("call,want", [
    (_train_toy_momentum("1.5"), (2, "error: momentum must be in [0, 1)\n")),
    (_train_toy_momentum("nan"), (2, "error: momentum must be in [0, 1)\n")),
    (_train_toy_momentum("-0.1"), (2, "error: momentum must be in [0, 1)\n")),
    # flags are checked before the spec is read
    (lambda: _exit_and_stderr(["train-toy", DATA / "nope.json", "--momentum", "1.5"]),
     (2, "error: momentum must be in [0, 1)\n")),
    (lambda: _finite_or_null(np.float32(0.5)), 0.5),
    (lambda: _finite_or_null(np.int64(3)), 3),
    (lambda: _finite_or_null(np.bool_(True)), True),
    (lambda: _finite_or_null(np.float32("nan")), None),
], ids=["momentum_1.5", "momentum_nan", "momentum_negative", "momentum_before_missing_spec",
        "float32", "int64", "bool_", "float32_nan"])
def test_documented_edges(call, want):
    check_edge(call, want)


def test_squeeze_deepstem_prints_effective_kernel(tmp_path, capsys):
    out = tmp_path / "stem.okt"
    rc = run(["squeeze", DATA / "deepstem.json", "--out", out])
    assert rc == 0
    assert "effective kernel 7x7" in capsys.readouterr().out
    kernel = read_okt(out)
    assert kernel.shape == (8, 3, 7, 7)
    assert (tmp_path / "stem.okt.trace.jsonl").exists()


def test_squeeze_single_conv_kernel_byte_equal(tmp_path):
    out = tmp_path / "k.okt"
    rc = run(["squeeze", DATA / "single_conv.json", "--out", out])
    assert rc == 0
    _, block = load_spec(DATA / "single_conv.json")
    want = block.branches[0].weights[0]
    got = read_okt(out)
    assert got.data.tobytes() == want.data.tobytes()


def test_squeeze_orepa3x3_matches_golden_hash(tmp_path):
    out = tmp_path / "k.okt"
    rc = run(["squeeze", DATA / "orepa3x3.json", "--out", out])
    assert rc == 0
    digest = hashlib.sha256(read_okt(out).data.tobytes()).hexdigest()
    want = (GOLDEN / "orepa3x3_kernel.sha256").read_text().strip()
    assert digest == want


def test_verify_passes_on_preset(tmp_path):
    rc = run(["verify", DATA / "orepa3x3.json", "--trials", 5, "--tol", 1e-9])
    assert rc == 0


def test_verify_corrupted_kernel_fails(tmp_path, capsys):
    out = tmp_path / "k.okt"
    run(["squeeze", DATA / "orepa3x3.json", "--out", out])
    kernel = read_okt(out)
    data = kernel.data.copy()
    data[0, 0, 1, 1] += 0.1
    write_okt(out, KernelTensor(data))
    rc = run(["verify", DATA / "orepa3x3.json", "--kernel", out,
              "--trials", 5, "--tol", 1e-9])
    assert rc == 1
    line = capsys.readouterr().out
    residual = float(line.split("max residual")[1].split()[0])
    assert residual >= 0.01


def test_verify_nan_kernel_fails(tmp_path, capsys):
    out = tmp_path / "k.okt"
    run(["squeeze", DATA / "orepa3x3.json", "--out", out])
    write_okt(out, KernelTensor(np.full(read_okt(out).shape, np.nan)))
    rc = run(["verify", DATA / "orepa3x3.json", "--kernel", out, "--trials", 2])
    assert rc == 1
    assert "max residual nan" in capsys.readouterr().out


def test_verify_infinite_output_fails(tmp_path, capsys):
    # the center tap never reads padding, so one output channel is +-inf
    out = tmp_path / "k.okt"
    run(["squeeze", DATA / "orepa3x3.json", "--out", out])
    data = read_okt(out).data.copy()
    data[0, 0, 1, 1] = np.inf
    write_okt(out, KernelTensor(data))
    assert run(["verify", DATA / "orepa3x3.json", "--kernel", out, "--trials", 2]) == 1
    assert "max residual inf" in capsys.readouterr().out


def test_verify_nan_kernel_json_report_is_strict_json(tmp_path):
    out = tmp_path / "k.okt"
    run(["squeeze", DATA / "orepa3x3.json", "--out", out])
    write_okt(out, KernelTensor(np.full(read_okt(out).shape, np.nan)))
    rep = tmp_path / "r.json"
    rc = run(["verify", DATA / "orepa3x3.json", "--kernel", out, "--trials", 2, "--json", rep])
    assert rc == 1

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(rep.read_text(), parse_constant=refuse)
    assert report["max_residual"] is None
    assert report["pass"] is False


# JSON nested deeper than the decoder's recursion limit
TOO_DEEP = "[" * 100000 + "]" * 100000

MALFORMED_OKT = {
    "garbage": b"garbage",
    "truncated": b"OREPAKT1\x01",
    "unknown_dtype": okt_bytes({"dtype": "f16", "shape": [1, 1, 1, 1], "layout": "OIHW",
                                "groups": 1}, b"\x00\x00"),
    "header_not_object": okt_bytes([1, 2]),
    "zero_extent": okt_bytes({"dtype": "f64", "shape": [0, 1, 1, 1], "layout": "OIHW",
                              "groups": 1}),
    "unknown_layout": okt_bytes({"dtype": "f64", "shape": [1, 1, 1, 1], "layout": "HWIO",
                                 "groups": 1}),
    "groups_not_dividing": okt_bytes({"dtype": "f64", "shape": [4, 1, 3, 3], "layout": "OIHW",
                                      "groups": 3}),
    "dtype_list": okt_bytes({"dtype": ["f64"], "shape": [1, 1, 1, 1], "layout": "OIHW",
                             "groups": 1}, b"\x00" * 8),
    "layout_list": okt_bytes({"dtype": "f64", "shape": [1, 1, 1, 1], "layout": ["OIHW"],
                              "groups": 1}, b"\x00" * 8),
    "header_too_deep": b"OREPAKT1" + struct.pack("<I", len(TOO_DEEP)) + TOO_DEEP.encode(),
}

# checkpoint files that are not JSON the reader can decode
GARBAGE_CHECKPOINT = {"garbage_checkpoint": "{not json", "checkpoint_too_deep": TOO_DEEP}


def _malformed_argv(tmp_path, case):
    spec = DATA / "orepa3x3.json"
    csvs = ["--similarity-csv", tmp_path / "s.csv", "--norms-csv", tmp_path / "n.csv"]
    if case in MALFORMED_OKT:
        (tmp_path / "k.okt").write_bytes(MALFORMED_OKT[case])
        return ["verify", spec, "--kernel", tmp_path / "k.okt", "--trials", 1]
    if case == "spec_too_deep":
        (tmp_path / "deep.json").write_text(TOO_DEEP)
        return ["squeeze", tmp_path / "deep.json", "--out", tmp_path / "k.okt"]
    if case == "missing_checkpoint":
        return ["analyze", tmp_path / "nope.ckpt", *csvs]
    if case in GARBAGE_CHECKPOINT:
        (tmp_path / "bad.ckpt").write_text(GARBAGE_CHECKPOINT[case])
        return ["analyze", tmp_path / "bad.ckpt", *csvs]
    if case in PARTIAL_CHECKPOINT:
        payload = {"format": "orepa-ckpt-1", "blockspec": json.loads(spec.read_text()),
                   "branches": []}
        del payload[PARTIAL_CHECKPOINT[case]]
        (tmp_path / "bad.ckpt").write_text(json.dumps(payload))
        return ["analyze", tmp_path / "bad.ckpt", *csvs]
    if case == "checkpoint_wrong_shape":
        doc, block = load_spec(spec)
        save_checkpoint(tmp_path / "bad.ckpt", doc, block)
        payload = json.loads((tmp_path / "bad.ckpt").read_text())
        payload["branches"][0]["layers"][0]["shape"][0] += 1
        (tmp_path / "bad.ckpt").write_text(json.dumps(payload))
        return ["analyze", tmp_path / "bad.ckpt", *csvs]
    if case in TRUNCATED_CHECKPOINT:
        doc, block = load_spec(spec)
        save_checkpoint(tmp_path / "bad.ckpt", doc, block)
        payload = json.loads((tmp_path / "bad.ckpt").read_text())
        TRUNCATED_CHECKPOINT[case](payload["branches"])
        (tmp_path / "bad.ckpt").write_text(json.dumps(payload))
        return ["analyze", tmp_path / "bad.ckpt", *csvs]
    if case in UNFIT_KERNEL:
        write_okt(tmp_path / "k.okt", UNFIT_KERNEL[case])
        return ["verify", spec, "--kernel", tmp_path / "k.okt", "--trials", 1]
    if case in BAD_FLAGS:
        command, *flags = BAD_FLAGS[case]
        return [command, spec, *flags]
    if case in UNALIGNABLE_SPEC:
        (tmp_path / "even.json").write_text(json.dumps(EVEN_BRANCH_SPEC))
        return UNALIGNABLE_SPEC[case](tmp_path / "even.json", tmp_path)
    if case in REFUSED_SPEC:
        (tmp_path / "refused.json").write_text(json.dumps(REFUSED_SPEC[case]))
        return ["verify", tmp_path / "refused.json", "--trials", 1]
    if case in NON_FINITE_SPEC:
        (tmp_path / "nonfinite.json").write_text(_json_text(NON_FINITE_SPEC[case]))
        return ["squeeze", tmp_path / "nonfinite.json", "--out", tmp_path / "k.okt"]
    if case in NON_FINITE_WEIGHT:
        doc = json.loads(spec.read_text())
        if case == "checkpoint_f32_overflowing_weight":
            doc["dtype"] = "f32"
        save_checkpoint(tmp_path / "bad.ckpt", doc, block_from_spec(doc))
        payload = json.loads((tmp_path / "bad.ckpt").read_text())
        payload["branches"][0]["layers"][0]["data"][0] = NON_FINITE_WEIGHT[case]
        (tmp_path / "bad.ckpt").write_text(_json_text(payload))
        return ["analyze", tmp_path / "bad.ckpt", *csvs]
    if case == "unallocatable_weights":
        (tmp_path / "huge.json").write_text(json.dumps(HUGE_SPEC))
        return ["verify", tmp_path / "huge.json", "--trials", 1]
    if case == "unallocatable_input":
        return ["verify", DATA / "single_conv.json", "--trials", 1, "--hw", 4000000, 4000000]
    if case == "unindexable_weights":
        (tmp_path / "wide.json").write_text(json.dumps(UNINDEXABLE_SPEC))
        return ["verify", tmp_path / "wide.json", "--trials", 1]
    if case in UNINDEXABLE_INPUT:
        command, *flags = UNINDEXABLE_INPUT[case]
        return [command, spec, *flags, "--hw", 10 ** 20, 2]
    assert case == "unwritable_report"
    return ["squeeze", spec, "--out", tmp_path / "k.okt", "--json", tmp_path / "no" / "r.json"]


# checkpoints of orepa3x3.json without one top-level key
PARTIAL_CHECKPOINT = {"checkpoint_without_weights": "branches",
                      "checkpoint_without_format": "format",
                      "checkpoint_without_blockspec": "blockspec"}

# checkpoints of orepa3x3.json that lost part of what the spec builds
TRUNCATED_CHECKPOINT = {
    "checkpoint_without_branches": lambda branches: branches.clear(),
    "checkpoint_missing_layer": lambda branches: branches[2]["layers"].pop(),
    "checkpoint_wrong_scaling": lambda branches: branches[0]["scaling"].append(1.0),
}

# well-formed OKT kernels that do not fit orepa3x3.json (f64, 4 -> 4, 3x3)
UNFIT_KERNEL = {
    "kernel_wrong_extent": KernelTensor(np.zeros((4, 4, 5, 5))),
    "kernel_wrong_in_ch": KernelTensor(np.zeros((4, 3, 3, 3))),
    "kernel_f32": KernelTensor(np.zeros((4, 4, 3, 3)), dtype="f32"),
    "kernel_is_feature_map": Tensor(np.zeros((4, 4, 3, 3))),
}

# out-of-range numeric flags: exit 2 before any work, never a traceback,
# a false exit 1 or a report of ratios over nothing
BAD_FLAGS = {
    "zero_steps": ["train-toy", "--steps", 0],
    "zero_eta": ["train-toy", "--steps", 1, "--eta", 0],
    "nan_weight_decay": ["train-toy", "--steps", 1, "--weight-decay", "nan"],
    "inf_weight_decay": ["train-toy", "--steps", 1, "--weight-decay", "inf"],
    "lemma_zero_layers": ["dynamics", "--probe", "lemma", "--layers", 0],
    "lemma_negative_layers": ["dynamics", "--probe", "lemma", "--layers", -1],
    "dynamics_nan_eta": ["dynamics", "--probe", "convscale", "--eta", "nan"],
    "dynamics_negative_eta": ["dynamics", "--probe", "shared", "--eta", -0.1],
    "verify_nan_tol": ["verify", "--tol", "nan"],
    "verify_negative_tol": ["verify", "--tol", -1],
    "bench_zero_batch": ["bench", "--batch", 0],
    "bench_zero_hw": ["bench", "--hw", 0, 0],
    "gradcheck_zero_hw": ["gradcheck", "--hw", 4, 0],
}

# a schema-valid spec whose two branches cannot be center-aligned (extents 2 and 3)
EVEN_BRANCH_SPEC = {"in_ch": 2, "out_ch": 2, "k": 3, "seed": 0,
                    "branches": [[{"kind": "conv", "k": 2}], [{"kind": "conv", "k": 3}]]}
UNALIGNABLE_SPEC = {
    "even_branch_squeeze": lambda spec, tmp: ["squeeze", spec, "--out", tmp / "k.okt"],
    "even_branch_verify": lambda spec, tmp: ["verify", spec, "--trials", 1],
}


# schema-valid specs that no block can be built from
UNBUILDABLE_SPEC = {
    "spec_groups_not_dividing": {"in_ch": 4, "out_ch": 4, "k": 3, "seed": 0,
                                 "branches": [[{"kind": "conv", "groups": 3}]]},
    "preset_even_k": {"in_ch": 4, "out_ch": 4, "k": 4, "seed": 0, "preset": "orepa3x3"},
    "preset_1x1_with_k3": {"in_ch": 4, "out_ch": 4, "k": 3, "seed": 0, "preset": "orepa1x1"},
    "spec_scaling_init_too_short": {**EVEN_BRANCH_SPEC, "scaling_init": [1.0]},
}

# specs holding a key that their form does not read
CROSS_FORM_SPEC = {
    "preset_with_stride": {"in_ch": 4, "out_ch": 4, "k": 3, "seed": 0, "preset": "orepa3x3",
                           "stride": [2, 2]},
    "preset_with_scaling_init": {"in_ch": 4, "out_ch": 4, "k": 3, "seed": 0,
                                 "preset": "orepa3x3", "scaling_init": [9.0]},
    "branches_with_options": {"in_ch": 4, "out_ch": 4, "k": 3, "seed": 0,
                              "branches": [[{"kind": "conv"}]], "options": {"stride": [2, 2]}},
}
REFUSED_SPEC = {**UNBUILDABLE_SPEC, **CROSS_FORM_SPEC}


# f32 specs holding a number too large for an f32: building the block overflows its cast
F32_OVERFLOWING_SPEC = {
    "spec_f32_overflowing_value": {**EVEN_BRANCH_SPEC, "dtype": "f32", "branches": [
        [{"kind": "conv", "init": "constant", "value": 1e300}]]},
    "spec_f32_overflowing_scaling": {**EVEN_BRANCH_SPEC, "dtype": "f32", "scaling_init": [1e300],
                                     "branches": [[{"kind": "conv"}]]},
}

# specs holding one of the non-standard constants json.load accepts, or a
# number literal that overflows to an infinity or is an integer too large
# for a float
NON_FINITE_SPEC = {
    "spec_nan_theta": {**EVEN_BRANCH_SPEC,
                       "branches": [[{"kind": "conv", "k": 3, "theta": float("nan")}]]},
    "spec_infinite_scaling": {**EVEN_BRANCH_SPEC, "scaling_init": [float("inf")],
                              "branches": [[{"kind": "conv", "k": 3}]]},
    "spec_overflowing_theta": {**EVEN_BRANCH_SPEC,
                               "branches": [[{"kind": "conv", "k": 3, "theta": "1e400"}]]},
    "spec_overflowing_scaling": {**EVEN_BRANCH_SPEC, "scaling_init": ["1e400"],
                                 "branches": [[{"kind": "conv", "k": 3}]]},
    "spec_huge_integer_theta": {**EVEN_BRANCH_SPEC,
                                "branches": [[{"kind": "conv", "k": 3, "theta": 10 ** 400}]]},
    "spec_huge_integer_scaling": {**EVEN_BRANCH_SPEC, "scaling_init": [10 ** 400],
                                  "branches": [[{"kind": "conv", "k": 3}]]},
    **F32_OVERFLOWING_SPEC,
}


@pytest.mark.parametrize("case", F32_OVERFLOWING_SPEC)
def test_f32_spec_overflowing_f32_is_a_spec_error(case):
    with pytest.raises(SpecError, match="^spec cannot be built: overflow encountered in cast$"):
        block_from_spec(F32_OVERFLOWING_SPEC[case])


def _json_text(doc):
    """doc as JSON text, each string "1e400" written as that bare literal,
    which json.dumps cannot write: it would write the float as Infinity."""
    return json.dumps(doc).replace('"1e400"', "1e400")


# inputs whose first large array needs far more than 2^47 bytes (728 and 466 TiB),
# so that allocating it fails at once whatever the overcommit policy
HUGE_SPEC = {"in_ch": 10000000, "out_ch": 10000000, "k": 1, "seed": 0, "preset": "orepa1x1"}

# extents whose arrays have more bytes than numpy can index: it raises a
# ValueError for them, not a MemoryError
UNINDEXABLE_SPEC = {"in_ch": 2, "out_ch": 2, "k": 10000000000, "seed": 1,
                    "branches": [[{"kind": "conv"}]]}
UNINDEXABLE_INPUT = {"unindexable_input": ["verify", "--trials", 1],
                     "unindexable_gradcheck_input": ["gradcheck"],
                     "unindexable_train_input": ["train-toy", "--steps", 1]}

# checkpoint weights that are not finite numbers (numpy would read null as NaN),
# or that overflow the f32 of an f32 spec's checkpoint
NON_FINITE_WEIGHT = {"checkpoint_nan_weight": float("nan"),
                     "checkpoint_overflowing_weight": "1e400",
                     "checkpoint_huge_integer_weight": 10 ** 400,
                     "checkpoint_null_weight": None,
                     "checkpoint_f32_overflowing_weight": 1e300}


@pytest.mark.parametrize("case", [*MALFORMED_OKT, "spec_too_deep", "missing_checkpoint",
                                  *GARBAGE_CHECKPOINT,
                                  *PARTIAL_CHECKPOINT, "checkpoint_wrong_shape",
                                  *TRUNCATED_CHECKPOINT, *UNFIT_KERNEL, *BAD_FLAGS,
                                  *UNALIGNABLE_SPEC, *REFUSED_SPEC, *NON_FINITE_SPEC,
                                  *NON_FINITE_WEIGHT,
                                  "unwritable_report",
                                  "unallocatable_weights", "unallocatable_input",
                                  "unindexable_weights", *UNINDEXABLE_INPUT])
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, case):
    rc = run(_malformed_argv(tmp_path, case))
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_unexpected_exception_exits_3_with_traceback(tmp_path, capsys, monkeypatch):
    def broken(block):
        raise RuntimeError("broken squeeze")

    monkeypatch.setattr("orepa.cli.squeeze_block", broken)
    rc = run(["squeeze", DATA / "deepstem.json", "--out", tmp_path / "k.okt"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" in err
    assert "RuntimeError: broken squeeze" in err


def test_verify_composed_after_squeeze_always_passes(tmp_path):
    for spec in ("deepstem.json", "orepa3x3.json", "single_conv.json"):
        out = tmp_path / (spec + ".okt")
        assert run(["squeeze", DATA / spec, "--out", out]) == 0
        assert run(["verify", DATA / spec, "--kernel", out,
                    "--trials", 5, "--tol", 1e-9]) == 0


def test_verify_zero_trials_usage_error():
    rc = run(["verify", DATA / "orepa3x3.json", "--trials", 0])
    assert rc == 2


def test_unknown_keys_rejected(tmp_path):
    doc = json.loads((DATA / "deepstem.json").read_text())
    doc["surprise"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = run(["squeeze", bad, "--out", tmp_path / "k.okt"])
    assert rc == 2


def test_preset_and_branches_both_given_rejected(tmp_path):
    doc = json.loads((DATA / "deepstem.json").read_text())
    doc["branches"] = [[{"kind": "conv", "out_ch": 8}]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = run(["squeeze", bad, "--out", tmp_path / "k.okt"])
    assert rc == 2


def test_missing_spec_file_is_spec_error(tmp_path):
    rc = run(["verify", tmp_path / "nope.json"])
    assert rc == 2


def test_dtype_defaults_to_f64(tmp_path):
    doc = json.loads((DATA / "deepstem.json").read_text())
    del doc["dtype"]
    spec = tmp_path / "nodtype.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "rep.json"
    rc = run(["verify", spec, "--trials", 2, "--json", out])
    assert rc == 0
    assert json.loads(out.read_text())["dtype"] == "f64"


def test_gradcheck_exits_zero():
    rc = run(["gradcheck", DATA / "orepa3x3.json", "--hw", 5, 5])
    assert rc == 0


def test_verify_default_tol_is_1e9_for_f64(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["verify", DATA / "orepa3x3.json", "--trials", 2, "--json", out]) == 0
    assert json.loads(out.read_text())["tol"] == 1e-9


F32_PRESETS = [("orepa3x3", 3), ("orepa1x1", 1), ("deepstem", 3), ("orepavgg", 3), ("dbb", 3)]


def _f32_spec(tmp_path, preset, k):
    spec = tmp_path / f"{preset}_f32.json"
    spec.write_text(json.dumps({"in_ch": 4, "out_ch": 4, "k": k, "dtype": "f32",
                                "seed": 7, "preset": preset}))
    return spec


@pytest.mark.parametrize("preset,k", F32_PRESETS)
def test_f32_presets_pass_verify_and_gradcheck_at_default_flags(tmp_path, preset, k):
    spec = _f32_spec(tmp_path, preset, k)
    assert run(["verify", spec]) == 0
    assert run(["gradcheck", spec]) == 0


def test_verify_tolerance_is_relative_to_a_wide_f32_output(tmp_path):
    # the two routes round apart by 1.465e-3, above the absolute 1e-3, at a
    # max |output| near 3e3
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"in_ch": 3, "out_ch": 512, "k": 3, "dtype": "f32",
                                "seed": 42, "preset": "deepstem"}))
    out = tmp_path / "rep.json"
    assert run(["verify", spec, "--trials", 3, "--json", out]) == 0
    report = json.loads(out.read_text())
    assert report["tol"] < report["max_residual"] < 1e3 * report["tol"]


def test_f32_kernel_with_one_tap_off_by_1e2_fails_verify(tmp_path):
    spec = _f32_spec(tmp_path, "orepa3x3", 3)
    out = tmp_path / "k.okt"
    assert run(["squeeze", spec, "--out", out]) == 0
    data = read_okt(out).data.copy()
    data[0, 0, 1, 1] += 1e-2
    write_okt(out, KernelTensor(data))
    assert run(["verify", spec, "--kernel", out]) == 1


@pytest.mark.parametrize("probe,field,check", [
    # canonical scalar instance at the default eta = 0.01: residual is 1e-4
    ("convscale", "residual_norm", lambda v: abs(v - 1e-4) <= 1e-12),
    ("shared", "first_order_diff", lambda v: v <= 1e-9),
    ("branchwise", "first_order_diff", lambda v: v > 1e-6),
    ("lemma", "residual_norm", lambda v: v >= 0),
])
def test_dynamics_probes(tmp_path, probe, field, check):
    out = tmp_path / "rep.json"
    rc = run(["dynamics", DATA / "deepstem.json", "--probe", probe, "--json", out])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert check(rep[field])


@pytest.mark.parametrize("probe", ["convscale", "shared", "branchwise", "lemma"])
def test_dynamics_probe_past_the_float_range_fails_without_a_traceback(tmp_path, capsys, probe):
    # at eta = 1e200 eta^2 and the stepped weights overflow: each probe
    # reports its residual (and first-order gap, where it has one) as null
    # and fails, also under pytest's warnings-as-errors
    out = tmp_path / "rep.json"
    rc = run(["dynamics", DATA / "orepa3x3.json", "--probe", probe, "--eta", 1e200,
              "--json", out])
    assert rc == 1
    assert "Traceback" not in capsys.readouterr().err
    rep = json.loads(out.read_text())
    assert rep["pass"] is False
    assert rep["residual_norm"] is None and rep["first_order_diff"] is None


def test_bench_matches_golden(tmp_path):
    out = tmp_path / "rep.json"
    rc = run(["bench", DATA / "orepa3x3.json", "--hw", 56, 56, "--batch", 32,
              "--json", out])
    assert rc == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / "bench_orepa3x3.json").read_text())
    assert got == want
    assert got["buffer_ratio"] <= 0.10


def test_verify_report_matches_golden(tmp_path):
    out = tmp_path / "rep.json"
    rc = run(["verify", DATA / "orepa3x3.json", "--trials", 5, "--tol", 1e-9,
              "--json", out])
    assert rc == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / "verify_orepa3x3.json").read_text())
    assert got == want


def test_squeeze_report_matches_golden(tmp_path):
    out = tmp_path / "rep.json"
    rc = run(["squeeze", DATA / "deepstem.json", "--out", tmp_path / "k.okt",
              "--json", out])
    assert rc == 0
    got = json.loads(out.read_text())
    got["out"] = "OUT.okt"
    want = json.loads((GOLDEN / "squeeze_deepstem.json").read_text())
    assert got == want


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", DATA / "orepa3x3.json", "--trials", 3, "--json", a])
    run(["verify", DATA / "orepa3x3.json", "--trials", 3, "--json", b])
    assert a.read_bytes() == b.read_bytes()


def test_train_toy_online_offline_same_loss(tmp_path):
    reports = {}
    for mode in ("online", "offline"):
        out = tmp_path / f"{mode}.json"
        rc = run(["train-toy", DATA / "orepa3x3.json", "--steps", 60,
                  "--eta", 0.05, "--mode", mode, "--json", out])
        assert rc == 0
        reports[mode] = json.loads(out.read_text())
    assert reports["online"]["final_loss"] == pytest.approx(
        reports["offline"]["final_loss"], abs=1e-8)
    assert reports["online"]["final_loss"] < reports["online"]["first_loss"]


def test_train_toy_diverging_in_its_last_update_exits_1(tmp_path, capsys):
    # one step at eta 1e300 leaves a finite first loss and a NaN final one
    out = tmp_path / "r.json"
    rc = run(["train-toy", DATA / "orepa3x3.json", "--steps", 1, "--eta", 1e300, "--json", out])
    assert rc == 1
    assert "diverged at step 1" in capsys.readouterr().out
    assert json.loads(out.read_text())["diverged_at"] == 1


# a finite spec whose stacked merge overflows f64: each 3x3 tap of the first
# branch's squeezed kernel sums products of 1e200 by 1e200
OVERFLOW = {"in_ch": 2, "out_ch": 2, "k": 3, "seed": 0,
            "branches": [[{"kind": "conv", "init": "constant", "value": 1e200},
                          {"kind": "conv", "init": "constant", "value": 1e200}],
                         [{"kind": "conv", "k": 5}]]}


def _overflow_files(tmp_path, doc):
    spec, ckpt = tmp_path / "overflow.json", tmp_path / "overflow.ckpt"
    spec.write_text(json.dumps(doc))
    save_checkpoint(ckpt, doc, block_from_spec(doc))
    return spec, ckpt


def test_overflowing_block_is_reported_and_fails_without_a_warning(tmp_path, capsys):
    spec, ckpt = _overflow_files(tmp_path, OVERFLOW)
    kernel, report = tmp_path / "k.okt", tmp_path / "r.json"
    csvs = ["--similarity-csv", tmp_path / "s.csv", "--norms-csv", tmp_path / "n.csv"]
    rcs = [run(["squeeze", spec, "--out", kernel]),
           run(["verify", spec, "--kernel", kernel, "--trials", 1]),
           run(["gradcheck", spec]),
           run(["analyze", ckpt, *csvs, "--json", report])]
    assert rcs == [0, 1, 1, 1]
    assert capsys.readouterr().err == ""
    assert json.loads(report.read_text())["mean_offdiag_abs_cos"] is None


# checkpoints whose analysis leaves one table finite, and the CSV that holds it:
# a lone overflowing branch (cosines [[1]], norm share inf / inf), and two equal
# constant branches whose channel's 18 squares sum below the f64 maximum and whose
# kernel's 36 sum above it (cosine inf / inf, norm shares 0.5)
ONE_NON_FINITE_TABLE = {
    "nan_norm_share": ({**OVERFLOW, "branches": OVERFLOW["branches"][:1]}, "s.csv"),
    "nan_cosine": ({**OVERFLOW, "branches": [[{"kind": "conv", "init": "constant",
                                               "value": 2.65e153}]] * 2}, "n.csv"),
}


@pytest.mark.parametrize("case", ONE_NON_FINITE_TABLE)
def test_analyze_fails_on_either_non_finite_table(tmp_path, case):
    doc, finite_csv = ONE_NON_FINITE_TABLE[case]
    _, ckpt = _overflow_files(tmp_path, doc)
    csvs = ["--similarity-csv", tmp_path / "s.csv", "--norms-csv", tmp_path / "n.csv"]
    assert run(["analyze", ckpt, *csvs]) == 1
    assert "nan" not in (tmp_path / finite_csv).read_text()


def test_analyze_two_identical_branches(tmp_path):
    doc, block = load_spec(DATA / "two_identical.json")
    # force branch 1 to mirror branch 0 exactly
    block.branches[1].weights[0] = block.branches[0].weights[0]
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, doc, block)
    sim_csv = tmp_path / "sim.csv"
    norm_csv = tmp_path / "norm.csv"
    rc = run(["analyze", ckpt, "--similarity-csv", sim_csv, "--norms-csv", norm_csv])
    assert rc == 0
    rows = sim_csv.read_text().strip().splitlines()
    assert rows[0].startswith("branch,")
    cells = rows[1].split(",")
    assert float(cells[2]) == pytest.approx(1.0, abs=1e-12)
    norms = norm_csv.read_text().strip().splitlines()
    vals = [float(v) for v in norms[1].split(",")[1:]]
    assert vals == pytest.approx([0.5, 0.5], abs=1e-12)


def test_checkpoint_round_trip(tmp_path):
    doc, block = load_spec(DATA / "orepa3x3.json")
    ckpt = tmp_path / "c.json"
    save_checkpoint(ckpt, doc, block)
    from orepa.blockspec import load_checkpoint
    _, back = load_checkpoint(ckpt)
    for a, b in zip(block.branches, back.branches):
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa.data, wb.data)
        np.testing.assert_array_equal(a.scaling, b.scaling)


# a spec layer reads only its kind's shape keys; (kind, in, out, k, groups, expansion)
# of a 4-channel layer in a k = 3 spec
IGNORED_KEYS = [
    ({"kind": "scaling", "k": 3}, ("scaling", 4, 4, 1, 4, 1)),
    ({"kind": "scaling", "out_ch": 8, "groups": 2, "expansion": 2}, ("scaling", 4, 4, 1, 4, 1)),
    ({"kind": "avgpool", "out_ch": 8, "groups": 2, "expansion": 2}, ("avgpool", 4, 4, 3, 4, 1)),
    ({"kind": "freqfilter", "k": 5, "out_ch": 8}, ("freqfilter", 4, 4, 5, 4, 1)),
    ({"kind": "identity1x1", "k": 3, "expansion": 2}, ("identity1x1", 4, 4, 1, 1, 1)),
    ({"kind": "depthwise", "out_ch": 5, "groups": 2, "expansion": 2},
     ("depthwise", 4, 8, 3, 4, 2)),
    ({"kind": "pointwise", "k": 3, "groups": 2, "expansion": 2}, ("pointwise", 4, 4, 1, 1, 1)),
    ({"kind": "conv", "expansion": 2}, ("conv", 4, 4, 3, 1, 1)),
]


@pytest.mark.parametrize("obj,want", IGNORED_KEYS, ids=[o["kind"] for o, _ in IGNORED_KEYS])
def test_spec_layer_ignores_keys_its_kind_does_not_read(obj, want):
    doc = {"in_ch": 4, "out_ch": want[2], "k": 3, "seed": 0, "branches": [[obj]]}
    spec = block_from_spec(doc).branches[0].layers[0]
    assert (spec.kind, spec.in_ch, spec.out_ch, spec.k, spec.effective_groups,
            spec.expansion) == want


# spec layers with init keys: each sets its own field of the kind's default rule
# only, and init chooses the rule kind (the spec's seed 0 draws the random kernel)
INIT_KEY_LAYERS = {
    "scaling_value": ({"kind": "scaling", "value": 0.5}, np.full((4, 1, 1, 1), 0.5)),
    "avgpool_symmetric": ({"kind": "avgpool", "k": 3, "symmetric": True},
                          np.full((4, 1, 3, 3), 1 / 9)),
    "identity_theta": ({"kind": "identity1x1", "theta": 1.0},
                       np.eye(4).reshape(4, 4, 1, 1)),
    "scaling_init_theta": ({"kind": "scaling", "init": "kaiming_uniform", "theta": 0.5},
                           L.materialize(L.LayerSpec("scaling", 4, 4, init=L.InitRule(theta=0.5)),
                                         0).data),
}


@pytest.mark.parametrize("case", INIT_KEY_LAYERS)
def test_spec_init_keys_override_only_their_fields(case):
    obj, want = INIT_KEY_LAYERS[case]
    doc = {"in_ch": 4, "out_ch": 4, "k": 3, "seed": 0, "branches": [[obj]]}
    assert np.array_equal(block_from_spec(doc).branches[0].weights[0].data, want)


def test_spec_branch_width_mismatch_rejected():
    doc = {"in_ch": 2, "out_ch": 3, "k": 3, "dtype": "f64", "seed": 0,
           "branches": [[{"kind": "conv", "out_ch": 2, "k": 3}]]}
    from orepa.blockspec import SpecError
    with pytest.raises(SpecError):
        block_from_spec(doc)


def test_cli_entry_point_subprocess(tmp_path):
    out = tmp_path / "k.okt"
    proc = subprocess.run(
        [sys.executable, "-m", "orepa.cli", "squeeze", str(DATA / "deepstem.json"),
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "effective kernel 7x7" in proc.stdout
    assert out.exists()


def test_cli_overflow_subprocess_exits_1_without_a_warning(tmp_path):
    spec, _ = _overflow_files(tmp_path, OVERFLOW)
    proc = subprocess.run([sys.executable, "-m", "orepa.cli", "gradcheck", str(spec)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_repo_schema_matches_package_schema():
    from orepa.blockspec import load_schema
    assert json.loads(SCHEMA.read_text()) == load_schema()


def test_layer_keys_match_the_schema_layer_object():
    layer = json.loads(SCHEMA.read_text())["properties"]["branches"]["items"]["items"]
    assert L.KINDS == tuple(layer["properties"]["kind"]["enum"])
    read = {"kind", "trainable", *L._INIT_FIELDS,
            *(key for keys in L.LAYER_KEYS.values() for key in keys)}
    assert read == set(layer["properties"])
