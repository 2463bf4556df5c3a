import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orepa.blockspec import block_from_spec, load_spec, save_checkpoint
from orepa.cli import main
from orepa.okt import read_okt, write_okt
from orepa.tensor import KernelTensor

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(args):
    return main([str(a) for a in args])


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


def test_repo_schema_matches_package_schema():
    from orepa.blockspec import load_schema
    repo = Path(__file__).resolve().parents[1] / "schemas" / "blockspec-1.json"
    assert json.loads(repo.read_text()) == load_schema()
