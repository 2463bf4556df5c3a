"""Pins the exit codes, stdout and `--json` report of gradcheck, dynamics,
train-toy and analyze byte for byte against tests/golden/reports.json.

Each case runs its commands in a scratch directory written as TMP in both
the arguments and the outputs; the last command writes the report.
Regenerate the golden with

    PYTHONPATH=src python tests/test_reports.py

which prints the old and new sha256 of the file and, for each entry that
changed, the largest absolute difference between its numbers.
"""

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from orepa.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "reports.json"
SPEC = str(DATA / "orepa3x3.json")

CASES = {
    **{f"gradcheck_{name}": [["gradcheck", str(DATA / f"{name}.json")]]
       for name in ("deepstem", "orepa3x3", "single_conv", "two_identical")},
    **{f"dynamics_{probe}": [["dynamics", SPEC, "--probe", probe]]
       for probe in ("convscale", "shared", "branchwise", "lemma")},
    "dynamics_lemma_6_layers": [["dynamics", SPEC, "--probe", "lemma", "--layers", "6"]],
    **{f"train_toy_{mode}": [["train-toy", SPEC, "--steps", "20", "--mode", mode]]
       for mode in ("online", "offline")},
    "train_toy_diverges": [["train-toy", SPEC, "--steps", "30", "--eta", "5"]],
    "analyze": [["train-toy", SPEC, "--steps", "20", "--save", "TMP/ckpt.json"],
                ["analyze", "TMP/ckpt.json", "--similarity-csv", "TMP/sim.csv",
                 "--norms-csv", "TMP/norms.csv"]],
}


def dump(report):
    """A report's text as the CLI writes it."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def run_case(argvs, tmp):
    argvs = [*argvs[:-1], [*argvs[-1], "--json", "TMP/report.json"]]
    codes, out = [], io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in argvs:
            codes.append(main([a.replace("TMP", str(tmp)) for a in argv]))
    report = (tmp / "report.json").read_text().replace(str(tmp), "TMP")
    return {"exit": codes, "stdout": out.getvalue().splitlines(), "report": report}


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(tmp_path, name):
    got = run_case(CASES[name], tmp_path)
    want = json.loads(GOLDEN.read_text())[name]
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]
    assert got["report"] == dump(want["report"])


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def numbers(entry):
    """Every number in a golden entry in a fixed order, those written inside
    strings (stdout lines) included."""
    if isinstance(entry, dict):
        return [n for key in sorted(entry) for n in numbers(entry[key])]
    if isinstance(entry, list):
        return [n for item in entry for n in numbers(item)]
    if isinstance(entry, str):
        return [float(m) for m in NUMBER.findall(entry)]
    return [] if entry is None or isinstance(entry, bool) else [float(entry)]


def largest_move(old, new):
    """Largest |new - old| over an entry's numbers; inf if they do not pair up."""
    a, b = numbers(old), numbers(new)
    if len(a) != len(b):
        return float("inf")
    return max((0.0 if x == y or x != x and y != y else abs(x - y) for x, y in zip(a, b)),
               default=0.0)


if __name__ == "__main__":
    old_text = GOLDEN.read_text() if GOLDEN.exists() else "{}"
    old = json.loads(old_text)
    golden = {}
    for name, argvs in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            golden[name] = run_case(argvs, Path(tmp))
        golden[name]["report"] = json.loads(golden[name]["report"])
    GOLDEN.write_text(dump(golden))
    for label, text in (("old", old_text), ("new", dump(golden))):
        print(f"{label} sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    for name in golden:
        if golden[name] != old.get(name):
            print(f"{name}: largest |diff| {largest_move(old.get(name), golden[name]):.3g}")
