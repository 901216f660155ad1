"""Tests of the benchmark itself.

Run from the repository root (they are not part of the tier-1 suite):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    digests = BENCH / "out" / f"digests-{workload}-s{seed}-trace{trace}.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(digests.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.build(workload, 5, "w") == workloads.build(workload, 5, "w")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    files_a, manifest_a = workloads.build(workload, 5, "w")
    files_b, manifest_b = workloads.build(workload, 6, "w")
    assert files_a.keys() == files_b.keys()
    differ = sum(files_a[name] != files_b[name] for name in files_a)
    assert differ > len(files_a) // 2  # tiny desk datums may coincide by chance
    assert manifest_a["ops"] != manifest_b["ops"]


def test_reference_determinant():
    assert workloads.det([[2, 1], [1, 1]]) == 1
    assert workloads.det([[0, 1, 0], [1, 0, 0], [0, 0, 3]]) == -3
    assert workloads.det([[1, 2], [2, 4]]) == 0
    assert workloads.det([]) == 1


def test_crashes_make_the_run_incorrect_and_falsifications_only_fail():
    import run

    ops = [{"argv": [name], "check": {"golden": name}} for name in "abcde"]
    outcomes = run.Outcomes({"ops": ops, "refs": {}}, {name: "ok\n" for name in "abcde"})
    outcomes.record(0, 0, "ok\n", "", None)
    outcomes.record(1, 1, "ok\n", "falsification: sides disagree\n", None)
    outcomes.record(1, 1, "ok\n", "falsification: sides disagree\n", None)
    assert (outcomes.attempted, outcomes.failed, outcomes.wrong) == (2, 1, [])
    outcomes.record(2, 1, "ok\n", "", None)
    outcomes.record(3, 2, "", "error: bad input\n", None)
    outcomes.record(4, None, "", "", "ValueError()")
    assert (outcomes.calls, outcomes.attempted, outcomes.failed) == (6, 5, 4)
    assert [problem.split(":")[0] for problem in outcomes.wrong] == ["c", "d", "e"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reports_repeat_and_tracing_leaves_them_unchanged(workload):
    first, a = _run(workload, 3, 0)
    again, b = _run(workload, 3, 0)
    traced, c = _run(workload, 3, 1)
    assert a["inputs_sha256"] == b["inputs_sha256"] == c["inputs_sha256"]
    for other in (b, c):
        common = a["reports"].keys() & other["reports"].keys()
        assert common
        assert {k: a["reports"][k] for k in common} == {k: other["reports"][k] for k in common}
    for result in (first, again, traced):
        assert result["correct"] is True
        assert result["attempted"] >= 1
    if workload == "desk-mix":  # every run attempts every op
        counts = {(r["attempted"], r["failed"]) for r in (first, again, traced)}
        assert len(counts) == 1
    assert set(first["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["metrics"]["intmat.cert_fail"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(SPEC["command"] + ["--workload", "desk-mix", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
