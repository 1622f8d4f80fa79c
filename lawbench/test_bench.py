"""Smoke tests of the benchmark: one timed pass of each workload.

Run from the repository root with ``python3 -m pytest lawbench -q``; the
traced runs make this take a minute or two.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
COUNTS = ("lawcheck.assignments", "lawcheck.evaluations", "lawcheck.witnesses",
          "lawcheck.report_bytes")


def run(workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "lawbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


def assert_metrics(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_reports_every_end_to_end_metric(workload):
    code, lines, result = run(workload, trace=0)
    assert code == 0 and result["correct"], lines
    assert_metrics(result, BENCHMARK["end_to_end"])
    failed = [line for line in lines if line.startswith("failed op ")]
    share = next(line for line in lines if line.startswith("failed_share "))
    if workload == "bx":
        assert result["failed"] == 0 and not failed
        assert share.startswith("failed_share 0.000000 ")
        assert result["metrics"]["ok_share"]["value"] == 1.0
    else:
        # the console family's value enumerator raises NameError at seed
        assert result["failed"] > 0 and failed
        assert all("/console" in line and "NameError" in line for line in failed)
        assert float(share.split()[1]) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_metric_with_repeatable_counts(workload):
    results = []
    for _ in range(2):
        code, lines, result = run(workload, trace=1)
        assert code == 0 and result["correct"], lines
        assert_metrics(result, BENCHMARK["per_layer"])
        results.append({k: m["value"] for k, m in result["metrics"].items()})
    first, second = results
    assert first["lawcheck.evaluations_per_assignment"] == 1.0
    assert first["trace.overhead_ratio"] > 0
    counts = [k for k in first if k.endswith("_calls") or k in COUNTS]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_golden_mismatch_fails_the_run(tmp_path):
    for name in ("src", "lawbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    golden_path = tmp_path / "lawbench" / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    golden["workloads"]["bx"]["timed"]["corpus/identity"]["sha256"] = "0" * 64
    golden_path.write_text(json.dumps(golden), encoding="utf-8")
    code, lines, result = run("bx", trace=0, root=tmp_path)
    assert code == 1 and not result["correct"]
    assert "MISMATCH op corpus/identity: output differs from the golden report" in lines


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "lawbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines, _result = run("bx", trace=0, root=tmp_path)
    assert code != 0 and not lines
