"""lawbench's correctness gate, replayed in the test suite: every timed op of
every workload gives its expected verdict and the golden report bytes at the
golden seed.  Only reads ``lawbench/``."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

LAWBENCH = Path(__file__).resolve().parents[1] / "lawbench"
GOLDEN = json.loads((LAWBENCH / "golden.json").read_text(encoding="utf-8"))


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "lawbench_workloads", LAWBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while its classes are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(GOLDEN["workloads"]))
def test_timed_ops_give_their_verdicts_and_golden_bytes(workload, monkeypatch):
    timed = GOLDEN["workloads"][workload]["timed"]
    ops = {op.name: op for op in _workloads(monkeypatch).build_ops(workload, GOLDEN["seed"])}
    assert set(timed) <= set(ops)
    wrong = []
    for name, golden in sorted(timed.items()):
        op = ops[name]
        result = op.check()
        text = op.serialise(result)
        if not op.verdict(result):
            wrong.append(f"{name}: verdict differs from the expected one")
        elif hashlib.sha256(text.encode()).hexdigest() != golden["sha256"]:
            wrong.append(f"{name}: output differs from the golden report")
    assert wrong == []
