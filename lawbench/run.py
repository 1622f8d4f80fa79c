"""Law-checker benchmark for effectbx.

Runs one workload (``monad``, ``state`` or ``bx``; see README.md) in this
process, in a closed loop: set-up, one untimed warm-up pass over the
workload's ops, then timed passes until ``--seconds`` have elapsed.  Every
op's output is checked against its expected verdict, against the golden
report bytes in ``golden.json`` and against its own first output.  Times
are normalised to a reference machine speed (see ``Normaliser``).  The last
line of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of one extra profiled pass
(``--trace 1``, which also writes a sidecar under ``out/``).

    python3 lawbench/run.py --workload monad --seed 0 --seconds 25 --trace 0
    python3 lawbench/run.py --record-golden

Exit status: 0 when every output is correct, 1 on a correctness mismatch,
2 when the benchmark cannot run (bad arguments, no effectbx sources).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
SETUPS = 10
GOLDEN_SEED = 0
TAIL_PERCENTILE = 90
CALIBRATION_LOOPS = 400_000
CALIBRATION_INTERVAL_S = 0.15
# A typical wall time of calibrate() on the 2-CPU x86-64 Linux container,
# with CPython 3.11.7, where the seed baseline in README.md was measured.
REFERENCE_S = 0.025

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402


def setup(workload, seed):
    """Import effectbx afresh and build the workload's ops; return the ops and
    the seconds this took."""
    for name in [n for n in sys.modules if n.split(".")[0] == "effectbx"]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    ops = workloads.build_ops(workload, seed)
    return ops, time.perf_counter() - t0


def run_op(op, wrap=lambda f: f):
    """Run one op; return (seconds, output text, error, checker result)."""
    t0 = time.perf_counter()
    try:
        result = op.check()
        text = wrap(op.serialise)(result)
    except Exception as exc:  # an op that raises is counted as failed
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}", None
    return time.perf_counter() - t0, text, None, result


def tally(text):
    """(assignments covered, witnesses) in one op's serialised output."""
    assignments = witnesses = 0
    stack = [json.loads(text)]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "checked" in node and "failures" in node:
                assignments += node["checked"]
                witnesses += len(node["failures"])
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return assignments, witnesses


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Counts attempted and failed ops and records why each op failed.

    A timed op fails if it raises, gives another verdict than expected,
    differs from its golden bytes (checked when its reports are exhaustive, or
    at the golden seed) or differs from its first output in this run; any of
    these is a correctness mismatch.  An op outside the timed set is expected
    to raise at the golden seed (a known defect): it counts as failed, but
    only a wrong verdict or a nondeterministic output makes it a mismatch.
    """

    def __init__(self, golden, seed):
        self.golden = golden
        self.seed = seed
        self.first = {}
        self.mismatches = {}
        self.raised = {}
        self.attempted = 0
        self.failed = 0

    def check(self, op, text, error, result):
        self.attempted += 1
        problem = None
        if error is not None:
            if op.name not in self.golden:
                self.raised.setdefault(op.name, [error, 0])[1] += 1
                self.failed += 1
                return
            problem = f"raised {error}"
        elif not op.verdict(result):
            problem = "verdict differs from the expected one"
        elif op.name in self.first:
            if text != self.first[op.name]:
                problem = "output differs from this run's first output"
        else:
            self.first[op.name] = text
            entry = self.golden.get(op.name)
            if entry and (not entry["seeded"] or self.seed == GOLDEN_SEED) \
                    and digest(text) != entry["sha256"]:
                problem = "output differs from the golden report"
        if problem:
            self.mismatches.setdefault(op.name, problem)
            self.failed += 1


def run_pass(ops, checker, wrap=lambda f: f, after_op=lambda i, seconds: None):
    """Run ``ops`` once, calling ``after_op`` with each op's index and wall
    time; return the wall times."""
    times = []
    for i, op in enumerate(ops):
        seconds, text, error, result = run_op(op, wrap)
        checker.check(op, text, error, result)
        after_op(i, seconds)
        times.append(seconds)
    return times


def calibrate():
    """Wall time of a fixed pure-Python loop that does not touch effectbx."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i % 7
    return time.perf_counter() - t0


class Normaliser:
    """Converts wall times to times at the reference speed.

    The speed of a shared machine drifts by tens of percent within minutes,
    and the calibration loop slows down with it.  Each time is multiplied by
    REFERENCE_S over the mean of the calibrations taken just before and just
    after it; ``add`` calibrates at least every CALIBRATION_INTERVAL_S.
    """

    def __init__(self):
        self.before = calibrate()
        self.since = time.perf_counter()
        self.pending = []

    def add(self, samples, seconds):
        """Append ``seconds``, normalised, to ``samples`` at the next
        calibration."""
        self.pending.append((samples, seconds))
        if time.perf_counter() - self.since >= CALIBRATION_INTERVAL_S:
            self.flush()

    def flush(self):
        after = calibrate()
        factor = 2 * REFERENCE_S / (self.before + after)
        for samples, seconds in self.pending:
            samples.append(seconds * factor)
        self.pending = []
        self.before = after
        self.since = time.perf_counter()


def tail(samples):
    """The TAIL_PERCENTILE-th percentile of ``samples`` and the number of
    samples beyond it."""
    value = statistics.quantiles(samples, n=100)[TAIL_PERCENTILE - 1]
    return value, sum(1 for x in samples if x > value)


def measure(args):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    timed_golden = golden["workloads"][args.workload]["timed"]
    normaliser = Normaliser()
    setup_times = []
    for _ in range(SETUPS):
        ops, seconds = setup(args.workload, args.seed)
        normaliser.add(setup_times, seconds)
        normaliser.flush()
    import effectbx

    if Path(effectbx.__file__).resolve().parent != (SRC / "effectbx").resolve():
        print(f"lawbench: effectbx imported from {effectbx.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    checker = Checker(timed_golden, args.seed)
    names = {op.name for op in ops}
    for name in sorted(set(timed_golden) - names):
        checker.mismatches[name] = "timed op is not built by the workload"
    timed = [i for i, op in enumerate(ops) if op.name in timed_golden]

    run_pass(ops, checker)  # warm-up
    timed_set = set(timed)
    passes, raw_pass_times = [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        samples = []
        passes.append(samples)
        times = run_pass(ops, checker, after_op=lambda i, seconds: (
            normaliser.add(samples, seconds) if i in timed_set else None))
        raw_pass_times.append(sum(times[i] for i in timed))
    normaliser.flush()

    counts = [tally(checker.first[ops[i].name]) for i in timed
              if ops[i].name in checker.first]
    assignments = sum(a for a, _w in counts)
    pass_times = [sum(p) for p in passes]
    pass_s = statistics.median(pass_times)
    print(f"raw pass_s {statistics.median(raw_pass_times)} s (wall time, not normalised)")
    if args.trace:
        values = trace(args, [ops[i] for i in timed], checker, normaliser, pass_s, counts)
    else:
        op_samples = [t for p in passes for t in p]
        op_tail, beyond = tail(op_samples)
        print(f"op_s_tail is p{TAIL_PERCENTILE} of {len(op_samples)} op times, "
              f"{beyond} beyond it")
        values = {
            "assignments_per_s": (statistics.median(assignments / t for t in pass_times),
                                  "1/s"),
            "pass_s": (pass_s, "s"),
            "op_s_tail": (op_tail, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "MiB"),
            "setup_s": (statistics.median(setup_times), "s"),
            "ok_share": (1 - checker.failed / checker.attempted, "ratio"),
        }

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops {len(ops)} ({len(timed)} timed)  assignments/pass {assignments}")
    print(f"failed_share {checker.failed / checker.attempted:.6f}  "
          f"({checker.failed} of {checker.attempted} ops attempted)")
    for name, (error, times) in sorted(checker.raised.items()):
        print(f"failed op {name}: {error} ({times} times)")
    for name, problem in sorted(checker.mismatches.items()):
        print(f"MISMATCH op {name}: {problem}")
    for name, (value, unit) in values.items():
        print(f"metric {name} {value} {unit}")
    correct = not checker.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if correct else 1


def trace(args, timed_ops, checker, normaliser, pass_s, counts):
    """Run one profiled pass over the timed ops, write the sidecar and return
    the per-layer metrics."""
    profile, space, serialise, times = layers.profile_pass(
        lambda wrap: run_pass(timed_ops, checker, wrap))
    traced = []
    normaliser.add(traced, sum(times))
    normaliser.flush()
    traced_s = traced[0]
    texts = [checker.first[op.name] for op in timed_ops if op.name in checker.first]
    values, module_self = layers.layer_metrics(
        profile, space, serialise, texts,
        sum(a for a, _w in counts), sum(w for _a, w in counts))
    values["trace.overhead_ratio"] = (traced_s / pass_s, "ratio")
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    profile.dump_stats(f"{stem}.prof")
    sidecar = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_pass_s": pass_s,
        "traced_pass_s": traced_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "module_self_s": module_self,
    }
    Path(f"{stem}-layers.json").write_text(
        json.dumps(sidecar, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    stem = stem.relative_to(HERE.parent)
    print(f"trace written to {stem}-layers.json and {stem}.prof")
    return values


def record_golden():
    """Run every workload at the golden seed and freeze, per workload, the ops
    that succeed (the timed set, with their report digests) and the ops that
    raise (with their exception type)."""
    data = {"seed": GOLDEN_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        ops, _seconds = setup(workload, GOLDEN_SEED)
        timed, untimed = {}, {}
        for op in ops:
            _t, text, error, result = run_op(op)
            if error is not None:
                untimed[op.name] = error.split(":")[0]
                continue
            if not op.verdict(result) or run_op(op)[1] != text:
                print(f"lawbench: {op.name} is wrong or nondeterministic", file=sys.stderr)
                return 1
            timed[op.name] = {"sha256": digest(text), "bytes": len(text.encode()),
                              "seeded": "sampled(" in text}
        data["workloads"][workload] = {"timed": timed, "untimed": untimed}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "effectbx" / "__init__.py").is_file():
        print(f"lawbench: no effectbx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
