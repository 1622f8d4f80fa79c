"""Command-line front end: law suites, the composers differential scenario,
and the memoizing synchronization session (scripted or interactive).

``laws --suite`` takes "all", an aggregate of ``corpus.AGGREGATES`` or a
per-bx suite of ``checks.BX_SUITES`` (run on the corpus entry named by ``--bx``).

Exit codes: 0 all verdicts as expected, 1 unexpected law verdict, 2 usage or
script parse error, 3 console script exhausted.  ``--bx`` with an aggregate
suite, a negative ``--cap`` and ``sync --interactive --answers`` are usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import BX_SUITES, check
from .corpus import AGGREGATES, select_entries
from .effects import (
    ConsoleWorld,
    console_family,
    load_console_script,
    transcript_records,
)
from .errors import EffectbxError, KeyViolation, ScriptExhausted
from .examples import (
    composers_scenario,
    default_composers_script,
    dynamic_console_bx,
)
from .lawcheck import DEFAULT_CAP


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="effectbx",
        description="Law checking and demos for effectful bidirectional transformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    laws = sub.add_parser("laws", help="run law suites")
    laws.add_argument(
        "--suite",
        default="all",
        choices=["all", *AGGREGATES, *BX_SUITES],
    )
    laws.add_argument("--bx", default=None,
                      help="corpus entry name for a per-bx suite (default: identity)")
    laws.add_argument("--format", default="text", choices=["text", "json"])
    laws.add_argument("--cap", type=_non_negative, default=DEFAULT_CAP,
                      help="assignments per law checked exhaustively; above it "
                           "a seeded sample is checked, function-valued "
                           "quantifiers included")
    laws.add_argument("--seed", type=int, default=0,
                      help="seed for sampled law checking")

    composers = sub.add_parser("composers", help="replay the differential scenario")
    composers.add_argument("--script", default=None,
                           help="JSON scenario script (default: shipped fixture)")
    composers.add_argument("--format", default="text", choices=["text", "json"])

    sync = sub.add_parser("sync", help="memoizing synchronization session")
    group = sync.add_mutually_exclusive_group(required=True)
    group.add_argument("--script", default=None, help="JSON session script")
    group.add_argument("--interactive", action="store_true")
    sync.add_argument("--answers", default=None,
                      help="plain-text answer script, one input line per line "
                           "(overrides the session's inline answers)")
    sync.add_argument("--dump", default=None, help="write final state as JSON")
    sync.add_argument("--format", default="text", choices=["text", "json"])
    return parser


def _non_negative(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "laws":
            return _cmd_laws(args)
        if args.command == "composers":
            return _cmd_composers(args)
        if args.command == "sync":
            return _cmd_sync(args)
    except ScriptExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KeyViolation, EffectbxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


# ---------------------------------------------------------------------------
# laws


def _cmd_laws(args) -> int:
    if args.suite in BX_SUITES:
        (entry,) = select_entries({args.bx or "identity"})
        report = check(entry.build(), args.suite, cap=args.cap, seed=args.seed)
        if args.format == "json":
            print(report.to_json(indent=2))
        else:
            for line in report.summary_lines():
                print(line)
        return 0 if report.ok else 1
    if args.bx is not None:
        raise ValueError(f"--bx applies to a per-bx suite, not to --suite {args.suite}")

    aggregate = {
        name: run(cap=args.cap, seed=args.seed)
        for name, run in AGGREGATES.items()
        if args.suite in ("all", name)
    }
    ok = all(section["ok"] for section in aggregate.values())
    if args.format == "json":
        print(json.dumps({"ok": ok, "suites": aggregate}, indent=2, sort_keys=True))
    else:
        for section, payload in aggregate.items():
            if section == "corpus":
                for entry in payload["entries"]:
                    status = "pass" if entry["ok"] else "FAIL"
                    print(f"{status}  corpus/{entry['name']}")
                    for problem in entry["problems"]:
                        print(f"      {problem}")
            else:
                for rep in payload["reports"]:
                    status = "pass" if rep.get("verdict_ok", rep["ok"]) else "FAIL"
                    print(f"{status}  {section}/{rep['bx']} [{rep['effect']}]")
        print("all suites pass" if ok else "unexpected verdicts present")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# composers


def _cmd_composers(args) -> int:
    if args.script is None:
        script = default_composers_script()
    else:
        script = _load_script(args.script)
    report = composers_scenario(script)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for step in report["steps"]:
            flag = "ok " if step["agree"] else "DIFF"
            print(f"{flag} step {step['step']}: {step['op']}")
            print(f"     left  = {step['left_view']}")
            print(f"     right = {step['right_view']}")
        print("agreement: all true" if report["ok"] else "DISAGREEMENT FOUND")
    return 0 if report["ok"] else 1


def _read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: parse error at line {exc.lineno}: {exc.msg}")


def _strings(values):
    return all(isinstance(v, str) for v in values)


def _is_row(op, row):
    """A left row is [name, nation, dates], dates null or [born, died]; a
    right row is [name, nation]."""
    if not isinstance(row, list) or len(row) != (3 if op == "setL" else 2):
        return False
    if op == "setR":
        return _strings(row)
    dates = row[2]
    return _strings(row[:2]) and (
        dates is None or isinstance(dates, list) and len(dates) == 2 and _strings(dates)
    )


def _load_script(path):
    script = _read_json(path, "script")
    if not isinstance(script, list):
        raise ValueError(f"{path}: expected a JSON list of steps")
    for i, step in enumerate(script):
        if not isinstance(step, dict) or "op" not in step:
            raise ValueError(f"{path}: step {i + 1} needs an 'op' field")
        op = step["op"]
        if op not in ("setL", "setR", "getL", "getR"):
            raise ValueError(f"{path}: step {i + 1} has unknown op {op!r}")
        if op in ("setL", "setR") and not (
            isinstance(step.get("value"), list)
            and all(_is_row(op, row) for row in step["value"])
        ):
            shape = "[name, nation, null or [born, died]]" if op == "setL" else "[name, nation]"
            raise ValueError(
                f"{path}: step {i + 1} needs a 'value' list of {shape} rows of strings"
            )
    return script


# ---------------------------------------------------------------------------
# sync


def _parse_value(value):
    """Parse a string as an int where it reads as one; pass any other value
    (a script's number, boolean or null) through unchanged."""
    try:
        return int(value) if isinstance(value, str) else value
    except ValueError:
        return value


def _cmd_sync(args) -> int:
    if args.interactive:
        if args.answers is not None:
            raise ValueError("--answers applies to a --script session, not to --interactive")
        print("interactive session; enter edits as 'L <value>' or 'R <value>', blank line ends")
        try:
            a0 = input("initial left value> ")
            b0 = input("initial right value> ")
        except EOFError:
            a0 = b0 = ""
        session = {"initial": {"a": a0, "b": b0}, "edits": []}
        world = ConsoleWorld(interactive=True)
        edits = []
        while True:
            try:
                line = input("edit> ")
            except EOFError:
                break
            if not line.strip():
                break
            side, _, value = line.partition(" ")
            if side not in ("L", "R"):
                print("expected 'L <value>' or 'R <value>'")
                continue
            edits.append({"side": side, "value": _parse_value(value.strip())})
        session["edits"] = edits
        result = _run_session(session, world)
        result["echoed"] = True
    else:
        session = _load_session(args.script)
        if args.answers is not None:
            answers = load_console_script(args.answers)
        else:
            answers = tuple(str(x) for x in session.get("answers", ()))
        world = ConsoleWorld(answers)
        result = _run_session(session, world)

    payload = _session_payload(result)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(payload["state"], fh, indent=2, sort_keys=True)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if not result.get("echoed"):  # interactive worlds already printed live
            for direction, text in result["transcript"]:
                marker = ">" if direction == "out" else "<"
                print(f"{marker} {text}")
        print(json.dumps(payload["state"], sort_keys=True))
    return 0


def _load_session(path):
    session = _read_json(path, "session")
    if not isinstance(session, dict):
        raise ValueError(f"{path}: expected a JSON object with 'edits'")
    if not isinstance(session.get("initial", {}), dict):
        raise ValueError(f"{path}: 'initial' must be a JSON object")
    for key in ("edits", "answers"):
        if not isinstance(session.get(key, []), list):
            raise ValueError(f"{path}: {key!r} must be a list")
    for i, edit in enumerate(session.get("edits", [])):
        if not isinstance(edit, dict) or edit.get("side") not in ("L", "R"):
            raise ValueError(f"{path}: edit {i + 1} needs a 'side' of 'L' or 'R'")
        if not isinstance(edit.get("value"), (str, int, float)):
            raise ValueError(f"{path}: edit {i + 1} needs a 'value' that is a string or a number")
    return session


def _run_session(session, world):
    """One code path for scripted and interactive sessions: the terminal is
    just a live console world."""
    fam = console_family()
    bx = dynamic_console_bx(fam, parse=_parse_value)
    initial = session.get("initial", {})
    state = (
        (_parse_value(initial.get("a")), _parse_value(initial.get("b"))),
        (),
        (),
    )
    computation = None
    for edit in session.get("edits", ()):
        op = bx.set_l(edit["value"]) if edit["side"] == "L" else bx.set_r(edit["value"])
        computation = op if computation is None else computation.then(op)
    if computation is None:
        final_state = state
    else:
        _, final_state = computation.run(state)(world)
    return {"state": final_state, "transcript": tuple(world.transcript)}


def _session_payload(result):
    (pair, memo_l, memo_r) = result["state"]
    return {
        "state": {
            "pair": list(pair),
            "memo_l": [[list(k), v] for k, v in memo_l],
            "memo_r": [[list(k), v] for k, v in memo_r],
        },
        "transcript": transcript_records(result["transcript"]),
    }


if __name__ == "__main__":
    sys.exit(main())
