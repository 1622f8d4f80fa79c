"""Command-line front end: flags, exit codes, report formats, sessions."""

import hashlib
import json

import pytest

from effectbx import (
    BX_SUITES,
    CHECKS,
    Bx,
    FiniteDomain,
    Lens,
    SymLens,
    check,
    identity_bx,
    identity_family,
)
from effectbx.cli import main
from effectbx.corpus import AGGREGATES, _entry_suites, corpus_entries, non_overwrite_lens


def test_laws_seven_identity(capsys):
    assert main(["laws", "--suite", "seven", "--bx", "identity"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 7 and "FAIL" not in out


def test_laws_seven_json_round_trips(capsys):
    assert main(["laws", "--suite", "seven", "--bx", "inv", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["bx"] == "inv"
    assert json.loads(json.dumps(payload)) == payload


def test_laws_mutant_exits_nonzero(capsys):
    code = main(["laws", "--suite", "seven", "--bx", "mutant-set_l-get_l"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness" in out


def test_laws_unknown_suite_usage_error(capsys):
    # the choices are "all", the aggregates and the suites of the checker
    # table that a bx is checked by alone
    with pytest.raises(SystemExit) as err:
        main(["laws", "--suite", "nonsense"])
    assert err.value.code == 2
    choices = ["all", *AGGREGATES,
               *(suite for (kind, suite), entry in CHECKS.items()
                 if kind is Bx and not entry.domains)]
    assert choices == ["all", "corpus", "monad", "state",
                       "seven", "overwritable", "stability", "init"]
    listed = ", ".join(map(repr, choices))
    assert f"invalid choice: 'nonsense' (choose from {listed})" in capsys.readouterr().err


@pytest.mark.parametrize("suite", BX_SUITES)
def test_a_per_bx_suite_prints_the_report_of_check(suite, capsys):
    entry = next(entry for entry in corpus_entries() if suite in _entry_suites(entry))
    main(["laws", "--suite", suite, "--bx", entry.name, "--format", "json"])
    assert capsys.readouterr().out == check(entry.build(), suite).to_json(indent=2) + "\n"


def test_laws_unknown_bx(capsys):
    assert main(["laws", "--suite", "seven", "--bx", "no-such"]) == 2
    assert "unknown bx" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["laws", "--suite", "corpus", "--bx", "inv"],
     "error: --bx applies to a per-bx suite, not to --suite corpus"),
    (["laws", "--suite", "seven", "--bx", "identity", "--cap", "-5"],
     "argument --cap: must not be negative: -5"),
    (["laws", "--suite", "seven", "--cap", "x"], "argument --cap: invalid int value: 'x'"),
    (["sync", "--interactive", "--answers", "{answers}"],
     "error: --answers applies to a --script session, not to --interactive"),
], ids=["bx-with-aggregate-suite", "negative-cap", "cap-not-an-int",
        "answers-with-interactive"])
def test_inputs_that_would_be_ignored_or_misread_are_usage_errors(argv, message, tmp_path,
                                                                  monkeypatch, capsys):
    answers = tmp_path / "answers.txt"
    answers.write_text("7\n", encoding="utf-8")
    monkeypatch.setattr("builtins.input", lambda _prompt="": pytest.fail("read the terminal"))
    try:
        code = main([arg.format(answers=answers) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_laws_corpus(capsys):
    assert main(["laws", "--suite", "corpus"]) == 0
    out = capsys.readouterr().out
    assert "corpus/mutant-get_l-get_l" in out
    assert "FAIL" not in out


def test_corpus_reports_each_unexpected_verdict(monkeypatch, capsys):
    from effectbx import corpus

    def identity():
        return identity_bx(identity_family(), BIT)

    def entries():
        entry = corpus.CorpusEntry
        return (
            entry("wrong-laws", identity, ("seven",),
                  expected_failing={"seven": ("get_l-get_l",)}),
            entry("wrong-witness", corpus.mutant_set_l_get_l, ("seven",),
                  expected_failing={"seven": ("set_l-get_l",)},
                  expected_witness={"seven:set_l-get_l": {"a": "1", "s": "(1, 0)"}}),
            entry("wrong-transparency", identity, ("seven",), transparent=False),
        )

    monkeypatch.setattr(corpus, "corpus_entries", entries)
    result = corpus.run_corpus()
    assert result["ok"] is False
    assert [(e["name"], e["ok"], e["problems"]) for e in result["entries"]] == [
        ("wrong-laws", False, ["seven: failing laws [] != expected ['get_l-get_l']"]),
        ("wrong-witness", False, [
            "seven:set_l-get_l: witness {'a': '0', 's': '(1, 0)'} "
            "!= stored {'a': '1', 's': '(1, 0)'}",
        ]),
        ("wrong-transparency", False, ["transparency True != expected False"]),
    ]
    # a witness that does not reproduce standalone is a problem too
    monkeypatch.setattr(corpus, "recheck_witness", lambda *_args: False)
    problems = corpus.run_corpus(names={"wrong-witness"})["entries"][0]["problems"]
    assert problems[-1] == "seven:set_l-get_l: witness does not reproduce standalone"

    capsys.readouterr()
    assert main(["laws", "--suite", "corpus"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["FAIL  corpus/wrong-laws",
                       "      seven: failing laws [] != expected ['get_l-get_l']"]
    assert out[-1] == "unexpected verdicts present"


def test_a_sampled_corpus_run_holds_no_witness_to_its_stored_inputs(capsys):
    from effectbx import corpus

    # a sample need not draw the first failing assignment in enumeration
    # order, so its witness is only rechecked standalone: mutant-get_l-get_l
    # stores s = (0, 0), and these draws find (1, 0) first
    result = corpus.run_corpus(cap=0, seed=4)
    assert [(e["name"], e["problems"]) for e in result["entries"] if not e["ok"]] == []
    entry = next(e for e in result["entries"] if e["name"] == "mutant-get_l-get_l")
    seven = entry["suites"]["seven"]
    failing = next(law for law in seven["laws"] if law["name"] == "get_l-get_l")
    assert seven["mode"] == "sampled(n=400,seed=4)"
    assert failing["failures"][0]["inputs"] == {"s": "(1, 0)"}
    assert main(["laws", "--suite", "corpus", "--cap", "0"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_a_law_checked_exhaustively_is_held_to_its_stored_witness_in_a_sampled_suite(
        monkeypatch):
    from effectbx import corpus

    # at cap=4 set_l-get_l (8 assignments) samples while get_l-get_l (4) is
    # enumerated, so the failing law's witness is still compared
    def entries():
        return (corpus.CorpusEntry(
            "wrong-witness", corpus.mutant_get_l_get_l, ("seven",),
            expected_failing={"seven": ("get_l-get_l",)},
            expected_witness={"seven:get_l-get_l": {"s": "(1, 0)"}}),)

    monkeypatch.setattr(corpus, "corpus_entries", entries)
    entry = corpus.run_corpus(cap=4)["entries"][0]
    seven = entry["suites"]["seven"]
    assert seven["mode"] == "sampled(n=400,seed=0)"
    assert entry["problems"] == [
        "seven:get_l-get_l: witness {'s': '(0, 0)'} != stored {'s': '(1, 0)'}"]


def test_composers_default_fixture(capsys):
    assert main(["composers"]) == 0
    assert "agreement: all true" in capsys.readouterr().out


def test_composers_json(capsys, tmp_path):
    assert main(["composers", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and len(payload["steps"]) == 8
    # write the report out and reload: still the same document
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload, sort_keys=True))
    assert json.loads(path.read_text()) == payload


def test_composers_script_from_file(tmp_path, capsys):
    script = [{"op": "setL", "value": [["N", "X", None]]}, {"op": "getR"}]
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    assert main(["composers", "--script", str(path)]) == 0
    assert "agreement: all true" in capsys.readouterr().out


def test_composers_malformed_script_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('[\n  {"op": "setL"\n]')
    assert main(["composers", "--script", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error at line" in err


@pytest.mark.parametrize("content, message", [
    (None, "cannot read script"),
    ({"op": "getR"}, "expected a JSON list of steps"),
    ([{"value": []}], "step 1 needs an 'op' field"),
], ids=["unreadable", "not-a-list", "no-op"])
def test_composers_unusable_script_is_a_script_error(content, message, tmp_path, capsys):
    path = tmp_path / "script.json"
    if content is not None:
        path.write_text(json.dumps(content))
    assert main(["composers", "--script", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_composers_bad_op(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"op": "frobnicate"}]))
    assert main(["composers", "--script", str(path)]) == 2
    assert "unknown op" in capsys.readouterr().err


@pytest.mark.parametrize("step", [
    {"op": "setL"},
    {"op": "setR", "value": [["J. S. Bach", "German", None]]},
    {"op": "setL", "value": [["J. S. Bach", "German"]]},
    {"op": "setL", "value": [["J. S. Bach", "German", ["1685"]]]},
    {"op": "setR", "value": "J. S. Bach"},
], ids=["no-value", "long-row", "short-row", "one-date", "not-rows"])
def test_composers_malformed_step_is_a_script_error(step, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"op": "getR"}, step]))
    assert main(["composers", "--script", str(path)]) == 2
    assert "step 2 needs a 'value'" in capsys.readouterr().err


def _write_session(tmp_path, edits, answers, initial=None):
    path = tmp_path / "session.json"
    path.write_text(
        json.dumps(
            {
                "initial": initial or {"a": 1, "b": 10},
                "edits": edits,
                "answers": answers,
            }
        )
    )
    return str(path)


def test_sync_repeat_edit_prompts_once(tmp_path, capsys):
    path = _write_session(
        tmp_path,
        [{"side": "L", "value": 2}, {"side": "L", "value": 2}],
        ["20"],
    )
    assert main(["sync", "--script", path]) == 0
    out = capsys.readouterr().out
    assert out.count("Replacement for") == 1
    assert "Setting 2" in out


def test_sync_transcripts_byte_identical_across_reruns(tmp_path, capsys):
    path = _write_session(
        tmp_path,
        [{"side": "L", "value": 2}, {"side": "R", "value": 10},
         {"side": "L", "value": 2}],
        ["20", "1"],
    )
    assert main(["sync", "--script", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["sync", "--script", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_sync_memo_hit_after_side_trip(tmp_path, capsys):
    # edit L->2 (asks), drive b back to 10 via R (asks), repeat L->2: memo hit
    path = _write_session(
        tmp_path,
        [{"side": "L", "value": 2}, {"side": "R", "value": 10},
         {"side": "L", "value": 2}],
        ["20", "1"],
    )
    assert main(["sync", "--script", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    prompts = [rec["text"] for rec in payload["transcript"]
               if rec["dir"] == "out" and rec["text"].startswith("Replacement")]
    assert len(prompts) == 2  # the third edit hits the memo
    assert payload["state"]["pair"] == [2, 20]


def test_sync_dump(tmp_path, capsys):
    dump = tmp_path / "state.json"
    path = _write_session(tmp_path, [{"side": "L", "value": 2}], ["7"])
    assert main(["sync", "--script", path, "--dump", str(dump)]) == 0
    payload = json.loads(dump.read_text())
    assert payload["pair"] == [2, 7]
    assert payload["memo_l"] == [[[2, 10], 7]]


@pytest.mark.parametrize("initial, pair", [
    ({"a": 1.5, "b": True}, [1.5, True]),
    ({"a": "2", "b": "x"}, [2, "x"]),
], ids=["numbers-kept", "strings-parsed"])
def test_sync_script_parses_only_string_initial_values(tmp_path, capsys, initial, pair):
    path = _write_session(tmp_path, [], [], initial=initial)
    assert main(["sync", "--script", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["state"]["pair"] == pair


def test_sync_script_exhaustion_exit_code(tmp_path, capsys):
    path = _write_session(tmp_path, [{"side": "L", "value": 2}], [])
    assert main(["sync", "--script", path]) == 3
    assert "exhausted" in capsys.readouterr().err


def test_sync_answers_from_plain_text_file(tmp_path, capsys):
    path = _write_session(tmp_path, [{"side": "L", "value": 2}], [])
    answers = tmp_path / "answers.txt"
    answers.write_text("77\n", encoding="utf-8")
    assert main(["sync", "--script", path, "--answers", str(answers),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["state"]["pair"] == [2, 77]
    assert payload["transcript"][-1] == {"dir": "in", "text": "77"}


@pytest.mark.parametrize("flag, target", [
    ("--answers", "missing.txt"),
    ("--dump", "no/such/dir/state.json"),
], ids=["answers", "dump"])
def test_sync_file_errors_exit_2(flag, target, tmp_path, capsys):
    path = _write_session(tmp_path, [{"side": "L", "value": 2}], ["7"])
    assert main(["sync", "--script", path, flag, str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and target.split("/")[0] in err


@pytest.mark.parametrize("session, message", [
    ({"edits": [{"side": "L", "value": 2}, {"side": "L"}]}, "edit 2 needs"),
    ({"edits": [{"side": "X", "value": 1}]}, "edit 1 needs a 'side'"),
    ({"edits": [{"side": "R", "value": [1]}]}, "edit 1 needs a 'value'"),
    ({"edits": [["L", 2]]}, "edit 1 needs"),
    ({"edits": {"side": "L", "value": 2}}, "'edits' must be a list"),
    ([{"side": "L", "value": 2}], "expected a JSON object"),
    ({"initial": [1, 10], "edits": []}, "'initial' must be a JSON object"),
], ids=["no-value", "unknown-side", "list-value", "not-an-object", "edits-not-a-list",
        "not-a-session", "initial-not-an-object"])
def test_sync_malformed_session_is_a_script_error(session, message, tmp_path, capsys):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(session))
    assert main(["sync", "--script", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_sync_interactive_reads_edits_and_answers_from_the_terminal(monkeypatch, capsys):
    # initial values, an edit, a malformed edit, the blank line that ends the
    # edits, then the answer to the console's replacement prompt
    answers = iter(["1", "10", "L 2", "X 5", "", "20"])
    prompts = []

    def scripted_input(prompt=""):
        prompts.append(prompt)
        return next(answers)

    monkeypatch.setattr("builtins.input", scripted_input)
    assert main(["sync", "--interactive"]) == 0
    assert prompts == ["initial left value> ", "initial right value> ", "edit> ", "edit> ",
                       "edit> ", ""]
    assert capsys.readouterr().out.splitlines() == [
        "interactive session; enter edits as 'L <value>' or 'R <value>', blank line ends",
        "expected 'L <value>' or 'R <value>'",
        "Setting 2",
        "Replacement for 10?",
        '{"memo_l": [[[2, 10], 20]], "memo_r": [], "pair": [2, 20]}',
    ]


def test_sync_interactive_end_of_input_at_a_prompt_exits_3(monkeypatch, capsys):
    # Ctrl-D at the console's replacement prompt ends the session like an
    # exhausted script, not with a traceback
    answers = iter(["1", "10", "L 2", ""])

    def scripted_input(prompt=""):
        try:
            return next(answers)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", scripted_input)
    assert main(["sync", "--interactive"]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "Replacement for 10?"
    assert captured.err == "error: console input ended\n"


def test_sync_interactive_end_of_input_at_the_initial_prompt_starts_empty(monkeypatch,
                                                                          capsys):
    def closed_input(_prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", closed_input)
    assert main(["sync", "--interactive", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["state"]["pair"] == ["", ""]


def test_laws_other_single_suites(capsys):
    assert main(["laws", "--suite", "overwritable", "--bx", "identity"]) == 0
    # a per-bx suite without --bx runs on the identity entry
    assert main(["laws", "--suite", "overwritable"]) == 0
    assert capsys.readouterr().out.count("pass  identity:overwritable") == 4
    assert main(["laws", "--suite", "stability", "--bx", "inv"]) == 0
    assert main(["laws", "--suite", "init", "--bx", "read-some"]) == 0
    assert main(["laws", "--suite", "init", "--bx", "mutant-unstable"]) == 2
    err = capsys.readouterr().err
    assert "no initializers" in err


def test_laws_small_cap_switches_to_sampled_mode(capsys):
    assert main(["laws", "--suite", "monad", "--cap", "100", "--seed", "3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    modes = {rep["mode"] for rep in payload["suites"]["monad"]["reports"]}
    assert any("sampled" in m for m in modes)
    assert payload["ok"] is True


def _cli(*args):
    def output(capsys):
        main(list(args))
        return capsys.readouterr().out

    return output


def _report(subject, suite, **domains):
    return lambda _capsys: check(subject, suite, **domains).to_json()


BIT = FiniteDomain("bit", (0, 1))
PAIRS = FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))


@pytest.mark.parametrize("output, digest", [
    (_cli("laws", "--suite", "all", "--format", "json"),
     "5482727d80c16b14a831aec9d35ef470edb833a8fce64aa469e5c76ae0e19fc3"),
    (_cli("laws", "--suite", "all", "--format", "json", "--cap", "100", "--seed", "3"),
     "37b71e5002133f28f5b73f7b3173bfae44ca25aebb8c9088036643b783921c5c"),
    (_cli("laws", "--suite", "all", "--format", "json", "--seed", "1"),
     "7f4d7282d5404fb9bd70b4f759bada520b1fdb2699d619a94fc8eab475f90428"),
    (_cli("laws", "--suite", "all", "--format", "json", "--cap", "5000", "--seed", "2"),
     "873b03ea4dab633794649ee6e213a48b354936be8e593a0f0b00574557cfa9c8"),
    # every report sampled, and 104 of the 118 sampled at cap 3
    (_cli("laws", "--suite", "all", "--format", "json", "--cap", "0", "--seed", "4"),
     "f3b9b3ba3fb060c4d701d84bb28791c7c956dbf88c1f923447744dbf5020a481"),
    (_cli("laws", "--suite", "all", "--format", "json", "--cap", "3", "--seed", "1"),
     "9e76ef20a153ea6e05f66389404866f425c84d1116fd2118fa1ee1209a553eed"),
    # mostly sampled: failing sampled laws stop at their last witness
    (_cli("laws", "--suite", "all", "--format", "json", "--cap", "1"),
     "a2d9e2cdd2468c207b231e733e52c16036ad67fd647a972721540051283ca624"),
    (_cli("laws", "--suite", "all", "--format", "json", "--cap", "40", "--seed", "7"),
     "24a6737c04ea5621ac4290e08975c98e71e20668002a1c122ee7d4c4691273bf"),
    # the aggregate text printer
    (_cli("laws", "--suite", "all"),
     "d297d60e88c754b3f89dfb85fa50ac8a8ee37a7d6d0f6d89b4a878f586264b7f"),
    (_cli("laws", "--suite", "corpus", "--format", "json"),
     "63c81650bd008f477d2e40c467bd6237a8df1851a03e2d2234a2f8240be645cf"),
    (_report(non_overwrite_lens(), "lens", dom_a=PAIRS, dom_b=BIT),
     "7ec938f00f38c388de724a8e7c602b7239e7f8c358e7069bdf6a8e782166550e"),
    # update ignores the view: witnesses for update-view
    (_report(Lens(lambda s: s[0], lambda s, _v: s, lambda v: (v, 0)), "lens",
             dom_a=PAIRS, dom_b=BIT),
     "e0e77808885b26742cf7f378977bf84a3afa92b4ed7b2a4472bb08d2827f27e7"),
    # put_r keeps a stale complement: witnesses for put_r-put_l
    (_report(SymLens(put_r=lambda a, c: (a, c), put_l=lambda b, _c: (b, b), missing=0),
             "symlens", dom_a=BIT, dom_b=BIT, dom_c=BIT),
     "dee1964f96460c67e53ace6be2c0729efa66c6aebe0cd62b66cc1624366f6b73"),
    # both composers implementations, step by step
    (_cli("composers", "--format", "json"),
     "716df982e4b2d86262cfc3339954b72b0ee028d79c2e401651607599e2934694"),
], ids=["all", "all-cap100-seed3", "all-seed1", "all-cap5000-seed2", "all-cap0-seed4",
         "all-cap3-seed1", "all-cap1", "all-cap40-seed7", "all-text", "corpus",
         "lens-non-overwrite", "lens-update-ignores-view",
        "symlens-stale-complement", "composers"])
def test_laws_reports_are_byte_identical_to_the_golden_digest(output, digest, capsys):
    # every law of every suite, witnesses with function reprs included: a
    # refactor of the harness must leave these bytes unchanged
    assert hashlib.sha256(output(capsys).encode("utf-8")).hexdigest() == digest


def test_console_script_and_transcript_helpers(tmp_path):
    from effectbx import load_console_script, transcript_records

    path = tmp_path / "script.txt"
    path.write_text("one\ntwo\n", encoding="utf-8")
    assert load_console_script(str(path)) == ("one", "two")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert load_console_script(str(empty)) == ()
    records = transcript_records((("out", "hi"), ("in", "yo")))
    assert records == [{"dir": "out", "text": "hi"}, {"dir": "in", "text": "yo"}]


def test_a_report_that_prints_sets_is_the_same_under_any_hash_seed():
    # composers' overwritable witnesses print frozensets of (name, country,
    # None) triples, whose iteration order follows the hash seed of strings
    import os
    import subprocess
    import sys
    from pathlib import Path

    import effectbx

    src = str(Path(effectbx.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "effectbx", "laws", "--suite", "overwritable",
            "--bx", "composers", "--format", "json"]
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(argv, env=env, capture_output=True, check=False)
        assert run.returncode == 1, run.stderr
        outputs.append(run.stdout)
    assert b"frozenset({" in outputs[0]
    assert outputs[0] == outputs[1]
