"""Registry of checkable bx instances with expected verdicts, and the
aggregate suites (``AGGREGATES``) that the command line runs.

Each entry names the per-bx suites of ``checks.BX_SUITES`` it runs.  Positive
entries cover every constructor in the library across the shipped effect
families; negative entries are deliberately broken mutants, each carrying its
expected failing laws and a stored counterexample.  The seven law-targeted
mutants each fail exactly one of the seven well-behavedness laws: the set-law
mutants by surgical edits to one set operation, the get-law mutants by
escaping to states outside the declared domain (where the opposing view
differs) and repairing the escape in the sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .bx import Bx, analyze_transparency, lens_to_bx
from .checks import BX_SUITES, CHECKS, check
from .combinators import (
    const_bx,
    fst_ibx,
    inl_bx,
    inr_bx,
    list_ibx,
    pair_bx,
    snd_ibx,
    sum_bx,
    swap_bx,
)
from .compose import dual, identity_bx
from .effects import (
    NOTHING,
    EffectFamily,
    Just,
    choice_family,
    console_family,
    failure_family,
    identity_family,
    reader_family,
    writer_family,
)
from .errors import NoInitializers
from .examples import (
    alert_bx,
    composers_symlens_bx,
    dynamic_bx,
    dynamic_memo_states,
    dynamic_search_bx,
    inv_bx,
    log_bx,
    nondet_bx,
    read_some_bx,
    switch_bx,
)
from .lawcheck import FiniteDomain
from .lenses import Lens, fst_lens
from .stateful import Stateful


BIT = FiniteDomain("bit", (0, 1))
BIT_PAIRS = FiniteDomain("bit-pairs", tuple((a, b) for a in (0, 1) for b in (0, 1)))


@dataclass(frozen=True)
class CorpusEntry:
    """One registered instance: how to build it, which suites to run, and the
    expected verdicts (with a stored counterexample per expected failure)."""

    name: str
    build: Callable[[], Bx]
    suites: tuple
    expected_failing: dict = field(default_factory=dict)
    expected_witness: dict = field(default_factory=dict)
    transparent: Optional[bool] = None

    def __post_init__(self):
        # a misspelled suite would otherwise go unchecked and the entry pass
        unknown = sorted(set(self.suites).union(self.expected_failing) - set(BX_SUITES))
        if unknown:
            raise ValueError(
                f"corpus entry {self.name!r}: unknown suite "
                f"{', '.join(map(repr, unknown))}; known: {', '.join(BX_SUITES)}"
            )


# ---------------------------------------------------------------------------
# the seven law-targeted mutants (identity effect)


def _mk(name, states, get_l, set_l, get_r, set_r):
    """A bx at the identity effect from pure functions over ``states``:
    ``get(s)`` returns (view, next state), ``set(v, s)`` the next state."""
    fam = identity_family()

    def setter(set_):
        return lambda v: Stateful(fam, (
            lambda s: ((), set_(v, s))
        ))

    return Bx(
        name=name,
        effect=fam,
        get_l=Stateful(fam, get_l),
        set_l=setter(set_l),
        get_r=Stateful(fam, get_r),
        set_r=setter(set_r),
        state_domain=FiniteDomain(f"{name}-states", states),
        dom_a=BIT,
        dom_b=BIT,
    )


def _repairing_set(phase):
    """A set over (view, phase) states that repairs a get's escape to
    ``phase``: from there it lands on phase 0 if the view is unchanged, and
    everywhere else on phase 1."""

    def set_(x, s):
        v, h = s
        if h == phase:
            return (x, 0) if x == v else (x, 1)
        return (x, 1)

    return set_


_PHASED = tuple((v, h) for v in (0, 1) for h in (0, 1))


def mutant_get_l_get_l() -> Bx:
    """get_l escapes the declared domain to a phase where its own view flips;
    set_l repairs the escape, so only the get/get law notices."""

    def get_l(s):
        v, h = s
        if h == 0:
            return (v, (v, 2))
        if h == 1:
            return (v, (v, 1))
        return (1 - v, (v, 2))

    return _mk("mutant-get_l-get_l", _PHASED, get_l, _repairing_set(2),
               lambda s: (s[0], s),
               lambda b, s: (b, s[1]))


def mutant_get_r_get_r() -> Bx:
    return replace(dual(mutant_get_l_get_l()), name="mutant-get_r-get_r")


def mutant_get_l_get_r() -> Bx:
    """Each get escapes to its own phase; the other side's view flips only at
    the opposite phase, so only the cross commutation law notices."""

    def get_l(s):
        v, h = s
        if h == 0:
            return (v, (v, 2))
        return (v, (v, h))

    def get_r(s):
        v, h = s
        if h == 0:
            return (v, (v, 3))
        if h == 2:
            return (1 - v, (v, 2))
        return (v, (v, h))

    return _mk("mutant-get_l-get_r", _PHASED, get_l, _repairing_set(2), get_r,
               _repairing_set(3))


def mutant_set_l_get_l() -> Bx:
    """set_l forgets its argument."""
    return _mk("mutant-set_l-get_l", BIT_PAIRS.elements,
               lambda s: (s[0], s),
               lambda _a, s: s,
               lambda s: (s[1], s),
               lambda b, s: (s[0], b))


# not a dual: mirroring mutant_set_l_get_l would swap the pair state, so the
# stored first witness s=(0, 1) would become (1, 0)
def mutant_set_r_get_r() -> Bx:
    return _mk("mutant-set_r-get_r", BIT_PAIRS.elements,
               lambda s: (s[0], s),
               lambda a, s: (a, s[1]),
               lambda s: (s[1], s),
               lambda _b, s: s)


def mutant_get_l_set_l() -> Bx:
    """set_l lands on a different state with the same view (scratch bit flip),
    so writing back what was read is not a no-op."""
    return _mk("mutant-get_l-set_l",
               tuple((a, b, k) for a in (0, 1) for b in (0, 1) for k in (0, 1)),
               lambda s: (s[0], s),
               lambda a, s: (a, s[1], 1 - s[2]),
               lambda s: (s[1], s),
               lambda b, s: (s[0], b, s[2]))


def mutant_get_r_set_r() -> Bx:
    return replace(dual(mutant_get_l_set_l()), name="mutant-get_r-set_r")


def mutant_unstable() -> Bx:
    """Well-behaved, but set_r clobbers the left side whenever it actually
    changes the right one."""
    return _mk("mutant-unstable", BIT_PAIRS.elements,
               lambda s: (s[0], s),
               lambda a, s: (a, s[1]),
               lambda s: (s[1], s),
               lambda b, s: s if b == s[1] else (0, b))


def mutant_bad_init() -> Bx:
    """Initializer ignores its argument."""
    return replace(identity_bx(identity_family(), BIT), name="mutant-bad-init",
                   init_l=lambda _a: 0)


def broken_view_update_lens() -> Bx:
    """Lens whose update perturbs the hidden component, breaking the
    view-then-update round trip (and only the get_r/set_r law of the bx)."""
    l = Lens(
        view=lambda s: s[0],
        update=lambda s, v: (v, 1 - s[1]),
        create=lambda v: (v, 0),
    )
    return lens_to_bx(l, BIT_PAIRS, BIT, name="mutant-lens-vu")


def non_overwrite_lens() -> Lens:
    """Well-behaved but not very well-behaved: updating to a changed view
    resets the hidden component, so a second update cannot fully overwrite the
    first.  The widening of this lens is not a monad morphism."""
    return Lens(
        view=lambda s: s[0],
        update=lambda s, v: (v, s[1]) if v == s[0] else (v, 0),
        create=lambda v: (v, 0),
    )


# ---------------------------------------------------------------------------
# positive constructions


def _identity_over(fam: EffectFamily, name):
    return identity_bx(fam, BIT, name=name)


def _fst_lens_bx():
    return lens_to_bx(fst_lens(), BIT_PAIRS, BIT, name="fst-lens")


def _switch_reader():
    fam = reader_family((False, True), name="reader-bool")

    def pick(flag):
        if flag:
            return lens_to_bx(fst_lens(), BIT_PAIRS, BIT, fam=fam, name="fst")
        return lens_to_bx(
            Lens(
                lambda s: s[1],
                lambda s, v: (s[0], v),
                lambda v: (0, v),
            ),
            BIT_PAIRS,
            BIT,
            fam=fam,
            name="snd",
        )

    return switch_bx(fam, pick, name="switch-reader")


def _log_identity():
    fam = writer_family()
    return log_bx(identity_bx(fam, BIT))


def _alert_identity():
    fam = console_family(scripts=((),))
    return alert_bx(identity_bx(fam, BIT))


def _dynamic_identity():
    fam = identity_family()
    return dynamic_bx(
        fam,
        lambda a1, _b: a1,
        lambda _a, b1: b1,
        dom_a=BIT,
        dom_b=BIT,
        state_domain=dynamic_memo_states(BIT, BIT),
        name="dynamic-identity",
    )


def _dynamic_search():
    return dynamic_search_bx(lambda a, b: a == b, BIT, BIT)


def _nondet_2x2():
    fam = choice_family()
    return nondet_bx(
        fam,
        ok=lambda a, b: (a + b) % 2 == 0,
        bs=lambda a: [b for b in (0, 1) if (a + b) % 2 == 0],
        as_=lambda b: [a for a in (0, 1) if (a + b) % 2 == 0],
        dom_a=BIT,
        dom_b=BIT,
        name="nondet-parity",
    )


def _pair_identities():
    fam = identity_family()
    return pair_bx(identity_bx(fam, BIT, name="id1"), identity_bx(fam, BIT, name="id2"))


def _sum_identities():
    fam = identity_family()
    return sum_bx(identity_bx(fam, BIT, name="id1"), identity_bx(fam, BIT, name="id2"))


def _list_identity():
    fam = identity_family()
    return list_ibx(identity_bx(fam, BIT), max_len=2)


def _logging_component(fam=None):
    """Overwritable log-on-change component: keep-1 writer log, declared
    domain disjoint from the settable views so a set never writes the start
    state back."""
    fam = fam or writer_family(bound=1)
    wide = FiniteDomain("wide", (0, 1, 2, 3))
    base = identity_bx(fam, wide)
    return replace(
        log_bx(base),
        state_domain=FiniteDomain("off-states", (2, 3)),
        dom_a=BIT,
        dom_b=BIT,
    )


def _pair_logging():
    fam = writer_family(bound=1)
    return pair_bx(_logging_component(fam), _logging_component(fam))


# ---------------------------------------------------------------------------
# registry


@functools.cache
def corpus_entries() -> tuple:
    """The registered entries, in the order reports list them; built once."""
    return (
        CorpusEntry("identity", lambda: identity_bx(identity_family(), BIT),
                    ("seven", "overwritable", "stability", "init"), transparent=True),
        CorpusEntry("identity-failure",
                    lambda: _identity_over(failure_family(), "identity-failure"),
                    ("seven", "init"), transparent=True),
        CorpusEntry("identity-choice", lambda: _identity_over(choice_family(), "identity-choice"),
                    ("seven", "init"), transparent=True),
        CorpusEntry("identity-reader",
                    lambda: _identity_over(reader_family((0, 1)), "identity-reader"),
                    ("seven", "init"), transparent=True),
        CorpusEntry("identity-writer", lambda: _identity_over(writer_family(), "identity-writer"),
                    ("seven", "init"), transparent=True),
        CorpusEntry("identity-console",
                    lambda: _identity_over(console_family(scripts=((),)), "identity-console"),
                    ("seven", "init"), transparent=True),
        CorpusEntry("fst-lens", _fst_lens_bx, ("seven", "overwritable", "stability"),
                    transparent=True),
        CorpusEntry("fst-ibx", lambda: fst_ibx(identity_family(), BIT, BIT, default_b=0),
                    ("seven", "init"), transparent=True),
        CorpusEntry("snd-ibx", lambda: snd_ibx(identity_family(), BIT, BIT, default_a=0),
                    ("seven", "init"), transparent=True),
        CorpusEntry("const", lambda: const_bx(identity_family(), 0, BIT), ("seven", "init"),
                    transparent=True),
        CorpusEntry("swap-iso", lambda: swap_bx(identity_family(), BIT, BIT),
                    ("seven", "overwritable", "init"), transparent=True),
        CorpusEntry("inl", lambda: inl_bx(identity_family(), BIT, BIT, default_a=0),
                    ("seven", "init"), transparent=True),
        CorpusEntry("inr", lambda: inr_bx(identity_family(), BIT, BIT, default_b=0),
                    ("seven", "init"), transparent=True),
        CorpusEntry("pair-identities", _pair_identities, ("seven", "init"), transparent=True),
        CorpusEntry("sum-identities", _sum_identities, ("seven", "init"), transparent=True),
        CorpusEntry("list-identity", _list_identity, ("seven", "init"), transparent=True),
        CorpusEntry("composers", composers_symlens_bx, ("seven", "init"), transparent=True),
        CorpusEntry("inv", inv_bx, ("seven", "stability", "init"), transparent=True),
        CorpusEntry("read-some", read_some_bx, ("seven", "init"), transparent=True),
        CorpusEntry("nondet-parity", _nondet_2x2, ("seven", "init"), transparent=True),
        CorpusEntry("switch-reader", _switch_reader, ("seven",), transparent=False),
        CorpusEntry("log-identity", _log_identity, ("seven",),
                    expected_failing={"overwritable": ("set_l-set_l", "set_r-set_r")},
                    transparent=True),
        CorpusEntry("alert-identity", _alert_identity, ("seven",), transparent=True),
        CorpusEntry("dynamic-identity", _dynamic_identity, ("seven",), transparent=True),
        CorpusEntry("dynamic-search", _dynamic_search, ("seven",), transparent=True),
        CorpusEntry("logging-component", _logging_component, ("seven", "overwritable"),
                    transparent=True),
        CorpusEntry("pair-logging-not-overwritable", _pair_logging, ("seven", "overwritable"),
                    expected_failing={"overwritable": ("set_l-set_l", "set_r-set_r")},
                    transparent=True),

        CorpusEntry("mutant-get_l-get_l", mutant_get_l_get_l, ("seven",),
                    expected_failing={"seven": ("get_l-get_l",)},
                    expected_witness={"seven:get_l-get_l": {"s": "(0, 0)"}}),
        CorpusEntry("mutant-set_l-get_l", mutant_set_l_get_l, ("seven",),
                    expected_failing={"seven": ("set_l-get_l",)},
                    expected_witness={"seven:set_l-get_l": {"a": "0", "s": "(1, 0)"}}),
        CorpusEntry("mutant-get_l-set_l", mutant_get_l_set_l, ("seven",),
                    expected_failing={"seven": ("get_l-set_l",)},
                    expected_witness={"seven:get_l-set_l": {"s": "(0, 0, 0)"}}),
        CorpusEntry("mutant-get_r-get_r", mutant_get_r_get_r, ("seven",),
                    expected_failing={"seven": ("get_r-get_r",)},
                    expected_witness={"seven:get_r-get_r": {"s": "(0, 0)"}}),
        CorpusEntry("mutant-set_r-get_r", mutant_set_r_get_r, ("seven",),
                    expected_failing={"seven": ("set_r-get_r",)},
                    expected_witness={"seven:set_r-get_r": {"b": "0", "s": "(0, 1)"}}),
        CorpusEntry("mutant-get_r-set_r", mutant_get_r_set_r, ("seven",),
                    expected_failing={"seven": ("get_r-set_r",)},
                    expected_witness={"seven:get_r-set_r": {"s": "(0, 0, 0)"}}),
        CorpusEntry("mutant-get_l-get_r", mutant_get_l_get_r, ("seven",),
                    expected_failing={"seven": ("get_l-get_r",)},
                    expected_witness={"seven:get_l-get_r": {"s": "(0, 0)"}}),

        CorpusEntry("mutant-lens-vu", broken_view_update_lens, ("seven",),
                    expected_failing={"seven": ("get_r-set_r",)}),
        CorpusEntry("mutant-unstable", mutant_unstable, ("seven",),
                    expected_failing={"stability": ("stable-set_l-first",)}),
        CorpusEntry("mutant-bad-init", mutant_bad_init, ("seven",),
                    expected_failing={"init": ("init_l-get_l",)}),
    )


MUTANT_LAW_TARGETS = {
    "mutant-get_l-get_l": "get_l-get_l",
    "mutant-set_l-get_l": "set_l-get_l",
    "mutant-get_l-set_l": "get_l-set_l",
    "mutant-get_r-get_r": "get_r-get_r",
    "mutant-set_r-get_r": "set_r-get_r",
    "mutant-get_r-set_r": "get_r-set_r",
    "mutant-get_l-get_r": "get_l-get_r",
}


def select_entries(names=None) -> tuple:
    """The registered entries named in ``names`` (all of them when empty), in
    registry order; an unknown name is a ValueError listing the known ones."""
    entries = corpus_entries()
    if not names:
        return entries
    known = {entry.name for entry in entries}
    unknown = sorted(set(names) - known)
    if unknown:
        raise ValueError(
            f"unknown bx {', '.join(map(repr, unknown))}; known: {', '.join(sorted(known))}"
        )
    return tuple(entry for entry in entries if entry.name in names)


def recheck_witness(bx: Bx, suite: str, law_name: str, env: dict) -> bool:
    """Re-evaluate a recorded counterexample standalone; True when the
    inequality reproduces."""
    for law in CHECKS[Bx, suite].laws(bx):
        if law.name == law_name:
            lhs, rhs = law.evaluate(env)
            return not bx.effect.equal_values(lhs, rhs)
    raise KeyError(law_name)


def _entry_suites(entry: CorpusEntry):
    suites = set(entry.suites)
    suites.update(entry.expected_failing.keys())
    return tuple(s for s in BX_SUITES if s in suites)


# ---------------------------------------------------------------------------
# aggregate suites over the shipped effect families


def _families(reader_contexts):
    return (
        identity_family(),
        failure_family(),
        choice_family(),
        reader_family(reader_contexts),
        writer_family(),
        console_family(scripts=((), ("line",))),
    )


EXPECTED_COMMUTATIVE = {
    "identity": True,
    "failure": True,
    "reader": True,
    "choice": False,
    "writer": False,
    "console": False,
}


def run_monad_suite(cap=None, seed=0) -> dict:
    """Monad laws (plus zero absorption) for every shipped family on domains
    of size 1..3, commutativity verdicts against the expected table, and the
    fixed monad-morphism checks."""
    results = []
    ok = True
    doms = [
        FiniteDomain("d1", (0,)),
        FiniteDomain("d2", (0, 1)),
        FiniteDomain("d3", (0, 1, 2)),
    ]
    for fam in _families((0, 1, 2)):
        for dom in doms:
            report = check(fam, "monad", cap=cap, seed=seed, dom=dom)
            ok = ok and report.ok
            results.append(report.to_dict())
        dom_a = FiniteDomain("ca", (0, 1))
        dom_b = FiniteDomain("cb", (2, 3))
        commute = check(fam, "commutative", cap=cap, seed=seed, dom_a=dom_a, dom_b=dom_b)
        expected = EXPECTED_COMMUTATIVE[fam.name]
        verdict_ok = commute.ok == expected
        ok = ok and verdict_ok
        entry = commute.to_dict()
        entry["expected_commutative"] = expected
        entry["verdict_ok"] = verdict_ok
        results.append(entry)

    ident = identity_family()
    fail = failure_family()
    dom = FiniteDomain("m", (0, 1))
    morphisms = [
        ("identity-on-identity", lambda m: m, ident, ident, True),
        ("just-embedding", Just, ident, fail, True),
        ("const-nothing", lambda _m: NOTHING, ident, fail, False),
    ]
    for name, phi, src, dst, expected in morphisms:
        report = check(src, "morphism", cap=cap, seed=seed, phi=phi, dst=dst, dom=dom)
        verdict_ok = report.ok == expected
        ok = ok and verdict_ok
        entry = report.to_dict()
        entry["bx"] = name
        entry["expected_pass"] = expected
        entry["verdict_ok"] = verdict_ok
        results.append(entry)
    return {"reports": results, "ok": ok}


def run_state_suite(cap=None, seed=0) -> dict:
    """Get/set laws, discardable unused gets, lifting commutation, and the
    lift morphism, for every family over state domains of size 1..3."""
    results = []
    ok = True
    doms = [
        FiniteDomain("s1", (0,)),
        FiniteDomain("s2", (0, 1)),
        FiniteDomain("s3", (0, 1, 2)),
    ]
    for fam in _families((0, 1)):
        for dom in doms:
            report = check(fam, "state", cap=cap, seed=seed, state_domain=dom,
                           value_domain=BIT)
            ok = ok and report.ok
            results.append(report.to_dict())
        morphism = check(fam, "lift-morphism", cap=cap, seed=seed, state_domain=BIT,
                         value_domain=BIT)
        ok = ok and morphism.ok
        results.append(morphism.to_dict())
    return {"reports": results, "ok": ok}


def run_corpus(cap=None, seed=0, names=None) -> dict:
    """Run the suites of every registered entry (or of the entries named in
    ``names``), compare against the expected verdicts, and confirm each
    expected failure's witness (its stored inputs when declared and the law
    was checked exhaustively, plus standalone reproduction)."""
    results = []
    all_ok = True
    for entry in select_entries(names):
        bx = entry.build()
        problems = []
        suite_reports = {}
        for suite in _entry_suites(entry):
            try:
                report = check(bx, suite, cap=cap, seed=seed)
            except NoInitializers as exc:
                problems.append(f"{suite}: {exc}")
                continue
            suite_reports[suite] = report.to_dict()
            expected = set(entry.expected_failing.get(suite, ()))
            got = set(report.failing_laws)
            if got != expected:
                problems.append(
                    f"{suite}: failing laws {sorted(got)} != expected {sorted(expected)}"
                )
                continue
            for law_name in sorted(got):
                result = report.law(law_name)
                witness = result.failures[0]
                stored = entry.expected_witness.get(f"{suite}:{law_name}")
                # a sample need not draw the first failing assignment
                if (stored is not None and result.mode == "exhaustive"
                        and stored != witness.inputs):
                    problems.append(
                        f"{suite}:{law_name}: witness {witness.inputs} != stored {stored}"
                    )
                if not recheck_witness(bx, suite, law_name, witness.env):
                    problems.append(
                        f"{suite}:{law_name}: witness does not reproduce standalone"
                    )
        if entry.transparent is not None:
            analysis = analyze_transparency(bx)
            if analysis.transparent != entry.transparent:
                problems.append(
                    f"transparency {analysis.transparent} != expected {entry.transparent}"
                )
        ok = not problems
        all_ok = all_ok and ok
        results.append(
            {
                "name": entry.name,
                "ok": ok,
                "problems": problems,
                "suites": suite_reports,
            }
        )
    return {"entries": results, "ok": all_ok}


AGGREGATES = {"corpus": run_corpus, "monad": run_monad_suite, "state": run_state_suite}
