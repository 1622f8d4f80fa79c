"""Generic enumeration-driven law runner.

Every equational law in the library is represented as data: a quantifier list
(variable name plus its finite domain) and two value builders, both closed
over the law's subject.  One runner walks the assignment space, compares both
sides with the subject's equality, and produces a machine-readable LawReport
with counterexample witnesses.

Checking is exhaustive up to one evaluation cap (default 10**6 assignments
per law), applied only by ``run_laws``; above it a seeded random sample is
used, decoding one index per quantifier from a lazy ``Space``, so function
spaces are sampled without being built.  The mode is recorded in the report
so "pass" claims stay auditable.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .errors import DomainTooLarge

DEFAULT_CAP = 1_000_000
DEFAULT_SAMPLE = 400

_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def stable_repr(value) -> str:
    """repr with memory addresses masked, so reports stay byte-identical
    across runs even when witnesses contain function values."""
    return _ADDRESS.sub("0x..", repr(value))


@dataclass(frozen=True)
class FiniteDomain:
    """A finite carrier for exhaustive checking: distinct elements, ==-equality."""

    name: str
    elements: tuple

    def __post_init__(self):
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        seen = []
        for e in elems:
            if any(e == s for s in seen):
                raise ValueError(f"domain {self.name!r} has duplicate element {e!r}")
            seen.append(e)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"FiniteDomain({self.name}, {list(self.elements)!r})"


def domain(name, elements) -> FiniteDomain:
    return FiniteDomain(name, tuple(elements))


@dataclass(frozen=True)
class FiniteFunction:
    """A function given by its finite graph; hashable and printable so it can
    appear in witnesses."""

    keys: tuple
    values: tuple

    def __call__(self, x):
        for k, v in zip(self.keys, self.values):
            if k == x:
                return v
        raise KeyError(f"{x!r} outside function domain")

    def __repr__(self):
        entries = ", ".join(f"{k!r}->{v!r}" for k, v in zip(self.keys, self.values))
        return "{" + entries + "}"


@dataclass(frozen=True)
class Space:
    """A finite domain addressed by index: ``decode(i)`` builds element
    ``i < size`` on demand, so a space may exceed memory (or ``sys.maxsize``:
    use ``size``, not ``len``).  Iteration is in index order."""

    size: int
    decode: Callable[[int], Any]

    def __len__(self):
        return self.size

    def __iter__(self):
        return map(self.decode, range(self.size))

    def map(self, f) -> "Space":
        return Space(self.size, lambda i: f(self.decode(i)))


def enumerate_functions(dom: FiniteDomain, cod) -> Space:
    """The space of all functions ``dom -> cod`` (``cod`` any finite
    iterable).  Index ``i`` maps the ``j``-th key of ``dom`` to the value
    whose position is digit ``j`` of ``i`` in base ``len(cod)``."""
    keys = tuple(dom.elements)
    values = tuple(cod)
    base = len(values)

    def decode(index):
        picks = []
        for _ in keys:
            index, digit = divmod(index, base)
            picks.append(values[digit])
        return FiniteFunction(keys, tuple(picks))

    return Space(base ** len(keys), decode)


@dataclass(frozen=True)
class Law:
    """One equation: quantifiers plus two side builders.

    Each quantifier is ``(name, domain)``, where ``domain`` is a ``Space``, a
    ``FiniteDomain`` or any finite iterable.  ``lhs``/``rhs`` take ``env``,
    mapping variable names to chosen values, and return the values to
    compare (usually effect values); the law's subject is whatever they
    close over.
    """

    name: str
    quantifiers: tuple
    lhs: Callable[[dict], Any]
    rhs: Callable[[dict], Any]

    def __post_init__(self):
        object.__setattr__(self, "quantifiers", tuple(self.quantifiers))

    def evaluate(self, env):
        return self.lhs(env), self.rhs(env)


@dataclass(frozen=True)
class Witness:
    inputs: dict
    lhs: str
    rhs: str
    env: dict = field(compare=False, repr=False, default_factory=dict)

    def to_dict(self):
        return {"inputs": self.inputs, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class LawResult:
    name: str
    checked: int
    failures: tuple

    @property
    def ok(self):
        return not self.failures

    def to_dict(self):
        return {
            "name": self.name,
            "checked": self.checked,
            "failures": [w.to_dict() for w in self.failures],
        }


@dataclass(frozen=True)
class LawReport:
    """Verdict per law per instance, with witnesses for every failure."""

    subject: str
    mode: str
    laws: tuple
    effect: str = ""

    @property
    def ok(self):
        return all(r.ok for r in self.laws)

    def law(self, name) -> LawResult:
        for r in self.laws:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def failing_laws(self):
        return tuple(r.name for r in self.laws if not r.ok)

    def to_dict(self):
        return {
            "bx": self.subject,
            "effect": self.effect,
            "mode": self.mode,
            "ok": self.ok,
            "laws": [r.to_dict() for r in self.laws],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary_lines(self):
        lines = []
        for r in self.laws:
            status = "pass" if r.ok else "FAIL"
            line = f"{status}  {self.subject}  {r.name}  ({r.checked} checked)"
            if not r.ok:
                w = r.failures[0]
                line += f"  witness inputs={w.inputs} lhs={w.lhs} rhs={w.rhs}"
            lines.append(line)
        return lines


def _as_space(values) -> Space:
    if isinstance(values, Space):
        return values
    values = tuple(values)
    return Space(len(values), values.__getitem__)


def _assignments(spaces, cap, sample, seed):
    """Yield (mode, iterator of value tuples) over the product of ``spaces``:
    every tuple in order when there are at most ``cap`` of them, else
    ``sample`` seeded draws, one decoded index per space."""
    total = math.prod(d.size for d in spaces)
    if total == 0:  # vacuous quantification: build no other space
        return "exhaustive", iter(())
    if not spaces or total <= cap:
        return "exhaustive", itertools.product(*spaces)
    if sample is None:
        raise DomainTooLarge(f"{total} assignments exceeds cap {cap}")
    rng = random.Random(seed)

    def sampled():
        for _ in range(sample):
            yield tuple(d.decode(rng.randrange(d.size)) for d in spaces)

    return f"sampled(n={sample},seed={seed})", sampled()


def run_laws(subject_name: str, laws, equal,
             cap: Optional[int] = DEFAULT_CAP, sample: Optional[int] = DEFAULT_SAMPLE,
             seed: int = 0, max_witnesses: int = 3, effect: str = "") -> LawReport:
    """Run a list of laws and collect a LawReport named ``subject_name``.

    ``equal`` compares both sides.  Each quantifier's domain is taken as a
    ``Space`` (a tuple of its elements unless it is one already).  A law with
    more than ``cap`` assignments (the product of the domain sizes) is
    checked on ``sample`` seeded draws instead, function-valued quantifiers
    included.  Output ordering is deterministic: laws in given order,
    assignments in enumeration order (or in seeded sample order above the
    cap).  ``cap=None`` means the default cap; pass ``sample=None`` to get
    DomainTooLarge instead of sampling.
    """
    if cap is None:
        cap = DEFAULT_CAP
    results = []
    modes = set()
    for law in laws:
        spaces = [_as_space(dom) for _name, dom in law.quantifiers]
        names = [name for name, _dom in law.quantifiers]
        mode, assignments = _assignments(spaces, cap, sample, seed)
        modes.add(mode)
        checked = 0
        failures = []
        for values in assignments:
            env = dict(zip(names, values))
            lhs, rhs = law.evaluate(env)
            checked += 1
            if not equal(lhs, rhs):
                if len(failures) < max_witnesses:
                    failures.append(
                        Witness(
                            inputs={k: stable_repr(v) for k, v in env.items()},
                            lhs=stable_repr(lhs),
                            rhs=stable_repr(rhs),
                            env=env,
                        )
                    )
        results.append(LawResult(law.name, checked, tuple(failures)))
    mode = "exhaustive" if modes <= {"exhaustive"} else ", ".join(sorted(modes - {"exhaustive"}))
    return LawReport(subject=subject_name, mode=mode, laws=tuple(results), effect=effect)

