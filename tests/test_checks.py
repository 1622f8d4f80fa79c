"""The checker table: the domains of each entry, and what ``check`` refuses."""

import inspect

import pytest

from effectbx import CHECKS, FiniteDomain, check, identity_bx, identity_family

BIT = FiniteDomain("bit", (0, 1))


def test_every_entry_names_the_domains_its_law_builder_takes():
    for key, entry in CHECKS.items():
        parameters = tuple(inspect.signature(entry.laws).parameters)
        assert parameters[1:] == entry.domains, key
        assert entry.family is None or entry.family in entry.domains, key


def test_check_refuses_a_suite_that_its_subject_has_not():
    with pytest.raises(ValueError, match="^no suite 'monad' for a Bx; known: seven, "
                                         "overwritable, stability, init, equivalence$"):
        check(identity_bx(identity_family(), BIT), "monad")
