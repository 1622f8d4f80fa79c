"""Exception types shared across the library."""


class EffectbxError(Exception):
    """Base class for all library errors."""


class UnobservableEffect(EffectbxError):
    """Laws cannot be decided: the effect family declares no (total)
    equality, or a subject declares no finite domain to quantify over."""


class ScriptExhausted(EffectbxError):
    """A console computation tried to read past the end of its input script."""


class DomainTooLarge(EffectbxError):
    """A law's assignments exceed the evaluation cap with sampling disabled,
    or a domain closure does not converge."""


class NoInitializers(EffectbxError, ValueError):
    """The init suite was asked of a bx that carries no initializers."""


class BaseLawsViolated(EffectbxError):
    """The base effect's native get/set operations fail a required state law."""

    def __init__(self, law_name, witness=None):
        super().__init__(f"base state law violated: {law_name}")
        self.law_name = law_name
        self.witness = witness


class NotTransparent(EffectbxError):
    """Composition (or a combinator) requires transparent arguments."""

    def __init__(self, which):
        super().__init__(f"bx is not transparent: {which}")
        self.which = which


class MiddleTypeMismatch(EffectbxError):
    """The shared middle view domains of two composed bx disagree."""


class NotBijective(EffectbxError):
    """A claimed state bijection is not a bijection on the declared domains."""


class KeyViolation(EffectbxError):
    """A view passed to the composers example repeats a name key."""
