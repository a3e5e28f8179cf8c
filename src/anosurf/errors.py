"""Exception hierarchy shared by every anosurf module.

Each exception carries enough structured context to be reported by the
CLI without re-parsing the message text, and the CLI exit code it maps to.
"""

from __future__ import annotations


class AnosurfError(Exception):
    """Base class for all errors raised by this package.

    `exit_code` is the CLI's exit status for the error:
    3  SlopeFormatError, UnsupportedSlopeError: a bad or unsupported slope
    4  ClassificationGapError, SlopeLawError: a mathematical check failed
    5  every other class, by default: unusable catalog data
    """

    exit_code = 5


class SlopeFormatError(AnosurfError, ValueError):
    """A surgery coefficient string or pair could not be interpreted."""

    exit_code = 3

    def __init__(self, text: str, reason: str):
        self.text = text
        self.reason = reason
        super().__init__(f"bad slope {text!r}: {reason}")


class UnsupportedSlopeError(AnosurfError, ValueError):
    """A well-formed slope lies outside the domain of the operation.

    The classifier raises this for the infinite filling, whose result
    is the three-sphere and which carries no Anosov flow for reasons
    that never touch the catalog.
    """

    exit_code = 3

    def __init__(self, slope, reason: str):
        self.slope = slope
        self.reason = reason
        super().__init__(f"slope {slope} unsupported: {reason}")


class SwitchSystemError(AnosurfError, ValueError):
    """A train track fails structural validation."""

    def __init__(self, track_id: str, detail: str):
        self.track_id = track_id
        self.detail = detail
        super().__init__(f"track {track_id!r}: {detail}")


class MonogonError(SwitchSystemError):
    """A branch returns to the same side of the same switch.

    Such a branch bounds a monogon region, which is never allowed in
    the boundary tracks handled here.
    """

    def __init__(self, track_id: str, branch_id: str):
        self.branch_id = branch_id
        super().__init__(track_id, f"branch {branch_id!r} bounds a monogon")


class SpineCaseError(AnosurfError, ValueError):
    """A weight vector matches none of the supported zero patterns.

    The case split is stated up to the symmetries of the spine, whose
    edge action moves every zero pattern a balanced complex can realize
    onto a supported one, so this is defensive: it can only fire on
    weight data that did not come from a validated complex.
    """

    def __init__(self, weights: dict, zero_edges: tuple):
        self.weights = dict(weights)
        self.zero_edges = tuple(zero_edges)
        super().__init__(
            f"no case covers zero pattern {sorted(self.zero_edges)!r} "
            f"(weights {self.weights!r})"
        )


class UnsupportedComplexError(AnosurfError, ValueError):
    """A Q-complex is valid on the spine but is none of the catalog's
    canonical complexes, so no boundary track ships for it."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


class ComplementShapeError(AnosurfError, ValueError):
    """A complement record has the wrong shape for the requested quantity."""

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail
        super().__init__(f"complement kind {kind!r}: {detail}")


class CatalogIntegrityError(AnosurfError):
    """Catalog data failed checksum or structural verification."""

    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"catalog at {path}: {detail}")


class CatalogKeyError(AnosurfError, KeyError):
    """Lookup of an unknown catalog entry or family."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no catalog entry or family named {key!r}")

    def __str__(self) -> str:
        # KeyError's own __str__ would repr the message, quotes and all
        return self.args[0]


class SlopeLawError(AnosurfError):
    """A realized boundary slope violates the family's slope law."""

    exit_code = 4

    def __init__(self, family: str, detail: str):
        self.family = family
        self.detail = detail
        super().__init__(f"family {family}: {detail}")


class ClassificationGapError(AnosurfError):
    """The exclusion machinery could not finish an argument.

    Raised instead of returning a partial trace, so a gap can never be
    mistaken for a completed classification.
    """

    exit_code = 4

    def __init__(self, entry_id: str, slope, detail: str):
        self.entry_id = entry_id
        self.slope = slope
        self.detail = detail
        super().__init__(f"entry {entry_id}, slope {slope}: {detail}")
