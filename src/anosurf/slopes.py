"""Surgery slope arithmetic.

A slope q/p names the filling curve p*l + q*m on the boundary torus of
the knot exterior, written with the longitude coefficient p as the
denominator. Slopes are stored reduced with p >= 0; the meridian itself
is the infinite slope (0, 1). The zero filling (1, 0) is the fibered
sol-manifold, and the integer fillings p == 1 are the ones that matter
for flow existence.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple, Union

from . import _schema
from .errors import SlopeFormatError

_SLOPE_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?$", re.ASCII)


@dataclass(frozen=True)
class Slope:
    """A reduced filling slope. q is the meridian coefficient, p the
    longitude coefficient; q/p is the usual rational name."""

    q: int
    p: int

    def __post_init__(self):
        q, p = self.q, self.p
        if not (isinstance(q, int) and isinstance(p, int)) or type(q) is bool or type(p) is bool:
            raise SlopeFormatError(f"({q}, {p})", "coefficients must be integers")
        if p == 0 and q == 0:
            raise SlopeFormatError("0/0", "both coefficients vanish")
        if p < 0:
            raise SlopeFormatError(f"{q}/{p}", "denominator must be normalized to p >= 0")
        if math.gcd(p, q) != 1:
            raise SlopeFormatError(f"{q}/{p}", "coefficients must be coprime")
        if p == 0 and q != 1:
            raise SlopeFormatError(f"{q}/{p}", "the infinite slope is stored as 1/0")

    @staticmethod
    def of(q: int, p: int = 1) -> "Slope":
        """Build a slope from an arbitrary integer pair, reducing it."""
        # reduction would turn True into the integer 1 before Slope sees it
        if type(q) is bool or type(p) is bool:
            raise SlopeFormatError(f"({q}, {p})", "coefficients must be integers")
        if p == 0 and q == 0:
            raise SlopeFormatError("0/0", "both coefficients vanish")
        return Slope(*_reduced(p, q))

    @property
    def is_infinity(self) -> bool:
        return self.p == 0

    @property
    def height(self) -> int:
        return max(self.p, abs(self.q))

    def as_fraction(self) -> Fraction:
        if self.is_infinity:
            raise SlopeFormatError("inf", "the infinite slope has no rational value")
        return Fraction(self.q, self.p)

    def __str__(self) -> str:
        if self.is_infinity:
            return "inf"
        if self.p == 1:
            return str(self.q)
        return f"{self.q}/{self.p}"


def _reduced(p: int, q: int) -> Tuple[int, int]:
    """The slope of the nonzero class (p, q) as a reduced pair (q, p), with
    p >= 0 and the meridian as (1, 0): the one reduction of an integer
    pair, which Slope.of and the slope law checks share."""
    g = math.gcd(p, q)
    if (p, q) < (0, 0):  # p < 0, or the meridian written with q < 0
        g = -g
    return q // g, p // g


def _from_reduced(q: int, p: int) -> Slope:
    """The Slope (q, p) without the checks of __post_init__, for a pair
    that _reduced produced: both are ints, not bools, p >= 0,
    gcd(p, q) == 1 (so not both 0), and the meridian is (1, 0). Any other
    pair goes through Slope or Slope.of."""
    slope = object.__new__(Slope)
    fields = slope.__dict__
    fields["q"], fields["p"] = q, p
    return slope


INFINITY = Slope(1, 0)
ZERO = Slope(0, 1)


def parse_slope(text: Union[str, int, Fraction, "Slope"]) -> Slope:
    """Parse a slope from CLI or JSON spellings.

    Accepts "7/2", "-3", "0", "inf" (or "oo"), plain ints, Fractions,
    and Slope instances (returned unchanged).
    """
    if isinstance(text, Slope):
        return text
    if isinstance(text, int):
        return Slope.of(text, 1)
    if isinstance(text, Fraction):
        return Slope.of(text.numerator, text.denominator)
    if not isinstance(text, str):
        raise SlopeFormatError(repr(text), "unsupported type")
    stripped = text.strip().lower()
    if stripped in ("inf", "oo", "infinity"):
        return INFINITY
    m = _SLOPE_RE.match(text)
    if m is None:
        raise SlopeFormatError(text, "expected q, q/p, or inf")
    try:
        q = int(m.group(1))
        p = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError:    # more digits than int() converts
        raise SlopeFormatError(text, "too many digits") from None
    return Slope.of(q, p)


def up_to_height(h: int) -> Iterator[Slope]:
    """The finite slopes of height at most h, each once, by p and then q."""
    for p in range(1, h + 1):
        for q in range(-h, h + 1):
            if math.gcd(p, q) == 1:
                yield Slope(q, p)


def intersection_number(a: Slope, b: Slope) -> int:
    """Geometric intersection number of the two filling curves."""
    return abs(a.p * b.q - b.p * a.q)


def is_hyperbolic(slope: Slope) -> bool:
    """Whether the filling along this slope is a hyperbolic manifold.

    The infinite filling gives the three-sphere, and the nine integer
    fillings with |q| <= 4 (q = -4, ..., 4) are non-hyperbolic too; with
    the infinite one they make the ten exceptional slopes. Every other
    filling is hyperbolic.
    """
    if slope.is_infinity:
        return False
    return not (slope.p == 1 and abs(slope.q) <= 4)


# ---------------------------------------------------------------------------
# Admissible slope sets attached to catalog entries.

# One row per kind: the JSON key of its slope parameter (None when it
# takes none), whether it takes a count, and its membership test. Every
# set here is a set of boundary slopes of compact laminations, so the
# infinite slope (q, p) = (1, 0) is a member only of AllRationals sets,
# never of order comparisons: GreaterThan(b) is False at infinity.
# AdmissibleSet refuses any other set whose membership test holds there.
_KINDS = {
    "AllRationals": (None, False, lambda adm, s: True),
    "Only": ("slope", False, lambda adm, s: s == adm.slope),
    "IntegerDenominatorAtLeast2": (None, False, lambda adm, s: s.p >= 2),
    "GreaterThan": ("bound", False,
                    lambda adm, s: s.p != 0 and s.q * adm.slope.p > adm.slope.q * s.p),
    "IntersectionWithAtLeast": (
        "anchor", True, lambda adm, s: intersection_number(s, adm.slope) >= adm.count),
    "IntersectionWithMoreThan": (
        "anchor", True, lambda adm, s: intersection_number(s, adm.slope) > adm.count),
}


@dataclass(frozen=True)
class AdmissibleSet:
    """A predicate on slopes, serialized by kind plus parameters.

    kind                         parameters
    AllRationals                 none
    Only                         slope
    IntegerDenominatorAtLeast2   none (p >= 2)
    GreaterThan                  bound (finite slopes strictly above it)
    IntersectionWithAtLeast      anchor, count
    IntersectionWithMoreThan     anchor, count
    """

    kind: str
    slope: Optional[Slope] = None
    count: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown admissible kind {self.kind!r}")
        key, takes_count, contains = _KINDS[self.kind]
        if (self.slope is None) != (key is None):
            raise ValueError(f"{self.kind} requires a {key}" if key
                             else f"{self.kind} takes no slope")
        if self.kind == "GreaterThan" and self.slope.is_infinity:
            raise ValueError("GreaterThan requires a finite bound")
        if not ((type(self.count) is int and self.count >= 0) if takes_count
                else self.count is None):
            raise ValueError(f"{self.kind} takes {'a nonnegative integer' if takes_count else 'no'}"
                             f" count, not {self.count!r}")
        if self.kind != "AllRationals" and contains(self, INFINITY):
            raise ValueError(f"{self.kind} set contains the infinite slope, "
                             f"which only AllRationals sets do")

    def to_json(self) -> dict:
        key, takes_count, _ = _KINDS[self.kind]
        doc = {"kind": self.kind}
        if key is not None:
            doc[key] = str(self.slope)
        if takes_count:
            doc["count"] = self.count
        return doc

    @staticmethod
    def from_json(doc: dict) -> "AdmissibleSet":
        return _admissible(_schema.validate(doc, "entry", "admissible"))


def _admissible(doc: dict) -> AdmissibleSet:
    """The set of a record that has the shape of entry.schema.json's admissible."""
    key = _KINDS[doc["kind"]][0]
    return AdmissibleSet(kind=doc["kind"], slope=None if key is None else parse_slope(doc[key]),
                         count=doc.get("count"))


def eval_admissible(adm: AdmissibleSet, slope: Slope) -> bool:
    """Decide membership of a slope in an admissible set."""
    return _KINDS[adm.kind][2](adm, slope)
