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
from typing import Optional, Union

from .errors import SlopeFormatError

_SLOPE_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?$", re.ASCII)


@dataclass(frozen=True, order=False)
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
        if p < 0:
            p, q = -p, -q
        if p == 0:
            return Slope(1, 0)
        g = math.gcd(p, q)
        return Slope(q // g, p // g)

    @property
    def is_infinity(self) -> bool:
        return self.p == 0

    @property
    def is_integer(self) -> bool:
        return self.p == 1

    @property
    def height(self) -> int:
        return max(self.p, abs(self.q))

    def as_fraction(self) -> Fraction:
        if self.is_infinity:
            raise SlopeFormatError("inf", "the infinite slope has no rational value")
        return Fraction(self.q, self.p)

    def __lt__(self, other: "Slope") -> bool:
        return self.as_fraction() < other.as_fraction()

    def __le__(self, other: "Slope") -> bool:
        return self.as_fraction() <= other.as_fraction()

    def __gt__(self, other: "Slope") -> bool:
        return self.as_fraction() > other.as_fraction()

    def __ge__(self, other: "Slope") -> bool:
        return self.as_fraction() >= other.as_fraction()

    def __str__(self) -> str:
        if self.is_infinity:
            return "inf"
        if self.p == 1:
            return str(self.q)
        return f"{self.q}/{self.p}"

    def to_json(self) -> str:
        return str(self)


def _from_reduced(q: int, p: int) -> Slope:
    """The Slope (q, p) without the checks of __post_init__, for a pair
    that traintrack._reduced produced: both are ints, not bools, p >= 0,
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
    if p == 0 and q == 0:
        raise SlopeFormatError(text, "both coefficients vanish")
    if p == 0:
        return INFINITY
    return Slope.of(q, p)


def intersection_number(a: Slope, b: Slope) -> int:
    """Geometric intersection number of the two filling curves."""
    return abs(a.p * b.q - b.p * a.q)


def is_hyperbolic(slope: Slope) -> bool:
    """Whether the filling along this slope is a hyperbolic manifold.

    The infinite filling gives the three-sphere, and the ten integer
    fillings with |q| <= 4 are the non-hyperbolic exceptional ones; every
    other filling is hyperbolic.
    """
    if slope.is_infinity:
        return False
    return not (slope.p == 1 and abs(slope.q) <= 4)


# ---------------------------------------------------------------------------
# Admissible slope sets attached to catalog entries.

_ADMISSIBLE_KINDS = (
    "AllRationals",
    "Only",
    "IntegerDenominatorAtLeast2",
    "GreaterThan",
    "IntersectionWithAtLeast",
    "IntersectionWithMoreThan",
)


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
        if self.kind not in _ADMISSIBLE_KINDS:
            raise ValueError(f"unknown admissible kind {self.kind!r}")
        needs_slope = self.kind in ("Only", "GreaterThan",
                                    "IntersectionWithAtLeast", "IntersectionWithMoreThan")
        if needs_slope and self.slope is None:
            raise ValueError(f"{self.kind} requires a slope parameter")
        needs_count = self.kind in ("IntersectionWithAtLeast", "IntersectionWithMoreThan")
        if needs_count and (self.count is None or self.count < 0):
            raise ValueError(f"{self.kind} requires a nonnegative count")

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        if self.slope is not None:
            key = "bound" if self.kind == "GreaterThan" else (
                "slope" if self.kind == "Only" else "anchor")
            doc[key] = str(self.slope)
        if self.count is not None:
            doc["count"] = self.count
        return doc

    @staticmethod
    def from_json(doc: dict) -> "AdmissibleSet":
        kind = doc.get("kind")
        if kind not in _ADMISSIBLE_KINDS:
            raise ValueError(f"unknown admissible kind {kind!r}")
        slope = None
        for key in ("slope", "bound", "anchor"):
            if key in doc:
                slope = parse_slope(doc[key])
        return AdmissibleSet(kind=kind, slope=slope, count=doc.get("count"))


def eval_admissible(adm: AdmissibleSet, slope: Slope) -> bool:
    """Decide membership of a slope in an admissible set.

    Every set here is a set of boundary slopes of compact laminations,
    so the infinite slope is a member only of AllRationals sets, never
    of order comparisons. GreaterThan(b) is False at infinity.
    """
    if adm.kind == "AllRationals":
        return True
    if adm.kind == "Only":
        return slope == adm.slope
    if adm.kind == "IntegerDenominatorAtLeast2":
        return (not slope.is_infinity) and slope.p >= 2
    if adm.kind == "GreaterThan":
        if slope.is_infinity:
            return False
        return slope > adm.slope
    if adm.kind == "IntersectionWithAtLeast":
        return intersection_number(slope, adm.slope) >= adm.count
    if adm.kind == "IntersectionWithMoreThan":
        return intersection_number(slope, adm.slope) > adm.count
    raise ValueError(f"unknown admissible kind {adm.kind!r}")
