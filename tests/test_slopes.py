from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anosurf.errors import SlopeFormatError
from anosurf.slopes import (
    INFINITY,
    ZERO,
    AdmissibleSet,
    Slope,
    eval_admissible,
    intersection_number,
    is_hyperbolic,
    parse_slope,
)


class TestSlopeConstruction:
    def test_of_reduces(self):
        assert Slope.of(14, 4) == Slope(7, 2)
        assert Slope.of(0, 5) == ZERO
        assert Slope.of(-6, 4) == Slope(-3, 2)

    def test_of_normalizes_negative_denominator(self):
        assert Slope.of(3, -2) == Slope(-3, 2)
        assert Slope.of(-3, -2) == Slope(3, 2)

    def test_of_infinite(self):
        assert Slope.of(5, 0) == INFINITY
        assert Slope.of(-1, 0) == INFINITY

    def test_invalid_pairs_rejected(self):
        with pytest.raises(SlopeFormatError):
            Slope(2, 4)          # not reduced
        with pytest.raises(SlopeFormatError):
            Slope(1, -1)         # negative denominator
        with pytest.raises(SlopeFormatError):
            Slope(0, 0)
        with pytest.raises(SlopeFormatError):
            Slope(3, 0)          # infinity is stored as 1/0
        with pytest.raises(SlopeFormatError):
            Slope.of(0, 0)
        with pytest.raises(SlopeFormatError):
            Slope(True, 1)       # a bool is not a coefficient
        with pytest.raises(SlopeFormatError):
            Slope.of(True, 1)
        with pytest.raises(SlopeFormatError):
            Slope.of(3, False)

    @settings(max_examples=300)
    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
    @example(5, 0)
    @example(-1, 0)
    @example(0, 0)
    @example(0, -7)
    @example(6, -4)
    def test_of_is_the_reduction_through_fraction(self, q, p):
        if p == q == 0:
            with pytest.raises(SlopeFormatError):
                Slope.of(q, p)
            return
        value = INFINITY if p == 0 else Slope(Fraction(q, p).numerator,
                                              Fraction(q, p).denominator)
        assert Slope.of(q, p) == value
        for bad in ((True, p), (q, False)):
            with pytest.raises(SlopeFormatError):
                Slope.of(*bad)

    def test_properties(self):
        s = Slope(7, 2)
        assert not s.is_infinity
        assert s.height == 7
        assert Slope(-3, 5).height == 5
        assert INFINITY.is_infinity
        assert s.as_fraction() == Fraction(7, 2)
        with pytest.raises(SlopeFormatError):
            INFINITY.as_fraction()

    def test_ordering_and_str(self):
        # slopes compare for equality only; callers sort by as_fraction()
        with pytest.raises(TypeError):
            Slope(-5, 1) < ZERO
        assert str(Slope(7, 2)) == "7/2"
        assert str(Slope(-3, 1)) == "-3"
        assert str(INFINITY) == "inf"


class TestParse:
    @pytest.mark.parametrize("text,expected", [
        ("7/2", Slope(7, 2)),
        (" -3 ", Slope(-3, 1)),
        ("0", ZERO),
        ("14/4", Slope(7, 2)),
        ("3/-2", Slope(-3, 2)),
        ("inf", INFINITY),
        ("oo", INFINITY),
        ("Infinity", INFINITY),
        ("5/0", INFINITY),
        (7, Slope(7, 1)),
        (Fraction(9, 6), Slope(3, 2)),
        (Slope(1, 3), Slope(1, 3)),
    ])
    def test_accepted(self, text, expected):
        assert parse_slope(text) == expected

    @pytest.mark.parametrize("text", [
        "", "q/p", "1.5", "1/2/3", "0/0", None, 2.5,
        pytest.param("\u0969/2", id="devanagari-digit"),
        pytest.param("9" * 5000, id="5000-digits"),
        pytest.param(True, id="true"),
        pytest.param(False, id="false"),
    ])
    def test_rejected(self, text):
        with pytest.raises(SlopeFormatError):
            parse_slope(text)


# slope-shaped text, with any Unicode digits the regex engine picks
SLOPE_LIKE = st.from_regex(r"\s*-?\d{1,40}\s*(/\s*-?\d{1,40}\s*)?", fullmatch=True)
FINITE_SLOPES = st.builds(Slope.of, st.integers(-10**40, 10**40),
                          st.integers(1, 10**40))


class TestParseProperties:
    @settings(max_examples=200)
    @given(FINITE_SLOPES)
    def test_str_round_trips(self, slope):
        assert parse_slope(str(slope)) == slope

    @settings(max_examples=100)
    @given(st.one_of(st.text(), SLOPE_LIKE))
    def test_text_fails_only_with_slope_format_error(self, text):
        try:
            slope = parse_slope(text)
        except SlopeFormatError:
            return
        assert isinstance(slope, Slope)


class TestIntersection:
    def test_symmetric(self):
        a, b = Slope(7, 2), Slope(4, 1)
        assert intersection_number(a, b) == intersection_number(b, a) == 1

    def test_with_meridian(self):
        # the meridian meets q/p in p points
        assert intersection_number(Slope(7, 2), INFINITY) == 2
        assert intersection_number(Slope(4, 1), INFINITY) == 1

    def test_self_zero(self):
        assert intersection_number(Slope(5, 3), Slope(5, 3)) == 0


class TestHyperbolicity:
    def test_exceptional_integers(self):
        for q in range(-4, 5):
            assert not is_hyperbolic(Slope(q, 1))
        assert is_hyperbolic(Slope(5, 1))
        assert is_hyperbolic(Slope(-5, 1))

    def test_noninteger_always_hyperbolic(self):
        assert is_hyperbolic(Slope(1, 2))
        assert is_hyperbolic(Slope(-7, 3))

    def test_trivial_filling_flagged(self):
        assert not is_hyperbolic(INFINITY)


class TestAdmissibleSets:
    def test_roundtrip_each_kind(self):
        sets = [
            AdmissibleSet("AllRationals"),
            AdmissibleSet("Only", slope=ZERO),
            AdmissibleSet("IntegerDenominatorAtLeast2"),
            AdmissibleSet("GreaterThan", slope=Slope(3, 1)),
            AdmissibleSet("IntersectionWithAtLeast", slope=Slope(4, 1), count=2),
            AdmissibleSet("IntersectionWithMoreThan", slope=Slope(4, 1), count=1),
        ]
        for adm in sets:
            assert AdmissibleSet.from_json(adm.to_json()) == adm

    def test_json_key_depends_on_kind(self):
        assert AdmissibleSet("Only", slope=ZERO).to_json() == {
            "kind": "Only", "slope": "0"}
        assert AdmissibleSet("GreaterThan", slope=Slope(3, 1)).to_json() == {
            "kind": "GreaterThan", "bound": "3"}
        doc = AdmissibleSet("IntersectionWithAtLeast",
                            slope=Slope(4, 1), count=2).to_json()
        assert doc == {"kind": "IntersectionWithAtLeast", "anchor": "4", "count": 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissibleSet("Only")
        with pytest.raises(ValueError):
            AdmissibleSet("IntersectionWithAtLeast", slope=Slope(4, 1))
        with pytest.raises(ValueError):
            AdmissibleSet("NoSuchKind")
        with pytest.raises(ValueError):
            AdmissibleSet.from_json({"kind": "NoSuchKind"})
        # a kind takes exactly the parameters of its row
        with pytest.raises(ValueError):
            AdmissibleSet("Only", slope=ZERO, count=1)
        with pytest.raises(ValueError):
            AdmissibleSet("AllRationals", slope=Slope(4, 1))
        with pytest.raises(ValueError):
            AdmissibleSet("IntegerDenominatorAtLeast2", count=0)
        with pytest.raises(ValueError):
            AdmissibleSet.from_json({"kind": "Only", "slope": "0", "bound": "5"})
        with pytest.raises(ValueError):
            AdmissibleSet.from_json({"kind": "GreaterThan", "bound": 3})
        with pytest.raises(ValueError):
            AdmissibleSet.from_json({"kind": "AllRationals", "anchor": "4"})
        with pytest.raises(ValueError):
            AdmissibleSet.from_json({"kind": "Only", "slope": "0", "count": 1})

    @pytest.mark.parametrize("kind,slope,count", [
        ("Only", INFINITY, None),
        ("IntersectionWithAtLeast", Slope(4, 1), 1),      # the meridian meets 4 once
        ("IntersectionWithAtLeast", Slope(4, 1), 0),
        ("IntersectionWithMoreThan", Slope(4, 1), 0),
        ("IntersectionWithMoreThan", Slope(1, 3), 2),     # ... and 1/3 three times
    ])
    def test_only_all_rationals_contains_infinity(self, kind, slope, count):
        with pytest.raises(ValueError, match="infinite slope"):
            AdmissibleSet(kind, slope=slope, count=count)

    def test_sets_without_infinity_are_accepted(self):
        # the meridian meets itself nowhere, so the count may be anything
        assert not eval_admissible(
            AdmissibleSet("IntersectionWithAtLeast", slope=INFINITY, count=1), INFINITY)
        assert not eval_admissible(
            AdmissibleSet("IntersectionWithMoreThan", slope=Slope(1, 3), count=3), INFINITY)

    def test_eval_core_kinds(self):
        assert eval_admissible(AdmissibleSet("AllRationals"), INFINITY)
        only0 = AdmissibleSet("Only", slope=ZERO)
        assert eval_admissible(only0, ZERO)
        assert not eval_admissible(only0, Slope(1, 1))
        nonint = AdmissibleSet("IntegerDenominatorAtLeast2")
        assert eval_admissible(nonint, Slope(7, 2))
        assert not eval_admissible(nonint, Slope(7, 1))
        assert not eval_admissible(nonint, INFINITY)

    def test_eval_order_comparison_excludes_infinity(self):
        above3 = AdmissibleSet("GreaterThan", slope=Slope(3, 1))
        assert eval_admissible(above3, Slope(7, 2))
        assert not eval_admissible(above3, Slope(3, 1))
        assert not eval_admissible(above3, INFINITY)

    def test_greater_than_matches_rational_order(self):
        grid = {Slope.of(q, p) for p in range(1, 9) for q in range(-12, 13)}
        for bound in (Slope(3, 1), Slope(-7, 2), Slope(5, 3), ZERO):
            above = AdmissibleSet("GreaterThan", slope=bound)
            for s in grid:
                assert eval_admissible(above, s) == (s.as_fraction() > bound.as_fraction()), \
                    (str(bound), str(s))

    def test_eval_intersection_kinds(self):
        atleast2 = AdmissibleSet("IntersectionWithAtLeast", slope=Slope(4, 1), count=2)
        # |4p - q| >= 2
        assert eval_admissible(atleast2, Slope(1, 1))       # |4-1| = 3
        assert not eval_admissible(atleast2, Slope(7, 2))   # |8-7| = 1
        assert not eval_admissible(atleast2, INFINITY)      # meridian meets 4 once
        morethan1 = AdmissibleSet("IntersectionWithMoreThan", slope=Slope(4, 1), count=1)
        assert not eval_admissible(morethan1, Slope(7, 2))
        assert eval_admissible(morethan1, Slope(1, 2))      # |8-1| = 7
