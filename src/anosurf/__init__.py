"""Count Anosov flows on Dehn fillings of the figure eight knot.

The package classifies each filling slope into exactly one of three
outcomes: a unique Anosov flow (integer slopes), the suspension flow
itself (the zero slope), or no Anosov flow at all (every noninteger
slope), with a machine checked exclusion trace for every branched
surface that could have carried one. All fillings carry taut
foliations, so the noninteger ones separate the two notions.
"""

from .catalog import (
    Catalog,
    CatalogEntry,
    candidates_for,
    check_catalog,
    complement_components,
    load_catalog,
    slope_law_check,
)
from .classifier import (
    ClassificationResult,
    ExclusionTrace,
    NO_ANOSOV,
    SUSPENSION_ANOSOV,
    TraceStep,
    UNIQUE_ANOSOV,
    classify,
    exclusion_reason,
    fenley_power_admissible,
    unique_flow_argument,
)
from .errors import (
    AnosurfError,
    CatalogIntegrityError,
    CatalogKeyError,
    ClassificationGapError,
    ComplementShapeError,
    MonogonError,
    SlopeFormatError,
    SlopeLawError,
    SpineCaseError,
    SwitchSystemError,
    UnsupportedComplexError,
    UnsupportedSlopeError,
)
from .slopes import (
    INFINITY,
    Slope,
    ZERO,
    intersection_number,
    is_hyperbolic,
    parse_slope,
)
from .spine import (
    SpineCase,
    adjacent_short_pairs,
    case_of,
)
from .traintrack import (
    Branch,
    Switch,
    TrainTrack,
    carried_classes,
    check_law,
    dead_branches,
)

__version__ = "0.1.0"

__all__ = [
    "AnosurfError",
    "Branch",
    "Catalog",
    "CatalogEntry",
    "CatalogIntegrityError",
    "CatalogKeyError",
    "ClassificationGapError",
    "ClassificationResult",
    "ComplementShapeError",
    "ExclusionTrace",
    "INFINITY",
    "MonogonError",
    "NO_ANOSOV",
    "SUSPENSION_ANOSOV",
    "Slope",
    "SlopeFormatError",
    "SlopeLawError",
    "SpineCase",
    "SpineCaseError",
    "Switch",
    "SwitchSystemError",
    "TraceStep",
    "TrainTrack",
    "UNIQUE_ANOSOV",
    "UnsupportedComplexError",
    "UnsupportedSlopeError",
    "ZERO",
    "adjacent_short_pairs",
    "candidates_for",
    "carried_classes",
    "case_of",
    "check_catalog",
    "check_law",
    "classify",
    "complement_components",
    "dead_branches",
    "exclusion_reason",
    "fenley_power_admissible",
    "intersection_number",
    "is_hyperbolic",
    "load_catalog",
    "parse_slope",
    "slope_law_check",
    "unique_flow_argument",
    "__version__",
]
