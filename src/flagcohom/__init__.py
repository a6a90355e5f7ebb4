"""Cohomology rings of flag bundles and Grassmannians, presented by
characteristic classes, with exact per-degree normal forms and Poincare
series."""

from .algebra import (
    CutoffExceededError,
    GeneratorSymbol,
    Generators,
    GradedElement,
    Monomial,
    PresentationError,
    QuotientRing,
    RingPresentation,
    TooManyMonomialsError,
    make_presentation,
)
from .catalog import (
    BasisFamily,
    SpaceDescriptor,
    build_ring,
    build_space,
    closed_form,
)
from .extension import (
    BundleData,
    BundleError,
    TowerStage,
    bott_tower,
    equivariant_base,
    equivariant_space,
    extend,
    point_ring,
    ring_pushout,
    whitney_complement,
    zero_generators,
)
from .linalg import BACKEND
from .series import ClosedFormSeries, TruncatedSeries, series_from_ring
from .verify import verify_space

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BasisFamily",
    "BundleData",
    "BundleError",
    "ClosedFormSeries",
    "CutoffExceededError",
    "GeneratorSymbol",
    "Generators",
    "GradedElement",
    "Monomial",
    "PresentationError",
    "QuotientRing",
    "RingPresentation",
    "SpaceDescriptor",
    "TooManyMonomialsError",
    "TowerStage",
    "TruncatedSeries",
    "bott_tower",
    "build_ring",
    "build_space",
    "closed_form",
    "equivariant_base",
    "equivariant_space",
    "extend",
    "make_presentation",
    "point_ring",
    "ring_pushout",
    "series_from_ring",
    "verify_space",
    "whitney_complement",
    "zero_generators",
    "__version__",
]
