"""Band registry, spectral indices, and feature-set definitions.

Each index formula is written once, in :data:`INDEX_FORMULAS`, for the scalar
functions here and :func:`plastiscan.raster.index_arrays`; :func:`feature_vector`
is the per-pixel reference for :func:`plastiscan.raster.feature_columns`.

Index references:
    FDI   floating debris index (Biermann et al., 2020, Sci. Rep.)
    PI    plastic index (Themistocleous et al., 2020, Remote Sens.)
    NDVI  normalised difference vegetation index
    kNDVI kernel NDVI (Camps-Valls et al., 2021, Sci. Adv.)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    InvalidSampleError,
    MissingBandError,
    SpecMismatchError,
    UnknownBandError,
)

__all__ = [
    "BandDef",
    "BAND_REGISTRY",
    "BAND_ORDER",
    "INDEX_IDS",
    "PLASTIC",
    "WATER",
    "LABEL_NAMES",
    "PixelSpectrum",
    "SpectralIndexSet",
    "FeatureSetSpec",
    "FeatureVector",
    "MODEL_SPECS",
    "PlausibilityWarning",
    "ndvi",
    "kndvi",
    "kndvi_sigma",
    "pi",
    "fdi",
    "index_set",
    "feature_vector",
]

# Class labels used throughout: 1 = plastic, 2 = water.
PLASTIC = 1
WATER = 2
LABEL_NAMES = {PLASTIC: "plastic", WATER: "water"}

# Denominators smaller than this are treated as degenerate.
EPS_DENOM = 1e-12

# Reflectance plausibility band: outside it we warn but do not reject, since
# surface-reflectance products legitimately produce small negatives and
# sun-glint can push values past 1.
PLAUSIBLE_LO = -0.1
PLAUSIBLE_HI = 1.5


class PlausibilityWarning(UserWarning):
    """Reflectance outside the plausible range (kept, not rejected)."""


@dataclass(frozen=True)
class BandDef:
    """One optical band of the 10-band multispectral instrument."""

    band_id: str
    center_wavelength_nm: float  # band-centre wavelength
    native_resolution_m: float  # ground sampling distance

    def __post_init__(self) -> None:
        if self.center_wavelength_nm <= 0:
            raise ValueError(f"{self.band_id}: wavelength must be positive")
        if self.native_resolution_m <= 0:
            raise ValueError(f"{self.band_id}: resolution must be positive")


def _registry() -> dict[str, BandDef]:
    rows = [
        # id, centre nm, native m
        ("B2", 490.0, 10.0),  # blue
        ("B3", 560.0, 10.0),  # green
        ("B4", 665.0, 10.0),  # red
        ("B5", 705.0, 20.0),  # red edge 1
        ("B6", 740.0, 20.0),  # red edge 2
        ("B7", 783.0, 20.0),  # red edge 3
        ("B8", 842.0, 10.0),  # NIR
        ("B8A", 865.0, 20.0),  # narrow NIR
        ("B11", 1610.0, 20.0),  # SWIR 1
        ("B12", 2190.0, 20.0),  # SWIR 2
    ]
    return {bid: BandDef(bid, wl, res) for bid, wl, res in rows}


BAND_REGISTRY: Mapping[str, BandDef] = _registry()
BAND_ORDER: tuple[str, ...] = tuple(BAND_REGISTRY)

# Index identifiers accepted wherever a single-band raster is produced.
INDEX_IDS: tuple[str, ...] = ("FDI", "PI", "NDVI", "KNDVI")

# Source bands each index draws on, in the argument order of its formula.
INDEX_SOURCES: Mapping[str, tuple[str, ...]] = {
    "FDI": ("B6", "B8", "B11"),
    "PI": ("B4", "B8"),
    "NDVI": ("B4", "B8"),
    "KNDVI": ("B4", "B8"),
}

# Bands every index computation draws on.
INDEX_SOURCE_BANDS = tuple(b for b in BAND_ORDER if any(b in s for s in INDEX_SOURCES.values()))

# FDI baseline wavelengths.  The NIR anchor is the 833 nm value used in the
# index definition, deliberately distinct from B8's 842 nm band centre.
FDI_WAVELENGTH_RED_NM = 665.0
FDI_WAVELENGTH_NIR_NM = 833.0
FDI_WAVELENGTH_SWIR1_NM = 1610.0
FDI_BASELINE_GAIN = 10.0
FDI_INTERPOLATION_FACTOR = (
    (FDI_WAVELENGTH_NIR_NM - FDI_WAVELENGTH_RED_NM)
    / (FDI_WAVELENGTH_SWIR1_NM - FDI_WAVELENGTH_RED_NM)
    * FDI_BASELINE_GAIN
)  # = 1.7777778 to within 1e-7


# The one definition of each index, arguments in INDEX_SOURCES order.  Only
# arithmetic and np.tanh, so Python floats and float64 arrays run the same
# expression and get the same bits wherever NumPy's tanh does not depend on a
# value's position in an array.  Callers check inputs and denominators.

def _fdi(re2: Any, nir: Any, swir1: Any) -> Any:
    return nir - (re2 + (swir1 - re2) * FDI_INTERPOLATION_FACTOR)


def _pi(red: Any, nir: Any) -> Any:
    return nir / (nir + red)


def _ndvi(red: Any, nir: Any) -> Any:
    return (nir - red) / (nir + red)


def _kndvi(red: Any, nir: Any) -> Any:
    value = _ndvi(red, nir)
    return np.tanh(value * value)


INDEX_FORMULAS: Mapping[str, Callable[..., Any]] = {
    "FDI": _fdi, "PI": _pi, "NDVI": _ndvi, "KNDVI": _kndvi,
}


def degenerate_denominator(red: Any, nir: Any) -> Any:
    """Whether nir + red, the denominator of PI, NDVI and kNDVI, is degenerate."""
    return abs(nir + red) < EPS_DENOM


@dataclass(frozen=True)
class PixelSpectrum:
    """Surface reflectance for one pixel, keyed by band id.

    Reflectances must be finite.  Values outside [-0.1, 1.5] emit a
    :class:`PlausibilityWarning` but are kept as-is.
    """

    reflectance: Mapping[str, float]

    def __post_init__(self) -> None:
        clean: dict[str, float] = {}
        for band_id, value in self.reflectance.items():
            if band_id not in BAND_REGISTRY:
                raise UnknownBandError(f"unknown band id {band_id!r}")
            value = float(value)
            if not math.isfinite(value):
                raise InvalidSampleError(f"band {band_id}: reflectance must be finite")
            if not PLAUSIBLE_LO <= value <= PLAUSIBLE_HI:
                warnings.warn(
                    f"band {band_id}: reflectance {value} outside "
                    f"[{PLAUSIBLE_LO}, {PLAUSIBLE_HI}]",
                    PlausibilityWarning,
                    stacklevel=2,
                )
            clean[band_id] = value
        object.__setattr__(self, "reflectance", clean)

    def band(self, band_id: str) -> float:
        """Reflectance for ``band_id``; raises if the band is absent."""
        try:
            return self.reflectance[band_id]
        except KeyError:
            raise MissingBandError(f"spectrum has no band {band_id}") from None

    def __contains__(self, band_id: str) -> bool:
        return band_id in self.reflectance


def _require_finite(what: str, **named: float) -> None:
    for name, value in named.items():
        if not math.isfinite(value):
            raise ValueError(f"{what}: {name} must be finite, got {value!r}")


def _require_denominator(what: str, red: float, nir: float) -> None:
    if degenerate_denominator(red, nir):
        raise DegenerateDenominatorError(f"{what}: denominator {nir + red!r} is degenerate")


def ndvi(red: float, nir: float) -> float:
    """(nir - red) / (nir + red)."""
    _require_finite("ndvi", red=red, nir=nir)
    _require_denominator("ndvi", red, nir)
    return _ndvi(red, nir)


def kndvi(red: float, nir: float) -> float:
    """tanh(ndvi^2): the kernel NDVI at its natural length scale.

    Equals :func:`kndvi_sigma` with sigma = (nir + red) / 2.
    """
    _require_finite("kndvi", red=red, nir=nir)
    _require_denominator("kndvi", red, nir)
    return float(_kndvi(red, nir))


def kndvi_sigma(red: float, nir: float, sigma: float) -> float:
    """tanh(((nir - red) / (2 * sigma))^2) for an explicit RBF length scale."""
    _require_finite("kndvi_sigma", red=red, nir=nir, sigma=sigma)
    if abs(sigma) < EPS_DENOM:
        raise DegenerateDenominatorError(f"kndvi_sigma: sigma {sigma!r} is degenerate")
    return float(np.tanh(((nir - red) / (2.0 * sigma)) ** 2))


def pi(red: float, nir: float) -> float:
    """nir / (nir + red).  Identity: pi = (ndvi + 1) / 2."""
    _require_finite("pi", red=red, nir=nir)
    _require_denominator("pi", red, nir)
    return _pi(red, nir)


def fdi(re2: float, nir: float, swir1: float) -> float:
    """NIR height above a red-edge-to-SWIR baseline.

    fdi = nir - (re2 + (swir1 - re2) * f) with
    f = (833 - 665) / (1610 - 665) * 10.
    """
    _require_finite("fdi", re2=re2, nir=nir, swir1=swir1)
    return _fdi(re2, nir, swir1)


_INDEX_FUNCTIONS = {"FDI": fdi, "PI": pi, "NDVI": ndvi, "KNDVI": kndvi}  # checked scalars


@dataclass(frozen=True)
class SpectralIndexSet:
    """All four indices computed from one pixel."""

    fdi: float
    pi: float
    ndvi: float
    kndvi: float


def index_set(pixel: PixelSpectrum) -> SpectralIndexSet:
    """Compute FDI, PI, NDVI, kNDVI from B4/B6/B8/B11 of ``pixel``."""
    return SpectralIndexSet(*feature_vector(pixel, FeatureSetSpec("indices", INDEX_IDS)).values)


@dataclass(frozen=True)
class FeatureSetSpec:
    """Ordered list of feature names: band ids and/or index ids."""

    spec_id: str
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"{self.spec_id}: feature set must not be empty")
        seen: set[str] = set()
        for name in self.members:
            if name not in BAND_REGISTRY and name not in INDEX_IDS:
                raise UnknownBandError(f"{self.spec_id}: unknown feature {name!r}")
            if name in seen:
                raise ValueError(f"{self.spec_id}: duplicate feature {name!r}")
            seen.add(name)

    @property
    def n_features(self) -> int:
        return len(self.members)

    @property
    def source_bands(self) -> tuple[str, ...]:
        """Bands the members are computed from, in first-use order."""
        return tuple(dict.fromkeys(b for m in self.members for b in INDEX_SOURCES.get(m, (m,))))


MODEL_SPECS: Mapping[str, FeatureSetSpec] = {
    "Model1": FeatureSetSpec("Model1", ("B6", "B8", "B11", "FDI", "PI", "NDVI")),
    "Model2": FeatureSetSpec("Model2", ("B6", "B8", "B11", "FDI", "PI", "KNDVI")),
    "Model3": FeatureSetSpec("Model3", ("B6", "B8", "B11", "FDI")),
    "Model4": FeatureSetSpec("Model4", ("FDI", "PI", "NDVI")),
    "Model5": FeatureSetSpec("Model5", ("FDI", "PI", "KNDVI")),
}


@dataclass(frozen=True)
class FeatureVector:
    """Feature values for one sample under a given spec."""

    spec_id: str
    values: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        spec = MODEL_SPECS.get(self.spec_id)
        if spec is not None and len(self.values) != spec.n_features:
            raise SpecMismatchError(
                f"{self.spec_id} expects {spec.n_features} features, "
                f"got {len(self.values)}"
            )


def feature_vector(pixel: PixelSpectrum, spec: FeatureSetSpec) -> FeatureVector:
    """Assemble the feature vector for ``pixel`` under ``spec``.

    Band members copy the reflectance.  The first index member reads, in band
    order, the :data:`INDEX_SOURCES` bands of all: only ``spec.source_bands``
    must be present."""
    values: list[float] = []
    bands: dict[str, float] | None = None
    for name in spec.members:
        if name in BAND_REGISTRY:
            values.append(pixel.band(name))
            continue
        if bands is None:
            bands = {b: pixel.band(b) for b in INDEX_SOURCE_BANDS if b in spec.source_bands}
        values.append(_INDEX_FUNCTIONS[name](*(bands[b] for b in INDEX_SOURCES[name])))
    return FeatureVector(spec_id=spec.spec_id, values=tuple(values))
