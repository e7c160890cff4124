"""Synthetic data generation by linear spectral mixing.

A mixed pixel is ``fraction * plastic + (1 - fraction) * water`` per band,
plus independent Gaussian noise, clipped below at 0 (reflectance can exceed 1
under glint, so no upper clip).  The shipped endmember table
(``data/endmembers.json``) contains hand-built stand-in spectra, not field
measurements; swap in your own table for physically calibrated work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DataError,
    InvalidSampleError,
    MissingBandError,
    PatchOutOfBoundsError,
    _names_file,
    _read_json,
)
from .dataset import FRACTION_CATEGORIES, Sample, SampleTable, _CATEGORY_EDGES
from .raster import BandStack, Grid, LabelGrid
from .rng import seeded_rng
from .spectra import BAND_ORDER, BAND_REGISTRY, INDEX_SOURCE_BANDS, PLASTIC, WATER, PixelSpectrum

__all__ = [
    "Endmember",
    "SynthConfig",
    "PatchSpec",
    "load_endmembers",
    "default_endmembers",
    "mix_pixel",
    "gen_dataset",
    "gen_scene",
]

WATER_ENDMEMBER = "water"

# Uniform-ish default over the five coverage bins.
DEFAULT_FRACTIONS: Mapping[str, float] = {c: 0.2 for c in FRACTION_CATEGORIES}

# Sampling range of the open-ended top bin, percent.
_TOP_BIN_HI = 100.0


@dataclass(frozen=True)
class Endmember:
    """Pure-material reflectance spectrum.

    Plastic endmembers must be NIR-bright (B8 above both B4 and B6); the
    water endmember must be NIR-dark (B8 below B3).
    """

    name: str
    reflectance: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("endmember name must be non-empty")
        clean: dict[str, float] = {}
        for band_id in BAND_ORDER:
            if band_id in self.reflectance:
                clean[band_id] = float(self.reflectance[band_id])
        unknown = set(self.reflectance) - set(clean)
        if unknown:
            raise MissingBandError(
                f"endmember {self.name}: unknown band(s) {sorted(unknown)}"
            )
        for band_id in INDEX_SOURCE_BANDS:
            if band_id not in clean:
                raise MissingBandError(f"endmember {self.name}: missing band {band_id}")
        for band_id, value in clean.items():
            if not np.isfinite(value) or value < 0:
                raise InvalidSampleError(
                    f"endmember {self.name}: band {band_id} must be finite and >= 0"
                )
        if self.name == WATER_ENDMEMBER:
            if "B3" not in clean:
                raise MissingBandError("endmember water: missing band B3")
            if not clean["B8"] < clean["B3"]:
                raise InvalidSampleError(
                    "endmember water: expected B8 < B3 (NIR absorption)"
                )
        else:
            if not (clean["B8"] > clean["B4"] and clean["B8"] > clean["B6"]):
                raise InvalidSampleError(
                    f"endmember {self.name}: expected B8 > B4 and B8 > B6 (NIR peak)"
                )
        object.__setattr__(self, "reflectance", clean)

    @property
    def bands(self) -> tuple[str, ...]:
        return tuple(self.reflectance)


@_names_file
def load_endmembers(path: str | Path) -> dict[str, Endmember]:
    """Read an endmember table ``{"endmembers": {name: {band: value}}}``."""
    doc = _read_json(path, "endmember table", DataError)
    table = doc.get("endmembers") if isinstance(doc, dict) else None
    if not isinstance(table, dict) or not table:
        raise DataError("missing non-empty 'endmembers' object")
    for name, spec in table.items():
        if not name:
            raise DataError("endmember names must be non-empty")
        if not isinstance(spec, dict) or not all(type(v) in (int, float) for v in spec.values()):
            raise DataError(f"endmember {name!r} must be an object of numbers")
    members = {name: Endmember(name, spec) for name, spec in table.items()}
    if WATER_ENDMEMBER not in members:
        raise DataError("endmember table needs a 'water' entry")
    if len(members) < 2:
        raise DataError("need at least one plastic endmember")
    return members


def default_endmembers() -> dict[str, Endmember]:
    """The packaged stand-in endmember table."""
    with resources.files(__package__).joinpath("data/endmembers.json").open(
        "r", encoding="utf-8"
    ) as fh:
        doc = json.load(fh)
    return {name: Endmember(name, spec) for name, spec in doc["endmembers"].items()}


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings for synthetic sample pools."""

    n_plastic: int
    n_water: int
    seed: int
    noise_sd: float = 0.005
    fraction_distribution: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_FRACTIONS)
    )
    endmembers: Mapping[str, Endmember] = field(default_factory=default_endmembers)
    site: str = "synthetic"
    date: str = "2019-04-18"

    def __post_init__(self) -> None:
        if self.n_plastic < 0 or self.n_water < 0:
            raise ValueError("sample counts must be non-negative")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
        dist = dict(self.fraction_distribution)
        unknown = set(dist) - set(FRACTION_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown fraction categories {sorted(unknown)}")
        if any(p < 0 for p in dist.values()):
            raise ValueError("fraction probabilities must be non-negative")
        total = sum(dist.values())
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"fraction probabilities must sum to 1, got {total}")
        object.__setattr__(self, "fraction_distribution", dist)
        members = dict(self.endmembers)
        if WATER_ENDMEMBER not in members:
            raise DataError("endmember table needs a 'water' entry")
        if not self.plastic_names:
            raise DataError("endmember table needs at least one plastic endmember")
        object.__setattr__(self, "endmembers", members)

    @property
    def plastic_names(self) -> tuple[str, ...]:
        return tuple(sorted(n for n in self.endmembers if n != WATER_ENDMEMBER))


def _common_bands(a: Endmember, b: Endmember) -> tuple[str, ...]:
    return tuple(bid for bid in BAND_ORDER if bid in a.reflectance and bid in b.reflectance)


def mix_pixel(
    plastic: Endmember,
    water: Endmember,
    fraction: float,
    noise_sd: float,
    seed: int,
) -> PixelSpectrum:
    """Linear two-endmember mix at ``fraction`` (0..1 plastic share).

    Gaussian noise (sd = ``noise_sd``) is added per band over the bands the
    two endmembers share, then values are clipped below at 0.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    if noise_sd < 0:
        raise ValueError("noise_sd must be non-negative")
    bands = _common_bands(plastic, water)
    rng = seeded_rng(seed, "mix")
    noise = rng.normal(0.0, noise_sd, size=len(bands)) if noise_sd > 0 else np.zeros(len(bands))
    reflectance = {}
    for i, band_id in enumerate(bands):
        value = (
            fraction * plastic.reflectance[band_id]
            + (1.0 - fraction) * water.reflectance[band_id]
            + noise[i]
        )
        reflectance[band_id] = max(0.0, float(value))
    return PixelSpectrum(reflectance)


def _draw_fraction(rng: np.random.Generator, dist: Mapping[str, float]) -> float:
    """Pick a coverage bin by weight, then a percentage uniformly inside it."""
    names = list(FRACTION_CATEGORIES)
    probs = np.array([dist.get(n, 0.0) for n in names])
    idx = int(rng.choice(len(names), p=probs / probs.sum()))
    lo = _CATEGORY_EDGES[idx]
    hi = _CATEGORY_EDGES[idx + 1] if idx + 1 < len(_CATEGORY_EDGES) else _TOP_BIN_HI
    return float(rng.uniform(lo, hi))


def gen_dataset(config: SynthConfig) -> SampleTable:
    """Labelled pool: mixed plastic pixels (with coverage annotations) and
    noisy pure-water pixels.  Deterministic given ``config.seed``."""
    water = config.endmembers[WATER_ENDMEMBER]
    samples: list[Sample] = []
    for i in range(config.n_plastic):
        rng = seeded_rng(config.seed, "plastic", i)
        name = config.plastic_names[int(rng.integers(len(config.plastic_names)))]
        fraction_pct = _draw_fraction(rng, config.fraction_distribution)
        spectrum = mix_pixel(
            config.endmembers[name],
            water,
            fraction_pct / 100.0,
            config.noise_sd,
            seed=int(rng.integers(1 << 62)),
        )
        samples.append(
            Sample(
                site=config.site, date=config.date, row=i, col=0,
                spectrum=spectrum, label=PLASTIC, plastic_fraction=fraction_pct,
            )
        )
    plastic_any = config.endmembers[config.plastic_names[0]]
    for i in range(config.n_water):
        rng = seeded_rng(config.seed, "water", i)
        spectrum = mix_pixel(
            plastic_any, water, 0.0, config.noise_sd, seed=int(rng.integers(1 << 62))
        )
        samples.append(
            Sample(
                site=config.site, date=config.date, row=i, col=1,
                spectrum=spectrum, label=WATER,
            )
        )
    return SampleTable(tuple(samples))


@dataclass(frozen=True)
class PatchSpec:
    """Rectangular plastic patch inside a synthetic scene."""

    row: int
    col: int
    height: int
    width: int
    fraction: float  # plastic share, 0..1
    endmember: str = "plastic_bottle"

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0:
            raise ValueError("patch height/width must be positive")
        if self.row < 0 or self.col < 0:
            raise PatchOutOfBoundsError(
                f"patch origin ({self.row}, {self.col}) must be non-negative"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"patch fraction must be in (0, 1], got {self.fraction}")


def gen_scene(
    config: SynthConfig,
    width: int,
    height: int,
    patches: tuple[PatchSpec, ...] = (),
) -> tuple[BandStack, LabelGrid]:
    """Water scene with rectangular mixed-plastic patches, plus truth labels.

    Returns a stack over the water endmember's bands and a
    :class:`~plastiscan.raster.LabelGrid` marking patch cells plastic.
    """
    if width <= 0 or height <= 0:
        raise ValueError("scene dimensions must be positive")
    water = config.endmembers[WATER_ENDMEMBER]
    bands = water.bands
    for patch in patches:
        if patch.row + patch.height > height or patch.col + patch.width > width:
            raise PatchOutOfBoundsError(
                f"patch at ({patch.row}, {patch.col}) size "
                f"{patch.height}x{patch.width} exceeds scene {height}x{width}"
            )
        if patch.endmember not in config.endmembers or patch.endmember == WATER_ENDMEMBER:
            raise DataError(f"patch endmember {patch.endmember!r} not in the table")
        member = config.endmembers[patch.endmember]
        missing = [b for b in bands if b not in member.reflectance]
        if missing:
            raise MissingBandError(
                f"endmember {patch.endmember} lacks scene band(s) {missing}"
            )

    fraction = np.zeros((height, width))
    plastic_ref = {bid: np.zeros((height, width)) for bid in bands}
    labels = np.full((height, width), WATER, dtype=np.uint8)
    for patch in patches:
        rows = slice(patch.row, patch.row + patch.height)
        cols = slice(patch.col, patch.col + patch.width)
        fraction[rows, cols] = patch.fraction
        labels[rows, cols] = PLASTIC
        member = config.endmembers[patch.endmember]
        for bid in bands:
            plastic_ref[bid][rows, cols] = member.reflectance[bid]

    rng = seeded_rng(config.seed, "scene")
    grids: dict[str, Grid] = {}
    for bid in bands:  # fixed band-major noise order keeps scenes reproducible
        base = fraction * plastic_ref[bid] + (1.0 - fraction) * water.reflectance[bid]
        noise = rng.normal(0.0, config.noise_sd, size=(height, width)) if config.noise_sd > 0 else 0.0
        grids[bid] = Grid(width=width, height=height, values=np.maximum(0.0, base + noise))
    resolution = min(BAND_REGISTRY[bid].native_resolution_m for bid in bands)
    stack = BandStack(
        grids=grids,
        resolution_m=resolution,
        provenance=f"synthetic scene seed={config.seed}",
    )
    return stack, LabelGrid(width=width, height=height, labels=labels)
