"""Gridded data: band stacks, the bsqf/1 container, raster ops, the feature kernel.

Container layout ("bsqf/1"): a JSON header ``<name>.json`` plus a sibling
payload ``<name>.raw`` holding float32 little-endian samples, band-sequential
(all of band 0 row-major, then band 1, ...).  Nodata cells are NaN in the
payload unless the header declares a finite ``nodata_value`` sentinel.

In memory, grids hold float64 with NaN marking nodata; serialisation rounds
to float32, so a read-write cycle reproduces the payload bit for bit.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    MalformedHeaderError,
    MissingBandError,
    TruncatedPayloadError,
    UnknownBandError,
    _read_json,
)
from .spectra import (
    BAND_ORDER,
    BAND_REGISTRY,
    EPS_DENOM,
    FeatureSetSpec,
    INDEX_FORMULAS,
    INDEX_IDS,
    INDEX_SOURCES,
    PLASTIC,
    WATER,
    degenerate_denominator,
)

__all__ = [
    "Grid",
    "BandStack",
    "MaskGrid",
    "LabelGrid",
    "DegenerateStretchWarning",
    "read_stack",
    "write_stack",
    "resample_nearest",
    "apply_mask",
    "histogram_stretch",
    "compute_index_raster",
    "index_arrays",
    "feature_columns",
    "write_label_map",
    "read_label_map",
]

FORMAT_TAG = "bsqf/1"


class DegenerateStretchWarning(UserWarning):
    """Percentile window collapsed; stretched output set to zero."""


@dataclass(frozen=True)
class Grid:
    """One band's samples on a row-major grid.  NaN cells are nodata."""

    width: int
    height: int
    values: np.ndarray  # float64, shape (height, width)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise DimensionMismatchError(
                f"grid dimensions must be positive, got {self.width}x{self.height}"
            )
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (self.height, self.width):
            raise DimensionMismatchError(
                f"values shape {arr.shape} != (height={self.height}, width={self.width})"
            )
        if np.isinf(arr).any():
            raise ValueError("grid values must be finite or NaN")
        object.__setattr__(self, "values", arr)

    @property
    def nodata_mask(self) -> np.ndarray:
        """Boolean array, True where the cell is nodata."""
        return np.isnan(self.values)


@dataclass(frozen=True)
class MaskGrid:
    """Boolean keep/drop grid; True keeps the cell."""

    width: int
    height: int
    keep: np.ndarray  # bool, shape (height, width)

    def __post_init__(self) -> None:
        arr = np.asarray(self.keep, dtype=bool)
        if arr.shape != (self.height, self.width):
            raise DimensionMismatchError(
                f"mask shape {arr.shape} != (height={self.height}, width={self.width})"
            )
        object.__setattr__(self, "keep", arr)


@dataclass(frozen=True)
class LabelGrid:
    """Per-pixel class map: 0 = nodata, 1 = plastic, 2 = water."""

    width: int
    height: int
    labels: np.ndarray  # uint8, shape (height, width)

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels)
        if arr.shape != (self.height, self.width):
            raise DimensionMismatchError(
                f"labels shape {arr.shape} != (height={self.height}, width={self.width})"
            )
        if arr.dtype != np.uint8 or arr.max(initial=0) > WATER:  # checked before the cast
            known = (arr == 0) | (arr == PLASTIC) | (arr == WATER)
            if not known.all():
                bad = sorted(set(arr[~known].tolist()))
                raise ValueError(f"labels contain unknown classes {bad}")
        object.__setattr__(self, "labels", arr.astype(np.uint8, copy=False))


@dataclass(frozen=True)
class BandStack:
    """Co-registered grids for several bands at one common resolution."""

    grids: Mapping[str, Grid]  # band id -> grid, all same shape
    resolution_m: float
    provenance: str = ""
    nodata_value: float | None = None  # payload sentinel; None means NaN

    def __post_init__(self) -> None:
        if not self.grids:
            raise MalformedHeaderError("band stack must contain at least one band")
        if self.resolution_m <= 0:
            raise ValueError("resolution_m must be positive")
        if self.nodata_value is not None and not math.isfinite(self.nodata_value):
            raise ValueError("nodata_value sentinel must be finite (or None for NaN)")
        shape = None
        ordered: dict[str, Grid] = {}
        for band_id in _canonical_band_order(self.grids):
            grid = self.grids[band_id]
            if band_id not in BAND_REGISTRY and band_id not in INDEX_IDS:
                raise UnknownBandError(f"unknown band id {band_id!r}")
            if shape is None:
                shape = (grid.height, grid.width)
            elif (grid.height, grid.width) != shape:
                raise DimensionMismatchError(
                    f"band {band_id} shape {(grid.height, grid.width)} != {shape}"
                )
            ordered[band_id] = grid
        object.__setattr__(self, "grids", ordered)

    @property
    def width(self) -> int:
        return next(iter(self.grids.values())).width

    @property
    def height(self) -> int:
        return next(iter(self.grids.values())).height

    @property
    def band_ids(self) -> tuple[str, ...]:
        return tuple(self.grids)

    def band(self, band_id: str) -> Grid:
        try:
            return self.grids[band_id]
        except KeyError:
            raise MissingBandError(f"stack has no band {band_id}") from None


def _canonical_band_order(grids: Mapping[str, Grid]) -> list[str]:
    """Registry order first, then index ids in their fixed order."""
    rank = {bid: i for i, bid in enumerate(BAND_ORDER)}
    rank.update({bid: len(rank) + i for i, bid in enumerate(INDEX_IDS)})
    return sorted(grids, key=lambda bid: rank.get(bid, len(rank) + len(INDEX_IDS)))


# --- container I/O ---------------------------------------------------------

def _payload_path(header_path: Path) -> Path:
    return header_path.with_suffix(".raw")


def write_stack(stack: BandStack, path: str | Path) -> None:
    """Write ``stack`` to ``path`` (header JSON) plus a sibling .raw payload.

    Bands are serialised in canonical registry order, so identical stacks
    produce identical files.  Each band entry's ``native_resolution_m``
    records the stack's common resolution; index bands carry a null
    ``center_wavelength_nm``.
    """
    header_path = Path(path)
    if header_path.suffix != ".json":
        raise ValueError(f"stack header path must end in .json, got {header_path.name}")
    band_entries = []
    for band_id in stack.band_ids:
        center = (
            BAND_REGISTRY[band_id].center_wavelength_nm
            if band_id in BAND_REGISTRY
            else None
        )
        band_entries.append(
            {
                "id": band_id,
                "center_wavelength_nm": center,
                "native_resolution_m": stack.resolution_m,
            }
        )
    header = {
        "format": FORMAT_TAG,
        "width": stack.width,
        "height": stack.height,
        "dtype": "f32",
        "byte_order": "little",
        "interleave": "bsq",
        "nodata_value": stack.nodata_value,
        "bands": band_entries,
        "provenance": stack.provenance,
    }
    planes = []
    for band_id in stack.band_ids:
        plane = stack.grids[band_id].values.astype("<f4")
        if stack.nodata_value is not None:
            plane = np.where(np.isnan(plane), np.float32(stack.nodata_value), plane)
        planes.append(plane)
    payload = np.concatenate([p.reshape(-1) for p in planes]).tobytes()
    header_path.write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8")
    _payload_path(header_path).write_bytes(payload)


def _require(header: Mapping, key: str, kind: type, what: str):
    if key not in header:
        raise MalformedHeaderError(f"header missing field {key!r}")
    value = header[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise MalformedHeaderError(f"header field {key!r} must be {what}")
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedHeaderError(f"header field {key!r} must be {what}")
    return value


def read_stack(path: str | Path) -> BandStack:
    """Read a bsqf/1 container; see :func:`write_stack` for the layout."""
    header_path = Path(path)
    header = _read_json(header_path, "header", MalformedHeaderError)
    if not isinstance(header, dict):
        raise MalformedHeaderError("header must be a JSON object")

    fmt = _require(header, "format", str, "a string")
    if fmt != FORMAT_TAG:
        raise MalformedHeaderError(f"header field 'format' must be {FORMAT_TAG!r}, got {fmt!r}")
    width = _require(header, "width", int, "an integer")
    height = _require(header, "height", int, "an integer")
    if width <= 0 or height <= 0:
        raise DimensionMismatchError(
            f"header width/height must be positive, got {width}x{height}"
        )
    for key, expect in (("dtype", "f32"), ("byte_order", "little"), ("interleave", "bsq")):
        got = _require(header, key, str, "a string")
        if got != expect:
            raise MalformedHeaderError(f"header field {key!r} must be {expect!r}, got {got!r}")
    nodata = header.get("nodata_value")
    if nodata is not None:
        nodata = _require(header, "nodata_value", float, "a number or null")
        if not math.isfinite(nodata):
            raise MalformedHeaderError("header field 'nodata_value' must be finite or null")
    bands = _require(header, "bands", list, "a list")
    if not bands:
        raise MalformedHeaderError("header field 'bands' must be non-empty")
    band_ids: list[str] = []
    resolutions: list[float] = []
    for entry in bands:
        if not isinstance(entry, dict) or "id" not in entry:
            raise MalformedHeaderError("each band entry must be an object with an 'id'")
        band_id = entry["id"]
        if band_id not in BAND_REGISTRY and band_id not in INDEX_IDS:
            raise UnknownBandError(f"unknown band id {band_id!r} in header")
        if band_id in band_ids:
            raise MalformedHeaderError(f"duplicate band id {band_id!r} in header")
        band_ids.append(band_id)
        res = entry.get("native_resolution_m")
        if isinstance(res, (int, float)) and not isinstance(res, bool):
            resolutions.append(float(res))
    provenance = header.get("provenance", "")
    if not isinstance(provenance, str):
        raise MalformedHeaderError("header field 'provenance' must be a string")

    payload_path = _payload_path(header_path)
    if not payload_path.exists():
        raise TruncatedPayloadError(f"payload file {payload_path.name} is missing")
    payload = payload_path.read_bytes()
    expected = 4 * width * height * len(band_ids)
    if len(payload) != expected:
        raise TruncatedPayloadError(
            f"payload is {len(payload)} bytes, header implies {expected}"
        )
    cube = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    cube = cube.reshape(len(band_ids), height, width)
    grids: dict[str, Grid] = {}
    for band_id, plane in zip(band_ids, cube):  # each grid holds a view of the cube
        bad = ~np.isfinite(plane)
        if nodata is not None:
            bad |= plane == nodata
        plane[bad] = np.nan
        grids[band_id] = Grid(width=width, height=height, values=plane)
    resolution = resolutions[0] if resolutions else 10.0
    if resolutions and any(r != resolution for r in resolutions):
        raise MalformedHeaderError("band entries disagree on native_resolution_m")
    return BandStack(
        grids=grids,
        resolution_m=resolution,
        provenance=provenance,
        nodata_value=nodata,
    )


# --- grid operations -------------------------------------------------------

def resample_nearest(grid: Grid, factor: int) -> Grid:
    """Nearest-neighbour upsample by an integer factor (each cell repeats)."""
    if not isinstance(factor, int) or factor < 1:
        raise ValueError(f"resample factor must be a positive integer, got {factor!r}")
    out = np.repeat(np.repeat(grid.values, factor, axis=0), factor, axis=1)
    return Grid(width=grid.width * factor, height=grid.height * factor, values=out)


def apply_mask(stack: BandStack, mask: MaskGrid) -> BandStack:
    """Set every band to nodata wherever the mask drops the cell."""
    if (mask.height, mask.width) != (stack.height, stack.width):
        raise DimensionMismatchError(
            f"mask shape {(mask.height, mask.width)} != stack shape "
            f"{(stack.height, stack.width)}"
        )
    grids = {}
    for band_id, grid in stack.grids.items():
        vals = grid.values.copy()
        vals[~mask.keep] = np.nan
        grids[band_id] = Grid(width=grid.width, height=grid.height, values=vals)
    return BandStack(
        grids=grids,
        resolution_m=stack.resolution_m,
        provenance=stack.provenance,
        nodata_value=stack.nodata_value,
    )


def histogram_stretch(grid: Grid, p_low: float = 2.0, p_high: float = 98.0) -> Grid:
    """Percentile stretch of valid cells onto [0, 1], clipping at the ends.

    Nodata cells stay nodata.  If the percentile window collapses (all valid
    cells equal), the output's valid cells are all 0 and a
    :class:`DegenerateStretchWarning` is emitted.
    """
    if not 0.0 <= p_low < p_high <= 100.0:
        raise ValueError(f"need 0 <= p_low < p_high <= 100, got {p_low}, {p_high}")
    vals = grid.values
    valid = ~np.isnan(vals)
    out = np.full_like(vals, np.nan)
    if not valid.any():
        return Grid(width=grid.width, height=grid.height, values=out)
    lo = float(np.percentile(vals[valid], p_low))
    hi = float(np.percentile(vals[valid], p_high))
    if hi - lo < EPS_DENOM:
        warnings.warn(
            f"percentile window [{p_low}, {p_high}] is degenerate (lo == hi == {lo}); "
            "output set to 0",
            DegenerateStretchWarning,
            stacklevel=2,
        )
        out[valid] = 0.0
        return Grid(width=grid.width, height=grid.height, values=out)
    out[valid] = np.clip((vals[valid] - lo) / (hi - lo), 0.0, 1.0)
    return Grid(width=grid.width, height=grid.height, values=out)


# --- index rasters ---------------------------------------------------------

def index_arrays(arrays: Mapping[str, np.ndarray], index_id: str) -> np.ndarray:
    """Vectorised index over float64 arrays; degenerate cells become NaN.

    Evaluates the formula in :data:`plastiscan.spectra.INDEX_FORMULAS`, the same
    expression the scalar functions there use, so each cell equals the scalar
    result bit for bit.
    """
    if index_id not in INDEX_IDS:
        raise UnknownBandError(
            f"unknown index {index_id!r}; expected one of {', '.join(INDEX_IDS)}"
        )
    for band_id in INDEX_SOURCES[index_id]:
        if band_id not in arrays:
            raise MissingBandError(f"index {index_id} needs band {band_id}")
    with np.errstate(invalid="ignore", divide="ignore"):
        out = INDEX_FORMULAS[index_id](*(arrays[b] for b in INDEX_SOURCES[index_id]))
        if index_id == "FDI":
            return out
        return np.where(degenerate_denominator(arrays["B4"], arrays["B8"]), np.nan, out)


def feature_columns(arrays: Mapping[str, np.ndarray], spec: FeatureSetSpec) -> np.ndarray:
    """(n, k) features for ``spec`` from length-n float64 band arrays.

    The one feature assembly for samples and pixels; rows equal
    :func:`plastiscan.spectra.feature_vector` bit for bit, except that a
    degenerate index cell is NaN.  One error names every absent source band.
    """
    missing = [band_id for band_id in spec.source_bands if band_id not in arrays]
    if missing:
        raise MissingBandError(f"{spec.spec_id}: missing source band(s) {', '.join(missing)}")
    columns = [arrays[m] if m in BAND_REGISTRY else index_arrays(arrays, m) for m in spec.members]
    return np.stack(columns, axis=1)


def compute_index_raster(stack: BandStack, index_id: str) -> Grid:
    """Index grid from a stack; nodata and degenerate cells come out nodata."""
    arrays = {band_id: grid.values for band_id, grid in stack.grids.items()}
    return Grid(width=stack.width, height=stack.height, values=index_arrays(arrays, index_id))


# --- label map export ------------------------------------------------------

_PGM_BYTE = np.array([0, 255, 128], dtype=np.uint8)  # by label: nodata, plastic, water
_PGM_LABEL = np.full(256, 255, dtype=np.uint8)  # by byte; 255 marks a byte that is no label
_PGM_LABEL[_PGM_BYTE] = (0, PLASTIC, WATER)


def write_label_map(labels: LabelGrid, path: str | Path) -> None:
    """8-bit binary PGM (P5): 0 = nodata, 128 = water, 255 = plastic."""
    body = _PGM_BYTE[labels.labels].tobytes()
    header = f"P5\n{labels.width} {labels.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + body)


def read_label_map(path: str | Path) -> LabelGrid:
    """Read a label map written by :func:`write_label_map`."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise MalformedHeaderError(f"{Path(path).name}: not a P5 label map")
    try:
        width, height = (int(tok) for tok in parts[1].split())
    except ValueError as exc:
        raise MalformedHeaderError(f"{Path(path).name}: bad PGM dimensions") from exc
    body = parts[3]
    if len(body) != width * height:
        raise TruncatedPayloadError(
            f"{Path(path).name}: body is {len(body)} bytes, expected {width * height}"
        )
    flat = np.frombuffer(body, dtype=np.uint8)
    labels = _PGM_LABEL[flat]
    if labels.max(initial=0) == 255:
        unknown = sorted(set(flat[labels == 255].tolist()))
        raise MalformedHeaderError(f"{Path(path).name}: unknown byte values {unknown}")
    return LabelGrid(width=width, height=height, labels=labels.reshape(height, width))
