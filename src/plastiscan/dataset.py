"""Labelled sample tables: CSV I/O, test-case assembly, splits, profiles.

The on-disk schema is a flat CSV with columns
``site,date,row,col,lat,lon,B04,B06,B08,B11,label,plastic_fraction``.
Additional band columns (``B02``, ``B8A``, ...) are accepted and load into
the sample spectra; any other extra column is a schema error.  Labels are
``plastic`` / ``water`` (case-insensitive) or the numeric codes 1 / 2.

Tables are immutable; every operation returning samples is pure given its
seed, and pools are canonically sorted before any seeded draw so results do
not depend on input row order.  The split and the CV folds both rank each
class's canonical rows by a seeded permutation (``_class_ranks``).
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    BadLabelError,
    ClassTooSmallError,
    DegenerateDenominatorError,
    DuplicateKeyError,
    EmptyInputError,
    InsufficientWaterPoolError,
    InvalidSampleError,
    MissingBandError,
    MissingFractionError,
    NonNumericReflectanceError,
    SchemaMismatchError,
    SingleClassError,
    _names_file,
)
from .raster import feature_columns
from .rng import seeded_rng
from .spectra import (
    BAND_ORDER,
    FeatureSetSpec,
    LABEL_NAMES,
    PLASTIC,
    PixelSpectrum,
    WATER,
)

__all__ = [
    "Sample",
    "SampleTable",
    "TestCaseSpec",
    "TEST_CASES",
    "SplitResult",
    "SpectralProfile",
    "FRACTION_CATEGORIES",
    "load_samples",
    "save_samples",
    "build_test_case",
    "split",
    "spectral_profile",
    "feature_matrix",
    "fraction_category",
]

# Core schema columns, in file order.
SCHEMA_COLUMNS = (
    "site", "date", "row", "col", "lat", "lon",
    "B04", "B06", "B08", "B11", "label", "plastic_fraction",
)
_CORE_BAND_COLUMNS = ("B04", "B06", "B08", "B11")
_BAND_COLUMN_RE = re.compile(r"^B(\d{2}|8A)$")

# Plastic sub-pixel coverage bins, percent of pixel area.
FRACTION_CATEGORIES = ("0-10%", "10-20%", "20-30%", "30-40%", ">40%")
_CATEGORY_EDGES = (0.0, 10.0, 20.0, 30.0, 40.0)


def _column_to_band(column: str) -> str:
    """CSV column name to registry id: B04 -> B4, B8A -> B8A, B11 -> B11."""
    suffix = column[1:]
    return column if suffix == "8A" else f"B{int(suffix)}"


def _band_to_column(band_id: str) -> str:
    suffix = band_id[1:]
    return band_id if suffix == "8A" else f"B{int(suffix):02d}"


@dataclass(frozen=True)
class Sample:
    """One labelled pixel: location key, spectrum, class, plastic coverage."""

    site: str
    date: str  # ISO yyyy-mm-dd
    row: int | None
    col: int | None
    spectrum: PixelSpectrum
    label: int  # PLASTIC or WATER
    plastic_fraction: float | None = None  # percent, plastic samples only
    lat: float | None = None
    lon: float | None = None

    def __post_init__(self) -> None:
        if self.label not in LABEL_NAMES:
            raise BadLabelError(f"label must be 1 (plastic) or 2 (water), got {self.label!r}")
        if self.label == WATER and self.plastic_fraction is not None:
            raise InvalidSampleError(
                f"{self.key()}: plastic_fraction given for a water sample"
            )
        if self.plastic_fraction is not None and not 0.0 <= self.plastic_fraction <= 100.0:
            raise InvalidSampleError(
                f"{self.key()}: plastic_fraction {self.plastic_fraction} outside [0, 100]"
            )
        has_rc = self.row is not None and self.col is not None
        has_ll = self.lat is not None and self.lon is not None
        if not has_rc and not has_ll:
            raise InvalidSampleError(
                f"{self.site}/{self.date}: sample needs (row, col) or (lat, lon)"
            )

    def key(self) -> tuple[str, str, int | None, int | None]:
        return (self.site, self.date, self.row, self.col)

    def sort_key(self) -> tuple[str, str, bool, int, bool, int]:
        """Orders by (site, date, row, col) with a missing row or col first."""
        return (
            self.site,
            self.date,
            self.row is not None,
            self.row or 0,
            self.col is not None,
            self.col or 0,
        )


@dataclass(frozen=True)
class SampleTable:
    """Immutable ordered collection of samples with unique location keys."""

    rows: tuple[Sample, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        seen: set[tuple] = set()
        for sample in self.rows:
            key = sample.key()
            if key in seen:
                raise DuplicateKeyError(f"duplicate sample key {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.rows)

    def count(self, label: int) -> int:
        return sum(1 for s in self.rows if s.label == label)

    @classmethod
    def _of_checked(cls, rows: tuple[Sample, ...]) -> "SampleTable":
        """A table of rows cut from checked tables without repeats, whose keys
        are unique already: made without checking them again."""
        table = object.__new__(cls)
        object.__setattr__(table, "rows", rows)
        return table

    def only(self, label: int) -> "SampleTable":
        return SampleTable._of_checked(tuple(s for s in self.rows if s.label == label))

    def canonical(self) -> "SampleTable":
        """Rows sorted by (site, date, row, col); basis for seeded draws."""
        return SampleTable._of_checked(tuple(sorted(self.rows, key=Sample.sort_key)))


# --- CSV I/O ---------------------------------------------------------------

_LABEL_TOKENS = {
    "plastic": PLASTIC, "1": PLASTIC,
    "water": WATER, "2": WATER,
}


def _parse_optional(token: str, cast: Callable[[str], float], what: str, where: str):
    token = token.strip()
    if token == "":
        return None
    try:
        return cast(token)
    except ValueError:
        raise InvalidSampleError(f"{where}: bad {what} {token!r}") from None


def _csv_records(path: Path) -> Iterator[list[str]]:
    """The CSV records of the file at ``path``.  Bytes that are not UTF-8, or
    a record the csv module cannot read (a field over its size limit, say),
    raise SchemaMismatchError naming the file and the line."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SchemaMismatchError(f"{path.name}:{line}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaMismatchError(f"{path.name}:{reader.line_num}: {exc}") from None


@_names_file
def load_samples(path: str | Path) -> SampleTable:
    """Load a sample table; see the module docstring for the schema."""
    path = Path(path)
    reader = _csv_records(path)
    try:
        raw_header = next(reader)
    except StopIteration:
        raise SchemaMismatchError(f"{path.name}: file is empty") from None
    header = [h.strip() for h in raw_header]
    repeated = list(dict.fromkeys(c for i, c in enumerate(header) if c in header[:i]))
    if repeated:
        raise SchemaMismatchError(f"{path.name}: duplicate column(s) {', '.join(repeated)}")
    missing = [c for c in SCHEMA_COLUMNS if c not in header]
    if missing:
        raise SchemaMismatchError(
            f"{path.name}: missing column(s) {', '.join(missing)}"
        )
    extra_bands = [
        c for c in header
        if c not in SCHEMA_COLUMNS and _BAND_COLUMN_RE.match(c)
    ]
    unknown = [
        c for c in header
        if c not in SCHEMA_COLUMNS and c not in extra_bands
    ]
    if unknown:
        raise SchemaMismatchError(
            f"{path.name}: unexpected column(s) {', '.join(unknown)}"
        )
    col_of = {c: i for i, c in enumerate(header)}
    band_columns = list(_CORE_BAND_COLUMNS) + extra_bands

    samples: list[Sample] = []
    for lineno, record in enumerate(reader, start=2):
        if not record or all(tok.strip() == "" for tok in record):
            continue
        if len(record) != len(header):
            raise SchemaMismatchError(
                f"{path.name}:{lineno}: expected {len(header)} fields, got {len(record)}"
            )
        where = f"{path.name}:{lineno}"
        reflectance: dict[str, float] = {}
        for column in band_columns:
            token = record[col_of[column]].strip()
            try:
                reflectance[_column_to_band(column)] = float(token)
            except ValueError:
                raise NonNumericReflectanceError(
                    f"{where}: column {column} value {token!r} is not numeric"
                ) from None
        label_token = record[col_of["label"]].strip().lower()
        if label_token not in _LABEL_TOKENS:
            raise BadLabelError(f"{where}: unknown label {label_token!r}")
        samples.append(
            Sample(
                site=record[col_of["site"]].strip(),
                date=record[col_of["date"]].strip(),
                row=_parse_optional(record[col_of["row"]], int, "row", where),
                col=_parse_optional(record[col_of["col"]], int, "col", where),
                lat=_parse_optional(record[col_of["lat"]], float, "lat", where),
                lon=_parse_optional(record[col_of["lon"]], float, "lon", where),
                spectrum=PixelSpectrum(reflectance),
                label=_LABEL_TOKENS[label_token],
                plastic_fraction=_parse_optional(
                    record[col_of["plastic_fraction"]], float, "plastic_fraction", where
                ),
            )
        )
    if not samples:
        raise EmptyInputError(f"{path.name}: no sample rows")
    return SampleTable(tuple(samples))


def save_samples(table: SampleTable, path: str | Path) -> None:
    """Write the schema CSV; band columns beyond the core four are included
    when present in every sample."""
    if len(table) == 0:
        raise EmptyInputError("refusing to write an empty sample table")
    core = {_column_to_band(c) for c in _CORE_BAND_COLUMNS}
    shared = set.intersection(*(set(s.spectrum.reflectance) for s in table.rows)) - core
    extra = [
        _band_to_column(bid) for bid in BAND_ORDER if bid in shared
    ]
    header = list(SCHEMA_COLUMNS) + extra

    def _fmt(value) -> str:
        return "" if value is None else repr(value) if isinstance(value, float) else str(value)

    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for s in table.rows:
            record = [
                s.site, s.date, _fmt(s.row), _fmt(s.col), _fmt(s.lat), _fmt(s.lon),
            ]
            record += [repr(s.spectrum.band(_column_to_band(c))) for c in _CORE_BAND_COLUMNS]
            record += [LABEL_NAMES[s.label], _fmt(s.plastic_fraction)]
            record += [repr(s.spectrum.band(_column_to_band(c))) for c in extra]
            writer.writerow(record)


# --- test cases ------------------------------------------------------------

@dataclass(frozen=True)
class TestCaseSpec:
    """Water-to-plastic imbalance setting: TCk draws k waters per plastic."""

    case_id: str  # "TC1".."TC5"

    def __post_init__(self) -> None:
        if not re.fullmatch(r"TC[1-5]", self.case_id):
            raise ValueError(f"test case id must be TC1..TC5, got {self.case_id!r}")

    @property
    def water_multiplier(self) -> int:
        return int(self.case_id[2:])


TEST_CASES: tuple[TestCaseSpec, ...] = tuple(TestCaseSpec(f"TC{k}") for k in range(1, 6))


def build_test_case(
    plastic_pool: SampleTable,
    water_pool: SampleTable,
    case: TestCaseSpec,
    seed: int,
) -> SampleTable:
    """All plastic samples plus ``multiplier * n_plastic`` waters drawn
    without replacement; output order is a seeded shuffle."""
    for pool, want in ((plastic_pool, PLASTIC), (water_pool, WATER)):
        bad = [s for s in pool if s.label != want]
        if bad:
            raise BadLabelError(
                f"{LABEL_NAMES[want]} pool contains a {LABEL_NAMES[bad[0].label]} "
                f"sample {bad[0].key()}"
            )
    if len(plastic_pool) == 0:
        raise EmptyInputError("plastic pool is empty")
    need = case.water_multiplier * len(plastic_pool)
    if len(water_pool) < need:
        raise InsufficientWaterPoolError(
            f"{case.case_id} needs {need} water samples, pool has {len(water_pool)}"
        )
    plastic = plastic_pool.canonical().rows
    water = water_pool.canonical().rows
    rng = seeded_rng(seed, "test-case", case.water_multiplier)
    chosen = rng.choice(len(water), size=need, replace=False)
    combined = list(plastic) + [water[i] for i in sorted(chosen)]
    order = rng.permutation(len(combined))
    return SampleTable(tuple(combined[i] for i in order))


# --- splitting -------------------------------------------------------------

@dataclass(frozen=True)
class SplitResult:
    train: SampleTable
    test: SampleTable
    seed: int


def _class_ranks(y: np.ndarray, seed: int, stream: str) -> np.ndarray:
    """Each row's place in a seeded permutation of its class, for canonical rows."""
    rank = np.empty(len(y), dtype=np.int64)
    for label in (PLASTIC, WATER):
        rows = np.flatnonzero(y == label)
        rank[rows[seeded_rng(seed, stream, label).permutation(len(rows))]] = np.arange(len(rows))
    return rank


def _train_mask(y: np.ndarray, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`split` of canonical rows labelled ``y``: train mask, class ranks."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    counts = np.bincount(y, minlength=WATER + 1)
    for label in (PLASTIC, WATER):
        if counts[label] < 2:
            raise ClassTooSmallError(
                f"class {LABEL_NAMES[label]} has {counts[label]} samples; need at least 2"
            )
    rank = _class_ranks(y, seed, "split")
    return rank < np.floor(train_fraction * counts + 0.5)[y], rank  # halves round to train


def split(table: SampleTable, train_fraction: float, seed: int) -> SplitResult:
    """Stratified train/test split.

    Each class, in canonical order, is shuffled under the seed and cut at
    ``round(train_fraction * class_count)``, rounding halves toward train.
    Both parts hold the plastic rows first, each class in its drawn order.
    """
    rows = table.canonical().rows
    y = _labels(rows)
    train, rank = _train_mask(y, train_fraction, seed)
    order = np.lexsort((rank, y))
    return SplitResult(
        train=SampleTable._of_checked(tuple(rows[i] for i in order[train[order]])),
        test=SampleTable._of_checked(tuple(rows[i] for i in order[~train[order]])),
        seed=seed,
    )


# --- feature extraction ----------------------------------------------------

def feature_matrix(table: SampleTable, spec: FeatureSetSpec) -> tuple[np.ndarray, np.ndarray]:
    """(X, y): float64 feature matrix in spec order and int label vector."""
    if len(table) == 0:
        raise EmptyInputError("cannot build features from an empty table")
    arrays = {}
    for b in spec.source_bands:
        try:
            arrays[b] = np.array([s.spectrum.band(b) for s in table.rows])
        except MissingBandError:
            s = next(s for s in table.rows if b not in s.spectrum)
            raise MissingBandError(f"sample {s.key()}: spectrum has no band {b}") from None
    X = np.ascontiguousarray(feature_columns(arrays, spec))  # an SVM fit sums C-ordered rows
    if np.isnan(X).any():
        row, col = np.argwhere(np.isnan(X))[0]
        raise DegenerateDenominatorError(
            f"sample {table.rows[row].key()}: {spec.members[col]} denominator is degenerate"
        )
    return X, _labels(table.rows)


def _labels(rows: Sequence[Sample]) -> np.ndarray:
    return np.array([s.label for s in rows], dtype=np.int64)


def _training_matrix(table: SampleTable, spec: FeatureSetSpec) -> tuple[np.ndarray, np.ndarray]:
    """:func:`feature_matrix` of a two-class training table, in canonical order."""
    table = table.canonical()
    if len(table) < 2:
        raise ClassTooSmallError(f"need at least 2 training samples, got {len(table)}")
    X, y = feature_matrix(table, spec)
    if len(set(y.tolist())) < 2:
        raise SingleClassError("training data contains a single class")
    return X, y


# --- spectral profiles -----------------------------------------------------

def fraction_category(fraction: float) -> str:
    """Coverage bin for a plastic fraction in percent; bins close on the left."""
    if not 0.0 <= fraction <= 100.0:
        raise InvalidSampleError(f"plastic_fraction {fraction} outside [0, 100]")
    for name, lo, hi in zip(FRACTION_CATEGORIES, _CATEGORY_EDGES, _CATEGORY_EDGES[1:]):
        if lo <= fraction < hi:
            return name
    return FRACTION_CATEGORIES[-1]


@dataclass(frozen=True)
class SpectralProfile:
    """Mean reflectance per band for each plastic-coverage bin."""

    bands: tuple[str, ...]
    categories: tuple[str, ...]  # bins present, in canonical order
    means: np.ndarray  # shape (len(categories), len(bands))
    counts: tuple[int, ...]  # samples per bin, all > 0


def spectral_profile(
    table: SampleTable,
    bands: Sequence[str] = ("B4", "B6", "B8", "B11"),
) -> SpectralProfile:
    """Average plastic-sample spectra grouped by coverage bin.

    Only plastic samples participate; each must carry ``plastic_fraction``.
    Bins with no samples are omitted.
    """
    bands = tuple(bands)
    plastic = [s for s in table.rows if s.label == PLASTIC]
    if not plastic:
        raise EmptyInputError("profile needs at least one plastic sample")
    groups: dict[str, list[Sample]] = {c: [] for c in FRACTION_CATEGORIES}
    for sample in plastic:
        if sample.plastic_fraction is None:
            raise MissingFractionError(f"{sample.key()}: plastic sample has no plastic_fraction")
        groups[fraction_category(sample.plastic_fraction)].append(sample)
    categories = tuple(c for c in FRACTION_CATEGORIES if groups[c])
    means = np.empty((len(categories), len(bands)), dtype=np.float64)
    counts = []
    for gi, cat in enumerate(categories):
        members = groups[cat]
        counts.append(len(members))
        for bi, band_id in enumerate(bands):
            vals = [s.spectrum.band(band_id) for s in members]
            means[gi, bi] = float(np.mean(vals))
    return SpectralProfile(bands=bands, categories=categories, means=means, counts=tuple(counts))
