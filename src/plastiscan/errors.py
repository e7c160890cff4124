"""Exception hierarchy shared across the toolkit.

Two broad families matter to callers: ``DataError`` covers malformed or
inconsistent inputs (bad CSV schemas, broken raster containers, impossible
sampling requests) and ``NumericError`` covers runtime numerical failures
(degenerate denominators, solvers that fail to converge).  The CLI maps the
families onto distinct exit codes.
"""

from __future__ import annotations

import functools
import json
import os
import sys

# Frames a warning passes over to reach its caller: the package's own, and
# functools', which runs cached_property getters.
_PASSED = (os.path.dirname(__file__) + os.sep, functools.__file__)


def _outside_stacklevel() -> int:
    """The caller's warning ``stacklevel`` that names the first frame outside
    the package, as pandas' ``find_stack_level`` does."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PASSED):
        frame, level = frame.f_back, level + 1
    return level


def _read_json(path, what: str, error: type[DataError], too_deep: type[DataError] | None = None):
    """The JSON document in the file at ``path``.  Text that is not UTF-8 JSON
    raises ``error``, and nesting too deep to parse ``too_deep`` (by default
    ``error``), each with a message that starts with the file's name."""
    name = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.loads(fh.read())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{name}: {what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise (too_deep or error)(f"{name}: {what} nests too deeply to read") from exc


def _names_file(read):
    """``read(path, ...)``, each ``DataError`` it raises led by the file's name."""
    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except DataError as exc:
            if str(exc).startswith(name := os.path.basename(path)):
                raise
            raise type(exc)(f"{name}: {exc}") from exc
    return reader


class PlastiscanError(Exception):
    """Base class for every error raised by this package."""


class DataError(PlastiscanError):
    """Malformed, missing, or inconsistent input data."""


class NumericError(PlastiscanError):
    """Numerical failure: degenerate denominator, non-convergence, etc."""


# --- data errors -----------------------------------------------------------

class SchemaMismatchError(DataError):
    """A tabular file does not match the expected column schema."""


class NonNumericReflectanceError(DataError):
    """A reflectance cell could not be parsed as a number."""


class BadLabelError(DataError):
    """A class label is outside the recognised set."""


class DuplicateKeyError(DataError):
    """Two samples share the same (site, date, row, col) key."""


class InvalidSampleError(DataError):
    """A sample row violates a field-level constraint."""


class MissingFractionError(DataError):
    """A plastic sample lacks the plastic_fraction needed for profiling."""


class MissingBandError(DataError):
    """A required band is absent from a spectrum or band stack."""


class UnknownBandError(DataError):
    """A band identifier is not in the band registry."""


class MalformedHeaderError(DataError):
    """A raster container header is structurally invalid."""


class TruncatedPayloadError(DataError):
    """A raster payload is shorter or longer than the header implies."""


class DimensionMismatchError(DataError):
    """Two gridded objects disagree on width/height."""


class ClassTooSmallError(DataError):
    """A class has too few samples for the requested operation."""


class InsufficientWaterPoolError(DataError):
    """The water pool cannot cover the requested multiplier draw."""


class SingleClassError(DataError):
    """Training data contains only one class."""


class EmptyFeaturesError(DataError):
    """No usable feature columns remain."""


class FoldTooSmallError(DataError):
    """A class has fewer samples than the requested CV fold count."""


class ClassSetMismatchError(DataError):
    """Reports being aggregated do not share the same class set."""


class LengthMismatchError(DataError):
    """Paired sequences differ in length."""


class EmptyInputError(DataError):
    """An operation received no data."""


class MissingOobRecordsError(DataError):
    """A forest model lacks the bootstrap records needed for importances."""


class ModelSchemaError(DataError):
    """A model file has the wrong schema version or algorithm tag."""


class CorruptModelError(DataError):
    """A model file is internally inconsistent."""


class PatchOutOfBoundsError(DataError):
    """A synthetic patch does not fit inside the scene."""


class SpecMismatchError(DataError):
    """A feature vector was built for a different feature-set spec."""


# --- numeric errors --------------------------------------------------------

class DegenerateDenominatorError(NumericError):
    """A ratio denominator is too close to zero to be meaningful."""


class ConvergenceError(NumericError):
    """An iterative solver hit its iteration bound before converging."""
