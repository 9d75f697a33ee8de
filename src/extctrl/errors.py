"""Typed error hierarchy shared across the package.

Errors are grouped into families so the CLI can map them to exit codes:
plan/configuration problems, data ingestion problems, and solver failures.
``checked_field`` reads one field of a JSON object and raises the caller's
error family when the value has the wrong type or range.
"""

import math
import numbers


class ExtCtrlError(Exception):
    """Base class for all package errors."""


# --- data ingestion -------------------------------------------------------

class DataError(ExtCtrlError):
    """Base class for ingestion and validation failures."""


class MissingColumn(DataError):
    pass


class EmptyDataset(DataError):
    pass


class NonNumericCovariate(DataError):
    pass


class MissingValue(DataError):
    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class UnknownGroupLabel(DataError):
    pass


class SchemaViolation(DataError):
    pass


class ProportionOutOfRange(DataError):
    pass


class ResponderCountExceedsN(DataError):
    pass


# --- model fitting / solvers ---------------------------------------------

class SolverError(ExtCtrlError):
    """Base class for estimation failures."""


class ConstantResponse(SolverError):
    pass


class RankDeficientDesign(SolverError):
    pass


class SeparationDetected(SolverError):
    pass


class NoConvergence(SolverError):
    pass


class DegenerateScores(SolverError):
    pass


class TargetOutsideSupport(SolverError):
    pass


class CollinearCovariates(SolverError):
    pass


class TooManyReplicateFailures(SolverError):
    pass


# --- estimation contracts -------------------------------------------------

class AllWeightsZero(ExtCtrlError):
    pass


class ScaleIncompatibleWithOutcome(ExtCtrlError):
    pass


class ZeroDenominator(ExtCtrlError):
    pass


class ParameterOutOfRange(ExtCtrlError):
    pass


class EstimandMismatch(ExtCtrlError):
    pass


class InvalidConfig(ExtCtrlError):
    pass


class PlanInvalid(ExtCtrlError):
    pass


# --- typed fields of JSON inputs -------------------------------------------

def is_number(value) -> bool:
    """A finite real, NumPy scalars included, that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_count(value) -> bool:
    return is_int(value) and value >= 0


def checked_field(block: dict, key: str, default, ok, what: str, where: str = "",
                  error=PlanInvalid):
    """``block[key]``, or ``default`` when absent; ``error`` unless ``ok``."""
    value = block.get(key, default)
    if not ok(value):
        raise error(f"{where}{key} must be {what}, got {value!r}")
    return value
