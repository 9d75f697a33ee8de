"""Typed error hierarchy shared across the package.

Errors are grouped into families, and each family carries the exit code
the CLI returns for it as ``exit_code``:

    0  success
    2  plan or usage error: ``PlanInvalid``, ``InvalidConfig`` (including a
       bad scenario file)
    3  data error: ``DataError`` (including an input file that cannot be read)
    4  solver or estimation failure: ``SolverError`` and every other
       ``ExtCtrlError``
    5  positivity hard-fail: ``PositivityHardFail``

``checked_field`` reads one field of a JSON object and raises the caller's
error family when the value has the wrong type or range. A dataclass
setting declares its check on its field (``setting``); ``check_settings``
runs those checks in the constructor, and a plan runs them on its keys.
"""

import dataclasses
import math
import numbers


class ExtCtrlError(Exception):
    """Base class for all package errors."""

    exit_code = 4


# --- data ingestion -------------------------------------------------------

class DataError(ExtCtrlError):
    """Base class for ingestion and validation failures.

    ``row`` is the 0-based data row of a CSV cell at fault, when one is.
    """

    exit_code = 3

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class MissingColumn(DataError):
    pass


class EmptyDataset(DataError):
    pass


class NonNumericCovariate(DataError):
    pass


class MissingValue(DataError):
    pass


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


class ZeroDenominator(ExtCtrlError):
    pass


class ParameterOutOfRange(ExtCtrlError, ValueError):
    """A public function's argument outside its range; still a ValueError."""


class InvalidConfig(ExtCtrlError):
    exit_code = 2


class PlanInvalid(ExtCtrlError):
    exit_code = 2


class ScaleIncompatibleWithOutcome(PlanInvalid):
    """A scale, model or comparison the outcome does not allow: a usage error."""


class PositivityHardFail(ExtCtrlError):
    """Raised when the plan demands failure on insufficient overlap."""

    exit_code = 5


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


def setting(what: str, ok, read=None, parse=None, **field_args):
    """A dataclass field that declares its check: its value must pass ``ok``,
    or it "must be {what}". ``read`` turns a value that passes, other than
    None, into the one the field keeps (a float for an integer, say).
    ``parse``, where a plan's JSON value is a name, turns it into the field's
    type before the check."""
    return dataclasses.field(metadata={"check": (what, ok, read), "parse": parse}, **field_args)


def checked_setting(f: dataclasses.Field, value, where: str = "", error=ParameterOutOfRange):
    """``value`` checked as field ``f`` declares, then read."""
    what, ok, read = f.metadata["check"]
    value = checked_field({f.name: value}, f.name, None, ok, what, where, error)
    return value if read is None or value is None else read(value)


def check_settings(obj, where: str = "", error=ParameterOutOfRange) -> None:
    """Check every field of the dataclass ``obj`` that declares a check, in
    field order, and keep the value each one reads: a class's ``__post_init__``."""
    for f in dataclasses.fields(obj):
        if "check" in f.metadata:
            value = checked_setting(f, getattr(obj, f.name), where, error)
            object.__setattr__(obj, f.name, value)
