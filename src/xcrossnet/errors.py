"""Exception types shared across the package, and the checks that turn a
bad setting into a `name: ...` problem message."""

import math


class XCrossNetError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(XCrossNetError):
    """Vector/matrix/layer dimensions do not line up."""


class DataError(XCrossNetError):
    """Malformed input data: bad field counts, labels, or category ids."""


class CheckpointError(XCrossNetError):
    """Checkpoint file is corrupt, truncated, or has an unknown version."""


class NumericError(XCrossNetError):
    """A non-finite value appeared where the math guarantees finiteness."""


def is_int(value) -> bool:
    """A Python int; bool is not accepted."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A Python int or float; bool is not accepted."""
    return is_int(value) or isinstance(value, float)


def int_problems(values: dict, low: int = 1) -> list[str]:
    """A problem for each of values ({name: value}) that is not an int >= low."""
    return [f"{name}: must be >= {low}" if is_int(value) else
            f"{name}: must be an integer, got {value!r}"
            for name, value in values.items() if not (is_int(value) and value >= low)]


def finite_problems(values: dict, low: float | None = None) -> list[str]:
    """A problem for each of values ({name: value}) that is not a finite
    number, or not >= low when low is given."""
    return [f"{name}: must be >= {low}" if is_number(value) and math.isfinite(value) else
            f"{name}: must be a finite number, got {value!r}"
            for name, value in values.items()
            if not (is_number(value) and math.isfinite(value) and (low is None or value >= low))]
