"""Explicitly differentiated XCrossNet CTR model with verification oracles.

Keep this module import-light: the CLI configures BLAS thread caps from
XCN_THREADS before numpy is first imported, which only works if importing
the package itself does not pull in numpy.
"""

__version__ = "0.1.0"

from .errors import (
    CheckpointError,
    DataError,
    DimensionError,
    NumericError,
    XCrossNetError,
)

__all__ = [
    "XCrossNetError",
    "DimensionError",
    "DataError",
    "CheckpointError",
    "NumericError",
    "__version__",
]
