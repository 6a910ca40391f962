"""Exception hierarchy shared across the package.

Two error families matter operationally: problems with what the caller
handed us (files, schemas, parameter combinations) and problems that only
surface once the numbers are in hand (degenerate signals, failed
calibrations).  The command line layer maps the first family to exit code
2 and the second to exit code 3.
"""

from __future__ import annotations

__all__ = [
    "JrpnetError", "InputError", "FormatError", "ParseError", "SchemaError",
    "NumericError", "DegenerateInputError",
]

class JrpnetError(Exception):
    """Base class for all package-specific errors."""


class InputError(JrpnetError):
    """Malformed or inconsistent caller input (files, schemas, parameters)."""


class FormatError(InputError):
    """Structurally broken input file (ragged rows, missing columns)."""


class ParseError(InputError):
    """Well-formed container holding an unparseable value."""


class SchemaError(InputError):
    """Channel map or sidecar schema violates its contract."""


class NumericError(JrpnetError):
    """Computation failed on valid input (non-finite values, no convergence)."""


class DegenerateInputError(NumericError):
    """Input is too degenerate for the requested estimate (constant signal,
    too few samples, empty distance population)."""
