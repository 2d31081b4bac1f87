"""Exception types shared across the package.

Everything derives from CantorError so callers can catch one base class.
DataError covers malformed mathematical input (bad matrices, inadmissible
words, mismatched levels, unreadable files); the remaining leaves cover
resource caps and failed Perron solves, which the command line maps to
distinct exit codes.
"""


class CantorError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(CantorError):
    """Command line was called incorrectly (unknown flag, missing argument)."""


class DataError(CantorError):
    """Input data violates a documented precondition."""


# --- matrix validation -------------------------------------------------------

class NonBinaryEntry(DataError):
    """A matrix entry is not 0 or 1."""


class MissingDiagonal(DataError):
    """A strict admissibility matrix lacks a 1 somewhere on the diagonal."""


class Reducible(DataError):
    """The matrix is not irreducible (some state cannot reach some other)."""


class DeadRow(DataError):
    """A matrix row is identically zero, so no digit can follow that letter."""


# --- words, points, functions ------------------------------------------------

class EmptyWord(DataError):
    """The empty word was passed where a nonempty one is required."""


class InadmissibleWord(DataError):
    """A word contains a forbidden transition."""


class LevelTooLow(DataError):
    """A cylinder function cannot be refined to a coarser level."""


class LevelOutOfRange(DataError):
    """A level, depth or size lies outside its valid range."""


class IndexOutOfRange(DataError):
    """A letter, edge, or coefficient index lies outside its valid range."""


class MatrixMismatch(DataError):
    """Two objects built over different admissibility matrices were combined."""


# --- analysis-specific --------------------------------------------------------

class NoConvergence(CantorError):
    """No Perron data within the tolerance: an eigensolve or inverse-iteration solve
    failed, a vector is not positive, or the eigen-residual is over `tol`."""


class NegativePotential(DataError):
    """A Ruelle potential takes a negative value."""


class NonPositiveWeight(DataError):
    """A weight vector entry is zero or negative on the required support."""


class CapExceeded(CantorError):
    """An enumeration would exceed the configured cap."""


class SinkFound(DataError):
    """A directed graph has a vertex with no outgoing edge."""


class BaseEdgeMismatch(DataError):
    """The base edge of a graph wavelet system does not point at the base vertex."""


class FileFormatError(DataError):
    """A data file does not follow its documented format."""
