"""Typed exceptions used across the package.

Every failure mode callers are expected to handle gets its own class so
tests and the CLI can map errors to outcomes without string matching.
The command line exits with 3 on a `DataError`, 4 on a `NumericError`
and 2 on any other `BioHashError`.
"""


class BioHashError(Exception):
    """Base class for all errors raised by this package."""


class DataError(BioHashError):
    """Base class for bad files, datasets and codes (exit code 3)."""


class NumericError(BioHashError):
    """Base class for numeric failures (exit code 4)."""


# file parsing and dataset construction

class BadMagic(DataError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(DataError):
    """File ends before the declared payload is complete."""


class DimensionMismatch(DataError):
    """Vector/matrix dimensions disagree (rows, columns, or label count)."""


class LabelOutOfRange(DataError):
    """A class label lies outside the valid range for the format."""


class RaggedLine(DataError):
    """A text line declares a different vector width than the first line."""


class ParseError(DataError):
    """A text field could not be parsed as a number."""


class MissingLabels(DataError):
    """The requested protocol needs labels but the dataset has none."""


class TooFewPerClass(DataError):
    """A class, or the whole dataset, has fewer rows than the protocol needs."""


class LayoutMismatch(BioHashError):
    """Flattened dimension d does not factor into the given (H, W, C)."""


class BadHeader(DataError):
    """A file header declares values no valid file holds (m = 0, k > m, ...)."""


class MalformedCode(DataError):
    """A sparse code row is not strictly ascending or holds an index >= m,
    or a dense code holds a value other than -1 and +1."""


class NonFiniteInput(DataError):
    """An input row to an encoder holds NaN or infinity."""


# encoding and retrieval

class KOutOfRange(BioHashError):
    """Requested hash length k is not in [1, m]."""


class SamplingTooLarge(BioHashError):
    """Per-row sampling degree exceeds the input dimension."""


class ShapeMismatch(DataError):
    """Two codes (or a code and a bank) disagree in m, k, or kind."""


class RankDeficient(NumericError):
    """Covariance ran out of variance before k components were found."""


class EmptyQuerySet(DataError):
    """An aggregate over queries was requested with zero queries."""


class DegenerateVariance(NumericError):
    """A correlation was requested over a constant list."""


# numerics

class NonFiniteUpdate(NumericError):
    """A weight update produced NaN or Inf.

    ``last_weights`` carries the most recent finite weight matrix so a
    long training run is recoverable from the exception.
    """

    def __init__(self, message, last_weights=None):
        super().__init__(message)
        self.last_weights = last_weights


class NoBracket(NumericError):
    """Root finding could not validate a sign change on the interval."""


class DomainError(NumericError):
    """A closed-form expression was evaluated outside its domain."""


class DegenerateRow(NumericError):
    """A weight row has near-zero norm where a direction is required."""


class TooSmall(BioHashError):
    """Spatial extent is smaller than the requested window."""
