"""Typed exceptions used across the package.

Every failure mode callers are expected to handle gets its own class so
tests and the CLI can map errors to outcomes without string matching.
"""


class BioHashError(Exception):
    """Base class for all errors raised by this package."""


# file parsing and dataset construction

class BadMagic(BioHashError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(BioHashError):
    """File ends before the declared payload is complete."""


class DimensionMismatch(BioHashError):
    """Vector/matrix dimensions disagree (rows, columns, or label count)."""


class LabelOutOfRange(BioHashError):
    """A class label lies outside the valid range for the format."""


class RaggedLine(BioHashError):
    """A text line declares a different vector width than the first line."""


class ParseError(BioHashError):
    """A text field could not be parsed as a number."""


class MissingLabels(BioHashError):
    """The requested protocol needs labels but the dataset has none."""


class TooFewPerClass(BioHashError):
    """A class has fewer rows than the protocol needs to sample."""


class LayoutMismatch(BioHashError):
    """Flattened dimension d does not factor into the given (H, W, C)."""


class BadHeader(BioHashError):
    """A file header declares values no valid file holds (m = 0, k > m, ...)."""


class MalformedCode(BioHashError):
    """A sparse code row is not strictly ascending or holds an index >= m,
    or a dense code holds a value other than -1 and +1."""


class NonFiniteInput(BioHashError):
    """An input row to an encoder holds NaN or infinity."""


# encoding and retrieval

class KOutOfRange(BioHashError):
    """Requested hash length k is not in [1, m]."""


class SamplingTooLarge(BioHashError):
    """Per-row sampling degree exceeds the input dimension."""


class ShapeMismatch(BioHashError):
    """Two codes (or a code and a bank) disagree in m, k, or kind."""


class RankDeficient(BioHashError):
    """Covariance ran out of variance before k components were found."""


class EmptyQuerySet(BioHashError):
    """An aggregate over queries was requested with zero queries."""


class DegenerateVariance(BioHashError):
    """A correlation was requested over a constant list."""


# numerics

class NonFiniteUpdate(BioHashError):
    """A weight update produced NaN or Inf.

    ``last_weights`` carries the most recent finite weight matrix so a
    long training run is recoverable from the exception.
    """

    def __init__(self, message, last_weights=None):
        super().__init__(message)
        self.last_weights = last_weights


class NoBracket(BioHashError):
    """Root finding could not validate a sign change on the interval."""


class DomainError(BioHashError):
    """A closed-form expression was evaluated outside its domain."""


class DegenerateRow(BioHashError):
    """A weight row has near-zero norm where a direction is required."""


class TooSmall(BioHashError):
    """Spatial extent is smaller than the requested window."""
