"""Exception hierarchy.

Input errors signal malformed data or configuration; statistical errors
signal that the data violate a condition the estimators need (rank,
invertibility, nonzero break). The CLI maps these to exit codes 1 and 2.
"""


class PanelBreakError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PanelBreakError):
    """Malformed input data or configuration."""


class UnbalancedPanel(InputError):
    """A (unit, time) pair is missing; the panel must be balanced."""


class DuplicateObservation(InputError):
    """A (unit, time) pair appears more than once."""


class NonFiniteValue(InputError):
    """NaN or infinity encountered in input data."""


class RaggedRow(InputError):
    """An input row has the wrong number of fields."""


class NonFiniteInput(InputError):
    """Non-finite values passed to a numerical kernel."""


class ConfigInvariantViolation(InputError):
    """A simulation config violates one of its invariants."""


class StatisticalError(PanelBreakError):
    """The data fail a condition required by the statistical theory."""


class RankDeficientDesign(StatisticalError):
    """Stacked regressor matrix is numerically rank deficient."""


class RankConditionFailure(StatisticalError):
    """The factor-proxy rank condition fails at a candidate break date."""


class SingularCovariance(StatisticalError):
    """A covariance matrix is not invertible at tolerance."""


class ZeroBreakMagnitude(StatisticalError):
    """Estimated break size is zero; the confidence interval is undefined."""


class DegenerateScale(StatisticalError):
    """Quadratic form in the confidence-interval scale is not positive."""


class EmptyCandidateSet(StatisticalError):
    """No admissible candidate break dates for this sample size."""


class ExperimentError(PanelBreakError):
    """Too many Monte Carlo replications failed."""
