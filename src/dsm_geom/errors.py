"""Exception types shared across the package."""


class DsmGeomError(Exception):
    """Base class for all package errors."""


class DomainError(DsmGeomError):
    """A parameter point lies outside the declared chart domain."""


class MissingStatistic(DsmGeomError):
    """A data set cannot answer a statistic query the divergence needs."""


class NumericalFailure(DsmGeomError):
    """A numerical routine could not reach its accuracy target."""


class NoConvergence(DsmGeomError):
    """An iterative solver stopped without meeting its tolerance; the message
    names the cause."""


class Unsupported(DsmGeomError):
    """The model does not provide the requested optional capability."""


class Condition4Violated(DsmGeomError):
    """Fibre members disagree on the divergence Hessian beyond tolerance.

    Carries the evidence, and the point it was measured at, so callers can
    report the failure as data.
    """

    def __init__(self, message, point, deviation, member_hessians, member_labels):
        super().__init__(message)
        self.point = point
        self.deviation = deviation
        self.member_hessians = member_hessians
        self.member_labels = member_labels


class ProbeSingular(DsmGeomError):
    """The off-fibre probe matrix is numerically singular."""


class MetricNotPD(DsmGeomError):
    """The evaluated metric is not positive definite."""
