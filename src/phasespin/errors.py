"""Exception types shared across the package."""


class PhaseSpaceError(Exception):
    """Base class for errors raised by phasespin."""


class GridDomainError(PhaseSpaceError):
    """A requested point or feature falls outside the grid's coverage."""


class UnsupportedModelError(PhaseSpaceError):
    """The operator/potential shape is outside the supported families."""


class ExtrapolationError(PhaseSpaceError):
    """A regularized moment has no finite alpha -> 0+ limit.

    Raised where kappa = 0 inside a term's window; the message names x, the
    moment order and the term's (m, n) and label.
    """


class EvolutionError(PhaseSpaceError):
    """A non-finite value appeared during time stepping.

    ``step_index`` locates the offending step.
    """

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index
