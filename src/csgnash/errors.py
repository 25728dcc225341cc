"""Exception hierarchy shared across the package."""


class CsgError(Exception):
    """Base class for all errors raised by this package."""


# --- model construction -----------------------------------------------------

class ModelError(CsgError):
    """Problem with a game/MDP definition or construction."""


class EmptyCoalition(ModelError):
    pass


class FullCoalition(ModelError):
    pass


class IncompleteStrategy(ModelError):
    """A reachable (state, memory-mode) pair has no strategy entry."""


# --- modelling language -----------------------------------------------------

class LanguageError(CsgError):
    """Base class for modelling-language errors; carries a position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column or 0}: {message}"
        super().__init__(message)


class ModelSyntaxError(LanguageError):
    pass


class UndeclaredSymbol(LanguageError):
    pass


class ModelTypeError(LanguageError):
    pass


class AlphabetViolation(LanguageError):
    pass


class UndefinedConstant(LanguageError):
    pass


class UpdateClash(ModelError):
    """Two commands of one player fire under the same joint action."""


class ProbabilitySum(ModelError):
    """Update probabilities of an enabled command do not sum to one."""


class RangeOverflow(ModelError):
    """An update pushes a variable outside its declared range."""


# --- property logic ---------------------------------------------------------

class PropertyError(CsgError):
    pass


class PropertySyntaxError(PropertyError):
    pass


class UnknownPlayer(PropertyError):
    pass


class CoalitionNotPartition(PropertyError):
    pass


class UnknownReward(PropertyError):
    pass


class BadThreshold(PropertyError):
    pass


class UnsupportedOperator(PropertyError):
    """Formula needs an algorithm outside the supported fragment."""


# --- solvers ----------------------------------------------------------------

class SolverError(CsgError):
    pass


class DimensionMismatch(SolverError):
    pass


class EmptyList(SolverError):
    pass


class NonFinitePayoff(SolverError):
    """A bimatrix payoff is NaN or infinite."""


class InfiniteValue(SolverError):
    """Expected reward is infinite; carries the offending states."""

    def __init__(self, message, states=()):
        super().__init__(message)
        self.states = tuple(states)


class AssumptionViolated(SolverError):
    """The convergence assumption fails and the caller asked for it to hold;
    carries the assumption report (``report``)."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class NotConverged(SolverError):
    """Value iteration stopped without meeting the convergence criterion.

    Carries the result object of the failed solve (``result``, None at an
    MDP's iteration limit) so callers can inspect its last value vectors and
    the trace of the final sweeps, and the assumption report of the solved
    game (``assumption``) once the solver has checked it.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
        self.assumption = None
