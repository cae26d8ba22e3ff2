"""Exception types shared across the package.

Grouped by pipeline stage so the CLI can map them to exit codes
(config 1, solver 2, resonance 3, integration 4).
"""


class SddhopfError(Exception):
    """Base class for all package errors."""


class ConfigError(SddhopfError):
    """Malformed or inconsistent run configuration."""


# -- solver-stage errors -----------------------------------------------------

class NoConvergence(SddhopfError):
    """An iterative solve did not reach its residual tolerance."""


class NonPositive(SddhopfError):
    """Positive-orthant root requested but the root found is not positive."""


class NoRoot(SddhopfError):
    """Expected a bracketed root and found no sign change."""


class HypothesisViolated(SddhopfError):
    """Parameters fall outside the regime where a Hopf point exists
    (mu_m*mu_p >= -p with p <= 0: the equilibrium is stable for every eps)."""


class UnhandledRegime(SddhopfError):
    """Parameter regime the analysis does not classify (positive coupling
    product p > 0). Reported rather than guessed."""


class SingularFrame(SddhopfError):
    """Critical eigenvector is undefined (f'(xi*) = 0)."""


class DegenerateProjection(SddhopfError):
    """Amplitude-equation projection denominator is numerically zero."""


class NoSignChange(SddhopfError):
    """Re kappa3(c) keeps one sign on the searched interval; no critical c."""


# -- nonlinear-resonance error (own exit code) -------------------------------

class ResonanceViolation(SddhopfError):
    """2i*omega is (numerically) a characteristic root, so the second-order
    particular solution is not well posed."""


# -- integration-stage errors ------------------------------------------------

class IntegrationError(SddhopfError):
    """Base class for simulation failures."""


class HistoryTooShort(IntegrationError):
    """Initial history does not cover the initial delay interval."""


class NoBracket(IntegrationError):
    """Threshold-delay equation has no root in the search bracket."""


class DenominatorBreach(IntegrationError):
    """Transformed-system denominator D = 1 - c(-mu_m r + f(xi_1)) fell to
    model.DENOMINATOR_FLOOR; the time transformation is invalid at D = 0."""


class InsufficientCycles(IntegrationError):
    """Trajectory tail has too few extrema to measure oscillation."""


class IncompatibleData(IntegrationError):
    """Initial data fails the compatibility conditions and force=False."""


class SlopeBoundWarning(UserWarning):
    """c * |slope of x over the delay interval| >= 1: the threshold equation
    may have multiple roots. Solve proceeds; result recorded with a warning."""
