"""Analysis pipeline for a two-component negative-feedback loop whose
production delay follows a threshold rule: the delay grows with the amount
of regulator accumulated since the delayed instant.

The stages mirror how one studies such a system: locate the positive
equilibrium, find the critical delay scale where a conjugate pair of
characteristic roots crosses the imaginary axis, reduce to the cubic
normal form to decide whether the bifurcating cycle is stable, and
integrate either the original state-dependent-delay equations or the
unit-delay transformed system to watch the regimes directly.

The analysis stages run on the standard library. The integrator names
below are exported lazily, so numpy loads only when one of them is first
used.
"""

from .errors import (ConfigError, DegenerateProjection, DenominatorBreach,
                     HistoryTooShort, HypothesisViolated, IncompatibleData,
                     InsufficientCycles, IntegrationError, NoBracket,
                     NoConvergence, NonPositive, NoSignChange,
                     ResonanceViolation, SddhopfError, SingularFrame,
                     SlopeBoundWarning, UnhandledRegime)
from .nonlinearity import (CallableMap, HillRepressor, LinearMap,
                           NonlinearitySpec, ZeroMap, hes1_nonlinearity)
from .model import (DENOMINATOR_FLOOR, Equilibrium, ModelParams,
                    find_equilibrium, hes1_params, rhs_original,
                    rhs_transformed)
from .stability import (CharParams, HopfPoint, StabilityClassification,
                        StabilityKind, char_eval, classify_stability,
                        solve_hopf, transversality)
from .normalform import (CriticalFrame, Direction, Kappa3Quadratic,
                         NormalFormReport, QuadraticCoeffs,
                         analyze_normal_form, classify_direction, critical_c,
                         critical_frame, kappa3_quadratic, quadratic_coeffs)

__version__ = "0.1.0"

# names resolved from the integrator module on first access (PEP 562)
_DDE_EXPORTS = frozenset((
    "CompatibilityReport", "History", "InitialHistory", "OscillationSummary",
    "RunStats", "Trajectory", "bump_history", "check_compatibility",
    "classify_dynamics", "classify_run", "constant_history", "integrate_sdd",
    "integrate_transformed", "measure_oscillation", "run_perturbed",
    "solve_delay"))


def __getattr__(name):
    if name in _DDE_EXPORTS:
        from . import dde
        return getattr(dde, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | _DDE_EXPORTS)
