"""Analysis pipeline for a two-component negative-feedback loop whose
production delay follows a threshold rule: the delay grows with the amount
of regulator accumulated since the delayed instant.

The stages mirror how one studies such a system: locate the positive
equilibrium, find the critical delay scale where a conjugate pair of
characteristic roots crosses the imaginary axis, reduce to the cubic
normal form to decide whether the bifurcating cycle is stable, and
integrate either the original state-dependent-delay equations or the
unit-delay transformed system to watch the regimes directly.
"""

from .errors import (ConfigError, DegenerateProjection, DenominatorBreach,
                     HistoryTooShort, HypothesisViolated, IncompatibleData,
                     InsufficientCycles, IntegrationError, NoBracket,
                     NoConvergence, NonPositive, NoRoot, NoSignChange,
                     ResonanceViolation, SddhopfError, SingularFrame,
                     SlopeBoundWarning, UnhandledRegime)
from .nonlinearity import (CallableMap, HillRepressor, LinearMap,
                           NonlinearitySpec, ZeroMap, derivatives_consistent,
                           hes1_nonlinearity, validate_derivatives)
from .model import (DENOMINATOR_FLOOR, Equilibrium, ModelParams,
                    find_equilibrium, hes1_params, rhs_original,
                    rhs_transformed)
from .stability import (CharParams, HopfPoint, StabilityClassification,
                        StabilityKind, char_eval, characteristic_root_near,
                        classify_stability, solve_beta, solve_hopf,
                        solve_hopf_direct, transversality, winding_count)
from .normalform import (CriticalFrame, Direction, Kappa3Quadratic,
                         NormalForm, NormalFormReport, QuadraticCoeffs,
                         analyze_normal_form, classify_direction, critical_c,
                         critical_frame, kappa3_quadratic, normal_form,
                         normal_form_constant_delay, quadratic_coeffs,
                         quadratic_coeffs_closed_form, quadratic_coeffs_direct)
from .dde import (CompatibilityReport, History, InitialHistory,
                  OscillationSummary, RunStats, Trajectory, bump_history,
                  check_compatibility, classify_dynamics, classify_run,
                  constant_history, escape_sweep, integrate_sdd,
                  integrate_transformed, measure_oscillation, run_perturbed,
                  solve_delay)

__version__ = "0.1.0"
