"""Quantum corrections to classical escape from open chaotic cavities.

The package has three layers:

* closed-form survival probabilities and loop corrections (`formulas`),
* classical billiard dynamics and Monte Carlo ensembles
  (`geometry`, `dynamics`, `ensemble`),
* oscillatory-integral cross checks of the closed forms (`quadrature`),

plus a config-driven CLI (``chaodecay``) that writes CSV + manifest pairs.
"""

from .errors import (
    ChaodecayError,
    InputOutputError,
    NumericError,
    StatsError,
    SyntaxUsageError,
    ValidationError,
)
from .formulas import (
    BathSpec,
    CorrectionCurve,
    CorrectionTable,
    SemiclassicalParams,
    alpha_from_bath,
    bare_quantum_correction,
    classical_survival,
    correction_curve,
    correction_peak,
    decoherence_time,
    dwell_time,
    ehrenfest_time,
    figure3_curves,
    heisenberg_time,
    loop_correction,
    loop_correction_ehrenfest,
    loop_correction_short_time,
    loop_kernel,
    total_survival,
)
from .geometry import SHAPES, CavityGeometry
from .dynamics import batch_collide, escape_times, sample_positions
from .ensemble import (
    EnsembleSpec,
    EscapeFit,
    LyapunovResult,
    SurvivalCurve,
    VarianceResult,
    area_variance,
    decoherence_functional,
    estimate_lyapunov,
    fit_escape_rate,
    hybrid_time_grid,
    mean_free_time,
    position_variance,
    sample_ensemble,
    survival_curve,
)
from .quadrature import (
    DiagramResult,
    QuadratureSpec,
    convergence_study,
    diagram_sum,
    integrate_1leg,
    integrate_2leg,
    semiclassical_ladder,
)
from .config import RunConfig, parse_config

__version__ = "0.1.0"
