"""Joint radar receive-filter and waveform co-design by alternating
minimization, with four equivalent waveform-stage solvers."""

from types import ModuleType as _ModuleType

from .am_driver import (
    SOLVERS,
    IterateRecord,
    IterateTrace,
    RunReport,
    constraint_set_drift,
    draw_waveform,
    full_objective,
    functional_relation_check,
    hull_diameter,
    initial_waveform,
    run,
)
from .errors import (
    CostapError,
    Infeasible,
    NoSignChange,
    NotHermitian,
    NotPSD,
    NumericalFailure,
    ParseError,
    SingularCovariance,
    ValidationError,
    ZeroSteering,
    ZeroWaveform,
)
from .harness_cli import (
    ComparisonTable,
    ExperimentSpec,
    TableRow,
    default_scenario_path,
    emit_table,
    emit_trace,
    load_scenario,
    main,
    read_trace,
    run_comparison,
    scenario_from_dict,
)
from .matrix_ops import bisect_root, hermitian_sqrt
from .radar_model import (
    ClutterSpec,
    CovarianceBundle,
    InterfererSpec,
    ScenarioConfig,
    SpaceTimeCov,
    TargetSpec,
    build_bundle,
    build_target_map,
    doppler_steering,
    spatial_steering,
    total_cov,
)
from .receiver import mvdr_update
from .waveform_solvers import (
    DualCertificate,
    WaveformProblem,
    WaveformSolution,
    cls_solve,
    direct_update,
    qcqp_solve,
    scale_solution,
    sdp_certificate,
    sdp_dual_solve,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules themselves are not exported.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
