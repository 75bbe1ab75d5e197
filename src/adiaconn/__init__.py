"""adiaconn: adiabatic connections, transport, curvature and holonomy for
parameter-dependent Hermitian matrix families."""

from .operator_core import (
    DegenerateSpectrumError,
    SpectralDecomposition,
    UnitaryOperator,
    expm_hermitian,
    fix_phase,
    spectral_decompose,
    wrap_phase,
)
from .models import (
    DomainViolationError,
    ModelFileError,
    ModelSpec,
    OscillatorModel,
    ParametricHamiltonian,
    Su2Model,
    constant_model,
    parse_model_file,
    serialize_model_spec,
)
from .connection import (
    ConnectionOneForm,
    ShiftOperator,
    TimeAverageConfig,
    connection_spectral,
    connection_time_average,
    gauge_transform,
    maurer_cartan_sample,
    shift_operator,
)
from .transport import (
    DrivingResult,
    HolonomyResult,
    PathSpec,
    Schedule,
    StepSizeError,
    TransportResult,
    counterdiabatic_evolve,
    holonomy,
    linear_schedule,
    transport_operator,
    wilson_loop_phases,
)
from .curvature import (
    BerryCurvatureTable,
    CurvatureTwoForm,
    GridTooCoarseError,
    SurfacePatch,
    berry_curvature_at,
    berry_curvature_levels,
    berry_phase_surface,
    diagonality_residual,
    small_loop_check,
    yang_mills_curvature,
)
from .nast import (
    Lasso,
    SurfaceOrderedProduct,
    lasso_holonomy,
    maurer_cartan_flatness,
    nast_residual,
    surface_ordered_product,
)
from . import geometry, reference

__version__ = "0.1.0"
