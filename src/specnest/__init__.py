"""Curve-ordered normal + nilpotent matrix decomposition and its calculus."""

from . import serialize
from .curve import HilbertCurveMap
from .decompose import (
    ConvergenceReport,
    DecompositionResult,
    convergence_report,
    decompose,
    expectation_full,
    pinch_commutant,
)
from .detbrown import (
    DensityGrid,
    SpectralMeasure,
    block_det_identity_check,
    brown_density_grid,
    brown_measure_exact,
    fk_determinant,
    regularized_log_det,
)
from .ensembles import (
    EnsembleSpec,
    Ginibre,
    Jordan,
    NormalPlusNilpotent,
    UpperTriangularRandom,
    generate,
)
from .hsnest import (
    Ball,
    CurveSegment,
    build_nest,
    default_curve,
    hs_projection,
    power_limit_operator,
)
from .majorize import (
    DEFAULT_GAUGES,
    LogShift,
    Power,
    log_plus_equivalence_check,
    log_submajorizes,
    pinch_log_check,
    shift_lemma_check,
    submajorizes,
    weyl_check,
)
from .matrices import (
    ProjectionNest,
    operator_norm,
    singular_values,
)

__version__ = "0.1.0"
