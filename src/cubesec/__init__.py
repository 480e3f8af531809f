"""Maximal-volume central sections of the hypercube via tight frames."""

from .frame_core import (
    EPS_TIGHT,
    Frame,
    FrameError,
    NotAFrameError,
    TightFrame,
    TightnessError,
    cross_product_frame,
    det_rank_one,
    frame_operator,
    random_tight_frame,
    sqrt_det_first_order,
    whiten,
)
from .polytope import (
    DegeneratePolytopeError,
    FacetRecord,
    SectionPolytope,
    build_section,
    rotate_facet_predict,
    rotated_section_volume,
    section_volume_fast,
    shift_facet_predict,
    shifted_section_volume,
    volume,
    volume_by_triangulation,
)
from .conditions import (
    ConditionsReport,
    check_cyclic,
    check_facet_correspondence,
    check_length_bounds,
    verify_frame,
)
from .bounds import (
    BoundsReport,
    PlanarAngles,
    ball_ratio,
    ball_upper,
    c_cube,
    c_cube_squared,
    claim_bounds,
    extremal_frame,
    extremal_squared_volume_exact,
    g,
    h,
    planar_angles,
    planar_area,
    q,
    vaaler_lower,
)
from .optimizer import (
    OptimizeResult,
    OptimizerConfig,
    ascend,
    maximize,
)

__version__ = "0.1.0"
