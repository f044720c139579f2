"""Cantor-set constructions, piecewise-affine extensions of their natural
correspondences, and exact dilatation statistics of the resulting maps."""

from .analysis import (DavidParams, DilatationProfile, check_david,
                       dilatation_profile, level_ratio, qc_dimension_bounds,
                       theoremA_report, theoremB_report)
from .cantor import (CantorLevel, Construction, DimensionEstimate,
                     GaugeSequence, box_dimension, build_level,
                     build_sigma_level, count_boxes, count_segment_boxes,
                     depth_guard, dimension_bounds, frostman_profile,
                     make_gauge)
from .errors import (DepthLimitError, DomainError, GeometryError,
                     OrientationError, QCForgeError, ValidationError)
from .geometry import (AffineMap, Point, Triangle, affine_three_point,
                       dilatation, invert_affine)
from .homeo import (EvalResult, HierarchicalMap, Polyline, curve_box_dimension,
                    curve_polyline, evaluate, invert,
                    max_dilatation_per_level, standard_homeo, theoremB_homeo)
from .qcmaps import (PiecewiseAffineMap, ValidationReport, annulus_extension,
                     annulus_extension_any, invert_piecewise, twist_extension,
                     validate)

__version__ = "0.1.0"
