"""Exact Euclidean minima and dimension bounds for real quadratic fields.

The pipeline: exact field arithmetic -> torus points and the complete
minimum search -> runtime-verified Markov partitions -> trapped cells ->
subshift entropy -> dimension-bound curves.  Floating point appears only
in the final eigenvalue stage.
"""

__version__ = "0.1.0"

from .coding import SymbolicPoint, code_qpoint, pi_eval
from .partition import (
    MarkovError,
    Partition,
    base_rectangles,
    generator,
    refine,
    verify_markov,
)
from .qfield import FieldContext, QElem, abs_norm, compare, make_context
from .sft import Subshift, avoid, dimension, entropy
from .spectrum import (
    SpectrumSample,
    certify_spectrum_point,
    davenport_minima,
    dim_curve,
    plateau_detect,
    t_infinity,
)
from .torus import (
    PointSU,
    PointXY,
    SearchBoundError,
    euclidean_min_qpoint,
    kpoint_collapse_order,
    orbit,
    phi_apply,
    su_to_xy,
    xy_to_su,
)
from .trapping import big_rectangle, i_k_set

__all__ = [
    "FieldContext",
    "MarkovError",
    "Partition",
    "PointSU",
    "PointXY",
    "QElem",
    "SearchBoundError",
    "SpectrumSample",
    "Subshift",
    "SymbolicPoint",
    "abs_norm",
    "avoid",
    "base_rectangles",
    "big_rectangle",
    "certify_spectrum_point",
    "code_qpoint",
    "compare",
    "davenport_minima",
    "dim_curve",
    "dimension",
    "entropy",
    "euclidean_min_qpoint",
    "generator",
    "i_k_set",
    "kpoint_collapse_order",
    "make_context",
    "orbit",
    "phi_apply",
    "pi_eval",
    "plateau_detect",
    "refine",
    "su_to_xy",
    "t_infinity",
    "verify_markov",
    "xy_to_su",
]
