"""hypflow: numerical verification of complex hypercontractive flows.

Pieces: Gauss-Hermite quadrature and Hermite/Mehler/heat semigroup algebra,
Walsh analysis and damped flows on the Hamming cube, the two-point
inequality with counterexample search, discrete-to-continuous convergence
experiments, and the sharp Hausdorff-Young pipeline.  The CLI entry point is
`hypflow` (see hypflow.cli).
"""

__version__ = "0.1.0"

from .cube import (
    BecknerExpansion,
    BlockCounts,
    CubeFunction,
    SymmetricSpec,
    apply_Tzk,
    beckner_expand,
    mixed_norm,
    mixed_norm_collapsed,
    phi_block_eval,
    phi_symmetric,
    walsh_analyze,
    walsh_synthesize,
)
from .errors import (
    AccuracyError,
    DomainError,
    EvaluatorMismatchError,
    HypflowError,
    InequalityViolationError,
)
from .flows import (
    convergence_experiment,
    discrete_flow,
    janson_flow,
    janson_heat,
    janson_mehler,
    janson_quadrature,
)
from .gaussian_atoms import (
    GaussianAtom,
    exp_tilt,
    fourier_transform_atom,
    gamma_integral,
    mehler_apply_atom,
    mehler_atom_scaled,
    smooth_imaginary,
)
from .hausdorff_young import (
    ExpFamily,
    HYInput,
    exp_flow_phi,
    gaussian_extremizer_input,
    hy_endpoints,
    hy_verify,
    lemma_A_check,
    lemma_F_check,
    phi_flow,
    sharp_constant,
)
from .hermite import (
    HermiteSeries,
    PolySeries,
    basis_convert,
    gaussian_smooth,
    heat_poly,
    heat_poly_series,
    hermite_eval,
    mehler_apply_series,
)
from .quadrature import QuadratureRule, gh_rule
from .reporting import ConvergenceTable, FlowReport
from .two_point import (
    ExponentTriple,
    MarginRecord,
    SearchBudget,
    extremal_ratio,
    infinitesimal_margin,
    real_failure_threshold,
    region_scan,
    two_point_margin,
)
