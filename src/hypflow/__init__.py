"""hypflow: numerical verification of complex hypercontractive flows.

Pieces: Gauss-Hermite quadrature and Hermite/Mehler/heat semigroup algebra,
Walsh analysis and damped flows on the Hamming cube, the two-point
inequality with counterexample search, discrete-to-continuous convergence
experiments, and the sharp Hausdorff-Young pipeline.  The CLI entry point is
`hypflow` (see hypflow.cli).

The names below are re-exported lazily (PEP 562): `hypflow.X` imports the
one module that defines X on first use, so importing the package, or one of
its modules, loads nothing else.
"""

import importlib

__version__ = "0.1.0"

# name -> the module that defines it
_EXPORTS = {
    "BecknerExpansion": "cube",
    "CubeFunction": "cube",
    "SymmetricSpec": "cube",
    "apply_Tzk": "cube",
    "beckner_expand": "cube",
    "mixed_norm": "cube",
    "mixed_norm_collapsed": "cube",
    "phi_symmetric": "cube",
    "walsh_analyze": "cube",
    "AccuracyError": "errors",
    "DomainError": "errors",
    "EvaluatorMismatchError": "errors",
    "HypflowError": "errors",
    "ExponentTriple": "exponents",
    "conjugate_exponent": "exponents",
    "convergence_experiment": "flows",
    "discrete_flow": "flows",
    "janson_flow": "flows",
    "janson_heat": "flows",
    "janson_mehler": "flows",
    "janson_quadrature": "flows",
    "GaussianAtom": "gaussian_atoms",
    "fourier_transform_atom": "gaussian_atoms",
    "ExpFamily": "hausdorff_young",
    "HYInput": "hausdorff_young",
    "exp_flow_phi": "hausdorff_young",
    "gaussian_extremizer_input": "hausdorff_young",
    "hy_endpoints": "hausdorff_young",
    "hy_verify": "hausdorff_young",
    "lemma_A_check": "hausdorff_young",
    "lemma_F_check": "hausdorff_young",
    "phi_flow": "hausdorff_young",
    "sharp_constant": "hausdorff_young",
    "HermiteSeries": "hermite",
    "PolySeries": "hermite",
    "basis_convert": "hermite",
    "gaussian_smooth": "hermite",
    "heat_poly_series": "hermite",
    "hermite_eval": "hermite",
    "QuadratureRule": "quadrature",
    "gh_rule": "quadrature",
    "ConvergenceTable": "reporting",
    "FlowReport": "reporting",
    "SearchBudget": "two_point",
    "extremal_ratio": "two_point",
    "real_failure_threshold": "two_point",
    "region_scan": "two_point",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
