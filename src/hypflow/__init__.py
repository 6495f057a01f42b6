"""hypflow: numerical verification of complex hypercontractive flows.

Pieces: Gauss-Hermite quadrature and Hermite/Mehler/heat semigroup algebra,
Walsh analysis and damped flows on the Hamming cube, the two-point
inequality with counterexample search, discrete-to-continuous convergence
experiments, and the sharp Hausdorff-Young pipeline.  The CLI entry point is
`hypflow` (see hypflow.cli).

Each name is imported from the module that defines it (for example
`from hypflow.two_point import region_scan`), so importing the package, or
one of its modules, loads nothing else.
"""

__version__ = "0.1.0"
