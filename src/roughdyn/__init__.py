"""roughdyn: pathwise solutions of evolution equations driven by
Hölder-rough paths (fractional Brownian motion with H > 1/2), with
set-valued cocycle verification.

Layout: spectral (operator/semigroup), paths (fBm sampling and Hölder
statistics), fracint (fractional-derivative pathwise integral), solver
(mild operator and weighted fixed point), heat (worked 1-D example),
dynsys (solution map, cocycle, semicontinuity), cli (experiment runner).
"""

from .paths import HolderParams, SampledPath
from .spectral import SpectralOperator, laplacian_1d

__version__ = "0.1.0"

# one numpy implementation; the name stays because benchmark records read it
kernel_backend = "numpy"

__all__ = [
    "HolderParams",
    "SampledPath",
    "SpectralOperator",
    "laplacian_1d",
    "kernel_backend",
    "__version__",
]
