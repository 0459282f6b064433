"""Every acceptance tolerance of the package, in one table.

`Tolerances` holds the three a run's config may set (its `tolerances`
keys, with these defaults); the constants below are fixed. The identity
residuals' pass rule and the a2 flip-symmetry rule sit here too; the bound
chains' Monte Carlo and quadrature rule is `identities.ValueTable.tolerance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """A run's statistical tolerances: |z| <= z_max for Monte Carlo, an
    absolute quadrature_abs for quadrature, and the largest fraction of
    square-root arguments a chain may clip at zero."""

    z_max: float = 4.0
    quadrature_abs: float = 1e-8
    clip_fraction_max: float = 0.01

    def residual(self, name: str, method: str, mean: float, z_score: float) -> tuple[bool, dict]:
        """An identity residual's verdict and its report's tolerance record:
        |mean| <= quadrature_abs on a quadrature grid, |z| <= z_max for
        Monte Carlo. A mean that is not finite gets no verdict: it raises
        ArithmeticError naming the check. The z-score is not checked, since
        a quadrature z is NaN and a spreadless Monte Carlo z infinite by
        design."""
        if not math.isfinite(mean):
            raise ArithmeticError(f"{name}: residual mean {mean} is not finite")
        if method == "quadrature":
            bound = self.quadrature_abs
            return abs(mean) <= bound, {"kind": "absolute", "value": bound}
        return abs(z_score) <= self.z_max, {"kind": "z_score", "value": self.z_max}


#: Slack for inequalities that hold exactly on the empirical measure (the
#: chains' deterministic links, Jensen's q >= m^2): rounding only. Also the
#: floor of every Monte Carlo bound and the size of float dust.
EXACT_TOL = 1e-12

#: Largest |second field difference| of the a2 probe that still counts as
#: flip-symmetric at zero field; the difference is 0 on a symmetric model.
FLIP_SYMMETRY_TOL = 1e-8


def flip_symmetric(second: float) -> bool:
    """Whether the a2 probe's second field difference is within
    FLIP_SYMMETRY_TOL of 0; one that is not finite gets no verdict and
    raises ArithmeticError."""
    if not math.isfinite(second):
        raise ArithmeticError(f"a2 second field difference {second} is not finite")
    return abs(second) <= FLIP_SYMMETRY_TOL


#: Largest asymmetry, relative to the largest entry, of a matrix accepted as
#: Hermitian: the builder's sums are exact, so only rounding remains.
HERMITIAN_TOL = 1e-12

#: Relative budget of the eigendecomposition's reconstruction and
#: orthonormality self-checks; a sound `eigh` misses them by rounding only.
SPECTRUM_TOL = 1e-10

#: Largest imaginary part, relative to the real part, of a dense oracle's
#: real-valued trace: rounding of a Hermitian contraction.
IMAGINARY_TOL = 1e-10

#: |x| below which the Duhamel kernel takes its series form exp(-s)(1 +
#: x^2/6): there the series' truncation error x^4/120 is below 1e-18.
DUHAMEL_SERIES_SWITCH = 1e-4

#: The selftest's relations that are exact in exact arithmetic: algebra,
#: gauge invariance, the change of variables, Gaussian quadrature moments
#: and the pair kernel against the per-bond enumerator.
ROUNDING_TOL = 1e-12

#: The selftest's relative gap of the log-density gauge covariance: a log
#: and a square of draws up to several std-devs.
DENSITY_TOL = 1e-10

#: The selftest's gap between the spectral Gibbs expectation and the
#: scaling-and-squaring expm oracle.
EXPM_TOL = 1e-8

#: The selftest's gap between the spectral Duhamel bracket and Simpson's
#: rule over 200 imaginary-time intervals (discretization error).
SIMPSON_TOL = 1e-7

#: The selftest's central-difference field step for the linear-response
#: identity, and the gap it may leave: the O(h^2) difference error and the
#: eps/h rounding are both far below it.
DERIVATIVE_STEP = 1e-4
DERIVATIVE_TOL = 1e-6
