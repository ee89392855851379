"""Numerical Mahler measures of bivariate Laurent polynomials.

Submodules:
  lpoly     exact Laurent polynomials, parser, Newton polygon, temperedness
  quad      1D tanh-sinh quadrature on finite intervals and the 2D torus
            trapezoid oracle
  measure   the generic Jensen-formula Mahler measure engine
  families  the parametric families P_k, Q_k, R_k: closed-form measures and
            piecewise derivative formulas
  elliptic  Carlson R_F, DLMF 19.29.4 periods, the Landen-type identity
  specialfn Bloch-Wigner dilogarithm, Hurwitz zeta, Dirichlet L-values
  eclf      elliptic-curve L-functions via point counting and the smoothed
            approximate functional equation
  cli       command-line front end
"""

from .errors import (
    ParseError,
    QuadratureError,
    RegimeBoundaryError,
    ResolutionError,
)
from .lpoly import (
    KLinear,
    LaurentPoly2,
    NewtonPolygon,
    Face,
    parse_poly,
    monomial_transform,
    newton_polygon,
    is_tempered,
    cyclotomic,
)
from .quad import QuadResult, integrate, integrate_torus2
from .measure import (
    MeasureResult,
    mahler_jensen,
    mahler_torus2,
    mahler_1var,
)
from .elliptic import (
    LandenResult,
    carlson_rf,
    period_integral,
    involution_v,
    landen_check,
)
from .families import (
    CriticalRoots,
    R_THRESHOLD,
    family_poly,
    wt_family_poly,
    regime_tag,
    critical_roots,
    branch_roots,
    p_measure,
    q_measure,
    r_measure,
    p_derivative,
    q_derivative,
    r_derivative,
)
from .specialfn import (
    DirichletChar,
    dirichlet_char,
    kronecker_symbol,
    bloch_wigner,
    hurwitz_zeta,
    dirichlet_l,
    l_deriv_minus1,
    m_A_dilog,
)
from .eclf import (
    WeierstrassCurve,
    CurveLData,
    CURVE_224,
    CURVE_210,
    CURVE_15,
    curve_ek,
    ap_count,
    resolve_bad_data,
    lambda_completed,
    lambda_with_error,
    l_deriv_at_0,
)

__version__ = "0.1.0"
