"""The public surface: the names the package exports, and each submodule's
``__all__``.  Adding or removing a public name means editing this file."""

import importlib
import pkgutil
import types

import pytest

import mahler

PUBLIC_NAMES = {
    # errors
    "ParseError", "QuadratureError", "RegimeBoundaryError", "ResolutionError",
    # lpoly
    "KLinear", "LaurentPoly2", "NewtonPolygon", "Face", "parse_poly",
    "monomial_transform", "newton_polygon", "is_tempered", "cyclotomic",
    # quad
    "QuadResult", "integrate", "integrate_torus2",
    # measure
    "MeasureResult", "mahler_jensen", "mahler_torus2", "mahler_1var",
    # elliptic
    "LandenResult", "carlson_rf", "period_integral", "involution_v",
    "landen_check",
    # families
    "CriticalRoots", "R_THRESHOLD", "family_poly",
    "wt_family_poly", "regime_tag", "critical_roots", "branch_roots",
    "p_measure", "q_measure", "r_measure", "p_derivative", "q_derivative",
    "r_derivative",
    # specialfn
    "DirichletChar", "dirichlet_char", "kronecker_symbol", "bloch_wigner",
    "hurwitz_zeta", "dirichlet_l", "l_deriv_minus1", "m_A_dilog",
    # eclf
    "WeierstrassCurve", "CurveLData", "CURVE_224", "CURVE_210", "CURVE_15",
    "curve_ek", "ap_count", "resolve_bad_data", "lambda_completed",
    "lambda_with_error", "l_deriv_at_0",
}

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(mahler.__path__))


def test_package_exports_exactly_the_public_names():
    exported = {name for name, value in vars(mahler).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 57
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_names_exist(name):
    module = importlib.import_module(f"mahler.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
