"""Laurent polynomial arithmetic, parser, Newton polygon, temperedness."""

import importlib.util
import json
import random
import re
from pathlib import Path

import pytest

from mahler.errors import ParseError
from mahler.lpoly import (
    KLinear,
    _cyclotomic_split,
    _is_cyclotomic_product,
    LaurentPoly2,
    cyclotomic,
    is_tempered,
    monomial_transform,
    newton_polygon,
    parse_poly,
)


def test_parse_linear():
    p = parse_poly("x+y-1")
    assert p.terms == {(1, 0): 1, (0, 1): 1, (0, 0): -1}


def test_parse_family_p3():
    p = parse_poly("(x^2+x+1)*y^2+k*x*(x+1)*y+x*(x^2+x+1)", 3)
    expected = {(0, 2): 1, (1, 2): 1, (2, 2): 1,
                (1, 1): 3, (2, 1): 3,
                (1, 0): 1, (2, 0): 1, (3, 0): 1}
    assert p.terms == expected


def test_parse_family_r4():
    p = parse_poly("y^3-y+x^3-x+k*x*y", 4)
    assert p.terms == {(0, 3): 1, (0, 1): -1, (3, 0): 1, (1, 0): -1, (1, 1): 4}


def test_parse_symbolic_k():
    p = parse_poly("y^3-y+x^3-x+k*x*y")
    assert p.terms[(1, 1)] == KLinear(0, 1)
    assert p.substitute_k(4).terms[(1, 1)] == 4
    assert p.has_symbolic_k()
    assert not p.substitute_k(4).has_symbolic_k()


def test_parse_negative_exponents():
    p = parse_poly("x^-2*y^3 + 2*x^-1")
    assert p.terms == {(-2, 3): 1, (-1, 0): 2}


@pytest.mark.parametrize("text", [
    "x+*y", "(x+y", "x^", "x^y",
    # deeper than the recursion limit; it raised RecursionError
    pytest.param("(" * 248 + "x" + ")" * 248, id="nested-248"),
    # non-ASCII digits: "²" raised a bare ValueError from int(), and
    # "x+١" (Arabic-Indic one) parsed as 1+x
    "²", "x+١",
    # longer than int()'s 4,300-digit limit; it raised a bare ValueError
    pytest.param("1" * 5000, id="digits-5000")])
def test_parse_syntax_errors_carry_position(text):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert exc.value.position >= 0


def test_parse_unknown_identifier():
    with pytest.raises(ParseError):
        parse_poly("x+z")


def test_negative_exponent_only_on_bare_variable():
    with pytest.raises(ParseError):
        parse_poly("(x+y)^-1")
    with pytest.raises(ParseError):
        parse_poly("2^-1")


def test_k_degree_limited():
    with pytest.raises(ValueError):
        parse_poly("k*k*x")


def test_power_makes_no_unused_squaring():
    # the squaring after the last bit of the exponent was computed and
    # dropped, and for a linear k it raised "degree > 1 in k"
    assert parse_poly("(k+y)^1") == parse_poly("k+y")
    assert parse_poly("(k*x+1)^1", 2.5) == parse_poly("k*x+1", 2.5)
    assert parse_poly("(x+y)^5") == parse_poly("(x+y)^4*(x+y)")
    with pytest.raises(ValueError):
        parse_poly("(k+y)^2")


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _corpus_expressions():
    """(expression, k) of every polynomial the benchmark's jensen-corpus
    parses: the P, R and Q templates at its k, 1+x+y, A and the generated
    polynomials of bench/refs.json."""
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    refs = json.loads((BENCH / "refs.json").read_text())
    out = [(corpus.FAMILY_TEMPLATES[name], k)
           for name, ks in (("P", corpus.JENSEN_P_K), ("R", corpus.JENSEN_R_K),
                            ("Q", corpus.JENSEN_Q_S)) for k in ks]
    out += [("1+x+y", None), (corpus.A_POLY, None)]
    return out + [(item["expr"], None) for items in refs["generated"].values() for item in items]


def _generic_parse(text, k=None):
    """An expression without negative exponents, evaluated by Python's own
    parser with the generic ``LaurentPoly2`` arithmetic: the reference for
    the parser's shortcuts (one dict for a sum, a bare variable's power as
    a monomial)."""
    code = re.sub(r"\^(\d+)|(\d+)", lambda m: f"**{m[1]}" if m[1] else f"C({m[2]})", text)
    names = {"C": LaurentPoly2.const, "x": LaurentPoly2.monomial(1, 0),
             "y": LaurentPoly2.monomial(0, 1),
             "k": LaurentPoly2.const(KLinear(0, 1) if k is None else k)}
    return eval(code, {"__builtins__": {}}, names)


def _typed_terms(p):
    return [(e, type(c), c) for e, c in p.terms.items()]


def test_parse_matches_generic_arithmetic_on_benchmark_corpus():
    # the same terms dict, in order and coefficient type
    cases = _corpus_expressions()
    assert len(cases) == 17 + 2 + 157
    for text, k in cases:
        assert _typed_terms(parse_poly(text, k)) == _typed_terms(_generic_parse(text, k)), text


def _random_expression(rng, depth=0):
    def atom():
        if depth or rng.random() < 0.6:
            return rng.choice(["x", "y", "k", str(rng.randint(0, 4)), "y^3", "x^0", "x^2"])
        return f"({_random_expression(rng, depth + 1)})" + rng.choice(["", "^2", "^0", "^1"])

    def term():
        return ("-" if rng.random() < 0.2 else "") + "*".join(
            atom() for _ in range(rng.randint(1, 3)))

    return term() + "".join(rng.choice("+-") + term() for _ in range(rng.randint(0, 4)))


def test_parse_matches_generic_arithmetic_fuzz():
    # sums that cancel and come back, products of sums, powers, unary minus,
    # a symbolic or float k
    rng = random.Random(1729)
    for _ in range(400):
        text = _random_expression(rng)
        for k in (None, 2.5):
            try:
                ref = _typed_terms(_generic_parse(text, k))
            except ValueError:      # degree > 1 in k
                with pytest.raises(ValueError):
                    parse_poly(text, k)
                continue
            assert _typed_terms(parse_poly(text, k)) == ref, text


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[(rng.randint(-3, 3), rng.randint(-3, 3))] = rng.randint(-5, 5)
    p = LaurentPoly2(terms)
    return p if not p.is_zero() else LaurentPoly2({(0, 0): 1})


def test_print_parse_roundtrip():
    rng = random.Random(20240811)
    for _ in range(60):
        p = _random_poly(rng)
        assert parse_poly(str(p)) == p


def test_roundtrip_symbolic():
    p = parse_poly("(x^2+x+1)*y^2+k*x*(x+1)*y+x*(x^2+x+1)")
    assert parse_poly(str(p)) == p


def test_evaluate():
    p = parse_poly("x*y^-1+2")
    assert abs(p.evaluate(2.0, 4.0) - 2.5) < 1e-15


def test_monomial_transform_identity():
    p = parse_poly("(x^2+x+1)*y^2+k*x*(x+1)*y+x*(x^2+x+1)")
    assert monomial_transform(p, ((1, 0), (0, 1))) == p


def test_monomial_transform_wt_p():
    # P_k(x^2, xy) / x^4 must have the x + 1/x structure in every coefficient
    p = parse_poly("(x^2+x+1)*y^2+k*x*(x+1)*y+x*(x^2+x+1)")
    step = monomial_transform(p, ((2, 0), (0, 1)))
    wt = monomial_transform(step, ((1, 1), (0, 1)), shift=(-4, 0))
    expected = parse_poly("(x^2+1+x^-2)*y^2+k*(x+x^-1)*y+(x^2+1+x^-2)")
    assert wt == expected


def test_monomial_transform_wt_r():
    r = parse_poly("y^3-y+x^3-x+k*x*y")
    wt = monomial_transform(r, ((1, -1), (-1, -1)), shift=(0, 3), scale=-1)
    expected = parse_poly("(x+x^-1)*y^2-k*y-(x^3+x^-3)")
    assert wt == expected


def test_monomial_transform_composes():
    rng = random.Random(7)
    m1 = ((1, 1), (0, 1))
    m2 = ((0, -1), (1, 0))
    m21 = ((m2[0][0] * m1[0][0] + m2[0][1] * m1[1][0],
            m2[0][0] * m1[0][1] + m2[0][1] * m1[1][1]),
           (m2[1][0] * m1[0][0] + m2[1][1] * m1[1][0],
            m2[1][0] * m1[0][1] + m2[1][1] * m1[1][1]))
    for _ in range(20):
        p = _random_poly(rng)
        assert monomial_transform(monomial_transform(p, m1), m2) == \
            monomial_transform(p, m21)


def test_monomial_transform_rejects_singular():
    p = parse_poly("x+y")
    with pytest.raises(ValueError):
        monomial_transform(p, ((1, 1), (1, 1)))


def test_newton_polygon_triangle():
    poly = newton_polygon(parse_poly("x+y-1"))
    assert set(poly.vertices) == {(0, 0), (1, 0), (0, 1)}
    face_polys = sorted(tuple(f.coeffs) for f in poly.faces)
    assert face_polys == [(-1, 1), (1, -1), (1, 1)]


def test_newton_polygon_r_family():
    poly = newton_polygon(parse_poly("y^3-y+x^3-x+k*x*y"))
    # brute-force expectation: hull of the five exponent points
    assert set(poly.vertices) == {(0, 1), (1, 0), (3, 0), (0, 3)}
    # the k-term (1,1) is strictly inside and appears on no face
    assert all((1, 1) not in (f.start, f.end) for f in poly.faces)
    coeff_sets = sorted(tuple(f.coeffs) for f in poly.faces)
    assert (1, 0, 0, 1) in coeff_sets          # x^3 ... y^3 edge: 1 + t^3


def test_newton_polygon_constant():
    poly = newton_polygon(parse_poly("5"))
    assert poly.vertices == ((0, 0),)
    assert poly.faces == ()


def test_newton_polygon_matches_qhull():
    from scipy.spatial import ConvexHull
    rng = random.Random(99)
    for _ in range(25):
        p = _random_poly(rng)
        if len(p.terms) < 3:
            continue
        pts = sorted(p.terms)
        try:
            hull = ConvexHull([list(e) for e in pts])
        except Exception:
            continue     # degenerate (collinear) support
        mine = newton_polygon(p)
        theirs = {tuple(pts[i]) for i in hull.vertices}
        assert set(mine.vertices) == theirs


def test_polygon_invariant_under_monomial_shift():
    p = parse_poly("x+y-1")
    q = monomial_transform(p, ((1, 0), (0, 1)), shift=(2, -3))
    np1 = newton_polygon(p)
    np2 = newton_polygon(q)
    shifted = {(v[0] + 2, v[1] - 3) for v in np1.vertices}
    assert shifted == set(np2.vertices)
    assert sorted(f.coeffs for f in np1.faces) == sorted(f.coeffs for f in np2.faces)


def test_cyclotomic_values():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_tempered_examples():
    assert is_tempered(parse_poly("y^3-y+x^3-x+k*x*y"))           # symbolic k ok
    assert is_tempered(parse_poly("y^3-y+x^3-x+k*x*y", 4))
    assert is_tempered(parse_poly("x+y-1"))
    assert not is_tempered(parse_poly("2*x+y-1"))
    assert not is_tempered(parse_poly("x+y-3"))
    assert is_tempered(parse_poly("(x^2+x+1)*y^2+k*x*(x+1)*y+x*(x^2+x+1)", 3))


def test_cyclotomic_split_divides_exactly():
    # (x^2+x+1)^2 (x-1) (2x+3), expanded: Phi_1 once, Phi_3 twice, 2x+3 left
    c = [-3, -5, -5, 1, 5, 5, 2]
    assert _cyclotomic_split(c) == ([1, 3, 3], [3, 2])
    assert _cyclotomic_split([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]) == ([4, 20], [1])
    assert _cyclotomic_split([7]) == ([], [7])


def test_cyclotomic_product_needs_exact_factors():
    # every root of 5x^2-6x+5, (3 +- 4i)/5, lies on the circle, and of
    # x^4-x^3-x^2-x+1 two do: neither is a cyclotomic product
    assert not _is_cyclotomic_product([5, -6, 5])
    assert not _is_cyclotomic_product([1, -1, -1, -1, 1])
    assert _is_cyclotomic_product([0, -1, 0, 0, 0, 0, 0, 1])     # -x (1 - x^6)
    assert not _is_cyclotomic_product([0, 0])


def test_tempered_symbolic_k_on_boundary_rejected():
    with pytest.raises(ValueError):
        is_tempered(parse_poly("k*x+y+1"))


def test_tempered_rejects_floats():
    p = LaurentPoly2({(0, 0): 1.5, (1, 0): 1})
    with pytest.raises(ValueError):
        is_tempered(p)


def test_klinear_arithmetic():
    a = KLinear(1, 2)
    assert a + 3 == KLinear(4, 2)
    assert a * 2 == KLinear(2, 4)
    assert a - KLinear(1, 2) == 0           # collapses to plain int
    with pytest.raises(ValueError):
        a * a
    assert a.substitute(5) == 11
