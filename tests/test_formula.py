import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stppfit import (
    CoordinateMonomial,
    CovariateGrid,
    ExternalCovariate,
    GridResolution,
    Intercept,
    LogLinearExpression,
    Window,
    parse_log_linear,
    parse_term_list,
)
from stppfit.covariates import MAX_MONOMIAL_DEGREE


class TestParseLogLinear:
    def test_basic_expression(self):
        expr = parse_log_linear("4 + 1.2*x - 0.8*t")
        assert expr.monomials == (
            (Intercept(), 4.0),
            (CoordinateMonomial(1, 0, 0), 1.2),
            (CoordinateMonomial(0, 0, 1), -0.8),
        )

    def test_intensity_evaluation(self):
        expr = parse_log_linear("4 + 1.2*x - 0.8*t")
        x, y, t = np.array([0.5]), np.array([0.9]), np.array([0.25])
        want = math.exp(4 + 1.2 * 0.5 - 0.8 * 0.25)
        assert expr.intensity(x, y, t)[0] == pytest.approx(want, rel=1e-15)

    def test_exponents_and_products(self):
        expr = parse_log_linear("2 + 0.5*x^2*y")
        assert expr.monomials == ((Intercept(), 2.0), (CoordinateMonomial(2, 1, 0), 0.5))

    def test_repeated_variables_multiply(self):
        expr = parse_log_linear("x*x*t")
        assert expr.monomials == ((CoordinateMonomial(2, 0, 1), 1.0),)

    def test_repeated_monomials_merge(self):
        expr = parse_log_linear("1 + 1 + 0.5*x + 0.25*x")
        assert expr.monomials == ((Intercept(), 2.0), (CoordinateMonomial(1, 0, 0), 0.75))

    def test_leading_minus(self):
        expr = parse_log_linear("-3 + x")
        assert expr.monomials[0] == (Intercept(), -3.0)

    def test_terms_and_coefficients_align(self):
        expr = parse_log_linear("4 + 1.2*x - 0.8*t")
        terms = expr.terms()
        assert isinstance(terms[0], Intercept)
        assert terms[1] == CoordinateMonomial(1, 0, 0)
        assert terms[2] == CoordinateMonomial(0, 0, 1)
        np.testing.assert_array_equal(expr.coefficients(), [4.0, 1.2, -0.8])

    def test_canonical_roundtrip(self):
        expr = parse_log_linear("4 + 1.2*x - 0.8*t + 0.25*x^2*y")
        again = parse_log_linear(expr.canonical())
        assert again.monomials == expr.monomials

    @pytest.mark.parametrize(
        "bad",
        [
            "z + 1", "4 +", "1.2*", "x^-1", "x^0.5", "", "4 & x",
            "4 + 1.2x - 0.8t", "4 x", "2 3", "1e400 + x",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_log_linear(bad)

    def test_degree_above_cap_rejected_when_parsed(self):
        with pytest.raises(ValueError, match=f"total monomial degree is capped at {MAX_MONOMIAL_DEGREE}"):
            parse_log_linear("3 + x^7")
        with pytest.raises(ValueError, match="capped"):
            parse_log_linear("3 + x^3*y^2*t^2")


@st.composite
def exponents(draw):
    """x, y, t exponents of total degree at most MAX_MONOMIAL_DEGREE."""
    i = draw(st.integers(0, MAX_MONOMIAL_DEGREE))
    j = draw(st.integers(0, MAX_MONOMIAL_DEGREE - i))
    return i, j, draw(st.integers(0, MAX_MONOMIAL_DEGREE - i - j))


# finite, including 0 and +-1, and far enough from the limits that no product over- or underflows
coefficients = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100)


@st.composite
def expressions(draw):
    """1 to 5 distinct products, the constant as ``Intercept()``, with finite coefficients."""
    exps = draw(st.lists(exponents(), min_size=1, max_size=5, unique=True))
    coefs = draw(st.lists(coefficients, min_size=len(exps), max_size=len(exps)))
    terms = (CoordinateMonomial(*e) if any(e) else Intercept() for e in exps)
    return LogLinearExpression(tuple(zip(terms, coefs)))


class TestExpressionProperties:
    POINTS = np.random.default_rng(0).uniform(-2.0, 2.0, (3, 64))

    @settings(max_examples=200, deadline=None)
    @given(expressions())
    def test_canonical_text_parses_back(self, expr):
        assert parse_log_linear(expr.canonical()) == expr

    @settings(max_examples=200, deadline=None)
    @given(expressions())
    def test_every_expression_is_a_term_list(self, expr):
        assert parse_term_list(",".join(term.name for term in expr.terms())) == expr.terms()

    @settings(max_examples=200, deadline=None)
    @given(expressions())
    def test_log_intensity_is_the_design_times_the_coefficients(self, expr):
        columns = np.column_stack([term.evaluate(*self.POINTS) for term in expr.terms()])
        coefs = expr.coefficients()
        bound = 1e-12 * (np.abs(columns) @ np.abs(coefs))
        assert (np.abs(expr.log_intensity(*self.POINTS) - columns @ coefs) <= bound).all()


class TestParseTermList:
    def test_standard_terms(self):
        terms = parse_term_list("1,x,y,t,x*t")
        assert isinstance(terms[0], Intercept)
        assert terms[1:] == (
            CoordinateMonomial(1, 0, 0),
            CoordinateMonomial(0, 1, 0),
            CoordinateMonomial(0, 0, 1),
            CoordinateMonomial(1, 0, 1),
        )

    @pytest.mark.parametrize("text", ["1", "x^0", "y^0*t^0", "x^0*y^0*t^0"])
    def test_zero_degree_product_is_the_intercept(self, text):
        # as in an expression, so a zero-degree term saves as the one intercept term
        (term,) = parse_term_list(text)
        assert type(term) is Intercept
        assert parse_log_linear(f"2*{text}").terms() == (term,)

    def test_exponent_syntax(self):
        (term,) = parse_term_list("x^2*y")
        assert term == CoordinateMonomial(2, 1, 0)

    def test_external_names_resolve(self):
        grid = CovariateGrid(Window.unit_cube(), GridResolution(1, 1, 1), np.array([2.0]))
        ext = ExternalCovariate(grid, "ndvi")
        terms = parse_term_list("1,ndvi", {"ndvi": ext})
        assert terms[1] is ext

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown term 'ndvi'"):
            parse_term_list("1,ndvi")

    def test_numeric_coefficient_rejected(self):
        with pytest.raises(ValueError):
            parse_term_list("1.5*x")

    @pytest.mark.parametrize("bad", ["", " , ", "x*", "x^", "x^2^3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_term_list(bad)
