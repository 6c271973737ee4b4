from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liejet.algebra import DEP, ExponentOverflowError, Poly, coord, jet, poly_str
from liejet.dsl import (
    DivisionNotSupportedError,
    IndexOutOfRangeError,
    ParseError,
    format_vector_field,
    parse_expression,
    parse_vector_field,
)
from liejet.equations import build_affine_maximal, build_monge_ampere
from liejet.jets import JetInCoefficientError, VectorField


class TestParseExpression:
    def test_monge_ampere(self):
        p = parse_expression("u[1,1]*u[2,2] - u[1,2]^2 - 1", 2)
        assert p == build_monge_ampere(2).F

    def test_affine_maximal_n1(self):
        p = parse_expression(
            "theta*u[1,1,1]^2 - u[1,1]*u[1,1,1,1] + u[1,1,1]^2", 1)
        assert p == build_affine_maximal(1).F

    def test_jet_index_sorting(self):
        assert parse_expression("u[2,1]", 2) == parse_expression("u[1,2]", 2)

    def test_rational_literals(self):
        p = parse_expression("3/4*x1 - 1/2", 1)
        assert p == Fraction(3, 4) * Poly.variable(coord(1)) - Fraction(1, 2)

    def test_unary_minus_and_parens(self):
        p = parse_expression("-(x1 - u)^2", 1)
        x1 = Poly.variable(coord(1))
        u = Poly.variable(DEP)
        assert p == -((x1 - u) ** 2)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            parse_expression("u[3]", 2)
        with pytest.raises(IndexOutOfRangeError):
            parse_expression("x3", 2)

    def test_division_not_supported(self):
        with pytest.raises(DivisionNotSupportedError):
            parse_expression("x1/x2", 2)
        with pytest.raises(DivisionNotSupportedError):
            parse_expression("(1)/2", 2)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("u[1,1] +* 2", 2)
        assert err.value.line == 1 and err.value.col == 9

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_expression("x1 x1", 1)

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_expression("y1 + 1", 1)

    def test_huge_exponent_refused(self):
        # refused as soon as an exponent passes EXP_MAX, without expanding
        with pytest.raises(ExponentOverflowError):
            parse_expression("(x1 + u)^1000000000", 1)


ATOMS = st.sampled_from(["x1", "x2", "u", "u[1]", "u[1,1]", "u[1,2]", "theta"])
COEFFS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


@st.composite
def dsl_polynomials(draw):
    n_terms = draw(st.integers(0, 5))
    out = Poly.zero()
    for _ in range(n_terms):
        c = draw(COEFFS)
        term = Poly.const(c)
        for name in draw(st.lists(ATOMS, max_size=3)):
            term = term * parse_expression(name, 2)
        out = out + term
    return out


class TestRoundTrip:
    @given(dsl_polynomials())
    def test_print_then_parse(self, p):
        assert parse_expression(poly_str(p), 2) == p

    def test_zero(self):
        assert parse_expression(poly_str(Poly.zero()), 1).is_zero

    def test_examples(self):
        for text in ["u[1,1]*u[2,2] - u[1,2]^2 - 1",
                     "3/4*x1^2*u - 2*u[1,2] + theta",
                     "-x1 + 5"]:
            p = parse_expression(text, 2)
            assert parse_expression(poly_str(p), 2) == p


class TestParseVectorField:
    def test_dilation(self):
        v = parse_vector_field("xi1 = 2*x1; xi2 = 0; phi = 2*u", 2)
        assert v.xi[0] == 2 * Poly.variable(coord(1))
        assert v.xi[1].is_zero
        assert v.phi == 2 * Poly.variable(DEP)

    def test_graph_shear_candidate(self):
        v = parse_vector_field("xi1 = u; phi = 0", 1)
        assert v.xi[0] == Poly.variable(DEP)

    def test_missing_components_default_zero(self):
        v = parse_vector_field("phi = 1", 3)
        assert all(p.is_zero for p in v.xi)

    def test_jet_in_coefficient(self):
        with pytest.raises(JetInCoefficientError):
            parse_vector_field("phi = u[1,1]", 2)

    def test_theta_in_coefficient(self):
        with pytest.raises(JetInCoefficientError):
            parse_vector_field("phi = theta", 2)

    def test_unknown_component(self):
        with pytest.raises(ParseError):
            parse_vector_field("xi3 = 1", 2)

    def test_duplicate_component(self):
        with pytest.raises(ParseError):
            parse_vector_field("phi = 1; phi = 2", 2)

    def test_newline_separators(self):
        v = parse_vector_field("xi1 = x2\nxi2 = 0\nphi = u", 2)
        assert v.xi[0] == Poly.variable(coord(2))

    def test_round_trip(self):
        v = parse_vector_field("xi1 = u - 2*x1; xi2 = 3/2; phi = x1*u", 2)
        assert parse_vector_field(format_vector_field(v), 2) == v
