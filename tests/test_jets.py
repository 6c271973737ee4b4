import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liejet import jets
from liejet.algebra import (
    DEP,
    KIND_FUNC,
    Poly,
    THETA,
    coord,
    func_partial,
    jet,
    mono_pairs,
    poly_str,
)
from liejet.dsl import parse_expression
from liejet.equations import build_affine_maximal
from liejet.jets import (
    JetInCoefficientError,
    OrderTooLowError,
    SymbolicVectorField,
    UnsupportedOrderError,
    VectorField,
    _generic_terms,
    _relabel,
    apply_prolonged,
    multi_indices,
    prolong_explicit,
    prolong_recursive,
    total_derivative,
)
from conftest import random_point_poly, random_vector_field

x1 = Poly.variable(coord(1))
x2 = Poly.variable(coord(2))
u = Poly.variable(DEP)


def uj(*idx):
    return Poly.variable(jet(*idx))


def phi_(xs=(), du=0):
    return Poly.variable(func_partial(0, xs, du))


def xi_(s, xs=(), du=0):
    return Poly.variable(func_partial(s, xs, du))


MA2 = uj(1, 1) * uj(2, 2) - uj(1, 2) ** 2 - 1


class TestTotalDerivative:
    def test_dep(self):
        assert total_derivative(u, 1) == uj(1)

    def test_leibniz(self):
        assert total_derivative(uj(1) * uj(2), 1) == \
            uj(1, 1) * uj(2) + uj(1) * uj(1, 2)

    def test_unknown_function_symbol(self):
        # D_2 phi = phi_{x2} + phi_u u_2
        assert total_derivative(phi_(), 2) == phi_((2,)) + phi_((), 1) * uj(2)

    def test_coordinates(self):
        assert total_derivative(x1, 1) == Poly.const(1)
        assert total_derivative(x1, 2).is_zero
        assert total_derivative(Poly.variable(THETA), 1).is_zero

    def test_jet_index_sorted(self):
        assert total_derivative(uj(2), 1) == uj(1, 2)

    def test_commutes(self, rng):
        p = random_point_poly(rng, 2) * uj(1, 2) + uj(1) ** 2
        d12 = total_derivative(total_derivative(p, 1), 2)
        d21 = total_derivative(total_derivative(p, 2), 1)
        assert d12 == d21


class TestProlongRecursive:
    def test_translation_has_zero_coefficients(self):
        v = VectorField(2, (Poly.const(1), Poly.zero()), Poly.zero())
        pf = prolong_recursive(v, 3)
        assert all(c.is_zero for J, c in pf.items() if J)

    def test_scaling_in_u(self):
        v = VectorField(2, (Poly.zero(), Poly.zero()), u)
        pf = prolong_recursive(v, 3)
        for J, c in pf.items():
            if J:
                assert c == uj(*J)

    def test_x_scaling_order_two(self):
        v = VectorField(2, (x1, Poly.zero()), Poly.zero())
        pf = prolong_recursive(v, 2)
        assert pf[(1, 1)] == -2 * uj(1, 1)
        assert pf[(1, 2)] == -uj(1, 2)
        assert pf[(2, 2)].is_zero

    def test_covers_all_indices(self):
        pf = prolong_recursive(SymbolicVectorField(2), 4)
        expected = {()} | {J for r in range(1, 5) for J in multi_indices(2, r)}
        assert set(pf) == expected

    def test_linearity(self, rng):
        v = random_vector_field(rng, 2)
        w = random_vector_field(rng, 2)
        vw = VectorField(2, tuple(a + b for a, b in zip(v.xi, w.xi)),
                         v.phi + w.phi)
        pv = prolong_recursive(v, 3)
        pw = prolong_recursive(w, 3)
        pvw = prolong_recursive(vw, 3)
        for J in pvw:
            assert pvw[J] == pv[J] + pw[J]

    def test_symbolic_coeffs_linear_in_unknowns(self):
        pf = prolong_recursive(SymbolicVectorField(2), 4)
        for J, c in pf.items():
            for m in c.terms:
                fp = [(a, e) for a, e in mono_pairs(m) if a[0] == 3]
                assert len(fp) == 1 and fp[0][1] == 1

    def test_coefficient_independent_of_derivative_order(self, rng):
        # phi^J from D_J applied in any order of the index tuple
        import itertools
        v = random_vector_field(rng, 2)
        q = v.phi
        for s in range(1, 3):
            q = q - v.xi[s - 1] * uj(s)
        J = (1, 1, 2)
        results = set()
        for perm in set(itertools.permutations(J)):
            d = q
            for i in perm:
                d = total_derivative(d, i)
            for s in range(1, 3):
                d = d + v.xi[s - 1] * uj(*sorted(J + (s,)))
            results.add(poly_str(d))
        assert len(results) == 1
        assert results.pop() == poly_str(prolong_recursive(v, 3)[J])


class TestProlongExplicit:
    def test_order_bounds(self):
        v = VectorField(1, (Poly.zero(),), u)
        with pytest.raises(UnsupportedOrderError):
            prolong_explicit(v, 0)
        with pytest.raises(UnsupportedOrderError):
            prolong_explicit(v, 5)

    def test_order_one(self, rng):
        v = random_vector_field(rng, 2)
        assert prolong_explicit(v, 1) == prolong_recursive(v, 1)

    def test_constant_phi_vanishes_at_order_four(self):
        v = VectorField(2, (Poly.zero(), Poly.zero()), Poly.const(1))
        pf = prolong_explicit(v, 4)
        for J, c in pf.items():
            if J:
                assert c.is_zero

    def test_phi_u_only_term(self):
        # xi = 0, phi = u: only the coefficient of the highest derivative
        # survives, giving u_J itself
        v = VectorField(2, (Poly.zero(), Poly.zero()), u)
        pf = prolong_explicit(v, 4)
        assert pf[(1, 1, 2)] == uj(1, 1, 2)
        assert pf[(1, 1, 2, 2)] == uj(1, 1, 2, 2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_oracle_equivalence_concrete(self, n, rng):
        for _ in range(4):
            v = random_vector_field(rng, n)
            rec = prolong_recursive(v, 4)
            exp = prolong_explicit(v, 4)
            assert set(rec) == set(exp)
            for J in rec:
                assert rec[J] == exp[J], f"n={n} J={J}"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_equivalence_symbolic(self, n):
        rec = prolong_recursive(SymbolicVectorField(n), 4)
        exp = prolong_explicit(SymbolicVectorField(n), 4)
        for J in rec:
            assert rec[J] == exp[J], f"n={n} J={J}"

    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=4, deadline=None)
    def test_field_put_in_by_one_derivation(self, n, r):
        # every closed-form coefficient has degree 1 in the func atoms, so
        # the derivation sending them to their values is the substitution
        v = random_vector_field(r, n)
        values = jets.func_partial_values(v)
        for order in range(1, 5):
            for J in multi_indices(n, order):
                c = jets._explicit_symbolic_coeff(n, J)
                assert all(sum(e for a, e in mono_pairs(m) if a[0] == KIND_FUNC)
                           == 1 for m in c.terms)
                substituted = c.substitute_atoms(
                    {a: values(a) for a in c.atoms() if a[0] == KIND_FUNC})
                assert c.derivation(values).terms == substituted.terms


class TestCircleSum:
    """Circle summation as the closed formulas run it: the distinct terms
    of a pattern at generic indices, relabelled to the actual ones."""

    def test_three_term_pattern(self):
        got = _relabel(_generic_terms(
            lambda ix: phi_((ix[0], ix[1])) * uj(ix[2]), 3), (1, 2, 3))
        want = (phi_((1, 2)) * uj(3) + phi_((1, 3)) * uj(2)
                + phi_((2, 3)) * uj(1))
        assert got == want

    def test_six_term_pattern(self):
        got = _relabel(_generic_terms(
            lambda ix: phi_((ix[0], ix[1])) * uj(ix[2], ix[3]), 4), (1, 2, 3, 4))
        assert len(got.terms) == 6

    def test_pairing_plus_fourth_order(self):
        got = _relabel(_generic_terms(
            lambda ix: uj(ix[0], ix[1]) * uj(ix[2], ix[3]) + uj(*ix), 4),
            (1, 2, 3, 4))
        want = (uj(1, 2) * uj(3, 4) + uj(1, 3) * uj(2, 4)
                + uj(1, 4) * uj(2, 3) + uj(1, 2, 3, 4))
        assert got == want

    def test_repeated_indices_keep_multiplicity(self):
        got = _relabel(_generic_terms(
            lambda ix: phi_((ix[0], ix[1])) * uj(ix[2]), 3), (1, 1, 1))
        assert got == 3 * phi_((1, 1)) * uj(1)

    def test_ambiguous_pattern_refused(self):
        # phi_{x_a x_b} is one term for both orders, with coefficients 2 and 1
        with pytest.raises(ValueError, match="ambiguous"):
            _generic_terms(lambda ix: (2 if ix[0] < ix[1] else 1)
                           * phi_((ix[0], ix[1])), 2)


class TestApplyProlonged:
    def test_constant_shift_annihilates(self):
        v = VectorField(2, (Poly.zero(), Poly.zero()), Poly.const(1))
        assert apply_prolonged(v, MA2, 2).is_zero

    def test_single_scaling_gives_det_multiple(self):
        v = VectorField(2, (x1, Poly.zero()), Poly.zero())
        assert apply_prolonged(v, MA2, 2) == -2 * (uj(1, 1) * uj(2, 2)
                                                   - uj(1, 2) ** 2)

    def test_trace_free_scaling_annihilates(self):
        v = VectorField(2, (x1, -x2), Poly.zero())
        assert apply_prolonged(v, MA2, 2).is_zero

    def test_order_too_low(self):
        v = VectorField(2, (x1, Poly.zero()), Poly.zero())
        with pytest.raises(OrderTooLowError):
            apply_prolonged(v, MA2, 1)

    def test_acts_as_derivation(self, rng):
        v = random_vector_field(rng, 2)
        F = uj(1, 1) * uj(2) - 2 * uj(1, 2)
        G = uj(2, 2) + uj(1) ** 2
        lhs = apply_prolonged(v, F * G, 2)
        rhs = apply_prolonged(v, F, 2) * G + F * apply_prolonged(v, G, 2)
        assert lhs == rhs


def reference_apply(v, F: Poly, k: int) -> Poly:
    """pr v(F) = xi^s dF/dx^s + phi dF/du + sum_J c_J dF/du_J, unscaled,
    one partial derivative per atom, from the recursive prolongation."""
    if isinstance(v, SymbolicVectorField):
        xi = [xi_(s) for s in range(1, v.n + 1)]
        phi = phi_()
    else:
        xi, phi = v.xi, v.phi
    out = phi * F.diff(DEP)
    for s, xi_s in enumerate(xi, start=1):
        out = out + xi_s * F.diff(coord(s))
    for J, c in prolong_recursive(v, k).items():
        if J:
            out = out + c * F.diff(jet(*J))
    return out


AM2_T4_5 = build_affine_maximal(2, Fraction(4, 5)).F


class TestApplyProlongedScaled:
    """A concrete field with rational coefficients, or an F with rational
    coefficients, is prolonged inside the derivation's integer interior:
    the result is the rational one, integral coefficients stored as int."""

    @pytest.mark.parametrize("F, k", [(AM2_T4_5, 4), (MA2, 2),
                                      (Fraction(2, 3) * MA2, 2)])
    @pytest.mark.parametrize("integral_field", [False, True])
    def test_matches_unscaled_reference(self, F, k, integral_field):
        v = random_vector_field(random.Random(45), 2)
        lam = math.lcm(*(Fraction(c).denominator
                         for p in (*v.xi, v.phi) for c in p.terms.values()))
        assert lam != 1
        if integral_field:
            v = VectorField(2, tuple(p * lam for p in v.xi), v.phi * lam)
        got = apply_prolonged(v, F, k)
        assert got.terms == reference_apply(v, F, k).terms
        assert all(type(c) is int or c.denominator != 1
                   for c in got.terms.values())

    def test_entered_once_per_call(self, monkeypatch):
        calls = []
        inner = jets.apply_prolonged

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(jets, "apply_prolonged", counting)
        v = random_vector_field(random.Random(45), 2)
        jets.apply_prolonged(v, AM2_T4_5, 4)
        assert len(calls) == 1


# -- pr v(F) as one derivation, against one partial derivative per atom ------------

_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_POINT_ATOMS = [coord(1), coord(2), DEP]


def _point_polys(max_terms: int = 3):
    mono = st.lists(st.sampled_from(_POINT_ATOMS), max_size=2).map(
        lambda atoms: [(a, atoms.count(a)) for a in set(atoms)])
    return st.lists(st.tuples(mono, _RATIONALS), max_size=max_terms).map(
        Poly.from_terms)


point_fields = st.builds(lambda x1_, x2_, phi: VectorField(2, (x1_, x2_), phi),
                         _point_polys(), _point_polys(), _point_polys())

# x, u, theta and jets up to order 4 at N=2, written in the DSL
_DSL_ATOMS = ["x1", "x2", "u", "theta", "u[1]", "u[2]", "u[1,1]", "u[2,1]",
              "u[2,2]", "u[1,1,2]", "u[2,2,2]", "u[1,2,2,1]", "u[2,2,2,2]"]


@st.composite
def dsl_equations(draw):
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(_RATIONALS)
        names = draw(st.lists(st.sampled_from(_DSL_ATOMS), max_size=3))
        terms.append("*".join([f"({c})"] + names))
    return parse_expression(" + ".join(terms), 2)


class TestProlongedAsDerivation:
    """pr v(F) from `Poly.derivation` equals v(F) + sum_J c_J dF/du_J."""

    @given(point_fields, dsl_equations())
    @settings(max_examples=40, deadline=None)
    def test_concrete_field_on_dsl_equation(self, v, F):
        assert apply_prolonged(v, F, 4) == reference_apply(v, F, 4)

    @pytest.mark.parametrize("theta", [None, Fraction(3, 4)])
    def test_symbolic_field_on_am(self, theta):
        F = build_affine_maximal(2, theta).F
        v = SymbolicVectorField(2)
        assert apply_prolonged(v, F, 4) == reference_apply(v, F, 4)

    @given(point_fields, _point_polys(max_terms=5))
    @settings(max_examples=60, deadline=None)
    def test_apply_to_is_the_point_operator(self, v, p):
        want = v.phi * p.diff(DEP)
        for s, xi_s in enumerate(v.xi, start=1):
            want = want + xi_s * p.diff(coord(s))
        assert v.apply_to(p) == want


class TestVectorFieldValidation:
    def test_jet_rejected(self):
        with pytest.raises(JetInCoefficientError):
            VectorField(2, (uj(1, 1), Poly.zero()), Poly.zero())

    def test_theta_rejected(self):
        with pytest.raises(JetInCoefficientError):
            VectorField(2, (Poly.zero(), Poly.zero()), Poly.variable(THETA))

    def test_out_of_range_coord_rejected(self):
        with pytest.raises(JetInCoefficientError):
            VectorField(1, (Poly.variable(coord(2)),), Poly.zero())
