import random
from fractions import Fraction

import pytest

from liejet import jets
from liejet.algebra import (
    DEP,
    Poly,
    THETA,
    coord,
    denominator_lcm,
    func_partial,
    jet,
    poly_str,
)
from liejet.equations import build_affine_maximal
from liejet.jets import (
    JetInCoefficientError,
    OrderTooLowError,
    SymbolicVectorField,
    UnsupportedOrderError,
    VectorField,
    apply_prolonged,
    circle_sum,
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
        assert all(c.is_zero for J, c in pf.coeffs.items() if J)

    def test_scaling_in_u(self):
        v = VectorField(2, (Poly.zero(), Poly.zero()), u)
        pf = prolong_recursive(v, 3)
        for J, c in pf.coeffs.items():
            if J:
                assert c == uj(*J)

    def test_x_scaling_order_two(self):
        v = VectorField(2, (x1, Poly.zero()), Poly.zero())
        pf = prolong_recursive(v, 2)
        assert pf.coeffs[(1, 1)] == -2 * uj(1, 1)
        assert pf.coeffs[(1, 2)] == -uj(1, 2)
        assert pf.coeffs[(2, 2)].is_zero

    def test_covers_all_indices(self):
        pf = prolong_recursive(SymbolicVectorField(2), 4)
        expected = {()} | {J for r in range(1, 5) for J in multi_indices(2, r)}
        assert set(pf.coeffs) == expected

    def test_linearity(self, rng):
        v = random_vector_field(rng, 2)
        w = random_vector_field(rng, 2)
        vw = VectorField(2, tuple(a + b for a, b in zip(v.xi, w.xi)),
                         v.phi + w.phi)
        pv = prolong_recursive(v, 3).coeffs
        pw = prolong_recursive(w, 3).coeffs
        pvw = prolong_recursive(vw, 3).coeffs
        for J in pvw:
            assert pvw[J] == pv[J] + pw[J]

    def test_symbolic_coeffs_linear_in_unknowns(self):
        pf = prolong_recursive(SymbolicVectorField(2), 4)
        for J, c in pf.coeffs.items():
            for mono, _ in c.term_pairs():
                fp = [(a, e) for a, e in mono if a[0] == 3]
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
        assert results.pop() == poly_str(prolong_recursive(v, 3).coeffs[J])


class TestProlongExplicit:
    def test_order_bounds(self):
        v = VectorField(1, (Poly.zero(),), u)
        with pytest.raises(UnsupportedOrderError):
            prolong_explicit(v, 1)
        with pytest.raises(UnsupportedOrderError):
            prolong_explicit(v, 5)

    def test_constant_phi_vanishes_at_order_four(self):
        v = VectorField(2, (Poly.zero(), Poly.zero()), Poly.const(1))
        pf = prolong_explicit(v, 4)
        for J, c in pf.coeffs.items():
            if J:
                assert c.is_zero

    def test_phi_u_only_term(self):
        # xi = 0, phi = u: only the coefficient of the highest derivative
        # survives, giving u_J itself
        v = VectorField(2, (Poly.zero(), Poly.zero()), u)
        pf = prolong_explicit(v, 4)
        assert pf.coeffs[(1, 1, 2)] == uj(1, 1, 2)
        assert pf.coeffs[(1, 1, 2, 2)] == uj(1, 1, 2, 2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_oracle_equivalence_concrete(self, n, rng):
        for _ in range(4):
            v = random_vector_field(rng, n)
            rec = prolong_recursive(v, 4).coeffs
            exp = prolong_explicit(v, 4).coeffs
            assert set(rec) == set(exp)
            for J in rec:
                assert rec[J] == exp[J], f"n={n} J={J}"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_equivalence_symbolic(self, n):
        rec = prolong_recursive(SymbolicVectorField(n), 4).coeffs
        exp = prolong_explicit(SymbolicVectorField(n), 4).coeffs
        for J in rec:
            assert rec[J] == exp[J], f"n={n} J={J}"


class TestCircleSum:
    def test_three_term_pattern(self):
        got = circle_sum(lambda ix: phi_((ix[0], ix[1])) * uj(ix[2]), (1, 2, 3))
        want = (phi_((1, 2)) * uj(3) + phi_((1, 3)) * uj(2)
                + phi_((2, 3)) * uj(1))
        assert got == want

    def test_six_term_pattern(self):
        got = circle_sum(lambda ix: phi_((ix[0], ix[1])) * uj(ix[2], ix[3]),
                         (1, 2, 3, 4))
        assert len(got.terms) == 6

    def test_pairing_plus_fourth_order(self):
        got = circle_sum(
            lambda ix: uj(ix[0], ix[1]) * uj(ix[2], ix[3]) + uj(*ix),
            (1, 2, 3, 4))
        want = (uj(1, 2) * uj(3, 4) + uj(1, 3) * uj(2, 4)
                + uj(1, 4) * uj(2, 3) + uj(1, 2, 3, 4))
        assert got == want

    def test_repeated_indices_keep_multiplicity(self):
        got = circle_sum(lambda ix: phi_((ix[0], ix[1])) * uj(ix[2]), (1, 1, 1))
        assert got == 3 * phi_((1, 1)) * uj(1)

    def test_ambiguous_pattern_refused(self):
        # phi_{x_a x_b} is one term for both orders, with coefficients 2 and 1
        with pytest.raises(ValueError, match="ambiguous"):
            circle_sum(lambda ix: (2 if ix[0] < ix[1] else 1)
                       * phi_((ix[0], ix[1])), (1, 2))


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


def reference_apply(v: VectorField, F: Poly, k: int) -> Poly:
    """pr v(F) = v(F) + sum_J c_J dF/du_J, unscaled, from the recursive
    prolongation."""
    out = v.apply_to(F)
    for J, c in prolong_recursive(v, k).coeffs.items():
        if J:
            out = out + c * F.diff(jet(*J))
    return out


AM2_T4_5 = build_affine_maximal(2, Fraction(4, 5)).F


class TestApplyProlongedScaled:
    """A concrete field with rational coefficients, or an F with rational
    coefficients, is prolonged in integers and scaled back once."""

    @pytest.mark.parametrize("F, k", [(AM2_T4_5, 4), (MA2, 2),
                                      (Fraction(2, 3) * MA2, 2)])
    @pytest.mark.parametrize("integral_field", [False, True])
    def test_matches_unscaled_reference(self, F, k, integral_field):
        v = random_vector_field(random.Random(45), 2)
        lam = denominator_lcm(*v.xi, v.phi)
        assert lam != 1
        if integral_field:
            v = VectorField(2, tuple(p * lam for p in v.xi), v.phi * lam)
        got = apply_prolonged(v, F, k)
        want = reference_apply(v, F, k)
        assert list(got.terms.items()) == list(want.terms.items())
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
