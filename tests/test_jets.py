import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liejet import jets
from liejet.algebra import (
    DEP,
    KIND_COORD,
    KIND_FUNC,
    KIND_JET,
    Poly,
    THETA,
    _fields,
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
    apply_prolonged,
    multi_indices,
    prolong_explicit,
    prolong_recursive,
    total_derivative,
)
from conftest import random_point_poly, random_vector_field
from test_golden import PROLONG_FIELD_N3

SRC = str(Path(__file__).resolve().parents[1] / "src")
_ATOM_PROBE = """
import sys
from liejet import algebra
from liejet.dsl import parse_vector_field
from liejet.jets import prolong_explicit

def indices(a):
    kind = a[0]
    if kind == algebra.KIND_COORD:
        return (a[1],)
    if kind == algebra.KIND_JET:
        return a[1]
    if kind == algebra.KIND_FUNC:
        return (a[1], *a[2])
    return ()

prolong_explicit(parse_vector_field(sys.argv[1], 3), 4)
print(len(algebra._ATOM_AT),
      [algebra.atom_str(a) for a in algebra._ATOM_AT if max(indices(a), default=0) > 3])
"""

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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_formula_equals_the_patterns(self, n):
        for order in range(1, 5):
            for J in multi_indices(n, order):
                assert jets._explicit_symbolic_coeff(n, J) == pattern_coeff(n, J), J

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_formula_at_order_five(self, n):
        # past the order `prolong_explicit` offers, against the recursion
        rec = prolong_recursive(SymbolicVectorField(n), 5)
        for J in multi_indices(n, 5):
            assert jets._explicit_symbolic_coeff(n, J) == rec[J], J

    def test_interns_no_foreign_atom(self):
        # a fresh process, so the field table holds only what the
        # prolongation interned: no atom may carry an index above N
        proc = subprocess.run(
            [sys.executable, "-c", _ATOM_PROBE, PROLONG_FIELD_N3],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        interned, foreign = proc.stdout.split(maxsplit=1)
        assert int(interned) > 0
        assert foreign.strip() == "[]"


# -- the hand-written closed formulas: a third oracle at orders 1..4 -----------
#
# Orders 1 and 2 written out, orders 3 and 4 as 17 term patterns, each
# circle-summed over the permutations of its free indices at sentinel
# indices and relabelled.  They sit here, not in liejet, because the sentinel
# atoms they intern stay in the process's field table.

# Sentinel index values used to decide which permutations of a pattern are
# genuinely distinct: large enough never to collide with a real coordinate
# index or a summation index.
_GENERIC = (1000001, 1000002, 1000003, 1000004)


def _generic_terms(pattern, m):
    """The distinct terms of `pattern` at the permuted generic indices.

    A circle summation sums a term pattern over the distinct permutations of
    its m free indices.  `pattern` is instantiated at generic (pairwise
    distinct) index values for every permutation; terms that coincide there
    - equal as index expressions by the symmetry of mixed partials - are
    kept once.  `_relabel` then re-instantiates them at the actual indices,
    so repeated indices contribute with their full multiplicity.
    """
    gen = _GENERIC[:m]
    seen = {}
    for perm in itertools.permutations(range(m)):
        p = pattern(tuple(gen[t] for t in perm))
        for mono, c in p.terms.items():
            prev = seen.get(mono)
            if prev is None:
                seen[mono] = c
            elif prev != c:
                raise ValueError("pattern is ambiguous under permutation")
    return seen


def _relabel(terms, indices):
    """Generic terms re-instantiated at the actual index values."""
    relabel = dict(zip(_GENERIC, indices))
    return Poly.from_terms(
        (((_relabel_atom(a, relabel), e) for a, e in _fields(mono)), c)
        for mono, c in terms.items())


def _relabel_atom(a, relabel):
    kind = a[0]
    if kind == KIND_COORD:
        return coord(relabel.get(a[1], a[1]))
    if kind == KIND_JET:
        return jet(*(relabel.get(i, i) for i in a[1]))
    if kind == KIND_FUNC:
        _, comp, xs, du = a
        return func_partial(comp, tuple(relabel.get(i, i) for i in xs), du)
    return a


def _sum_s(n, term):
    acc = Poly.zero()
    for s in range(1, n + 1):
        acc = acc + term(s)
    return acc


def _explicit_order1(n, i):
    return (phi_((i,)) + phi_((), 1) * uj(i)
            - _sum_s(n, lambda s: (xi_(s, (i,)) + xi_(s, (), 1) * uj(i)) * uj(s)))


def _explicit_order2(n, i, j):
    out = (phi_((i, j)) + phi_((j,), 1) * uj(i) + phi_((i,), 1) * uj(j)
           + phi_((), 2) * uj(i) * uj(j) + phi_((), 1) * uj(i, j))
    out = out - _sum_s(n, lambda s: (
        xi_(s, (i, j)) + xi_(s, (j,), 1) * uj(i) + xi_(s, (i,), 1) * uj(j)
        + xi_(s, (), 2) * uj(i) * uj(j) + xi_(s, (), 1) * uj(i, j)) * uj(s))
    out = out - _sum_s(n, lambda s: (xi_(s, (i,)) + xi_(s, (), 1) * uj(i)) * uj(j, s))
    out = out - _sum_s(n, lambda s: (xi_(s, (j,)) + xi_(s, (), 1) * uj(j)) * uj(i, s))
    return out


def _order3_patterns(n):
    # Grouped by the highest derivative order of u each part contains.
    def a1_1(ix):
        i, j, k = ix
        return ((phi_((j, k), 1) + phi_((k,), 2) * uj(j)) * uj(i)
                - _sum_s(n, lambda s: (xi_(s, (j, k), 1) + xi_(s, (k,), 2) * uj(j))
                         * uj(s) * uj(i)))

    def a1_2(ix):
        i, j, k = ix
        return ((phi_((), 3) - _sum_s(n, lambda s: xi_(s, (), 3) * uj(s)))
                * uj(i) * uj(j) * uj(k)
                - _sum_s(n, lambda s: xi_(s, (i, j, k)) * uj(s)))

    def a2_1(ix):
        i, j, k = ix
        return ((phi_((k,), 1) + phi_((), 2) * uj(k)) * uj(i, j)
                - _sum_s(n, lambda s: (xi_(s, (k,), 1) + xi_(s, (), 2) * uj(k))
                         * uj(s) * uj(i, j)))

    def a2_2(ix):
        i, j, k = ix
        return -_sum_s(n, lambda s: (
            xi_(s, (j, k)) + xi_(s, (k,), 1) * uj(j)
            + xi_(s, (), 2) * uj(j) * uj(k) + xi_(s, (), 1) * uj(j, k)) * uj(i, s))

    def a3_1(ix):
        i, j, k = ix
        return (phi_((), 1) - _sum_s(n, lambda s: xi_(s, (), 1) * uj(s))) * uj(i, j, k)

    def a3_2(ix):
        i, j, k = ix
        return -_sum_s(n, lambda s: (xi_(s, (i,)) + xi_(s, (), 1) * uj(i)) * uj(j, k, s))

    return [a1_1, a1_2, a2_1, a2_2, a3_1, a3_2]


def _order4_patterns(n):
    def b1_1(ix):
        i, j, k, l = ix
        return (phi_((j, k, l), 1) + phi_((k, l), 2) * uj(j)
                + phi_((l,), 3) * uj(j) * uj(k)) * uj(i)

    def b1_2(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (
            xi_(s, (j, k, l), 1) + xi_(s, (k, l), 2) * uj(j)
            + xi_(s, (l,), 3) * uj(j) * uj(k)) * uj(s) * uj(i))

    def b1_3(ix):
        i, j, k, l = ix
        return ((phi_((), 4) - _sum_s(n, lambda s: xi_(s, (), 4) * uj(s)))
                * uj(i) * uj(j) * uj(k) * uj(l)
                - _sum_s(n, lambda s: xi_(s, (i, j, k, l)) * uj(s)))

    def b2_1(ix):
        i, j, k, l = ix
        return (phi_((k, l), 1) + phi_((l,), 2) * uj(k)
                + phi_((), 3) * uj(k) * uj(l) + phi_((), 2) * uj(k, l)) * uj(i, j)

    def b2_2(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (
            xi_(s, (k, l), 1) + xi_(s, (l,), 2) * uj(k)
            + xi_(s, (), 3) * uj(k) * uj(l) + xi_(s, (), 2) * uj(k, l))
            * uj(s) * uj(i, j))

    def b2_3(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (
            xi_(s, (j, k, l)) + xi_(s, (k, l), 1) * uj(j)
            + xi_(s, (l,), 2) * uj(j) * uj(k)
            + xi_(s, (), 3) * uj(j) * uj(k) * uj(l)) * uj(i, s))

    def b2_4(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (xi_(s, (l,), 1) + xi_(s, (), 2) * uj(l))
                       * uj(j, k) * uj(i, s))

    def b3_1(ix):
        i, j, k, l = ix
        return ((phi_((i,), 1) + phi_((), 2) * uj(i)) * uj(j, k, l)
                - _sum_s(n, lambda s: (xi_(s, (i,), 1) + xi_(s, (), 2) * uj(i))
                         * uj(s) * uj(j, k, l)))

    def b3_2(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (
            (xi_(s, (k, l)) + xi_(s, (l,), 1) * uj(k)
             + xi_(s, (), 2) * uj(k) * uj(l) + xi_(s, (), 1) * uj(k, l))
            * uj(i, j, s)
            + xi_(s, (), 1) * uj(i, s) * uj(j, k, l)))

    def b4_1(ix):
        i, j, k, l = ix
        return ((phi_((), 1) - _sum_s(n, lambda s: xi_(s, (), 1) * uj(s)))
                * uj(i, j, k, l))

    def b4_2(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (xi_(s, (i,)) + xi_(s, (), 1) * uj(i))
                       * uj(j, k, l, s))

    return [b1_1, b1_2, b1_3, b2_1, b2_2, b2_3, b2_4, b3_1, b3_2, b4_1, b4_2]


@lru_cache(maxsize=None)
def _generic_patterns(n, order):
    """Generic terms of each order-3/4 pattern, shared by every multi-index."""
    patterns = _order3_patterns(n) if order == 3 else _order4_patterns(n)
    return tuple(_generic_terms(pat, order) for pat in patterns)


def pattern_coeff(n, J):
    """The coefficient of the undetermined field at J, orders 1..4."""
    if len(J) == 1:
        return _explicit_order1(n, J[0])
    if len(J) == 2:
        return _explicit_order2(n, J[0], J[1])
    out = phi_(J)
    for terms in _generic_patterns(n, len(J)):
        out = out + _relabel(terms, J)
    return out


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
