"""Jet-space differential operators.

Total derivatives, the lift of a point vector field to jet space by two
independent routes, and application of the lifted field to an equation.

The recursive route iterates total derivatives of (phi - xi^s u_s) and adds
the xi^s u_{J,s} correction.  The explicit route assembles the order-1..4
coefficients from closed formulas organised by the highest derivative order
they contain, using "circle summations" over the distinct permutations of
the free indices.  The two routes are mutual oracles: they must agree
exactly for every field, which the test suite checks on random inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .algebra import (
    Atom,
    DEP,
    KIND_COORD,
    KIND_DEP,
    KIND_FUNC,
    KIND_JET,
    KIND_THETA,
    Monomial,
    Poly,
    atom_str,
    coord,
    denominator_lcm,
    func_partial,
    jet,
    mono_pairs,
    point_partial,
)

MAX_PROLONGATION_ORDER = 4


class UnsupportedOrderError(ValueError):
    """Closed-formula prolongation is only available for orders 2..4."""


class OrderTooLowError(ValueError):
    """The requested prolongation order does not cover the equation."""


class JetInCoefficientError(ValueError):
    """Point vector fields may only depend on the base coordinates (x, u)."""


def _check_point_coefficient(p: Poly, n: int, what: str) -> None:
    for a in p.atoms():
        kind = a[0]
        if kind == KIND_COORD and 1 <= a[1] <= n:
            continue
        if kind == KIND_DEP:
            continue
        raise JetInCoefficientError(
            f"{what} must be a polynomial in x1..x{n} and u, found {atom_str(a)}")


@dataclass(frozen=True)
class VectorField:
    """A point vector field xi^i(x,u) d/dx^i + phi(x,u) d/du."""

    n: int
    xi: tuple[Poly, ...]
    phi: Poly

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.xi) != self.n:
            raise ValueError(f"expected {self.n} x-components, got {len(self.xi)}")
        for s, p in enumerate(self.xi, start=1):
            _check_point_coefficient(p, self.n, f"xi{s}")
        _check_point_coefficient(self.phi, self.n, "phi")

    def apply_to(self, p: Poly) -> Poly:
        """Act on a polynomial in (x, u) as a first-order operator."""
        return _first_order_action(self.xi, self.phi, p)


def _first_order_action(xi: Sequence[Poly], phi: Poly, p: Poly) -> Poly:
    """xi^s dp/dx^s + phi dp/du."""
    out = Poly.zero()
    for s, xi_s in enumerate(xi, start=1):
        d = p.diff(coord(s))
        if not d.is_zero:
            out = out + xi_s * d
    d = p.diff(DEP)
    if not d.is_zero:
        out = out + phi * d
    return out


@dataclass(frozen=True)
class SymbolicVectorField:
    """The undetermined field whose components are formal derivative atoms."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")


Field = VectorField | SymbolicVectorField


@dataclass(frozen=True)
class ProlongedField:
    """Lift of a field to jet space: coefficients per sorted multi-index.

    `coeffs` maps every sorted index tuple of order 0..order to a Poly; the
    empty tuple maps to phi itself.
    """

    base: Field
    order: int
    coeffs: dict[tuple[int, ...], Poly]


def _base_components(v: Field) -> tuple[list[Poly], Poly]:
    if isinstance(v, SymbolicVectorField):
        xi = [Poly.variable(func_partial(s)) for s in range(1, v.n + 1)]
        phi = Poly.variable(func_partial(0))
        return xi, phi
    return list(v.xi), v.phi


def multi_indices(n: int, order: int) -> list[tuple[int, ...]]:
    """All sorted multi-indices with entries in 1..n of the given order."""
    return list(itertools.combinations_with_replacement(range(1, n + 1), order))


def _uj(*idx: int) -> Poly:
    return Poly.variable(jet(*idx))


def total_derivative(p: Poly, i: int) -> Poly:
    """Total derivative D_i on jet space, extended as a derivation.

    D_i x^j = delta_ij, D_i u = u_i, D_i u_J = u_{J,i}, D_i theta = 0, and a
    formal derivative symbol picks up one x_i-slot plus a u-slot times u_i.
    """
    if i < 1:
        raise ValueError("direction index must be >= 1")
    return p.derivation(lambda a: _atom_total_derivative(a, i))


def _atom_total_derivative(a: Atom, i: int) -> Poly:
    kind = a[0]
    if kind == KIND_COORD:
        return Poly.const(1) if a[1] == i else Poly.zero()
    if kind == KIND_DEP:
        return _uj(i)
    if kind == KIND_JET:
        return Poly.variable(jet(*a[1], i))
    if kind == KIND_THETA:
        return Poly.zero()
    _, comp, xs, du = a
    return (Poly.variable(func_partial(comp, xs + (i,), du))
            + Poly.variable(func_partial(comp, xs, du + 1)) * _uj(i))


def prolong_recursive(v: Field, k: int) -> ProlongedField:
    """Prolongation by iterated total derivatives of (phi - xi^s u_s)."""
    if k < 1:
        raise ValueError("prolongation order must be >= 1")
    n = v.n
    xi, phi = _base_components(v)
    q = phi
    for s in range(1, n + 1):
        q = q - xi[s - 1] * _uj(s)
    dq: dict[tuple[int, ...], Poly] = {(): q}
    coeffs: dict[tuple[int, ...], Poly] = {(): phi}
    for order in range(1, k + 1):
        for J in multi_indices(n, order):
            dq[J] = total_derivative(dq[J[:-1]], J[-1])
            c = dq[J]
            for s in range(1, n + 1):
                c = c + xi[s - 1] * Poly.variable(jet(*J, s))
            coeffs[J] = c
    return ProlongedField(base=v, order=k, coeffs=coeffs)


# -- circle summation and the explicit closed formulas --------------------------

# Sentinel index values used to decide which permutations of a pattern are
# genuinely distinct: large enough never to collide with a real coordinate
# index or a summation index.
_GENERIC = (1000001, 1000002, 1000003, 1000004)


def circle_sum(pattern: Callable[[tuple[int, ...]], Poly],
               indices: Sequence[int]) -> Poly:
    """Sum a term pattern over the distinct permutations of its indices.

    `pattern` builds the term for one assignment of the free indices.  The
    pattern is instantiated at generic (pairwise distinct) index values for
    every permutation; terms that coincide there - i.e. are equal as index
    expressions thanks to the symmetry of mixed partials - are kept once.
    The surviving terms are then re-instantiated at the actual index values,
    so repeated indices contribute with their full multiplicity.
    """
    return _relabel(_generic_terms(pattern, len(indices)), indices)


def _generic_terms(pattern: Callable[[tuple[int, ...]], Poly], m: int
                   ) -> dict[Monomial, int | Fraction]:
    """The distinct terms of `pattern` at the permuted generic indices."""
    gen = _GENERIC[:m]
    seen: dict[Monomial, int | Fraction] = {}
    for perm in itertools.permutations(range(m)):
        p = pattern(tuple(gen[t] for t in perm))
        for mono, c in p.terms.items():
            prev = seen.get(mono)
            if prev is None:
                seen[mono] = c
            elif prev != c:
                raise ValueError("pattern is ambiguous under permutation")
    return seen


def _relabel(terms: dict[Monomial, int | Fraction], indices: Sequence[int]) -> Poly:
    """Generic terms re-instantiated at the actual index values."""
    relabel = dict(zip(_GENERIC, indices))
    return Poly.from_terms(
        (((_relabel_atom(a, relabel), e) for a, e in mono_pairs(mono)), c)
        for mono, c in terms.items())


def _relabel_atom(a: Atom, relabel: dict[int, int]) -> Atom:
    kind = a[0]
    if kind == KIND_COORD:
        return coord(relabel.get(a[1], a[1]))
    if kind == KIND_JET:
        return jet(*(relabel.get(i, i) for i in a[1]))
    if kind == KIND_FUNC:
        _, comp, xs, du = a
        return func_partial(comp, tuple(relabel.get(i, i) for i in xs), du)
    return a


def _phi(xs: Iterable[int] = (), du: int = 0) -> Poly:
    return Poly.variable(func_partial(0, xs, du))


def _xi(s: int, xs: Iterable[int] = (), du: int = 0) -> Poly:
    return Poly.variable(func_partial(s, xs, du))


def _sum_s(n: int, term: Callable[[int], Poly]) -> Poly:
    acc = Poly.zero()
    for s in range(1, n + 1):
        acc = acc + term(s)
    return acc


def _explicit_order1(n: int, i: int) -> Poly:
    return (_phi((i,)) + _phi((), 1) * _uj(i)
            - _sum_s(n, lambda s: (_xi(s, (i,)) + _xi(s, (), 1) * _uj(i)) * _uj(s)))


def _explicit_order2(n: int, i: int, j: int) -> Poly:
    out = (_phi((i, j)) + _phi((j,), 1) * _uj(i) + _phi((i,), 1) * _uj(j)
           + _phi((), 2) * _uj(i) * _uj(j) + _phi((), 1) * _uj(i, j))
    out = out - _sum_s(n, lambda s: (
        _xi(s, (i, j)) + _xi(s, (j,), 1) * _uj(i) + _xi(s, (i,), 1) * _uj(j)
        + _xi(s, (), 2) * _uj(i) * _uj(j) + _xi(s, (), 1) * _uj(i, j)) * _uj(s))
    out = out - _sum_s(n, lambda s: (_xi(s, (i,)) + _xi(s, (), 1) * _uj(i)) * _uj(j, s))
    out = out - _sum_s(n, lambda s: (_xi(s, (j,)) + _xi(s, (), 1) * _uj(j)) * _uj(i, s))
    return out


def _order3_patterns(n: int) -> list[Callable[[tuple[int, ...]], Poly]]:
    # Grouped by the highest derivative order of u each part contains.
    def a1_1(ix):
        i, j, k = ix
        return ((_phi((j, k), 1) + _phi((k,), 2) * _uj(j)) * _uj(i)
                - _sum_s(n, lambda s: (_xi(s, (j, k), 1) + _xi(s, (k,), 2) * _uj(j))
                         * _uj(s) * _uj(i)))

    def a1_2(ix):
        i, j, k = ix
        return ((_phi((), 3) - _sum_s(n, lambda s: _xi(s, (), 3) * _uj(s)))
                * _uj(i) * _uj(j) * _uj(k)
                - _sum_s(n, lambda s: _xi(s, (i, j, k)) * _uj(s)))

    def a2_1(ix):
        i, j, k = ix
        return ((_phi((k,), 1) + _phi((), 2) * _uj(k)) * _uj(i, j)
                - _sum_s(n, lambda s: (_xi(s, (k,), 1) + _xi(s, (), 2) * _uj(k))
                         * _uj(s) * _uj(i, j)))

    def a2_2(ix):
        i, j, k = ix
        return -_sum_s(n, lambda s: (
            _xi(s, (j, k)) + _xi(s, (k,), 1) * _uj(j)
            + _xi(s, (), 2) * _uj(j) * _uj(k) + _xi(s, (), 1) * _uj(j, k)) * _uj(i, s))

    def a3_1(ix):
        i, j, k = ix
        return (_phi((), 1) - _sum_s(n, lambda s: _xi(s, (), 1) * _uj(s))) * _uj(i, j, k)

    def a3_2(ix):
        i, j, k = ix
        return -_sum_s(n, lambda s: (_xi(s, (i,)) + _xi(s, (), 1) * _uj(i)) * _uj(j, k, s))

    return [a1_1, a1_2, a2_1, a2_2, a3_1, a3_2]


def _order4_patterns(n: int) -> list[Callable[[tuple[int, ...]], Poly]]:
    def b1_1(ix):
        i, j, k, l = ix
        return (_phi((j, k, l), 1) + _phi((k, l), 2) * _uj(j)
                + _phi((l,), 3) * _uj(j) * _uj(k)) * _uj(i)

    def b1_2(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (
            _xi(s, (j, k, l), 1) + _xi(s, (k, l), 2) * _uj(j)
            + _xi(s, (l,), 3) * _uj(j) * _uj(k)) * _uj(s) * _uj(i))

    def b1_3(ix):
        i, j, k, l = ix
        return ((_phi((), 4) - _sum_s(n, lambda s: _xi(s, (), 4) * _uj(s)))
                * _uj(i) * _uj(j) * _uj(k) * _uj(l)
                - _sum_s(n, lambda s: _xi(s, (i, j, k, l)) * _uj(s)))

    def b2_1(ix):
        i, j, k, l = ix
        return (_phi((k, l), 1) + _phi((l,), 2) * _uj(k)
                + _phi((), 3) * _uj(k) * _uj(l) + _phi((), 2) * _uj(k, l)) * _uj(i, j)

    def b2_2(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (
            _xi(s, (k, l), 1) + _xi(s, (l,), 2) * _uj(k)
            + _xi(s, (), 3) * _uj(k) * _uj(l) + _xi(s, (), 2) * _uj(k, l))
            * _uj(s) * _uj(i, j))

    def b2_3(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (
            _xi(s, (j, k, l)) + _xi(s, (k, l), 1) * _uj(j)
            + _xi(s, (l,), 2) * _uj(j) * _uj(k)
            + _xi(s, (), 3) * _uj(j) * _uj(k) * _uj(l)) * _uj(i, s))

    def b2_4(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (_xi(s, (l,), 1) + _xi(s, (), 2) * _uj(l))
                       * _uj(j, k) * _uj(i, s))

    def b3_1(ix):
        i, j, k, l = ix
        return ((_phi((i,), 1) + _phi((), 2) * _uj(i)) * _uj(j, k, l)
                - _sum_s(n, lambda s: (_xi(s, (i,), 1) + _xi(s, (), 2) * _uj(i))
                         * _uj(s) * _uj(j, k, l)))

    def b3_2(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (
            (_xi(s, (k, l)) + _xi(s, (l,), 1) * _uj(k)
             + _xi(s, (), 2) * _uj(k) * _uj(l) + _xi(s, (), 1) * _uj(k, l))
            * _uj(i, j, s)
            + _xi(s, (), 1) * _uj(i, s) * _uj(j, k, l)))

    def b4_1(ix):
        i, j, k, l = ix
        return ((_phi((), 1) - _sum_s(n, lambda s: _xi(s, (), 1) * _uj(s)))
                * _uj(i, j, k, l))

    def b4_2(ix):
        i, j, k, l = ix
        return -_sum_s(n, lambda s: (_xi(s, (i,)) + _xi(s, (), 1) * _uj(i))
                       * _uj(j, k, l, s))

    return [b1_1, b1_2, b1_3, b2_1, b2_2, b2_3, b2_4, b3_1, b3_2, b4_1, b4_2]


@lru_cache(maxsize=None)
def _generic_patterns(n: int, order: int) -> tuple[dict, ...]:
    """Generic terms of each order-3/4 pattern, shared by every multi-index."""
    patterns = _order3_patterns(n) if order == 3 else _order4_patterns(n)
    return tuple(_generic_terms(pat, order) for pat in patterns)


@lru_cache(maxsize=None)
def _explicit_symbolic_coeff(n: int, J: tuple[int, ...]) -> Poly:
    order = len(J)
    if order == 1:
        return _explicit_order1(n, J[0])
    if order == 2:
        return _explicit_order2(n, J[0], J[1])
    if order in (3, 4):
        out = _phi(J)
        for terms in _generic_patterns(n, order):
            out = out + _relabel(terms, J)
        return out
    raise UnsupportedOrderError(f"no closed formula for order {order}")


def func_partial_values(v: VectorField, atoms: Iterable[Atom]) -> dict[Atom, Poly]:
    """The concrete (x, u)-polynomial each formal derivative atom among
    `atoms` stands for; other atoms are skipped."""
    out: dict[Atom, Poly] = {}
    for a in atoms:
        if a[0] == KIND_FUNC:
            _, comp, xs, du = a
            out[a] = point_partial(v.phi if comp == 0 else v.xi[comp - 1], xs, du)
    return out


def prolong_explicit(v: Field, k: int) -> ProlongedField:
    """Prolongation assembled from the order-by-order closed formulas.

    Independent of `prolong_recursive`: coefficients are built symbolically
    from the explicit expansion and, for a concrete field, the formal
    derivative symbols are then replaced by actual partial derivatives of
    the field's components.
    """
    if not 2 <= k <= MAX_PROLONGATION_ORDER:
        raise UnsupportedOrderError(
            f"closed formulas cover orders 2..{MAX_PROLONGATION_ORDER}, got {k}")
    n = v.n
    _, phi = _base_components(v)
    coeffs: dict[tuple[int, ...], Poly] = {(): phi}
    concrete = isinstance(v, VectorField)
    for order in range(1, k + 1):
        for J in multi_indices(n, order):
            c = _explicit_symbolic_coeff(n, J)
            if concrete:
                c = c.substitute_atoms(func_partial_values(v, c.atoms()))
            coeffs[J] = c
    return ProlongedField(base=v, order=k, coeffs=coeffs)


def apply_prolonged(v: Field, F: Poly, k: int) -> Poly:
    """Apply the order-k prolongation of the field to the polynomial F.

    On jet space the distinct coordinates are the sorted u_J, and the formal
    partial with respect to such an atom already accounts for every ordering
    of the index tuple, so summing coefficient * dF/du_J over sorted J
    reproduces the unrestricted-index summation convention.

    The result is linear in v and in F, so a concrete field is prolonged as
    lambda*v on L*F, lambda and L the lcms of their coefficient
    denominators, entirely in `int`, and divided by lambda*L once.  That is
    the same polynomial, terms in the same order: a sum cancels in the
    scaled run exactly where it cancels in the rational one.
    """
    max_order = F.max_jet_order()
    if k < max_order:
        raise OrderTooLowError(
            f"prolongation order {k} < equation order {max_order}")
    if isinstance(v, VectorField):
        lam, L = denominator_lcm(*v.xi, v.phi), denominator_lcm(F)
        if lam * L != 1:
            v = VectorField(v.n, tuple(p * lam for p in v.xi), v.phi * lam)
            return _apply_prolonged(v, F * L, k) * Fraction(1, lam * L)
    return _apply_prolonged(v, F, k)


def _apply_prolonged(v: Field, F: Poly, k: int) -> Poly:
    pf = prolong_recursive(v, k)
    out = _first_order_action(*_base_components(v), F)
    for J, c in pf.coeffs.items():
        if not J:
            continue
        d = F.diff(jet(*J))
        if not d.is_zero:
            out = out + c * d
    return out
