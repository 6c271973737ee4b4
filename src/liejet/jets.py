"""Jet-space differential operators.

Total derivatives, the lift of a point vector field to jet space by two
independent routes, and application of the lifted field to an equation.
Every first-order operator here (D_i, a field on (x, u), pr v on F) is one
`Poly.derivation` given the image of each atom (Olver, GTM 107, 2.3).

The recursive route iterates total derivatives of (phi - xi^s u_s) and adds
the xi^s u_{J,s} correction.  The explicit route assembles the order-1..4
coefficients from closed formulas organised by the highest derivative order
they contain, using "circle summations" over the distinct permutations of
the free indices.  The two routes are mutual oracles: they must agree
exactly for every field, which the test suite checks on random inputs.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

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
    _fields,
    coord,
    func_partial,
    jet,
    multi_indices,
    point_partial,
)

MAX_PROLONGATION_ORDER = 4


class UnsupportedOrderError(ValueError):
    """Closed-formula prolongation is only available for orders 1..4."""


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


class VectorField(namedtuple("VectorField", "n xi phi")):
    """A point vector field xi^i(x,u) d/dx^i + phi(x,u) d/du."""

    def __new__(cls, n, xi, phi):
        self = super().__new__(cls, n, xi, phi)
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.xi) != self.n:
            raise ValueError(f"expected {self.n} x-components, got {len(self.xi)}")
        for s, p in enumerate(self.xi, start=1):
            _check_point_coefficient(p, self.n, f"xi{s}")
        _check_point_coefficient(self.phi, self.n, "phi")
        return self

    def apply_to(self, p: Poly) -> Poly:
        """Act on a polynomial in (x, u) as xi^s d/dx^s + phi d/du."""
        return _derivation(self, p, {})


class SymbolicVectorField(namedtuple("SymbolicVectorField", "n")):
    """The undetermined field whose components are formal derivative atoms."""

    def __new__(cls, n):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        return super().__new__(cls, n)


Field = VectorField | SymbolicVectorField


def _base_components(v: Field) -> tuple[list[Poly], Poly]:
    if isinstance(v, SymbolicVectorField):
        xi = [Poly.variable(func_partial(s)) for s in range(1, v.n + 1)]
        phi = Poly.variable(func_partial(0))
        return xi, phi
    return list(v.xi), v.phi


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


def prolong_recursive(v: Field, k: int) -> dict[tuple[int, ...], Poly]:
    """Prolongation by iterated total derivatives of (phi - xi^s u_s): the
    coefficient at every sorted multi-index up to order k, () mapped to phi."""
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
    return coeffs


# -- circle summation and the explicit closed formulas --------------------------

# Sentinel index values used to decide which permutations of a pattern are
# genuinely distinct: large enough never to collide with a real coordinate
# index or a summation index.
_GENERIC = (1000001, 1000002, 1000003, 1000004)


def _generic_terms(pattern: Callable[[tuple[int, ...]], Poly], m: int
                   ) -> dict[Monomial, int | Fraction]:
    """The distinct terms of `pattern` at the permuted generic indices.

    A circle summation sums a term pattern over the distinct permutations of
    its m free indices.  `pattern` is instantiated at generic (pairwise
    distinct) index values for every permutation; terms that coincide there
    - equal as index expressions by the symmetry of mixed partials - are
    kept once.  `_relabel` then re-instantiates them at the actual indices,
    so repeated indices contribute with their full multiplicity.
    """
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
        (((_relabel_atom(a, relabel), e) for a, e in _fields(mono)), c)
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


def func_partial_values(v: VectorField) -> Callable[[Atom], Poly]:
    """The image that puts the concrete field into a polynomial of degree 1
    in the formal derivative atoms, as one `Poly.derivation`: each such atom
    goes to the (x, u)-polynomial it stands for, every other atom to 0.
    Each image is computed once per field."""

    @lru_cache(maxsize=None)
    def image(a: Atom) -> Poly:
        if a[0] != KIND_FUNC:
            return Poly.zero()
        _, comp, xs, du = a
        return point_partial(v.phi if comp == 0 else v.xi[comp - 1], xs, du)

    return image


def prolong_explicit(v: Field, k: int) -> dict[tuple[int, ...], Poly]:
    """Prolongation assembled from the order-by-order closed formulas.

    Independent of `prolong_recursive`: coefficients are built symbolically
    from the explicit expansion.  Each has degree 1 in the formal
    derivative symbols, so a concrete field replaces them by the actual
    partial derivatives of its components with one derivation.
    """
    if not 1 <= k <= MAX_PROLONGATION_ORDER:
        raise UnsupportedOrderError(
            f"closed formulas cover orders 1..{MAX_PROLONGATION_ORDER}, got {k}")
    n = v.n
    _, phi = _base_components(v)
    coeffs: dict[tuple[int, ...], Poly] = {(): phi}
    values = func_partial_values(v) if isinstance(v, VectorField) else None
    for order in range(1, k + 1):
        for J in multi_indices(n, order):
            c = _explicit_symbolic_coeff(n, J)
            coeffs[J] = c if values is None else c.derivation(values)
    return coeffs


def apply_prolonged(v: Field, F: Poly, k: int) -> Poly:
    """Apply the order-k prolongation of the field to the polynomial F.

    pr v(F) is the derivation of F sending x^s, u and each sorted u_J to
    xi^s, phi and the `prolong_recursive` coefficient phi^J, and every other
    atom to 0; the partial by a sorted u_J already counts every ordering of
    its indices, as the unrestricted summation convention asks.  Rational
    coefficients, in the field or in F, stay inside the derivation's
    integer interior.
    """
    max_order = F.max_jet_order()
    if k < max_order:
        raise OrderTooLowError(
            f"prolongation order {k} < equation order {max_order}")
    coeffs = prolong_recursive(v, k)
    return _derivation(v, F, {jet(*J): c for J, c in coeffs.items() if J})


def _derivation(v: Field, p: Poly, images: dict[Atom, Poly]) -> Poly:
    # x^s -> xi^s and u -> phi besides `images`; every other atom -> 0
    xi, phi = _base_components(v)
    images[DEP] = phi
    images.update((coord(s), c) for s, c in enumerate(xi, start=1))
    return p.derivation(lambda a: images.get(a, Poly.zero()))
