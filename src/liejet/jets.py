"""Jet-space differential operators.

Total derivatives, the lift of a point vector field to jet space by two
independent routes, and application of the lifted field to an equation.
Every first-order operator here (D_i, a field on (x, u), pr v on F) is one
`Poly.derivation` given the image of each atom (Olver, GTM 107, 2.3).

The recursive route iterates total derivatives of (phi - xi^s u_s) and adds
the xi^s u_{J,s} correction.  The explicit route writes each coefficient of
the undetermined field in closed form, by Leibniz and the multivariate Faa
di Bruno formula summed over the positions of J, and puts a concrete field
in by one derivation.  The two routes are mutual oracles: they must agree
exactly for every field, which the test suite checks on random inputs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import lru_cache

from .algebra import (
    Atom,
    DEP,
    KIND_COORD,
    KIND_DEP,
    KIND_FUNC,
    KIND_JET,
    KIND_THETA,
    Poly,
    atom_str,
    coord,
    func_partial,
    jet,
    multi_indices,
    point_partial,
)

MAX_PROLONGATION_ORDER = 4


class UnsupportedOrderError(ValueError):
    """The closed formula is offered for orders 1..4 only: its terms grow
    with the Bell numbers, and the recursion is the route beyond."""


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


# -- the closed formula ------------------------------------------------------------

def _splits(A: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every split of the positions of A into a subset and the rest, each
    given by the indices at its positions."""
    for mask in range(1 << len(A)):
        yield (tuple(a for p, a in enumerate(A) if mask >> p & 1),
               tuple(a for p, a in enumerate(A) if not mask >> p & 1))


def _partitions(A: tuple[int, ...]) -> Iterator[list[tuple[int, ...]]]:
    """Every set partition of the positions of A, each block given by the
    indices at its positions."""
    if not A:
        yield []
        return
    first = A[0]
    for blocks in _partitions(A[1:]):
        yield [(first,), *blocks]
        for b in range(len(blocks)):
            yield [*blocks[:b], (first, *blocks[b]), *blocks[b + 1:]]


def _chain_rule(comp: int, A: tuple[int, ...]) -> Iterator[list[Atom]]:
    """The terms of D_A f(x, u(x)), f the field component `comp`, each as
    the list of its atoms (multivariate Faa di Bruno, Constantine & Savits
    1996): f_{x_S u^|P|} * prod_{B in P} u_B over every subset S of the
    positions of A and every set partition P of the rest.  A sum over
    positions gives a repeated index its multiplicity."""
    for xs, rest in _splits(A):
        for blocks in _partitions(rest):
            yield [func_partial(comp, xs, len(blocks)), *(jet(*B) for B in blocks)]


@lru_cache(maxsize=None)
def _explicit_symbolic_coeff(n: int, J: tuple[int, ...]) -> Poly:
    """The coefficient of the undetermined field at J, degree 1 in the func
    atoms: phi^J = D_J(phi - xi^i u_i) + xi^i u_{J,i} (Olver, GTM 107,
    Thm 2.36), by Leibniz over the positions of J
    phi^J = D_J phi - sum_i sum_{K} D_K xi^i * u_{(J-K)+i}
    with K running over the nonempty subsets, the empty one cancelling the
    last sum.  Neither `total_derivative` nor the recursion is called."""
    terms = [(t, 1) for t in _chain_rule(0, J)]
    for K, rest in _splits(J):
        if K:
            for i in range(1, n + 1):
                terms.extend(([*t, jet(*rest, i)], -1) for t in _chain_rule(i, K))
    return Poly.from_terms((((a, 1) for a in t), c) for t, c in terms)


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
    """Prolongation from the closed formula, orders 1..k for k <= 4.

    Independent of `prolong_recursive`: each coefficient is the closed form
    for the undetermined field (`_explicit_symbolic_coeff`, built once per
    multi-index).  It has degree 1 in the formal derivative symbols, so a
    concrete field replaces them by the actual partial derivatives of its
    components with one derivation.  An order outside 1..4 is refused
    before any work.
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
