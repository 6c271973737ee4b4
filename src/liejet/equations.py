"""Builders for the two equations under study and exact on-variety sampling.

Both equations are handled as polynomials in the jet coordinates.  The
fourth-order equation is stored with all inverse-Hessian entries cleared:
multiplying through by det(D^2 u)^3 turns every u^{ab} into the cofactor
U^{ab}, so the equation lives in the same polynomial ring as everything
else and vanishes at exactly the same *convex* jets as the original.

Sampling draws small random rationals, builds the Hessian as L L^T + I so it
is symmetric positive definite, and solves the designated top variable from
F = 0 exactly, so every returned point lies on the solution variety.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (
    Atom,
    DEP,
    KIND_FUNC,
    Poly,
    THETA,
    coord,
    jet,
    multi_indices,
    poly_sum,
    rat_det,
    sym_adjugate,
    sym_det,
)


class SamplingExhaustedError(RuntimeError):
    """The per-point resampling budget was exhausted."""


@dataclass(frozen=True)
class PdeSystem:
    """A polynomial-in-jets equation F = 0.

    `top_var` is a jet atom in which F is affine-linear; sampling solves for
    it.  `theta` is the pinned rational parameter value, or None when the
    equation either has no parameter or carries it symbolically.
    """

    n: int
    order: int
    F: Poly
    top_var: Atom
    theta: Fraction | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not (self.F.diff(self.top_var)).diff(self.top_var).is_zero:
            raise ValueError("F must be affine-linear in top_var")
        if any(a[0] == KIND_FUNC for a in self.F.atoms()):
            raise ValueError("F must not contain unknown-function symbols")

    @property
    def theta_symbolic(self) -> bool:
        return THETA in self.F.atoms()

    @cached_property
    def top_split(self) -> tuple[Poly, Poly]:
        """(A, B) with F = A * top_var + B; neither holds top_var."""
        parts = self.F.coefficient_powers(self.top_var)
        return parts.get(1, Poly.zero()), parts.get(0, Poly.zero())


def top_weights(powers: dict[int, Poly], A: Poly, B: Poly) -> dict[int, Poly]:
    """W_r = (-B)^r * A^(m-r) for the powers r of R = sum_r c_r * top^r, m
    the largest: A^m * R(top = -B/A) = sum_r c_r * W_r."""
    m = max(powers, default=0)
    return {r: (-B) ** r * A ** (m - r) for r in powers}


def eliminate_top(R: Poly, A: Poly, B: Poly, top_var: Atom) -> Poly:
    """A^m * R(top_var = -B/A), m the degree of R in top_var: zero exactly
    when R vanishes on the part A != 0 of F = A * top_var + B = 0."""
    powers = R.coefficient_powers(top_var)
    weights = top_weights(powers, A, B)
    return poly_sum(c * weights[r] for r, c in powers.items())


@dataclass(frozen=True)
class JetPoint:
    """Exact rational assignment to all jet coordinates up to some order."""

    env: dict[Atom, Fraction]

    def hessian(self, n: int) -> list[list[Fraction]]:
        return [[self.env[jet(i, j)] for j in range(1, n + 1)]
                for i in range(1, n + 1)]


def hessian_matrix(n: int) -> list[list[Poly]]:
    return [[Poly.variable(jet(i, j)) for j in range(1, n + 1)]
            for i in range(1, n + 1)]


def build_monge_ampere(n: int) -> PdeSystem:
    """det D^2 u = 1 as the polynomial det(jet Hessian) - 1."""
    F = sym_det(hessian_matrix(n)) - 1
    return PdeSystem(n=n, order=2, F=F, top_var=jet(n, n))


def _theta_poly(theta) -> tuple[Poly, Fraction | None]:
    if theta is None or theta == "sym":
        return Poly.variable(THETA), None
    value = Fraction(theta)
    if value <= 0:
        raise ValueError("theta must be positive")
    return Poly.const(value), value


def build_affine_maximal(n: int, theta=None) -> PdeSystem:
    """The fourth-order equation, cleared of inverse-Hessian denominators.

    F = theta * (det^3 v) - det * U^{ij} U^{kl} u_{ijkl} + (det^3 z), where
    v and z are the two scalar contractions of the third derivatives and
    U is the cofactor matrix of the jet Hessian.  theta may be a rational,
    or None/"sym" for a symbolic parameter atom.
    """
    tpoly, tvalue = _theta_poly(theta)
    det = sym_det(hessian_matrix(n))
    F = (tpoly * _contraction_v(n)
         - det * _fourth_order_contraction(n)
         + _contraction_z(n))
    return PdeSystem(n=n, order=4, F=F, top_var=jet(1, 1, 1, 1), theta=tvalue)


def _cofactors(n: int) -> list[list[Poly]]:
    return sym_adjugate(hessian_matrix(n))


def _contraction_v(n: int) -> Poly:
    # det^3 * u^a_{ai} u^{bi}_b  ==  U^{ij} w_i w_j with w_i = U^{ab} u_{abi}
    U = _cofactors(n)
    rng = range(1, n + 1)
    w = {c: poly_sum(U[a - 1][b - 1] * Poly.variable(jet(a, b, c))
                     for a in rng for b in rng)
         for c in rng}
    return poly_sum(U[i - 1][j - 1] * w[i] * w[j] for i in rng for j in rng)


def _contraction_z(n: int) -> Poly:
    # det^3 * u_{ijk} u^{ijk} = u_{abc} w^{abc}, w^{abc} = U^{ai} U^{bj} U^{ck}
    # u_{ijk}, with the indices of u_{ijk} raised one at a time
    U = _cofactors(n)
    rng = range(n)
    third = {idx: Poly.variable(jet(*(i + 1 for i in idx)))
             for idx in itertools.product(rng, repeat=3)}
    w = third
    for slot in range(3):
        w = {idx: poly_sum(U[idx[slot]][i] * w[(*idx[:slot], i, *idx[slot + 1:])]
                           for i in rng)
             for idx in w}
    return poly_sum(third[idx] * w[idx] for idx in third)


def _fourth_order_contraction(n: int) -> Poly:
    # U^{ij} U^{kl} u_{ijkl}
    U = _cofactors(n)
    rng = range(1, n + 1)
    return poly_sum(U[i - 1][j - 1] * U[k - 1][l - 1] * Poly.variable(jet(i, j, k, l))
                    for i, j, k, l in itertools.product(rng, repeat=4))


def named_contraction(name: str, n: int) -> Poly:
    """The det^3-cleared third-derivative contractions 'v' and 'z'."""
    if name == "v":
        return _contraction_v(n)
    if name == "z":
        return _contraction_z(n)
    raise ValueError(f"unknown contraction {name!r} (expected 'v' or 'z')")


# -- sampling -------------------------------------------------------------------

_DENOMS = (1, 2, 3)
RESAMPLE_BUDGET = 100
# the sampler's default seed, and the default number of sampled points of an
# invariance check
DEFAULT_SEED = 20250601
DEFAULT_TRIALS = 100


def _rand_q(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice(_DENOMS))


def _rand_q_pos(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.choice(_DENOMS))


def solve_top_value(sys: PdeSystem, env: dict[Atom, Fraction]) -> Fraction | None:
    """Solve F = 0 exactly for the top variable given the other values.

    Returns None when the top variable's coefficient vanishes at the point.
    """
    coeff, rest = sys.top_split
    A = coeff.evaluate(env)
    if A == 0:
        return None
    return -rest.evaluate(env) / A


def _spd_hessian(rng: random.Random, n: int) -> list[list[Fraction]]:
    L = [[_rand_q(rng) if j <= i else Fraction(0) for j in range(n)]
         for i in range(n)]
    H = [[sum((L[i][k] * L[j][k] for k in range(n)), Fraction(0))
          for j in range(n)] for i in range(n)]
    for i in range(n):
        H[i][i] += 1
    return H


def leading_minors_positive(H: list[list[Fraction]]) -> bool:
    return all(rat_det([row[:r] for row in H[:r]]) > 0
               for r in range(1, len(H) + 1))


def sample_point(sys: PdeSystem, seed: int, index: int) -> JetPoint:
    """Deterministic on-variety point number `index` for the given seed."""
    rng = random.Random(seed * 1_000_003 + index)
    n = sys.n
    for _ in range(RESAMPLE_BUDGET):
        env: dict[Atom, Fraction] = {}
        for i in range(1, n + 1):
            env[coord(i)] = _rand_q(rng)
        env[DEP] = _rand_q(rng)
        for i in range(1, n + 1):
            env[jet(i)] = _rand_q(rng)
        H = _spd_hessian(rng, n)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                env[jet(i, j)] = H[i - 1][j - 1]
        for order in range(3, sys.order + 1):
            for J in multi_indices(n, order):
                env[jet(*J)] = _rand_q(rng)
        if sys.theta_symbolic:
            env[THETA] = _rand_q_pos(rng)
        env.pop(sys.top_var, None)
        t = solve_top_value(sys, env)
        if t is None:
            continue
        env[sys.top_var] = t
        pt = JetPoint(env=env)
        if not leading_minors_positive(pt.hessian(n)):
            continue
        if sys.F.evaluate(env) != 0:  # exact check of the defining property
            continue
        return pt
    raise SamplingExhaustedError(
        f"no valid sample for seed {seed}, index {index} "
        f"within {RESAMPLE_BUDGET} attempts")


def sample_on_variety(sys: PdeSystem, rng_seed: int, count: int) -> list[JetPoint]:
    """`count` exact on-variety points; point i depends only on (seed, i)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [sample_point(sys, rng_seed, i) for i in range(count)]
