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
import math
import random
from collections import namedtuple
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


class PdeSystem(namedtuple("PdeSystem", "n F top_var")):
    """A polynomial-in-jets equation F = 0 in N = `n` independent variables.

    `top_var` is a jet atom in which F is affine-linear; sampling solves for
    it.  What F determines (its order, whether it holds theta) is read from
    F, not stored beside it.
    """

    def __new__(cls, n, F, top_var):
        self = super().__new__(cls, n, F, top_var)
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not (self.F.diff(self.top_var)).diff(self.top_var).is_zero:
            raise ValueError("F must be affine-linear in top_var")
        if any(a[0] == KIND_FUNC for a in self.F.atoms()):
            raise ValueError("F must not contain unknown-function symbols")
        return self

    @cached_property
    def order(self) -> int:  # the highest jet order in F
        return self.F.max_jet_order()

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


def hessian_matrix(n: int) -> list[list[Poly]]:
    return [[Poly.variable(jet(i, j)) for j in range(1, n + 1)]
            for i in range(1, n + 1)]


def build_monge_ampere(n: int) -> PdeSystem:
    """det D^2 u = 1 as the polynomial det(jet Hessian) - 1."""
    F = sym_det(hessian_matrix(n)) - 1
    return PdeSystem(n=n, F=F, top_var=jet(n, n))


def build_affine_maximal(n: int, theta=None) -> PdeSystem:
    """The fourth-order equation, cleared of inverse-Hessian denominators.

    F = theta * (det^3 v) - det * U^{ij} U^{kl} u_{ijkl} + (det^3 z), where
    v and z are the two scalar contractions of the third derivatives and
    U is the cofactor matrix of the jet Hessian.  theta may be a rational,
    or None/"sym" for a symbolic parameter atom.
    """
    if theta is None or theta == "sym":
        tpoly = Poly.variable(THETA)
    elif Fraction(theta) > 0:
        tpoly = Poly.const(Fraction(theta))
    else:
        raise ValueError("theta must be positive")
    H = hessian_matrix(n)
    U = sym_adjugate(H)
    F = (tpoly * _contraction_v(U)
         - sym_det(H) * _fourth_order_contraction(U)
         + _contraction_z(U))
    return PdeSystem(n=n, F=F, top_var=jet(1, 1, 1, 1))


def _orderings(idx: tuple[int, ...]) -> int:
    """The number of distinct orderings of a sorted index tuple."""
    out = math.factorial(len(idx))
    for _, run in itertools.groupby(idx):
        out //= math.factorial(len(list(run)))
    return out


def _u3(a: int, b: int, c: int) -> Poly:
    # the third-order jet at 0-based indices
    return Poly.variable(jet(a + 1, b + 1, c + 1))


def _contraction_v(U: list[list[Poly]]) -> Poly:
    # det^3 * u^a_{ai} u^{bi}_b  ==  U^{ij} w_i w_j with w_i = U^{ab} u_{abi};
    # U is symmetric, so both sums run over sorted pairs, weighted
    rng = range(len(U))
    pairs = list(itertools.combinations_with_replacement(rng, 2))
    w = [poly_sum(_orderings((a, b)) * U[a][b] * _u3(a, b, c) for a, b in pairs)
         for c in rng]
    return poly_sum(_orderings((i, j)) * U[i][j] * w[i] * w[j] for i, j in pairs)


def _contraction_z(U: list[list[Poly]]) -> Poly:
    # det^3 * u_{ijk} u^{ijk} = u_{abc} w^{abc}, w^{abc} = U^{ai} U^{bj} U^{ck}
    # u_{ijk}, with the indices of u_{ijk} raised one at a time.  Every
    # stage is symmetric in the indices it has raised and in those it has
    # not, so each keeps only sorted index groups, and the final sum runs
    # over sorted triples weighted by their orderings
    rng = range(len(U))
    pairs = list(itertools.combinations_with_replacement(rng, 2))
    # w1[a, (j, k)] = U^{ai} u_{ijk}
    w1 = {(a, jk): poly_sum(U[a][i] * _u3(i, *jk) for i in rng)
          for a in rng for jk in pairs}
    # w2[(a, b), k] = U^{bj} w1[a, (j, k)]
    w2 = {(ab, k): poly_sum(U[ab[1]][j] * w1[ab[0], tuple(sorted((j, k)))]
                            for j in rng)
          for ab in pairs for k in rng}
    return poly_sum(_orderings(abc) * _u3(*abc)
                    * poly_sum(U[abc[2]][k] * w2[abc[:2], k] for k in rng)
                    for abc in itertools.combinations_with_replacement(rng, 3))


def _fourth_order_contraction(U: list[list[Poly]]) -> Poly:
    # U^{ij} U^{kl} u_{ijkl}
    rng = range(1, len(U) + 1)
    return poly_sum(U[i - 1][j - 1] * U[k - 1][l - 1] * Poly.variable(jet(i, j, k, l))
                    for i, j, k, l in itertools.product(rng, repeat=4))


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


def sample_point(sys: PdeSystem, seed: int, index: int) -> dict[Atom, Fraction]:
    """Deterministic on-variety point number `index` for the given seed: the
    exact value of every jet coordinate up to the equation's order."""
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
        H = [[env[jet(i, j)] for j in range(1, n + 1)] for i in range(1, n + 1)]
        if not leading_minors_positive(H):
            continue
        if sys.F.evaluate(env) != 0:  # exact check of the defining property
            continue
        return env
    raise SamplingExhaustedError(
        f"no valid sample for seed {seed}, index {index} "
        f"within {RESAMPLE_BUDGET} attempts")


def sample_on_variety(sys: PdeSystem, rng_seed: int, count: int) -> list[dict]:
    """`count` exact on-variety points; point i depends only on (seed, i)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [sample_point(sys, rng_seed, i) for i in range(count)]
