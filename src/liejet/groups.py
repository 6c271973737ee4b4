"""Finite group elements, their action on solutions, and residual checks.

A group element is the affine map (x, u) -> (Q x + P u + R, D.x + c u + d)
of graph space, built from its parameters as the paper states the groups:
`make_ma_element` from x -> lam Abar x + b with det Abar = 1 and
u -> lam^2 u + D.x + d, `make_am_element` from the blocks directly, with
graph shears (P != 0) only in the special regime.  There is no exponential
map: every element the CLI moves a solution by is given by its parameters.
For P = 0 the action on functions is global: `act` moves
a polynomial solution to a polynomial by exact substitution and wraps a
callable (closed-form) one in an affine callable, and `residual` computes
exact residuals of polynomials and finite-difference residuals (high-order
central stencils with Richardson extrapolation) of callables.  For P != 0
the action is only local, and `transport_local` is its one realisation:
it moves polynomial solutions only, writing the transported jets over the
source point with the powers of the Jacobian determinant cleared, so the
residual is one polynomial.  `act` refuses local elements.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import (
    Atom,
    DEP,
    KIND_COORD,
    KIND_JET,
    Poly,
    _solve_columns,
    coord,
    jet,
    mono_pairs,
    multi_indices,
    point_partial,
    rat_det,
    solve_exact,
    sym_adjugate,
    sym_det,
)
from .equations import PdeSystem, leading_minors_positive


class DetNotOneError(ValueError):
    """The unimodular factor of a second-order-regime element must have
    determinant one."""


class SingularError(ValueError):
    """The element's linear part is not invertible."""


class PNotAllowedError(ValueError):
    """Graph shears (P != 0) only exist in the special-parameter regime."""


class NotInvertibleHereError(RuntimeError):
    """The point map of a local element is degenerate (its Jacobian
    determinant vanishes) at the solution's center or at a source point."""


class BadParamsError(ValueError):
    """Solution-family parameters violate the family's constraints."""


Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def _vec(values) -> Vec:
    return tuple(Fraction(v) for v in values)


def _mat(values) -> Mat:
    return tuple(_vec(row) for row in values)


def _mat_inverse(rows: Mat) -> Mat:
    n = len(rows)
    cols = _solve_columns(rows, [[Fraction(1 if i == j else 0) for i in range(n)]
                                 for j in range(n)])
    if None in cols:
        raise SingularError("matrix is singular")
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


class GroupElement(namedtuple("GroupElement", "n q p dvec c r d")):
    """Affine transformation of graph space in block form.

    linear = [[Q, P], [D, c]] acting on (x, u); shift = (R, d).
    """

    def __new__(cls, n, q, p, dvec, c, r, d):
        self = super().__new__(cls, n, q, p, dvec, c, r, d)
        n = self.n
        if len(self.q) != n or any(len(row) != n for row in self.q):
            raise ValueError("Q block has wrong shape")
        if len(self.p) != n or len(self.dvec) != n or len(self.r) != n:
            raise ValueError("vector block has wrong shape")
        if rat_det(self.linear()) == 0:
            raise SingularError("element's linear part is singular")
        return self

    @property
    def local(self) -> bool:
        """Whether the action on functions is only defined near a point:
        exactly the graph shears, P != 0."""
        return any(self.p)

    def linear(self) -> Mat:
        rows = [tuple(self.q[i]) + (self.p[i],) for i in range(self.n)]
        rows.append(tuple(self.dvec) + (self.c,))
        return tuple(rows)


def make_ma_element(lam, abar, b, dvec, d) -> GroupElement:
    """Second-order-regime element: Q = lam * Abar with det(Abar) = 1,
    c = lam^2, no graph shear."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("the scale factor must be a positive rational")
    abar = _mat(abar)
    if rat_det(abar) != 1:
        raise DetNotOneError("unimodular factor must have determinant 1")
    n = len(abar)
    q = tuple(tuple(lam * abar[i][j] for j in range(n)) for i in range(n))
    return GroupElement(n=n, q=q, p=_vec([0] * n), dvec=_vec(dvec), c=lam * lam,
                        r=_vec(b), d=Fraction(d))


def make_am_element(q, p, dvec, c, r, d, regime: str = "am-generic") -> GroupElement:
    """Fourth-order-regime element; graph shears (P != 0) are only accepted
    in the special regime, and they make the element local."""
    q = _mat(q)
    n = len(q)
    p = _vec(p)
    if any(p) and regime != "am-special":
        raise PNotAllowedError(
            "P != 0 requires the special parameter value (regime 'am-special')")
    return GroupElement(n=n, q=q, p=p, dvec=_vec(dvec), c=Fraction(c),
                        r=_vec(r), d=Fraction(d))


# -- solution samples ------------------------------------------------------------

class SolutionSample(namedtuple("SolutionSample", "n kind poly fn center radius",
                                defaults=(None, None, (), math.inf))):
    """A candidate solution: exact polynomial or black-box evaluator.

    `kind` is "polynomial" (with `poly`) or "callable" (with `fn`, a
    function of a float point).  `center`/`radius` hint at a neighbourhood
    where the function is defined and convex.
    """

    def __call__(self, x: Sequence[float]) -> float:
        if self.kind == "polynomial":
            env = {coord(i + 1): float(x[i]) for i in range(self.n)}
            return self.poly.evaluate_float(env)
        return self.fn(x)

    @cached_property
    def _partials(self) -> tuple[Poly, ...]:
        """The x-partials of a polynomial sample, differentiated once."""
        return tuple(self.poly.diff(coord(i + 1)) for i in range(self.n))

    def gradient(self, x: Sequence[float]) -> list[float]:
        if self.kind != "polynomial":
            raise ValueError("a gradient needs a polynomial sample")
        env = {coord(i + 1): float(x[i]) for i in range(self.n)}
        return [d.evaluate_float(env) for d in self._partials]


def polynomial_sample(n: int, p: Poly) -> SolutionSample:
    return SolutionSample(n=n, kind="polynomial", poly=p, center=(0.0,) * n)


def solution_family(name: str, params: dict) -> SolutionSample:
    """Built-in solution families.

    "quadratic": x.M.x/2 + l.x + c0 with symmetric positive definite M.
    "am1d": the one-dimensional fourth-order family with second derivative
    (a + b x)^(-1/theta); closed forms exist for theta in {1/2, 1, 1/3}
    on a + b x > 0 (centered at 0, so a > 0 is required).
    """
    if name == "quadratic":
        m = _mat(params["M"])
        n = len(m)
        if any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
            raise BadParamsError("M must be symmetric")
        if not leading_minors_positive([list(r) for r in m]):
            raise BadParamsError("M must be positive definite")
        lin = _vec(params.get("l", [0] * n))
        c0 = Fraction(params.get("c", 0))
        p = Poly.const(c0)
        for i in range(n):
            p = p + lin[i] * Poly.variable(coord(i + 1))
            for j in range(n):
                p = p + Fraction(m[i][j], 2) * Poly.variable(coord(i + 1)) * Poly.variable(coord(j + 1))
        return polynomial_sample(n, p)

    if name == "am1d":
        keys = ("theta", "a", "b")
        missing = [k for k in keys if k not in params]
        if missing:
            raise BadParamsError("am1d needs theta, a and b; missing: "
                                 + ", ".join(missing))
        unknown = sorted(set(params).difference(keys))
        if unknown:
            raise BadParamsError("unknown am1d parameter(s): " + ", ".join(unknown))
        theta = Fraction(params["theta"])
        a = Fraction(params["a"])
        b = Fraction(params["b"])
        if b == 0:
            raise BadParamsError("b must be nonzero (use a quadratic otherwise)")
        if a <= 0:
            raise BadParamsError("need a > 0 so the domain contains x = 0")
        af, bf = float(a), float(b)
        if theta == Fraction(1, 2):
            fn = lambda x: -math.log(af + bf * x[0]) / bf ** 2
        elif theta == 1:
            fn = lambda x: ((af + bf * x[0]) * math.log(af + bf * x[0])
                            - (af + bf * x[0])) / bf ** 2
        elif theta == Fraction(1, 3):
            fn = lambda x: 1.0 / (2 * bf ** 2 * (af + bf * x[0]))
        else:
            raise BadParamsError(
                "closed forms are implemented for theta in {1/2, 1, 1/3}")
        # convex on all of a + b x > 0; stay slightly inside the singularity
        radius = 0.9 * float(a) / abs(float(b))
        return SolutionSample(n=1, kind="callable", fn=fn, center=(0.0,),
                              radius=radius)

    raise BadParamsError(f"unknown solution family {name!r}")


# -- the action on solutions ------------------------------------------------------

def act(g: GroupElement, s: SolutionSample) -> SolutionSample:
    """Transport a solution by a global (P = 0) element.

    The new function is u~(x~) = D.x + c u(x) + d at x = Q^-1(x~ - R):
    exact polynomial output for polynomial input, an affine wrapper around
    a callable one.  A local element (P != 0) is refused: `transport_local`
    moves polynomial solutions by it exactly, and callable ones have no
    transport.
    """
    if g.n != s.n:
        raise ValueError("dimension mismatch")
    if g.local:
        raise ValueError("a local element (P != 0) moves polynomial solutions "
                         "only, by exact transport over the source point")
    n = g.n
    new_center = tuple(sum(float(g.q[i][j]) * s.center[j] for j in range(n))
                       + float(g.r[i]) for i in range(n))
    qinv = _mat_inverse(g.q)
    scale = max(sum(abs(float(v)) for v in row) for row in qinv)
    radius = s.radius / scale if math.isfinite(s.radius) else math.inf
    if s.kind == "polynomial":
        mapping = {}
        for i in range(n):
            expr = Poly.const(-sum((qinv[i][j] * g.r[j] for j in range(n)),
                                   Fraction(0)))
            for j in range(n):
                expr = expr + qinv[i][j] * Poly.variable(coord(j + 1))
            mapping[coord(i + 1)] = expr
        inner = s.poly.substitute_atoms(mapping)
        out = Poly.const(g.d) + g.c * inner
        for i in range(n):
            out = out + g.dvec[i] * mapping[coord(i + 1)]
        return SolutionSample(n=n, kind="polynomial", poly=out,
                              center=new_center, radius=radius)
    qinv_f = [[float(v) for v in row] for row in qinv]
    rf = [float(v) for v in g.r]
    df = [float(v) for v in g.dvec]
    cf, d0 = float(g.c), float(g.d)
    base = s

    def fn(xt: Sequence[float]) -> float:
        x = [sum(qinv_f[i][j] * (xt[j] - rf[j]) for j in range(n))
             for i in range(n)]
        return sum(df[i] * x[i] for i in range(n)) + cf * base(x) + d0

    return SolutionSample(n=n, kind="callable", fn=fn, center=new_center,
                          radius=radius)


# -- residuals --------------------------------------------------------------------

def _require_pinned(sys: PdeSystem) -> None:
    if sys.theta_symbolic:
        raise ValueError("pin theta to a rational before computing residuals")


def residual_polynomial(s: SolutionSample, sys: PdeSystem) -> Poly:
    """Exact residual of a polynomial candidate: substitute its derivatives
    into F; the zero polynomial certifies a solution on all of x-space."""
    if s.kind != "polynomial":
        raise ValueError("exact residuals need a polynomial sample")
    _require_pinned(sys)
    mapping: dict[Atom, Poly] = {DEP: s.poly}
    for a in sys.F.atoms():
        if a[0] == KIND_JET:
            mapping[a] = point_partial(s.poly, a[1])
    return sys.F.substitute_atoms(mapping)


def residual(s: SolutionSample, sys: PdeSystem, points: Sequence[Sequence]) -> list:
    """Residual values of a candidate solution at the given points.

    Polynomial samples: exact rational values of the symbolic residual.
    Callable samples: all jet values are estimated by central finite
    differences with Richardson extrapolation and substituted into F.
    Callables only ever come from P = 0 elements; the residual of a
    solution moved by a local element is `transport_local`'s, and exact.
    """
    _require_pinned(sys)
    if s.kind == "polynomial":
        rp = residual_polynomial(s, sys)
        out = []
        for pt in points:
            env = {coord(i + 1): Fraction(pt[i]) for i in range(s.n)}
            out.append(rp.evaluate(env))
        return out
    out = []
    for pt in points:
        x = [float(v) for v in pt]
        env = fd_jet_values(s, x, sys.order)
        out.append(sys.F.evaluate_float(env))
    return out


# -- exact transport by a local element ----------------------------------------------

class LocalTransport(namedtuple("LocalTransport", "image delta power cleared")):
    """A polynomial solution transported by a local element, parametrized
    by the source point x.

    The point map is x~ = `image`(x) = Q x + P u(x) + R, `delta` is
    det(dx~/dx), and `cleared` = F(transported jets) * delta^`power` is a
    polynomial in x.  Zero is a certificate that the transported function
    solves F = 0 wherever delta != 0.
    """

    def at(self, x0: Sequence[Fraction]) -> tuple[list[Fraction], Fraction]:
        """The image point x~(x0) and the exact residual of the transported
        function there, cleared(x0) / delta(x0)^power."""
        env = {coord(i + 1): Fraction(v) for i, v in enumerate(x0)}
        delta = self.delta.evaluate(env)
        if delta == 0:
            raise NotInvertibleHereError(
                "point map is degenerate at source point ("
                + ", ".join(str(Fraction(v)) for v in x0) + ")")
        point = [p.evaluate(env) for p in self.image]
        return point, self.cleared.evaluate(env) / delta ** self.power


def transport_local(g: GroupElement, s: SolutionSample,
                    sys: PdeSystem) -> LocalTransport:
    """Exact residual of a polynomial solution moved by a (local) element.

    With J = dx~/dx and delta = det J, the total derivative in x~ is
    D~_i = delta^-1 sum_j adj(J)_ji d_j (the prolonged group action, Olver,
    GTM 107, 2.3), so a transported jet of order k is N_k / delta^(2k-1)
    with a polynomial numerator.  With L_i = sum_j adj(J)_ji d_j,
        N_i = L_i(u~),  N_(J,i) = delta L_i(N_J) - (2k-1) N_J L_i(delta)
    for J of order k.  F's monomials are grouped by their deficit K - weight, where a jet of
    order k weighs 2k-1 and K is the largest weight, so each power of
    delta is multiplied once.  Exact throughout.
    """
    if s.kind != "polynomial":
        raise ValueError("exact transport needs a polynomial sample")
    if g.n != s.n:
        raise ValueError("dimension mismatch")
    _require_pinned(sys)
    n = g.n
    xs = [Poly.variable(coord(i + 1)) for i in range(n)]
    u = s.poly
    image = tuple(sum((g.q[i][j] * xs[j] for j in range(n)), Poly.const(g.r[i]))
                  + g.p[i] * u for i in range(n))
    moved = sum((g.dvec[i] * xs[i] for i in range(n)), Poly.const(g.d)) + g.c * u
    grad = s._partials
    jac = [[g.p[i] * grad[j] + g.q[i][j] for j in range(n)] for i in range(n)]
    delta = sym_det(jac)
    center = {coord(i + 1): Fraction(v) for i, v in enumerate(s.center)}
    if delta.evaluate(center) == 0:
        raise NotInvertibleHereError("point map is degenerate at the center")
    adj = sym_adjugate(jac)

    columns = [{coord(j + 1): adj[j][i] for j in range(n)} for i in range(n)]

    def along(i: int, f: Poly) -> Poly:
        # delta * D~_i f, the derivation x_j -> adj(J)_ji; i is 0-based
        return f.derivation(lambda a: columns[i].get(a, Poly.zero()))

    ldelta = [along(i, delta) for i in range(n)]
    numerators: dict[tuple[int, ...], Poly] = {}

    def numerator(J: tuple[int, ...]) -> Poly:
        got = numerators.get(J)
        if got is None:
            head, i = J[:-1], J[-1] - 1
            if not head:
                got = along(i, moved)
            else:
                parent = numerator(head)
                got = (delta * along(i, parent)
                       - (2 * len(head) - 1) * parent * ldelta[i])
            numerators[J] = got
        return got

    mapping: dict[Atom, Poly] = {DEP: moved}
    for a in sys.F.atoms():
        if a[0] == KIND_JET:
            mapping[a] = numerator(a[1])
        elif a[0] == KIND_COORD:
            mapping[a] = image[a[1] - 1]
    by_weight: dict[int, dict] = {}
    for m, c in sys.F.terms.items():
        w = sum(e * (2 * len(a[1]) - 1)
                for a, e in mono_pairs(m) if a[0] == KIND_JET)
        by_weight.setdefault(w, {})[m] = c
    power = max(by_weight, default=0)
    cleared = Poly.zero()
    for w, terms in by_weight.items():
        cleared = cleared + (Poly(terms).substitute_atoms(mapping)
                             * delta ** (power - w))
    return LocalTransport(image=image, delta=delta, power=power,
                          cleared=cleared)


# -- finite differences ------------------------------------------------------------

@lru_cache(maxsize=None)
def _central_weights(order: int, npoints: int) -> tuple[Fraction, ...]:
    """Exact weights of the central difference for the given derivative
    order on offsets -r..r: sum_k w_k f(x + k h) = h^order f^(order) + ...

    Solves the moment system sum_k w_k k^t = order! * delta_{t,order}.
    """
    if npoints % 2 == 0 or npoints <= order:
        raise ValueError("need an odd stencil wider than the order")
    r = npoints // 2
    offsets = range(-r, r + 1)
    rows = [[Fraction(k) ** t for k in offsets] for t in range(npoints)]
    rhs = [Fraction(math.factorial(order)) if t == order else Fraction(0)
           for t in range(npoints)]
    w = solve_exact(rows, rhs)
    assert w is not None
    return tuple(w)


def _stencil_accuracy(order: int, npoints: int) -> int:
    return 2 * ((npoints - order - 1) // 2) + 2


# Stencil width per derivative order: wide enough that the roundoff floor
# eps/h^order is reached at comfortably large steps.
_NPOINTS = {1: 9, 2: 9, 3: 11, 4: 13}


def _fd_apply(fn, x: list[float], groups: list[tuple[int, int]], h: float) -> float:
    """Nested 1-D central stencils for a mixed partial derivative.

    `groups` lists (axis, order) pairs; directions commute so the stencils
    are applied one axis at a time.
    """
    if not groups:
        return fn(x)
    axis, order = groups[0]
    rest = groups[1:]
    w = _central_weights(order, _NPOINTS[order])
    r = len(w) // 2
    acc = 0.0
    for k in range(-r, r + 1):
        wk = float(w[k + r])
        if wk == 0.0:
            continue
        xk = list(x)
        xk[axis] += k * h
        acc += wk * _fd_apply(fn, xk, rest, h)
    return acc / h ** order


_FD_SHRINK = 1.5
_FD_LEVELS = 6
# Observed optimism of the tableau's internal error estimate at the
# float64 floor; reported estimates are inflated by this factor.
_FD_SAFETY = 4.0


def fd_derivative(fn, x: Sequence[float], indices: Sequence[int],
                  h0: float = 0.32) -> tuple[float, float]:
    """Mixed partial derivative via a Richardson extrapolation tableau.

    Stencil values at steps h0 / shrink^k feed a Neville tableau that
    successively removes the h^p, h^(p+2), ... error terms; the entry with
    the smallest disagreement against its parents wins.  The tableau runs
    from two starting steps (functions with nearby singularities want a
    shorter ladder) and the better-estimated result is returned together
    with a safety-inflated error estimate.  Deterministic.
    """
    counts: dict[int, int] = {}
    for i in indices:
        counts[i - 1] = counts.get(i - 1, 0) + 1
    groups = sorted(counts.items())
    p = min(_stencil_accuracy(m, _NPOINTS[m]) for _, m in groups)
    x = [float(v) for v in x]
    best, besterr = _fd_tableau(fn, x, groups, p, h0)
    alt, alterr = _fd_tableau(fn, x, groups, p, h0 / 2.5)
    if alterr < besterr:
        best, besterr = alt, alterr
    return best, besterr * _FD_SAFETY + 1e-300


def _fd_tableau(fn, x: list[float], groups: list[tuple[int, int]], p: int,
                h0: float) -> tuple[float, float]:
    a = [[0.0] * _FD_LEVELS for _ in range(_FD_LEVELS)]
    best = 0.0
    besterr = math.inf
    h = h0
    a[0][0] = _fd_apply(fn, x, groups, h)
    for i in range(1, _FD_LEVELS):
        h /= _FD_SHRINK
        a[0][i] = _fd_apply(fn, x, groups, h)
        fac = _FD_SHRINK ** p
        for j in range(1, i + 1):
            a[j][i] = (a[j - 1][i] * fac - a[j - 1][i - 1]) / (fac - 1)
            fac *= _FD_SHRINK ** 2
            errt = max(abs(a[j][i] - a[j - 1][i]), abs(a[j][i] - a[j - 1][i - 1]))
            if errt <= besterr:
                besterr = errt
                best = a[j][i]
        if abs(a[i][i] - a[i - 1][i - 1]) >= 4 * besterr:
            break
    return best, besterr


def fd_jet_values(s: SolutionSample, x: Sequence[float], order: int
                  ) -> dict[Atom, float]:
    """All jet coordinates of a callable sample at a point, by finite
    differences; includes the base coordinates and the function value.

    Stencils of different multi-indices share most of their points
    (x + k h e_a + l h e_b on one h ladder), so the sample is evaluated
    once per distinct point, through a memo keyed by the exact float
    coordinates and dropped when this call returns.  No value changes: a
    sample is a pure function of its point, and `_fd_apply` builds a point
    with the same float operations whichever derivative asks for it.
    Keys compare by value, so -0.0 would share the entry of 0.0; points
    with rational coordinates and their stencil points never hold -0.0.
    """
    n = s.n
    env: dict[Atom, float] = {coord(i + 1): float(x[i]) for i in range(n)}
    memo: dict[tuple[float, ...], float] = {}

    def sample(y: Sequence[float]) -> float:
        key = tuple(y)
        val = memo.get(key)
        if val is None:
            val = memo[key] = s(y)
        return val

    env[DEP] = sample(x)
    h0 = 0.32
    if math.isfinite(s.radius):
        # keep the widest stencil (reach 6 h) inside the domain hint
        off = max(abs(float(a) - float(b)) for a, b in zip(x, s.center))
        room = max(s.radius - off, s.radius / 4)
        h0 = min(0.32, room / 6.5)
    for r in range(1, order + 1):
        for J in multi_indices(n, r):
            val, _err = fd_derivative(sample, x, J, h0=h0)
            env[jet(*J)] = val
    return env
