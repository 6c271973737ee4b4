"""Infinitesimal invariance checking and symmetry classification machinery.

The engine answers three questions about a candidate generator and an
equation F = 0, in increasing order of cost:

  * does the prolonged field annihilate F identically as a polynomial?
  * if not, is the result an exact polynomial multiple of F?
  * if not, does it vanish on the solution variety?  A sampled nonzero
    value is an exact witness; without one, top-variable elimination decides.

On top of that it extracts the linear determining system for the unknown
coefficient functions.  Its derivatives, one sparse matrix on the Taylor
coefficients, count the polynomial fields of degree <= K by an exact
nullspace and certify that no solution has a higher degree.  It also
checks that a basis of generators closes under the Lie bracket.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import reduce
from math import factorial, prod
from operator import add, or_

from .algebra import (
    DEP,
    KIND_COORD,
    KIND_DEP,
    KIND_FUNC,
    Poly,
    _check_exponents,
    _field_mask,
    _shift,
    atom_str,
    coord,
    divide_exact,
    integer_primitive,
    mono_pairs,
    nullspace,
    _reduced_echelon,
    _solve_columns,
    tuple_order,
)
from .equations import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    PdeSystem,
    eliminate_top,
    sample_point,
    top_weights,
)
from .jets import (
    Field,
    SymbolicVectorField,
    VectorField,
    apply_prolonged,
    func_partial_values,
)

VERDICT_IDENTICAL = "identically-zero"
VERDICT_MULTIPLIER = "multiplier-found"
VERDICT_ON_VARIETY = "zero-on-variety"
VERDICT_FAILS = "fails"


class ExplicitVariableError(ValueError):
    """F holds x or u: its determining system has non-constant coefficients."""


class NotClosedError(Exception):
    """A bracket of two basis fields left the span of the basis."""

    def __init__(self, pair: tuple[int, int], bracket: VectorField):
        super().__init__(f"bracket of basis fields {pair} is outside the span")
        self.pair = pair
        self.bracket = bracket


class CheckReport(namedtuple("CheckReport", "verdict samples seed trials "
                             "multiplier witness residual",
                             defaults=(None, None, None))):
    """Outcome of one invariance check: a `multiplier`, or a `witness` point
    and its `residual`, or none of them on a `fails` elimination decided."""

    @property
    def passed(self) -> bool:
        return self.verdict != VERDICT_FAILS


class GeneratorBasis(namedtuple("GeneratorBasis", "fields regime")):
    """A linearly independent list of generators of one dimension for one
    regime."""

    def __new__(cls, fields, regime):
        self = super().__new__(cls, fields, regime)
        if len({f.n for f in self.fields}) > 1:
            raise ValueError(f"generator basis for {self.regime} mixes "
                             "dimensions")
        # independence <=> trivial nullspace
        dim, _ = nullspace(_field_rows(self.fields), ncols=len(self.fields))
        if dim != 0:
            raise ValueError(f"generator basis for {self.regime} is dependent")
        return self


def infinitesimal_check(sys: PdeSystem, v: Field,
                        trials: int = DEFAULT_TRIALS,
                        seed: int = DEFAULT_SEED) -> CheckReport:
    """Decide whether a field generates a symmetry of the equation.

    Every verdict is exact.  Past the identically-zero and multiplier tiers,
    `trials` sampled points (point i depends only on (seed, i)) are searched
    for a nonzero value of R = pr v(F), a rational witness.  With none, R with
    the top variable eliminated decides on the A != 0 part of F = 0; nonzero,
    it is nonzero near the convex points drawn there, so the field fails.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    R = apply_prolonged(v, sys.F, sys.order)
    if R.is_zero:
        return CheckReport(VERDICT_IDENTICAL, 0, seed, trials)
    mu = divide_exact(R, sys.F)
    if mu is not None:
        return CheckReport(VERDICT_MULTIPLIER, 0, seed, trials, multiplier=mu)
    for idx in range(trials):
        pt = sample_point(sys, seed, idx)
        value = R.evaluate(pt)
        if value != 0:
            return CheckReport(VERDICT_FAILS, idx, seed, trials,
                               witness=pt, residual=value)
    if eliminate_top(R, *sys.top_split, sys.top_var).is_zero:
        return CheckReport(VERDICT_ON_VARIETY, trials, seed, trials)
    return CheckReport(VERDICT_FAILS, trials, seed, trials)


# -- Lie algebra structure -------------------------------------------------------

def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Commutator of two point fields: coefficients v(w_i) - w(v_i)."""
    if v.n != w.n:
        raise ValueError("fields live in different dimensions")
    xi = tuple(v.apply_to(w.xi[i]) - w.apply_to(v.xi[i]) for i in range(v.n))
    phi = v.apply_to(w.phi) - w.apply_to(v.phi)
    return VectorField(v.n, xi, phi)


def _field_rows(fields) -> list[list[Fraction]]:
    """The matrix whose columns are the coefficients of `fields`: a row per
    component (xi^1..xi^n, phi) and monomial of any of them, in any fixed
    order (the echelon form is unique)."""
    monos = sorted({m for f in fields for p in (*f.xi, f.phi) for m in p.terms})
    return [[p.terms.get(m, Fraction(0)) for p in comps]
            for comps in zip(*((*f.xi, f.phi) for f in fields)) for m in monos]


def _span_solutions(fields, targets) -> list[list[Fraction] | None]:
    """The exact coordinates of every target in the span of `fields`, None
    for one outside it, from one elimination."""
    rows = _field_rows([*fields, *targets])
    k = len(fields)
    return _solve_columns([r[:k] for r in rows],
                          [[r[t] for r in rows] for t in range(k, k + len(targets))])


def closure_check(basis: GeneratorBasis
                  ) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """Verify span-closure of all pairwise brackets and return the exact
    structure constants of each pair (i, j), i < j.  Raises NotClosedError
    at the first escape, in pair order."""
    fields = basis.fields
    pairs = list(itertools.combinations(range(len(fields)), 2))
    brackets = [lie_bracket(fields[i], fields[j]) for i, j in pairs]
    constants: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for pair, br, coeffs in zip(pairs, brackets,
                                _span_solutions(fields, brackets)):
        if coeffs is None:
            raise NotClosedError(pair, br)
        constants[pair] = tuple(coeffs)
    return constants


# -- classified generator bases ---------------------------------------------------

def _zero(n: int) -> tuple[Poly, ...]:
    return tuple(Poly.zero() for _ in range(n))


def _unit_xi(n: int, i: int, p: Poly) -> tuple[Poly, ...]:
    return tuple(p if s == i else Poly.zero() for s in range(1, n + 1))


def monge_ampere_basis(n: int) -> GeneratorBasis:
    """The (n+1)^2 generators of the second-order equation's algebra for
    n >= 2: translations, the gauge shifts u -> u + c + b.x, the trace-free
    linear maps of x, and one dilation weighted so the determinant is
    preserved.  At n = 1 the equation is u'' = 1, whose algebra is the
    8-dimensional sl(3), not a list of this shape, so n < 2 is refused."""
    if n < 2:
        raise ValueError("the second-order generator basis needs N >= 2 "
                         "(at N = 1 the algebra is sl(3))")
    u = Poly.variable(DEP)
    fields: list[VectorField] = []
    for i in range(1, n + 1):
        fields.append(VectorField(n, _unit_xi(n, i, Poly.const(1)), Poly.zero()))
    fields.append(VectorField(n, _zero(n), Poly.const(1)))
    for i in range(1, n + 1):
        fields.append(VectorField(n, _zero(n), Poly.variable(coord(i))))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                fields.append(VectorField(
                    n, _unit_xi(n, i, Poly.variable(coord(j))), Poly.zero()))
    for i in range(1, n):
        xi = [Poly.zero()] * n
        xi[i - 1] = Poly.variable(coord(i))
        xi[i] = -Poly.variable(coord(i + 1))
        fields.append(VectorField(n, tuple(xi), Poly.zero()))
    fields.append(VectorField(
        n, _unit_xi(n, 1, n * Poly.variable(coord(1))), 2 * u))
    return GeneratorBasis(tuple(fields), "ma")


def affine_maximal_basis(n: int, special: bool = False) -> GeneratorBasis:
    """Generators of the fourth-order equation's algebra: translations,
    u-shifts, the u-scaling, the gauge shears x^i d/du, all linear maps of
    x, and (special parameter value only) the graph shears u d/dx^i."""
    u = Poly.variable(DEP)
    fields: list[VectorField] = []
    for i in range(1, n + 1):
        fields.append(VectorField(n, _unit_xi(n, i, Poly.const(1)), Poly.zero()))
    fields.append(VectorField(n, _zero(n), Poly.const(1)))
    fields.append(VectorField(n, _zero(n), u))
    for i in range(1, n + 1):
        fields.append(VectorField(n, _zero(n), Poly.variable(coord(i))))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            fields.append(VectorField(
                n, _unit_xi(n, i, Poly.variable(coord(j))), Poly.zero()))
    if special:
        for i in range(1, n + 1):
            fields.append(VectorField(n, _unit_xi(n, i, u), Poly.zero()))
    regime = "am-special" if special else "am-generic"
    return GeneratorBasis(tuple(fields), regime)


def expected_dimension(name: str, n: int, theta: Fraction | None = None) -> int:
    """Classified algebra dimensions used by the CLI to flag mismatches."""
    if name == "ma":
        # at n = 1, det D^2 u = 1 is u'' = 1, whose algebra is sl(3)
        return 8 if n == 1 else (n + 1) ** 2
    if name == "am":
        special = theta == Fraction(n + 1, n + 2)
        return n * n + 2 * n + 2 + (n if special else 0)
    raise ValueError(f"no built-in dimension for {name!r}")


# -- determining system ------------------------------------------------------------

def _add_products(groups: dict, c: Poly, w: Poly, atom_of: dict) -> None:
    """Add the terms of c * w to `groups` by jet monomial: c is linear in the
    func atoms, `atom_of` maps their packed monomials to them, w has none.
    A group is an (atom, coefficient) pair until a second atom arrives, then
    an {atom: coefficient} dict; a cancelled coefficient stays, as 0."""
    fmask = reduce(or_, atom_of, 0)
    get = groups.get
    for m, cm in c.terms.items():
        atom, jm = atom_of[m & fmask], m & ~fmask
        for wm, wc in w.terms.items():
            k, v = jm + wm, cm * wc
            g = get(k)
            if g is None:
                groups[k] = (atom, v)
            elif type(g) is dict:
                g[atom] = g.get(atom, 0) + v
            elif g[0] is atom:
                groups[k] = (atom, g[1] + v)
            else:
                groups[k] = {g[0]: g[1], atom: v}


def _shards(pairs: list[tuple[Poly, Poly]], atom_of: dict) -> Iterator[dict]:
    """The groups (`_add_products`) of the products c * w of `pairs`, one
    shard at a time, exponents checked.  A shard atom is a jet of some c
    but of no w, so a product's jet monomial holds those of its c-term
    alone: shards keyed by them share no jet monomial, and each product is
    formed once.  No shard atom makes one shard."""
    catoms = {a for c, _ in pairs for a in c.atoms() if a[0] != KIND_FUNC}
    watoms = {a for _, w in pairs for a in w.atoms()}
    smask = _field_mask(catoms - watoms)
    buckets: dict = {}  # shard -> index into pairs -> terms of that c
    for i, (c, _) in enumerate(pairs):
        for m, cm in c.terms.items():
            buckets.setdefault(m & smask, {}).setdefault(i, {})[m] = cm
    for parts in buckets.values():
        groups: dict = {}
        for i, cterms in parts.items():
            _add_products(groups, Poly(cterms), pairs[i][1], atom_of)
        _check_exponents(groups)
        yield groups


def _linear_system(shards: Iterable[dict], key: Callable) -> tuple[Poly, ...]:
    """The equations from shards of `_add_products` groups that share no
    jet monomial: one equation per class of nonzero groups that are
    multiples of each other, in the order of the class's smallest `key`,
    which does not depend on the order groups arrive in and is that of
    sorting every group by key and keeping the first copy.  A class is the
    atom of a single term, else the integer primitive form with a positive
    coefficient at its largest atom; its equation is that form scaled to
    coefficient 1 there.  Each shard is released before the next is
    built."""
    classes: dict = {}  # atom or primitive form -> smallest key
    for jm, g in itertools.chain.from_iterable(map(dict.items, shards)):
        if type(g) is tuple:  # (atom, c): the class of a nonzero c is its atom
            if not g[1]:
                continue
            cls = g[0]
        else:
            terms = {a: c for a, c in g.items() if c}
            if len(terms) > 1:
                form = integer_primitive(terms)
                sign = 1 if form[max(form)] > 0 else -1
                cls = frozenset((a, sign * v) for a, v in form.items())
            elif terms:
                [cls] = terms
            else:
                continue
        k = key(jm)
        if cls not in classes or k < classes[cls]:
            classes[cls] = k
    equations = []
    for cls in sorted(classes, key=classes.__getitem__):
        if type(cls) is not frozenset:
            equations.append(Poly.variable(cls))
            continue
        form = sorted(cls)
        lead = form[-1][1]
        equations.append(Poly.from_terms((((a, 1),), Fraction(v, lead))
                                         for a, v in form))
    return tuple(equations)


class _Equations(tuple):
    """The equations of a determining system, a tuple that also answers
    `.equations`, the name perfbench/tracer.py counts them by."""

    @property
    def equations(self) -> tuple[Poly, ...]:
        return self


def extract_determining(sys: PdeSystem) -> tuple[Poly, ...]:
    """Linear determining system at a pinned parameter value: the
    homogeneous equations for the unknown coefficient functions, each a
    polynomial of degree 1 in the formal derivative (func) atoms with
    rational coefficients; no jet atoms remain.

    The prolongation of the undetermined field is applied to F, the top
    variable is eliminated by the exact solution of F = 0 (denominators
    cleared by a power of its coefficient), and the coefficient of every
    monomial in the remaining jet variables becomes one linear equation.
    That cleared sum_r c_r * W_r (`top_weights`) is never built: each
    product term goes straight to the group of its jet monomial, and copies
    are dropped before ordering by `tuple_order`.  Products are formed and
    folded one shard at a time (`_shards`, keyed by the first-order jets
    for MA and AM): no jet monomial lies in two shards, so the equations
    and their order are those of one pass over all products.

    F is replaced by its integer form L*F, L the lcm of its coefficient
    denominators, so every product stays in `int`.  That leaves the output
    unchanged: F -> L*F scales the residual, the coefficient of the top
    variable and the rest by L, so the cleared polynomial and every
    equation become L^(m+1) times their old values, and the system is
    homogeneous and each equation is scaled to leading coefficient 1.

    An F with x or u is refused: the func atoms depend on (x, u), so
    collecting by x or u would split an equation into wrong ones.
    """
    if sys.theta_symbolic:
        raise ValueError("pin theta to a rational before extracting")
    explicit = sorted(a for a in sys.F.atoms() if a[0] in (KIND_COORD, KIND_DEP))
    if explicit:
        raise ExplicitVariableError(
            f"F holds {atom_str(explicit[0])} explicitly; a determining "
            "system is extracted only for an F without x or u")
    terms, L = sys.F.integer_form()
    R = apply_prolonged(SymbolicVectorField(sys.n), Poly(terms), sys.order)
    powers = R.coefficient_powers(sys.top_var)
    weights = top_weights(powers, *(p * L for p in sys.top_split))
    atom_of = {1 << _shift(a): a for a in R.atoms() if a[0] == KIND_FUNC}
    pairs = [(c, weights[r]) for r, c in powers.items() if not weights[r].is_zero]
    jets = {a for p in itertools.chain(*pairs) for a in p.atoms() if a[0] != KIND_FUNC}
    return _Equations(_linear_system(_shards(pairs, atom_of), tuple_order(jets)))


def satisfies_determining(eqs: tuple[Poly, ...], v: VectorField) -> bool:
    """True when the concrete field, put into every determining equation
    (each of degree 1 in the func atoms) by one derivation, leaves the zero
    polynomial in (x, u)."""
    values = func_partial_values(v)
    return all(eq.derivation(values).is_zero for eq in eqs)


# -- Taylor-coefficient rows ---------------------------------------------------------

def _exponents(n: int, low: int, high: int) -> list[tuple[int, ...]]:
    """Sorted exponent tuples over (x1..xn, u) of total degree low..high."""
    return [a for a in itertools.product(range(high + 1), repeat=n + 1)
            if low <= sum(a) <= high]


def taylor_rows(eqs: tuple[Poly, ...], n: int, order: int,
                degree: int | None = None
                ) -> list[dict[tuple[int, tuple[int, ...]], int | Fraction]]:
    """The rows d^beta(eq) for every equation and every |beta| <= order.

    The equations are linear with constant coefficients, so their
    derivatives are equations on the Taylor coefficients.  A column
    (comp, alpha) is the derivative of xi^comp (phi for 0) by the exponents
    alpha of (x1..xn, u): the func atom (comp, xs, du) at beta = 0.

    A field of degree <= `degree` has no Taylor coefficient of higher
    order: with a degree, those columns are dropped, and so is every row
    that keeps none, d^beta(eq) with (lowest order in eq) + |beta| >
    degree.  The other rows keep their order.
    """
    rows = []
    for eq in eqs:
        terms = []
        for m, lam in eq.terms.items():
            [((_, comp, xs, du), _)] = mono_pairs(m)  # one func atom per term
            terms.append((comp, (*map(xs.count, range(1, n + 1)), du), lam))
        top = order if degree is None else min(order, degree - min(
            (sum(alpha) for _, alpha, _ in terms), default=degree + 1))
        for beta in _exponents(n, 0, top):
            rows.append({(comp, tuple(map(add, alpha, beta))): lam
                         for comp, alpha, lam in terms
                         if degree is None or sum(alpha) + sum(beta) <= degree})
    return rows


def degree_certified(eqs: tuple[Poly, ...], n: int, degree: int,
                     order: int) -> bool:
    """True when `taylor_rows(eqs, n, order)` span every Taylor column of
    order degree+1: all (comp, alpha) with |alpha| = degree+1, also those
    no row touches.  Each such derivative of a solution then vanishes at
    every point, so every solution is a polynomial field of degree <=
    degree (Reid, Eur. J. Appl. Math. 2, 1991).  False only means the rows
    up to this order do not show it."""
    rows = taylor_rows(eqs, n, order)
    targets = list(itertools.product(range(n + 1),
                                     _exponents(n, degree + 1, degree + 1)))
    index = {c: k for k, c in enumerate(
        sorted({*targets, *(c for row in rows for c in row)}))}
    pivots = _reduced_echelon(
        [{index[c]: v for c, v in row.items()} for row in rows], len(index))
    # a unit column is in the row span iff it is a reduced pivot row
    return all(len(pivots.get(index[t], ())) == 1 for t in targets)


# -- bounded-degree ansatz ----------------------------------------------------------

def ansatz_dimension(sys: PdeSystem, degree: int,
                     eqs: tuple[Poly, ...] | None = None
                     ) -> tuple[int, list[VectorField]]:
    """Dimension (and a basis) of the space of polynomial fields of total
    degree <= K = `degree` solving the determining system.

    The unknowns are the monomial coefficients, ordered xi^1..xi^n, phi,
    each over the sorted exponents: the rows `taylor_rows(eqs, n, K, K)`
    of a degree-K field, column (comp, alpha) scaled by alpha!.  The count
    is the whole algebra when `degree_certified` holds at some degree <= K.
    """
    if degree < 1:
        raise ValueError("ansatz degree must be >= 1")
    if eqs is None:
        eqs = extract_determining(sys)
    n = sys.n
    exps = _exponents(n, 0, degree)
    comps = [*range(1, n + 1), 0]
    col_of = {c: k for k, c in enumerate(itertools.product(comps, exps))}
    scale = {a: prod(map(factorial, a)) for a in exps}
    rows = [{col_of[c]: v * scale[c[1]] for c, v in row.items()}
            for row in taylor_rows(eqs, n, degree, degree)]
    dim, basis = nullspace(rows, len(col_of))
    variables = (*map(coord, range(1, n + 1)), DEP)
    fields = []
    for vec in basis:
        xi_phi = [Poly.from_terms((zip(variables, a), vec[col_of[f, a]])
                                  for a in exps if vec[col_of[f, a]])
                  for f in comps]
        fields.append(VectorField(n, tuple(xi_phi[:n]), xi_phi[n]))
    return dim, fields


def mutual_span(fields_a, fields_b) -> bool:
    """Exact two-sided span containment of two lists of fields."""
    return all(x is not None for x in (*_span_solutions(fields_a, fields_b),
                                       *_span_solutions(fields_b, fields_a)))
