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
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import factorial, prod
from operator import add, itemgetter, or_
from typing import Callable, Iterable, Iterator

from .algebra import (
    Atom,
    DEP,
    KIND_COORD,
    KIND_DEP,
    KIND_FUNC,
    Monomial,
    Poly,
    _check_exponents,
    _field_mask,
    _fields,
    _shift,
    atom_str,
    coord,
    divide_exact,
    exact_quotient,
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
    JetPoint,
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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one infinitesimal invariance check; `witness` and
    `residual` are None on a `fails` that elimination decided."""

    verdict: str
    samples: int
    seed: int
    trials: int
    multiplier: Poly | None = None
    witness: JetPoint | None = None
    residual: Fraction | None = None

    @property
    def passed(self) -> bool:
        return self.verdict != VERDICT_FAILS


@dataclass(frozen=True)
class DeterminingSystem:
    """Homogeneous linear system for the unknown coefficient functions.

    Every equation is a polynomial of degree 1 in the formal derivative
    atoms with rational coefficients; no jet atoms remain.
    """

    unknowns: tuple[Atom, ...]
    equations: tuple[Poly, ...]


@dataclass(frozen=True)
class GeneratorBasis:
    """A linearly independent list of generators for one regime."""

    fields: tuple[VectorField, ...]
    n: int
    regime: str

    def __post_init__(self):
        monos = _span_monomials(self.fields)
        vecs = [_field_vector(v, monos) for v in self.fields]
        # columns = fields; independence <=> trivial nullspace
        rows = [[vec[r] for vec in vecs] for r in range(len(monos) * (self.n + 1))]
        dim, _ = nullspace(rows, ncols=len(self.fields))
        if dim != 0:
            raise ValueError(f"generator basis for {self.regime} is dependent")


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    structure_constants: dict[tuple[int, int], tuple[Fraction, ...]]


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
    (r_terms, lam), (f_terms, L) = R.integer_form(), sys.F.integer_form()
    mu = divide_exact(Poly(r_terms), Poly(f_terms))  # lam*R = mu * L*F
    if mu is not None:
        return CheckReport(VERDICT_MULTIPLIER, 0, seed, trials,
                           multiplier=mu * exact_quotient(L, lam))
    for idx in range(trials):
        pt = sample_point(sys, seed, idx)
        value = R.evaluate(pt.env)
        if value != 0:
            return CheckReport(VERDICT_FAILS, idx, seed, trials,
                               witness=pt, residual=value)
    if eliminate_top(R, *sys.top_split, sys.top_var).is_zero:
        return CheckReport(VERDICT_ON_VARIETY, trials, seed, trials)
    return CheckReport(VERDICT_FAILS, trials, seed, trials)


def check_generator_basis(sys: PdeSystem, basis: GeneratorBasis,
                          trials: int = DEFAULT_TRIALS,
                          seed: int = DEFAULT_SEED) -> list[CheckReport]:
    return [infinitesimal_check(sys, v, trials, seed) for v in basis.fields]


# -- Lie algebra structure -------------------------------------------------------

def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Commutator of two point fields: coefficients v(w_i) - w(v_i)."""
    if v.n != w.n:
        raise ValueError("fields live in different dimensions")
    xi = tuple(v.apply_to(w.xi[i]) - w.apply_to(v.xi[i]) for i in range(v.n))
    phi = v.apply_to(w.phi) - w.apply_to(v.phi)
    return VectorField(v.n, xi, phi)


def _span_monomials(fields) -> list[Monomial]:
    monos: set[Monomial] = set()
    for f in fields:
        for p in (*f.xi, f.phi):
            monos.update(p.terms)
    return sorted(monos, key=mono_pairs)


def _field_vector(v: VectorField, monos: list[Monomial]) -> list[Fraction]:
    out: list[Fraction] = []
    for p in (*v.xi, v.phi):
        for m in monos:
            out.append(p.terms.get(m, Fraction(0)))
    return out


def span_coefficients(fields, target: VectorField) -> list[Fraction] | None:
    """Exact coordinates of `target` in the span of `fields`, or None."""
    return _span_solutions(fields, [target])[0]


def _span_solutions(fields, targets) -> list[list[Fraction] | None]:
    """`span_coefficients` of every target, from one elimination."""
    monos = _span_monomials([*fields, *targets])
    vecs = [_field_vector(f, monos) for f in fields]
    tvecs = [_field_vector(t, monos) for t in targets]
    nrows = len(tvecs[0]) if tvecs else 0
    return _solve_columns([[vec[r] for vec in vecs] for r in range(nrows)],
                          tvecs)


def closure_check(basis: GeneratorBasis) -> ClosureReport:
    """Verify span-closure of all pairwise brackets; collect the exact
    structure constants.  Raises NotClosedError at the first escape, in
    pair order."""
    fields = basis.fields
    pairs = list(itertools.combinations(range(len(fields)), 2))
    brackets = [lie_bracket(fields[i], fields[j]) for i, j in pairs]
    constants: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for pair, br, coeffs in zip(pairs, brackets,
                                _span_solutions(fields, brackets)):
        if coeffs is None:
            raise NotClosedError(pair, br)
        constants[pair] = tuple(coeffs)
    return ClosureReport(closed=True, structure_constants=constants)


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
    return GeneratorBasis(tuple(fields), n, "ma")


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
    return GeneratorBasis(tuple(fields), n, regime)


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


def _linear_system(shards: Iterable[dict], key: Callable
                   ) -> tuple[tuple[Atom, ...], tuple[Poly, ...]]:
    """(unknowns, equations) from shards of `_add_products` groups that
    share no jet monomial: one equation per class of nonzero groups that
    are multiples of each other, scaled to leading coefficient 1 (at the
    largest atom), in the order of the class's smallest `key`, which does
    not depend on the order groups arrive in and is that of sorting every
    group by key and keeping the first copy.  A class is the atom of a
    single term, else the integer primitive form with a positive leading
    coefficient.  Each shard is released before the next is built."""
    classes: dict = {}  # atom or primitive form -> (key, terms)
    for jm, g in itertools.chain.from_iterable(map(dict.items, shards)):
        terms = {a: c for a, c in (g.items() if type(g) is dict else (g,)) if c}
        if len(terms) > 1:
            form = integer_primitive(terms)
            sign = 1 if form[max(form)] > 0 else -1
            cls = frozenset((a, sign * v) for a, v in form.items())
        elif terms:
            [cls] = terms
        else:
            continue
        k = key(jm)
        if cls not in classes or k < classes[cls][0]:
            classes[cls] = (k, terms)
    equations = []
    for _, terms in sorted(classes.values(), key=itemgetter(0)):
        lead = terms[max(terms)]
        equations.append(Poly({1 << _shift(a): exact_quotient(c, lead)
                               for a, c in terms.items()}))
    unknowns = sorted({a for eq in equations for a in eq.atoms()})
    return tuple(unknowns), tuple(equations)


def extract_determining(sys: PdeSystem) -> DeterminingSystem:
    """Linear determining system at a pinned parameter value.

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
    return DeterminingSystem(*_linear_system(_shards(pairs, atom_of),
                                             tuple_order(jets)))


def determining_residuals(ds: DeterminingSystem, v: VectorField) -> list[Poly]:
    """Substitute a concrete field into the system; zero polynomials mean
    the field satisfies the corresponding equations identically in (x,u)."""
    return [eq.substitute_atoms(func_partial_values(v, eq.atoms()))
            for eq in ds.equations]


def satisfies_determining(ds: DeterminingSystem, v: VectorField) -> bool:
    return all(r.is_zero for r in determining_residuals(ds, v))


# -- Taylor-coefficient rows ---------------------------------------------------------

def _exponents(n: int, low: int, high: int) -> list[tuple[int, ...]]:
    """Sorted exponent tuples over (x1..xn, u) of total degree low..high."""
    return [a for a in itertools.product(range(high + 1), repeat=n + 1)
            if low <= sum(a) <= high]


def taylor_rows(ds: DeterminingSystem, n: int, order: int
                ) -> list[dict[tuple[int, tuple[int, ...]], int | Fraction]]:
    """The rows d^beta(eq) for every equation and every |beta| <= order.

    The equations are linear with constant coefficients, so their
    derivatives are equations on the Taylor coefficients.  A column
    (comp, alpha) is the derivative of xi^comp (phi for 0) by the exponents
    alpha of (x1..xn, u): the func atom (comp, xs, du) at beta = 0.
    """
    shifts = _exponents(n, 0, order)
    rows = []
    for eq in ds.equations:
        terms = _taylor_terms(eq, n)
        rows += (_shifted(terms, beta) for beta in shifts)
    return rows


def _taylor_terms(eq: Poly, n: int) -> list[tuple[int, tuple[int, ...], int | Fraction]]:
    """The (comp, alpha, coefficient) terms of a determining equation."""
    out = []
    for m, lam in eq.terms.items():
        [((_, comp, xs, du), _)] = _fields(m)  # one func atom per term
        out.append((comp, (*map(xs.count, range(1, n + 1)), du), lam))
    return out


def _shifted(terms, beta: tuple[int, ...]) -> dict:
    """The row d^beta of an equation given by its `_taylor_terms`."""
    return {(comp, tuple(map(add, alpha, beta))): lam
            for comp, alpha, lam in terms}


def degree_certified(ds: DeterminingSystem, n: int, degree: int,
                     order: int) -> bool:
    """True when `taylor_rows(ds, n, order)` span every Taylor column of
    order degree+1: all (comp, alpha) with |alpha| = degree+1, also those
    no row touches.  Each such derivative of a solution then vanishes at
    every point, so every solution is a polynomial field of degree <=
    degree (Reid, Eur. J. Appl. Math. 2, 1991).  False only means the rows
    up to this order do not show it."""
    rows = taylor_rows(ds, n, order)
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
                     dets: DeterminingSystem | None = None
                     ) -> tuple[int, list[VectorField]]:
    """Dimension (and a basis) of the space of polynomial fields of total
    degree <= degree solving the determining system.

    A degree-K field has no Taylor coefficient of order > K: its equations
    are `taylor_rows(ds, n, K)` without those columns.  A row d^beta(eq)
    keeps a column only when (lowest order in eq) + |beta| <= K, so only
    those rows are built, in the same order.  Scaling column
    (comp, alpha) by alpha! makes the unknowns the monomial coefficients,
    ordered xi^1..xi^n, phi, each over the sorted exponents.  The count is
    the whole algebra when `degree_certified` holds at some degree <= K.
    """
    if degree < 1:
        raise ValueError("ansatz degree must be >= 1")
    ds = dets if dets is not None else extract_determining(sys)
    n = sys.n
    exps = _exponents(n, 0, degree)
    comps = [*range(1, n + 1), 0]
    col_of = {c: k for k, c in enumerate(itertools.product(comps, exps))}
    scale = {a: prod(map(factorial, a)) for a in exps}
    rows = {}  # integer primitive form -> row, so copies are dropped
    for eq in ds.equations:
        terms = _taylor_terms(eq, n)
        low = min((sum(alpha) for _, alpha, _ in terms), default=degree + 1)
        for beta in _exponents(n, 0, degree - low):
            kept = integer_primitive({col_of[c]: v * scale[c[1]]
                                      for c, v in _shifted(terms, beta).items()
                                      if c in col_of})
            rows[frozenset(kept.items())] = kept
    dim, basis = nullspace(list(rows.values()), len(col_of))
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
