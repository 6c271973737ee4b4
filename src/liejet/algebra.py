"""Exact sparse polynomial arithmetic over a typed atom alphabet.

Coefficients are `int` when integral and `fractions.Fraction` otherwise;
every operation is exact, a float coefficient is refused, and identity
checks reduce to dictionary comparison.  A `Poly` stores one form, its
packed term map, and derives one other, `Poly.integer_form`: the terms
times the lcm L of their denominators, all `int`, computed once per
polynomial (an all-`int` polynomial is its own integer form, with L = 1).
The kernels (products, derivations, substitution, evaluation and exact
division) read it and so keep an integer interior, the fraction-free idea
of Bareiss: they work in `int` and divide each result once at the end.
The scale is a nonzero integer, undone exactly, so values and terms are
those of `Fraction` arithmetic, and no caller rescales; only
`symmetry.extract_determining` reads the integer form outside this module,
because a homogeneous system does not change when F is scaled.

Atoms (the variables of the ring) are plain tuples with a small integer
kind tag, so they hash fast and sort with the native tuple order:

    (KIND_COORD, i)             x^i, an independent variable, i >= 1
    (KIND_DEP,)                 u, the dependent variable
    (KIND_JET, (j1, ..., js))   u_J, a derivative coordinate of u on jet
                                space; indices sorted ascending, s >= 1
    (KIND_FUNC, comp, xs, du)   a formal partial derivative of an unknown
                                coefficient function: comp == 0 is the
                                u-component phi, comp == s >= 1 the s-th
                                x-component xi^s; xs is the sorted tuple of
                                x-indices and du counts u-derivatives
    (KIND_THETA,)               theta, the exponent parameter of the
                                fourth-order equation family

Mixed partials commute, so jet and function-derivative indices are stored
sorted: u[2,1] and u[1,2] are the same atom.

A monomial is one Python int of packed exponents.  Every atom is given its
own EXP_BITS-bit field the first time it is seen, so multiplying two
monomials is one integer addition, and collecting by a set of atoms is a
bit mask.  The top bit of every field is a guard: an exponent above
EXP_MAX raises ExponentOverflowError instead of spilling into the next
field.  Kernels that read exponents walk a monomial's fields with
`_fields`, in field order.  Field positions depend on the order in which a
process first met its atoms, so no result may depend on them: every
ordering that reaches output (printing, sorted listings) goes by atom,
through `mono_pairs`, which returns a monomial as its (atom, exponent)
pairs sorted by atom and is used only where text or an atom order is
produced, or through the `lex_order` and `tuple_order` keys.  A Poly
maps monomials to nonzero coefficients, the zero polynomial being the
empty map.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import itemgetter, or_

KIND_COORD = 0
KIND_DEP = 1
KIND_JET = 2
KIND_FUNC = 3
KIND_THETA = 4

Atom = tuple
Monomial = int  # packed exponents; see the module docstring
Pairs = tuple  # tuple[tuple[Atom, int], ...], sorted by atom

DEP: Atom = (KIND_DEP,)
THETA: Atom = (KIND_THETA,)

EXP_BITS = 8  # one byte per field, which `tuple_order` relies on
EXP_MAX = (1 << (EXP_BITS - 1)) - 1
CONST_BITS_MAX = 4096  # bits of a numerator or denominator read from input


class MissingAtomError(ValueError):
    """An atom required by an evaluation has no assigned value."""


class NonSquareError(ValueError):
    """A determinant/adjugate was requested for a non-square matrix."""


class DivisorZeroError(ZeroDivisionError):
    """Exact division by the zero polynomial."""


class ExponentOverflowError(ValueError):
    """An exponent does not fit its packed monomial field."""


def coord(i: int) -> Atom:
    if i < 1:
        raise ValueError(f"coordinate index must be >= 1, got {i}")
    return (KIND_COORD, i)


def jet(*indices: int) -> Atom:
    if not indices:
        raise ValueError("a jet atom needs at least one index (order-0 is DEP)")
    if any(i < 1 for i in indices):
        raise ValueError(f"jet indices must be >= 1, got {indices}")
    return (KIND_JET, tuple(sorted(indices)))


def func_partial(comp: int, xs: Iterable[int] = (), du: int = 0) -> Atom:
    """Formal derivative symbol: comp 0 = phi, comp s >= 1 = xi^s."""
    if comp < 0 or du < 0:
        raise ValueError("bad function-derivative atom")
    return (KIND_FUNC, comp, tuple(sorted(xs)), du)


def multi_indices(n: int, order: int) -> list[tuple[int, ...]]:
    """All sorted multi-indices with entries in 1..n of the given order."""
    return list(combinations_with_replacement(range(1, n + 1), order))


def atom_str(a: Atom) -> str:
    kind = a[0]
    if kind == KIND_COORD:
        return f"x{a[1]}"
    if kind == KIND_DEP:
        return "u"
    if kind == KIND_JET:
        return "u[" + ",".join(str(i) for i in a[1]) + "]"
    if kind == KIND_THETA:
        return "theta"
    _, comp, xs, du = a
    name = "phi" if comp == 0 else f"xi{comp}"
    if not xs and not du:
        return name
    return name + "_" + "".join(f"x{i}" for i in xs) + "u" * du


# -- packed monomials -------------------------------------------------------------
#
# The field table only grows, and a field keeps its atom for the life of the
# process; _GUARD holds the guard bit of every field handed out so far.

_SHIFT: dict[Atom, int] = {}  # atom -> bit offset of its exponent field
_ATOM_AT: list[Atom] = []  # field number -> atom
_GUARD = 0
_FIELD_MASK = (1 << EXP_BITS) - 1


def _shift(a: Atom) -> int:
    sh = _SHIFT.get(a)
    if sh is None:
        global _GUARD
        sh = len(_ATOM_AT) * EXP_BITS
        _ATOM_AT.append(a)
        _GUARD |= 1 << (sh + EXP_BITS - 1)
        _SHIFT[a] = sh
    return sh


def _field_mask(atoms: Iterable[Atom]) -> int:
    """All exponent bits of the given atoms' fields."""
    return sum(_FIELD_MASK << _shift(a) for a in set(atoms))


def _check_exponents(monos: Iterable[Monomial]) -> None:
    # exponents below 2^(EXP_BITS-1) never carry out of their field when
    # added, so an overflow shows as a set guard bit
    if reduce(or_, monos, 0) & _GUARD:
        raise ExponentOverflowError(f"an exponent exceeds {EXP_MAX}")


def _fields(m: Monomial) -> Iterator[tuple[Atom, int]]:
    """The (atom, exponent) pairs of a monomial in field order, highest
    field first."""
    while m:
        sh = (m.bit_length() - 1) // EXP_BITS * EXP_BITS
        e = m >> sh
        yield _ATOM_AT[sh // EXP_BITS], e
        m ^= e << sh


def mono_pairs(m: Monomial) -> Pairs:
    """The (atom, exponent) pairs of a monomial, sorted by atom."""
    return tuple(sorted(_fields(m)))


def lex_order(atoms: Iterable[Atom]) -> Callable[[Monomial], bytes]:
    """A sort key for monomials over `atoms`: their exponent bytes (one byte
    per field) in atom order, fixed width, so keys compare as exponent
    vectors.  Earlier (smaller) atoms take priority and a higher exponent
    sorts larger."""
    fields = [_shift(a) // EXP_BITS for a in sorted(set(atoms))]
    width = max(fields, default=-1) + 1
    if not fields:
        return lambda m: b""
    if len(fields) == 1:
        f = fields[0]
        return lambda m: m.to_bytes(width, "little")[f:f + 1]
    getter = itemgetter(*fields)
    return lambda m: bytes(getter(m.to_bytes(width, "little")))


_ZERO_TO_TOP = bytes.maketrans(b"\0", b"\xff")


def tuple_order(atoms: Iterable[Atom]) -> Callable[[Monomial], bytes]:
    """A sort key for monomials over `atoms` that orders them as their
    `mono_pairs` tuples, without decoding them.

    The key is the `lex_order` key with trailing zeros dropped and every
    other zero raised to 0xff: at the first atom where two monomials differ,
    the one lacking it has a later atom, which sorts higher, or ends, which
    sorts lower.
    """
    lex = lex_order(atoms)
    return lambda m: lex(m).rstrip(b"\0").translate(_ZERO_TO_TOP)


def _mono_from_pairs(pairs: Iterable[tuple[Atom, int]]) -> Monomial:
    m = 0
    for a, e in pairs:
        if not 0 <= e <= EXP_MAX:
            raise ExponentOverflowError(
                f"exponent {e} of {atom_str(a)} is outside 0..{EXP_MAX}")
        m += e << _shift(a)
    _check_exponents((m,))
    return m


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    `terms` is the one stored form; `integer_form` is the one derived form,
    computed on first use and kept.  Monomials are decoded only at the
    edges (`mono_pairs`, `sorted_terms`).  Immutable by convention: no
    method mutates `terms`.  liejet runs in one thread: the field table
    that packs monomials is not locked, and monomials are only meaningful
    inside the process that packed them.
    """

    __slots__ = ("terms", "_int")

    def __init__(self, terms: dict[Monomial, int | Fraction]):
        # Trusted constructor: `terms` must be canonical (no zero
        # coefficients, integral ones as int, monomials packed by this
        # module).  Use the classmethods otherwise.
        self.terms = terms
        self._int = None

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls({})

    @classmethod
    def const(cls, value) -> "Poly":
        c = _coefficient(value)
        return cls({0: c} if c else {})

    @classmethod
    def variable(cls, a: Atom) -> "Poly":
        return cls({1 << _shift(a): 1})

    @classmethod
    def from_terms(cls, items: Iterable[tuple[Iterable[tuple[Atom, int]], object]]) -> "Poly":
        out: dict[Monomial, int | Fraction] = {}
        for pairs, c in items:
            m = _mono_from_pairs(pairs)
            v = out.get(m, 0) + _coefficient(c)
            if v:
                out[m] = _canon(v)
            else:
                out.pop(m, None)
        return cls(out)

    # -- predicates and views ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def integer_form(self) -> tuple[dict[Monomial, int], int]:
        """(L * terms, L), L the lcm of the coefficient denominators: every
        coefficient an int.  Computed once; an all-`int` polynomial returns
        its own `terms` and 1."""
        form = self._int
        if form is None:
            terms = self.terms
            dens = {c.denominator for c in terms.values() if type(c) is not int}
            if not dens:
                form = terms, 1
            else:
                L = lcm(*dens)
                form = ({m: c * L if type(c) is int
                         else c.numerator * (L // c.denominator)
                         for m, c in terms.items()}, L)
            self._int = form
        return form

    def atoms(self) -> set[Atom]:
        return {a for a, _ in _fields(reduce(or_, self.terms, 0))}

    def max_jet_order(self) -> int:
        return max((len(a[1]) for a in self.atoms() if a[0] == KIND_JET),
                   default=0)

    def as_constant(self) -> int | Fraction | None:
        """The value of a constant polynomial, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        return None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.const(other).terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)})"

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Poly":
        return poly_sum((self, _as_poly(other)))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            if not c:
                return Poly({})
            return Poly({m: _canon(v * c) for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly({})
        # integer interior: each factor over its own denominator lcm
        left, l1 = self.integer_form()
        right, l2 = other.integer_form()
        out: dict[Monomial, int] = {}
        get = out.get
        items = right.items()
        for m1, c1 in left.items():
            for m2, c2 in items:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        _check_exponents(out)
        return Poly(_divided(out, l1 * l2))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and substitution -----------------------------------------

    def diff(self, a: Atom) -> "Poly":
        """Formal partial derivative treating every atom as independent."""
        sh = _SHIFT.get(a)
        if sh is None:
            return Poly({})
        one = 1 << sh
        out: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            e = (m >> sh) & _FIELD_MASK
            if e:
                nm = m - one
                v = out.get(nm, 0) + c * e
                if v:
                    out[nm] = _canon(v)
                else:
                    out.pop(nm, None)
        return Poly(out)

    def derivation(self, image: Callable[[Atom], "Poly"]) -> "Poly":
        """The derivation D with D(a) = image(a) on every atom a, extended
        to the polynomial by the Leibniz rule; image is called once per
        atom of the polynomial.

        The sum runs in integers: with L the lcm of the coefficient
        denominators, L_a that of the image of a and S the lcm of every
        L_a, the terms are scaled by L and the image of a by S, all `int`,
        and each output term is divided by L * S once.  A sum cancels in the scaled run
        exactly where it cancels in the rational one, so the terms come in
        the same order.
        """
        terms, scale = self.integer_form()
        forms = {a: image(a).integer_form() for a in self.atoms()}
        common = lcm(*(s for _, s in forms.values()))
        images = {a: t if s == common else
                  {m: c * (common // s) for m, c in t.items()}
                  for a, (t, s) in forms.items()}
        out: dict[Monomial, int] = {}
        get = out.get
        for m, c in terms.items():
            for a, e in _fields(m):
                da = images[a]
                if not da:
                    continue
                rest = m - (1 << _SHIFT[a])
                ce = c * e
                for dm, dc in da.items():
                    mm = rest + dm
                    v = get(mm, 0) + ce * dc
                    if v:
                        out[mm] = v
                    else:
                        del out[mm]
        _check_exponents(out)
        return Poly(_divided(out, scale * common))

    def substitute_atoms(self, mapping: Mapping[Atom, "Poly"]) -> "Poly":
        """Replace every occurrence of the mapped atoms, re-expanding.

        The expansion runs in integer forms.  With L the lcm of the
        coefficient denominators, L_a that of the value of atom a and t_a
        the largest exponent of a, a term c * r * prod a^e is the integer
        polynomial (L c) * r * prod (L_a a)^e * L_a^(t_a - e) over the
        common denominator L * prod L_a^t_a, by which every output term is
        divided once.
        """
        if not mapping or not self.terms:
            return self
        mask = _field_mask(mapping)
        forms = {a: q.integer_form() for a, q in mapping.items()}
        cleared = {a: Poly(t) for a, (t, _) in forms.items()}
        spare = 1  # prod L_a^t_a
        for a, (_, s) in forms.items():
            if s != 1:
                sh = _SHIFT[a]
                spare *= s ** max((m >> sh) & _FIELD_MASK for m in self.terms)
        terms, scale = self.integer_form()
        out: dict[Monomial, int] = {}
        powcache: dict[tuple[Atom, int], tuple[Poly, int]] = {}
        for m, c in terms.items():
            hit = m & mask
            if not hit:
                pieces = {m: c * spare}
            else:
                factors = []
                used = 1  # prod L_a^e, a divisor of `spare`
                for a, e in _fields(hit):
                    got = powcache.get((a, e))
                    if got is None:
                        got = powcache[(a, e)] = (cleared[a] ** e,
                                                  forms[a][1] ** e)
                    factors.append(got[0])
                    used *= got[1]
                piece = Poly({m ^ hit: c * (spare // used)})
                # smallest factor first keeps the partial products small
                for q in sorted(factors, key=lambda q: len(q.terms)):
                    piece = piece * q
                pieces = piece.terms
            for mm, cc in pieces.items():
                v = out.get(mm, 0) + cc
                if v:
                    out[mm] = v
                else:
                    out.pop(mm, None)
        return Poly(_divided(out, scale * spare))

    def evaluate(self, env: Mapping[Atom, int | Fraction]) -> Fraction:
        """Exact value under a full atom assignment.

        The sum runs in integers: with the atom values over one common
        denominator D, x_a = n_a / D, and (L c) the terms of the integer
        form, a term c * prod x_a^e of degree d is the integer
        (L c) * prod n_a^e * D^(dmax - d) over L D^dmax.  One division of
        the integer sum by L D^dmax gives the term-by-term rational sum.

        Raises MissingAtomError if some atom of the polynomial is unassigned
        and TypeError for a float value; evaluation is a ring homomorphism.
        """
        values: dict[Atom, int | Fraction] = {}
        for a in self.atoms():
            try:
                q = values[a] = env[a]
            except KeyError:
                raise MissingAtomError(atom_str(a)) from None
            if isinstance(q, float):
                raise TypeError(f"exact evaluation needs rational values, "
                                f"got float {q!r} for {atom_str(a)}")
        D = lcm(*(q.denominator for q in values.values()))
        num = {a: q.numerator * D // q.denominator for a, q in values.items()}
        terms, L = self.integer_form()
        by_degree: dict[int, int] = {}
        for m, v in terms.items():
            d = 0
            for a, e in _fields(m):
                v *= num[a] ** e
                d += e
            by_degree[d] = by_degree.get(d, 0) + v
        dmax = max(by_degree, default=0)
        total = sum(v * D ** (dmax - d) for d, v in by_degree.items())
        return Fraction(total, L * D ** dmax)

    def evaluate_float(self, env: Mapping[Atom, float]) -> float:
        total = 0.0
        for m, c in self.terms.items():
            v = float(c)
            for a, e in _fields(m):
                try:
                    v *= env[a] ** e
                except KeyError:
                    raise MissingAtomError(atom_str(a)) from None
            total += v
        return total

    # -- structure queries ---------------------------------------------------

    def coefficient_powers(self, a: Atom) -> dict[int, "Poly"]:
        """`collect` by one atom, keyed by its exponent: p = sum_r
        result[r] * a^r."""
        sh = _shift(a)
        return {k >> sh: q for k, q in self.collect(lambda b: b == a).items()}

    def collect(self, select: Callable[[Atom], bool]) -> dict[Monomial, "Poly"]:
        """Group terms by their sub-monomial over the selected atoms."""
        mask = _field_mask(a for a in self.atoms() if select(a))
        buckets: dict[Monomial, dict[Monomial, int | Fraction]] = {}
        for m, c in self.terms.items():
            key = m & mask
            buckets.setdefault(key, {})[m ^ key] = c
        return {k: Poly(t) for k, t in buckets.items()}


def _canon(c: int | Fraction) -> int | Fraction:
    """An integral coefficient as int, any other as Fraction."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def _divided(out: dict[Monomial, int], den: int) -> dict:
    """Integer sums over a positive denominator as canonical terms: zeros
    dropped, each coefficient divided once."""
    if den == 1:
        return {m: c for m, c in out.items() if c}
    return {m: _canon(Fraction(c, den)) for m, c in out.items() if c}


def _coefficient(value) -> int | Fraction:
    """An exact coefficient from outside the core; floats are refused so an
    inexact value cannot enter a polynomial."""
    if isinstance(value, float):
        raise TypeError(f"polynomial coefficients must be exact, got float {value!r}")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return _canon(value)
    return _canon(Fraction(value))


def exact_quotient(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """a / b without leaving exact arithmetic, as int when integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _canon(Fraction(a) / b)


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {value!r} to Poly")


def poly_sum(polys: Iterable[Poly]) -> Poly:
    """The sum of the polynomials, accumulated in one term map, each
    coefficient made canonical as it is touched; `+` is the sum of two."""
    rest = iter(polys)
    out = dict(next(rest, Poly({})).terms)
    get = out.get
    for p in rest:
        for m, c in p.terms.items():
            v = get(m, 0) + c
            if v:
                out[m] = v if type(v) is int else _canon(v)
            else:
                del out[m]
    return Poly(out)


def point_partial(p: Poly, xs: Iterable[int] = (), du: int = 0) -> Poly:
    """Partial derivative of a polynomial in (x, u): once by x^i for every
    i in `xs`, then `du` times by u."""
    for i in xs:
        p = p.diff(coord(i))
    for _ in range(du):
        p = p.diff(DEP)
    return p


# -- deterministic term order -------------------------------------------------

def sorted_terms(p: Poly) -> list[tuple[Pairs, int | Fraction]]:
    """Decoded terms in descending lexicographic order (deterministic
    output)."""
    key = lex_order(p.atoms())
    return [(mono_pairs(m), c) for m, c in
            sorted(p.terms.items(), key=lambda kv: key(kv[0]), reverse=True)]


def poly_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    chunks: list[str] = []
    for m, c in sorted_terms(p):
        factors = []
        for a, e in m:
            factors.append(atom_str(a) if e == 1 else f"{atom_str(a)}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not chunks:
            chunks.append(body if c > 0 else "-" + body)
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks)


def divide_exact(p: Poly, q: Poly) -> Poly | None:
    """Return mu with p == mu * q when such a polynomial exists, else None.

    Single-divisor long division of the integer forms, P = L_p * p by
    Q = L_q * q, so mu is their quotient times L_q / L_p.  The leading term
    is the largest packed monomial: packed addition never carries, so that
    is a monomial order (lex, by field), and for one divisor the remainder
    under a monomial order is canonical, so a zero remainder is both
    necessary and sufficient for exact divisibility, and the quotient is
    the unique one whatever the order.
    """
    if q.is_zero:
        raise DivisorZeroError("division by the zero polynomial")
    if p.is_zero:
        return Poly.zero()
    qc = q.as_constant()
    if qc is not None:
        return p * exact_quotient(1, qc)
    (P, lp), (Q, lq) = p.integer_form(), q.integer_form()
    q_items = list(Q.items())
    lt_q = max(Q)
    c_q = Q[lt_q]

    rem = dict(P)
    quot: dict[Monomial, int | Fraction] = {}
    while rem:
        lt = max(rem)
        # lt_q divides lt iff no field borrows: with the guard bits set in
        # lt, a field of lt below that of lt_q clears its guard bit
        guard = _GUARD
        if ((lt | guard) - lt_q) & guard != guard:
            return None
        qm = lt - lt_q
        qcoef = exact_quotient(rem[lt], c_q)
        quot[qm] = qcoef  # lt, and so qm, strictly decreases
        for m2, c2 in q_items:
            mm = qm + m2
            if mm & guard:
                raise ExponentOverflowError(f"an exponent exceeds {EXP_MAX}")
            v = rem.get(mm, 0) - qcoef * c2
            if v:
                rem[mm] = v
            else:
                rem.pop(mm, None)
    return Poly(quot) * Fraction(lq, lp)


# -- symbolic matrices ---------------------------------------------------------

def _check_square(rows: Sequence[Sequence]) -> int:
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise NonSquareError("matrix must be square and nonempty")
    return n


def sym_det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a matrix of polynomials by cofactor expansion."""
    n = _check_square(rows)
    memo: dict[tuple[int, ...], Poly] = {}

    def minor(cols: tuple[int, ...]) -> Poly:
        if not cols:
            return Poly.const(1)
        got = memo.get(cols)
        if got is not None:
            return got
        r = n - len(cols)
        acc = Poly.zero()
        for k, c in enumerate(cols):
            entry = rows[r][c]
            if entry.is_zero:
                continue
            sub = minor(cols[:k] + cols[k + 1:])
            term = entry * sub
            acc = acc + term if k % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


def sym_adjugate(rows: Sequence[Sequence[Poly]]) -> list[list[Poly]]:
    """Adjugate (transposed cofactor matrix): adj(M) * M == det(M) * I."""
    n = _check_square(rows)
    if n == 1:
        return [[Poly.const(1)]]
    adj: list[list[Poly]] = [[Poly.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[rows[r][c] for c in range(n) if c != i]
                   for r in range(n) if r != j]
            cof = sym_det(sub)
            adj[i][j] = cof if (i + j) % 2 == 0 else -cof
    return adj


# -- exact rational linear algebra ----------------------------------------------

def rat_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    n = _check_square(rows)
    mat = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if mat[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for r in range(c + 1, n):
            f = mat[r][c] * inv
            if f:
                for j in range(c, n):
                    mat[r][j] -= f * mat[c][j]
    return det


def nullspace(rows: Sequence[Sequence], ncols: int | None = None
              ) -> tuple[int, list[list[Fraction]]]:
    """Exact nullspace of a rational matrix: (dimension, basis vectors).

    Rows are dense or sparse {column: value} maps (which need `ncols`).
    Read from the reduced echelon form of `_reduced_echelon`.  Basis vectors
    carry a 1 in their own free column and 0 in every other free column,
    which makes the basis unique; M @ b == 0 exactly for every basis vector
    b.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(rows[0])
    pivots = _reduced_echelon(rows, ncols)
    zero, one = Fraction(0), Fraction(1)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for fc in free_cols:
        v = [zero] * ncols
        v[fc] = one
        for c, row in pivots.items():
            a = row.get(fc)
            if a:
                v[c] = Fraction(-a, row[c])
        basis.append(v)
    return len(free_cols), basis


def solve_exact(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when there is none: the
    one-right-hand-side case of `_solve_columns`."""
    return _solve_columns(rows, [rhs])[0]


def _solve_columns(rows: Sequence[Sequence], rhss: Sequence[Sequence]
                   ) -> list[list[Fraction] | None]:
    """A x = b for every b in `rhss`, from one reduced echelon form of
    [A | -b_1 ... -b_T] (`_reduced_echelon`), A of width k.  b_t is outside
    the column space exactly when a pivot row of the right-hand-side block
    has a nonzero in column k+t (column k+t need not be a pivot: b_2 = b_1).
    Otherwise x[c] = -row[k+t]/row[c] on the pivot rows of A, free
    variables 0: the unique such solution of the reduced form."""
    k = len(rows[0]) if rows else 0
    pivots = _reduced_echelon(
        [(*r, *(-Fraction(b) for b in bs))
         for r, *bs in zip(rows, *rhss, strict=True)], k + len(rhss))
    escaping = {j for c, row in pivots.items() if c >= k for j in row}
    out: list[list[Fraction] | None] = []
    for col in range(k, k + len(rhss)):
        x = [Fraction(0)] * k
        for c, row in pivots.items():
            if c < k:
                x[c] = Fraction(-row.get(col, 0), row[c])
        out.append(None if col in escaping else x)
    return out


def _reduced_echelon(rows: Sequence[Sequence], ncols: int
                     ) -> dict[int, dict[int, int]]:
    """The reduced echelon form of a rational matrix as {pivot column:
    integer row}, each row a sparse {column: value} map, as the input rows
    may be.

    Sparse and fraction-free: every row is cleared of denominators into a
    coprime integer row (`integer_primitive`), pivots are taken by leading column and each new pivot row
    is divided by its content.  Back-substitution, right to left and also in
    integers, clears every pivot column from the other pivot rows.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        sparse = isinstance(r, Mapping)
        if max(r, default=-1) >= ncols if sparse else len(r) != ncols:
            raise ValueError("ragged matrix")
        qs = ((j, v if type(v) is int else Fraction(v))
              for j, v in (r.items() if sparse else enumerate(r)))
        row = integer_primitive({j: q for j, q in qs if q})
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            row = _eliminate(row, prow, lead)

    piv_cols = sorted(pivots)
    for k in range(len(piv_cols) - 1, 0, -1):
        c = piv_cols[k]
        prow = pivots[c]
        for c2 in piv_cols[:k]:
            row = pivots[c2]
            if c in row:
                pivots[c2] = _eliminate(row, prow, c)
    return pivots


def integer_primitive(entries: Mapping) -> dict:
    """Nonzero rational values scaled to coprime integers: multiplied by the
    lcm of their denominators, then divided by the (positive) gcd.  Two
    mappings have the same form exactly when one is a positive multiple of
    the other."""
    if not entries:
        return {}
    scale = lcm(*(q.denominator for q in entries.values()))
    return _primitive({k: q.numerator * (scale // q.denominator)
                       for k, q in entries.items()})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g == 1:
        return row
    return {j: v // g for j, v in row.items()}


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int
               ) -> dict[int, int]:
    """row * a - prow * b with column c cancelled, divided by its content."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    out = {j: v * a for j, v in row.items()} if a != 1 else dict(row)
    for j, v in prow.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _primitive(out) if out else out
