"""Exact sparse polynomial arithmetic over a typed atom alphabet.

Coefficients are `fractions.Fraction` throughout; every operation is exact and
identity checks reduce to dictionary comparison.  Atoms (the variables of the
ring) are plain tuples with a small integer kind tag, so they hash fast and
sort with the native tuple order:

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

A monomial is a tuple of (atom, exponent) pairs sorted by atom; a Poly maps
monomials to nonzero coefficients, the zero polynomial being the empty map.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

KIND_COORD = 0
KIND_DEP = 1
KIND_JET = 2
KIND_FUNC = 3
KIND_THETA = 4

Atom = tuple
Monomial = tuple  # tuple[tuple[Atom, int], ...], sorted by atom

DEP: Atom = (KIND_DEP,)
THETA: Atom = (KIND_THETA,)


class MissingAtomError(Exception):
    """An atom required by an evaluation has no assigned value."""


class NonSquareError(ValueError):
    """A determinant/adjugate was requested for a non-square matrix."""


class DivisorZeroError(ZeroDivisionError):
    """Exact division by the zero polynomial."""


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


def atom_kind(a: Atom) -> int:
    return a[0]


def jet_indices(a: Atom) -> tuple[int, ...]:
    return a[1]


def jet_order(a: Atom) -> int:
    return len(a[1])


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


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        aa, ae = a[i]
        ba, be = b[j]
        if aa == ba:
            out.append((aa, ae + be))
            i += 1
            j += 1
        elif aa < ba:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_from_pairs(pairs: Iterable[tuple[Atom, int]]) -> Monomial:
    acc: dict[Atom, int] = {}
    for a, e in pairs:
        acc[a] = acc.get(a, 0) + e
    return tuple(sorted((a, e) for a, e in acc.items() if e != 0))


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Immutable by convention: no method mutates `terms`, and instances may be
    shared freely across threads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction]):
        # Trusted constructor: `terms` must be canonical (no zero
        # coefficients, monomials sorted).  Use the classmethods otherwise.
        self.terms = terms

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls({})

    @classmethod
    def const(cls, value) -> "Poly":
        c = Fraction(value)
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, a: Atom) -> "Poly":
        return cls({((a, 1),): Fraction(1)})

    @classmethod
    def from_terms(cls, items: Iterable[tuple[Iterable[tuple[Atom, int]], object]]) -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for pairs, c in items:
            m = _mono_from_pairs(pairs)
            v = out.get(m, _ZERO) + Fraction(c)
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return cls(out)

    # -- predicates and views ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def atoms(self) -> set[Atom]:
        return {a for m in self.terms for a, _ in m}

    def max_jet_order(self) -> int:
        best = 0
        for m in self.terms:
            for a, _ in m:
                if a[0] == KIND_JET and len(a[1]) > best:
                    best = len(a[1])
        return best

    def as_constant(self) -> Fraction | None:
        """The value of a constant polynomial, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

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
        other = _as_poly(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, _ZERO) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Poly({})
            return Poly({m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly({})
        out: dict[Monomial, Fraction] = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                v = get(m, _ZERO) + c1 * c2
                out[m] = v
        return Poly({m: c for m, c in out.items() if c})

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
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            for idx, (atom, e) in enumerate(m):
                if atom == a:
                    if e == 1:
                        nm = m[:idx] + m[idx + 1:]
                    else:
                        nm = m[:idx] + ((atom, e - 1),) + m[idx + 1:]
                    v = out.get(nm, _ZERO) + c * e
                    if v:
                        out[nm] = v
                    else:
                        out.pop(nm, None)
                    break
        return Poly(out)

    def subs(self, a: Atom, replacement: "Poly | int | Fraction") -> "Poly":
        return self.substitute_atoms({a: _as_poly(replacement)})

    def substitute_atoms(self, mapping: Mapping[Atom, "Poly"]) -> "Poly":
        """Replace every occurrence of the mapped atoms, re-expanding."""
        if not mapping:
            return self
        out: dict[Monomial, Fraction] = {}
        powcache: dict[tuple[Atom, int], Poly] = {}
        for m, c in self.terms.items():
            hit = [(a, e) for a, e in m if a in mapping]
            if not hit:
                v = out.get(m, _ZERO) + c
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
                continue
            fixed = tuple((a, e) for a, e in m if a not in mapping)
            piece = Poly({fixed: c})
            for a, e in hit:
                q = powcache.get((a, e))
                if q is None:
                    q = mapping[a] ** e
                    powcache[(a, e)] = q
                piece = piece * q
            for mm, cc in piece.terms.items():
                v = out.get(mm, _ZERO) + cc
                if v:
                    out[mm] = v
                else:
                    out.pop(mm, None)
        return Poly(out)

    def evaluate(self, env: Mapping[Atom, Fraction]) -> Fraction:
        """Exact value under a full atom assignment.

        Raises MissingAtomError if some atom of the polynomial is unassigned;
        evaluation is a ring homomorphism.
        """
        total = Fraction(0)
        powcache: dict[tuple[Atom, int], Fraction] = {}
        for m, c in self.terms.items():
            v = c
            for a, e in m:
                p = powcache.get((a, e))
                if p is None:
                    try:
                        base = env[a]
                    except KeyError:
                        raise MissingAtomError(atom_str(a)) from None
                    p = base ** e
                    powcache[(a, e)] = p
                v *= p
            total += v
        return total

    def evaluate_float(self, env: Mapping[Atom, float]) -> float:
        total = 0.0
        for m, c in self.terms.items():
            v = float(c)
            for a, e in m:
                try:
                    v *= env[a] ** e
                except KeyError:
                    raise MissingAtomError(atom_str(a)) from None
            total += v
        return total

    # -- structure queries ---------------------------------------------------

    def coefficient_powers(self, a: Atom) -> dict[int, "Poly"]:
        """Collect by the exponent of one atom: p = sum_r result[r] * a^r."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            e = 0
            rest = m
            for idx, (atom, ex) in enumerate(m):
                if atom == a:
                    e = ex
                    rest = m[:idx] + m[idx + 1:]
                    break
            buckets.setdefault(e, {})[rest] = c
        return {e: Poly(t) for e, t in buckets.items()}

    def collect(self, select: Callable[[Atom], bool]) -> dict[Monomial, "Poly"]:
        """Group terms by their sub-monomial over the selected atoms."""
        buckets: dict[Monomial, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            key = tuple((a, e) for a, e in m if select(a))
            rest = tuple((a, e) for a, e in m if not select(a))
            buckets.setdefault(key, {})[rest] = c
        return {k: Poly(t) for k, t in buckets.items()}


_ZERO = Fraction(0)


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {value!r} to Poly")


def point_partial(p: Poly, xs: Iterable[int] = (), du: int = 0) -> Poly:
    """Partial derivative of a polynomial in (x, u): once by x^i for every
    i in `xs`, then `du` times by u."""
    for i in xs:
        p = p.diff(coord(i))
    for _ in range(du):
        p = p.diff(DEP)
    return p


# -- deterministic term order -------------------------------------------------
#
# Lexicographic over the atom total order: earlier (smaller) atoms take
# priority and a higher exponent sorts larger.  This order is multiplicative,
# which `divide_exact` needs for termination.

def _lex_keys(polys: Iterable[Poly]) -> Callable[[Monomial], tuple]:
    universe = sorted({a for p in polys for a in p.atoms()})
    index = {a: i for i, a in enumerate(universe)}
    width = len(universe)
    cache: dict[Monomial, tuple] = {}

    def key(m: Monomial) -> tuple:
        k = cache.get(m)
        if k is None:
            vec = [0] * width
            for a, e in m:
                vec[index[a]] = e
            k = tuple(vec)
            cache[m] = k
        return k

    return key


def sorted_terms(p: Poly) -> list[tuple[Monomial, Fraction]]:
    """Terms in descending lexicographic order (deterministic output)."""
    key = _lex_keys([p])
    return sorted(p.terms.items(), key=lambda kv: key(kv[0]), reverse=True)


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

    Single-divisor long division under a fixed lexicographic order; for one
    divisor the division remainder is canonical, so a zero remainder is both
    necessary and sufficient for exact divisibility.
    """
    if q.is_zero:
        raise DivisorZeroError("division by the zero polynomial")
    if p.is_zero:
        return Poly.zero()
    qc = q.as_constant()
    if qc is not None:
        return p * (1 / qc)
    key = _lex_keys([p, q])
    q_items = list(q.terms.items())
    lt_q = max(q.terms, key=key)
    c_q = q.terms[lt_q]
    lt_q_map = dict(lt_q)

    rem = dict(p.terms)
    quot: dict[Monomial, Fraction] = {}
    while rem:
        lt = max(rem, key=key)
        # divisibility of monomials: exponentwise >=
        ok = True
        lt_map = dict(lt)
        for a, e in lt_q_map.items():
            if lt_map.get(a, 0) < e:
                ok = False
                break
        if not ok:
            return None
        qm = tuple(sorted((a, e - lt_q_map.get(a, 0)) for a, e in lt_map.items()
                          if e - lt_q_map.get(a, 0)))
        qcoef = rem[lt] / c_q
        quot[qm] = quot.get(qm, _ZERO) + qcoef
        for m2, c2 in q_items:
            mm = _mono_mul(qm, m2)
            v = rem.get(mm, _ZERO) - qcoef * c2
            if v:
                rem[mm] = v
            else:
                rem.pop(mm, None)
    return Poly({m: c for m, c in quot.items() if c})


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

    Fraction-free (Bareiss) forward elimination after clearing denominators,
    then rational back-substitution; M @ b == 0 exactly for every basis
    vector b.  Basis vectors carry a 1 in their free column.
    """
    mat = [[Fraction(v) for v in r] for r in rows]
    if ncols is None:
        if not mat:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")

    work: list[list[int]] = []
    for r in mat:
        if any(r):
            scale = lcm(*(v.denominator for v in r))
            work.append([int(v * scale) for v in r])

    piv_cols: list[int] = []
    prev = 1
    pr = 0
    for c in range(ncols):
        piv = next((r for r in range(pr, len(work)) if work[r][c]), None)
        if piv is None:
            continue
        if piv != pr:
            work[pr], work[piv] = work[piv], work[pr]
        p = work[pr][c]
        for r in range(pr + 1, len(work)):
            row = work[r]
            f = row[c]
            prow = work[pr]
            for j in range(c, ncols):
                row[j] = (row[j] * p - f * prow[j]) // prev
        prev = p
        piv_cols.append(c)
        pr += 1
        if pr == len(work):
            break

    rank = len(piv_cols)
    pivset = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in pivset]
    basis: list[list[Fraction]] = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r in range(rank - 1, -1, -1):
            pc = piv_cols[r]
            s = sum((work[r][j] * v[j] for j in range(pc + 1, ncols)), Fraction(0))
            v[pc] = -s / work[r][pc]
        basis.append(v)
    return len(free_cols), basis


def solve_exact(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to 0), or None."""
    mat = [[Fraction(v) for v in r] for r in rows]
    b = [Fraction(v) for v in rhs]
    if len(mat) != len(b):
        raise ValueError("shape mismatch")
    ncols = len(mat[0]) if mat else 0
    piv_cols: list[int] = []
    pr = 0
    for c in range(ncols):
        piv = next((r for r in range(pr, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[pr], mat[piv] = mat[piv], mat[pr]
        b[pr], b[piv] = b[piv], b[pr]
        inv = 1 / mat[pr][c]
        mat[pr] = [v * inv for v in mat[pr]]
        b[pr] *= inv
        for r in range(len(mat)):
            if r != pr and mat[r][c]:
                f = mat[r][c]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[pr])]
                b[r] -= f * b[pr]
        piv_cols.append(c)
        pr += 1
    for r in range(pr, len(mat)):
        if b[r]:
            return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(piv_cols):
        x[c] = b[r]
    return x

