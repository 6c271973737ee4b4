import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liejet.algebra import (
    DEP,
    EXP_MAX,
    DivisorZeroError,
    ExponentOverflowError,
    MissingAtomError,
    NonSquareError,
    Poly,
    THETA,
    _solve_columns,
    coord,
    denominator_lcm,
    divide_exact,
    func_partial,
    jet,
    lex_order,
    mono_pairs,
    nullspace,
    poly_str,
    solve_exact,
    sym_adjugate,
    sym_det,
    tuple_order,
)
from conftest import leibniz_hessian_det

x1 = Poly.variable(coord(1))
x2 = Poly.variable(coord(2))
u = Poly.variable(DEP)
u1 = Poly.variable(jet(1))
u11 = Poly.variable(jet(1, 1))
u12 = Poly.variable(jet(1, 2))
u22 = Poly.variable(jet(2, 2))
th = Poly.variable(THETA)

MA2 = u11 * u22 - u12 ** 2 - 1


# -- hypothesis strategy for random polynomials -----------------------------------

ATOM_POOL = [coord(1), coord(2), DEP, jet(1), jet(1, 1), THETA]

rationals = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)

monomials = st.lists(
    st.sampled_from(ATOM_POOL), min_size=0, max_size=4
).map(lambda atoms: tuple((a, atoms.count(a)) for a in set(atoms)))

polys = st.lists(
    st.tuples(monomials, rationals), min_size=0, max_size=6
).map(Poly.from_terms)

envs = st.fixed_dictionaries({a: rationals for a in ATOM_POOL})


class TestRingOps:
    def test_difference_of_squares(self):
        assert (x1 + u) * (x1 - u) == x1 ** 2 - u ** 2

    def test_additive_identity(self):
        p = 3 * x1 * u11 - u
        assert p + Poly.zero() == p

    def test_power_of_monomial(self):
        assert (th * u11) ** 2 == th ** 2 * u11 ** 2

    def test_zero_is_empty(self):
        assert (u - u).terms == {}
        assert Poly.const(0).is_zero

    @given(polys, polys, polys)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys)
    def test_neg_and_sub(self, p):
        assert p + (-p) == Poly.zero()
        assert p - p == Poly.zero()

    @given(polys, st.integers(min_value=0, max_value=4))
    def test_pow_matches_repeated_mul(self, p, e):
        expected = Poly.const(1)
        for _ in range(e):
            expected = expected * p
        assert p ** e == expected


def all_fraction(p: Poly) -> Poly:
    """The same polynomial with every coefficient stored as a Fraction."""
    return Poly({m: Fraction(c) for m, c in p.terms.items()})


def integral_as_int(p: Poly) -> bool:
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


class TestExactCoefficients:
    @pytest.mark.parametrize("make", [
        lambda: Poly.const(0.5),
        lambda: Poly.from_terms([(((DEP, 1),), 0.5)]),
        lambda: x1 * 0.5,
        lambda: 0.5 * x1,
        lambda: x1 + 0.5,
    ])
    def test_float_refused(self, make):
        with pytest.raises(TypeError):
            make()

    def test_denominator_lcm(self):
        assert denominator_lcm() == 1
        assert denominator_lcm(MA2, Poly.zero()) == 1
        assert denominator_lcm(Fraction(1, 4) * x1 + Fraction(5, 6),
                               Fraction(2, 9) * u) == 36

    def test_integral_fraction_stored_as_int(self):
        p = Poly.const(Fraction(6, 3)) + Fraction(1, 2) * x1 * 2
        assert all(type(c) is int for c in p.terms.values())

    @given(polys, polys)
    @settings(max_examples=60)
    def test_integral_coefficients_are_int(self, p, q):
        fp, fq = all_fraction(p), all_fraction(q)
        results = [
            (p + q, fp + fq),
            (p - q, fp - fq),
            (p * q, fp * fq),
            (p ** 3, fp ** 3),
            (p.diff(coord(1)), fp.diff(coord(1))),
            (p.subs(DEP, q), fp.subs(DEP, fq)),
        ]
        if q:
            results.append((divide_exact(p * q, q), divide_exact(fp * fq, fq)))
        for got, reference in results:
            assert integral_as_int(got)
            assert got == reference
        if q:
            assert results[-1][0] == p


class TestPackedExponents:
    def test_largest_exponent(self):
        p = x1 ** EXP_MAX * x2
        assert p.diff(coord(1)) == EXP_MAX * x1 ** (EXP_MAX - 1) * x2
        assert p.diff(coord(2)) == x1 ** EXP_MAX

    @pytest.mark.parametrize("make", [
        lambda: x1 ** EXP_MAX * x1,
        lambda: x1 ** (EXP_MAX + 1),
        lambda: (x1 + u) ** (2 * EXP_MAX),
        lambda: Poly.from_terms([(((DEP, EXP_MAX + 1),), 1)]),
        lambda: Poly.from_terms([(((DEP, EXP_MAX), (DEP, 1)), 1)]),
        lambda: divide_exact(x1 ** 2 * x2 ** EXP_MAX, x1 ** 2 + x2),
    ])
    def test_overflow_raises(self, make):
        with pytest.raises(ExponentOverflowError):
            make()

    @given(st.lists(monomials, min_size=1, max_size=12))
    def test_tuple_order_matches_decoded_order(self, monos):
        packed = [m for m, in (Poly.from_terms([(mono, 1)]).terms
                               for mono in monos)]
        key = tuple_order(ATOM_POOL)
        assert sorted(packed, key=key) == sorted(packed, key=mono_pairs)
        # lex: exponent vectors over the sorted atoms
        atoms = sorted(ATOM_POOL)
        exponents = lambda m: tuple(dict(mono_pairs(m)).get(a, 0) for a in atoms)
        assert sorted(packed, key=lex_order(ATOM_POOL)) == \
            sorted(packed, key=exponents)

    def test_decode_sorts_by_atom(self):
        late = func_partial(2, (1, 1), 1)
        m, = (Poly.variable(late) * u11 * x2 ** 3).terms
        assert mono_pairs(m) == ((coord(2), 3), (jet(1, 1), 1), (late, 1))


class TestDerivativeAndSubstitution:
    def test_hessian_partial(self):
        assert MA2.diff(jet(1, 2)) == -2 * u12

    def test_theta_partial(self):
        assert (th * u1).diff(THETA) == u1

    def test_constant_partial(self):
        assert Poly.const(5).diff(DEP).is_zero

    def test_substitute_identity(self):
        p = MA2
        assert p.subs(jet(1, 2), u12) == p

    def test_substitute_theta(self):
        z = Poly.variable(jet(1, 1, 1))
        assert (th * z).subs(THETA, Poly.const(Fraction(3, 4))) == \
            Fraction(3, 4) * z

    def test_substitute_det_constraint(self):
        p = MA2.subs(jet(2, 2), Poly.const(Fraction(1, 2)))
        p = p.subs(jet(1, 1), Poly.const(2))
        p = p.subs(jet(1, 2), Poly.const(0))
        assert p.is_zero

    @given(polys, polys)
    def test_diff_commutes_with_unrelated_substitution(self, p, r):
        # d/da and b -> r commute when a is involved in neither b nor r
        a = coord(2)
        b = jet(1, 1)
        r = r.subs(a, Poly.const(1))  # keep a out of the replacement
        lhs = p.diff(a).subs(b, r)
        rhs = p.subs(b, r).diff(a)
        assert lhs == rhs


def reference_evaluate(p: Poly, env) -> Fraction:
    """Term-by-term Fraction evaluation, the oracle of the integer one."""
    total = Fraction(0)
    for pairs, c in p.term_pairs():
        v = Fraction(c)
        for a, e in pairs:
            v *= Fraction(env[a]) ** e
        total += v
    return total


# int and Fraction coefficients and values, zero, negative and integral ones
# among them (Fraction(4, 2) is integral), and exponents up to 6
exact_numbers = st.one_of(st.integers(min_value=-40, max_value=40), rationals)
value_polys = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(ATOM_POOL),
                        st.integers(min_value=1, max_value=6), max_size=3
                        ).map(lambda d: tuple(d.items())),
        exact_numbers),
    min_size=0, max_size=6,
).map(Poly.from_terms)
value_envs = st.fixed_dictionaries({a: exact_numbers for a in ATOM_POOL})


class TestEvaluate:
    def test_on_variety_point(self):
        env = {jet(1, 1): Fraction(2), jet(2, 2): Fraction(1, 2),
               jet(1, 2): Fraction(0)}
        assert (u11 * u22 - u12 ** 2).evaluate(env) == 1

    def test_zero_poly(self):
        assert Poly.zero().evaluate({}) == 0

    def test_theta_shift(self):
        assert (th + 1).evaluate({THETA: Fraction(3, 4)}) == Fraction(7, 4)

    def test_missing_atom(self):
        assert issubclass(MissingAtomError, ValueError)
        with pytest.raises(MissingAtomError, match="^x1$"):
            (u11 + x1).evaluate({jet(1, 1): Fraction(1)})

    def test_float_value_refused(self):
        with pytest.raises(TypeError, match="u\\[1,1\\]"):
            (u11 + x1).evaluate({jet(1, 1): 0.5, coord(1): Fraction(1)})

    @given(value_polys, value_envs)
    @example(Poly.zero(), {})
    @example(Poly.const(Fraction(-3, 7)), {})
    @example(Poly.const(5), {})
    @settings(max_examples=150)
    def test_matches_term_by_term_fractions(self, p, env):
        got = p.evaluate(env)
        assert type(got) is Fraction
        assert got == reference_evaluate(p, env)

    @given(polys, polys, envs)
    def test_ring_homomorphism(self, p, q, env):
        assert (p + q).evaluate(env) == p.evaluate(env) + q.evaluate(env)
        assert (p * q).evaluate(env) == p.evaluate(env) * q.evaluate(env)


# -- the integer interior of products and substitution -------------------------------
#
# The oracle keeps a polynomial as {sorted (atom, exponent) pairs: Fraction}
# and multiplies term by term, so it shares no code with the packed,
# denominator-cleared kernels.

def naive(p: Poly) -> dict:
    return {pairs: Fraction(c) for pairs, c in p.term_pairs()}


def naive_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for a, e in m2:
                exps[a] = exps.get(a, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def naive_substitute(p: dict, mapping: dict) -> dict:
    out: dict = {}
    for pairs, c in p.items():
        piece = {tuple((a, e) for a, e in pairs if a not in mapping): c}
        for a, e in pairs:
            for _ in range(e if a in mapping else 0):
                piece = naive_mul(piece, mapping[a])
        for m, v in piece.items():
            out[m] = out.get(m, 0) + v
    return {m: c for m, c in out.items() if c}


def canonical(p: Poly) -> bool:
    """No zero coefficient, every integral one an int, every other one a
    Fraction."""
    return all(c and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
               for c in p.terms.values())


small_polys = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(ATOM_POOL),
                        st.integers(min_value=1, max_value=3), max_size=2
                        ).map(lambda d: tuple(d.items())),
        exact_numbers),
    min_size=0, max_size=3,
).map(Poly.from_terms)
mappings = st.dictionaries(st.sampled_from(ATOM_POOL), small_polys, max_size=3)


class TestIntegerInterior:
    @given(value_polys, value_polys)
    @example(Poly.const(Fraction(1, 2)) * x1, Poly.const(2) * u)
    @example(Fraction(1, 3) * x1 + Fraction(2, 3), Fraction(3, 2) * x1 - 1)
    @settings(max_examples=150)
    def test_mul_matches_fraction_reference(self, p, q):
        got = p * q
        assert naive(got) == naive_mul(naive(p), naive(q))
        assert canonical(got)

    @given(value_polys, mappings)
    @example(Fraction(1, 2) * x1 * u ** 2 + 3 * u,
             {DEP: Fraction(2, 3) * x1 + Fraction(1, 3)})
    @example(x1 ** 2 + u, {coord(1): Poly.const(Fraction(1, 2)),
                           DEP: Poly.const(Fraction(-1, 4))})
    @settings(max_examples=150)
    def test_substitute_matches_fraction_reference(self, p, mapping):
        got = p.substitute_atoms(mapping)
        want = naive_substitute(naive(p), {a: naive(q) for a, q in mapping.items()})
        assert naive(got) == want
        assert canonical(got)

    @pytest.mark.parametrize("c", [1, Fraction(1, 2)])
    def test_chained_substitution_past_exp_max(self, c):
        # 100 + 100 sets x1's guard bit; 100 + 100 + 100 would carry past it
        # into the next field, so every product of the chain is checked
        p = c * x1 ** 100 * u * th
        with pytest.raises(ExponentOverflowError):
            p.substitute_atoms({DEP: x1 ** 100, THETA: c * x1 ** 100})


class TestSymbolicMatrices:
    def hessian(self, n):
        return [[Poly.variable(jet(i, j)) for j in range(1, n + 1)]
                for i in range(1, n + 1)]

    def test_det_1x1(self):
        assert sym_det(self.hessian(1)) == u11

    def test_det_2x2(self):
        assert sym_det(self.hessian(2)) == u11 * u22 - u12 ** 2

    def test_det_3x3_against_leibniz_oracle(self):
        d = sym_det(self.hessian(3))
        assert d == leibniz_hessian_det(3)
        # symmetric storage collapses the two odd 3-cycles into one monomial
        assert len(d.terms) == 6 - 1
        assert all(sum(e for _, e in m) == 3 for m, _ in d.term_pairs())

    def test_nonsquare(self):
        with pytest.raises(NonSquareError):
            sym_det([[u11, u12]])
        with pytest.raises(NonSquareError):
            sym_adjugate([[u11, u12]])

    def test_adjugate_1x1(self):
        assert sym_adjugate([[u11]]) == [[Poly.const(1)]]

    def test_adjugate_2x2(self):
        adj = sym_adjugate(self.hessian(2))
        assert adj[0][0] == u22
        assert adj[0][1] == -u12
        assert adj[1][1] == u11

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_adjugate_defining_identity(self, n):
        # adj(M) . M == det(M) . I for the generic symmetric jet matrix;
        # with symbolic entries this is the universal polynomial identity
        m = self.hessian(n)
        adj = sym_adjugate(m)
        det = sym_det(m)
        for i in range(n):
            for j in range(n):
                entry = Poly.zero()
                for k in range(n):
                    entry = entry + adj[i][k] * m[k][j]
                assert entry == (det if i == j else Poly.zero())


@st.composite
def sparse_matrices(draw):
    """Mostly-zero rational matrices of any shape, with zero and repeated
    rows."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), rationals)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    if draw(st.booleans()):
        rows.append([0] * ncols)
    return rows, ncols


def dense_nullspace(rows, ncols):
    """Reference: dense Gauss-Jordan over Fraction; returns the free columns
    and the basis with a 1 in its own free column and 0 in every other."""
    mat = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(len(pivots), len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        r = len(pivots)
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(v)
    return free, basis


class TestNullspace:
    def test_identity(self):
        dim, basis = nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert dim == 0 and basis == []

    def test_zero_matrix(self):
        dim, basis = nullspace([[0] * 5, [0] * 5], ncols=5)
        assert dim == 5

    def test_rank_one(self):
        row = [Fraction(1), Fraction(2), Fraction(-1)]
        dim, basis = nullspace([row, row, row])
        assert dim == 2
        for b in basis:
            assert sum(r * v for r, v in zip(row, b)) == 0

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                    min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_basis_annihilated_and_dimension(self, rows):
        dim, basis = nullspace(rows, ncols=4)
        assert dim == len(basis)
        for b in basis:
            for r in rows:
                assert sum(Fraction(x) * v for x, v in zip(r, b)) == 0
        # rank + nullity: independent cross-check via plain elimination
        mat = [[Fraction(v) for v in r] for r in rows]
        rank = 0
        for c in range(4):
            piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            for i in range(len(mat)):
                if i != rank and mat[i][c]:
                    f = mat[i][c] / mat[rank][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
            rank += 1
        assert dim == 4 - rank

    @given(sparse_matrices())
    @settings(max_examples=150)
    def test_matches_dense_reference(self, matrix):
        rows, ncols = matrix
        dim, basis = nullspace(rows, ncols=ncols)
        free, reference = dense_nullspace(rows, ncols)
        assert dim == len(free)
        assert basis == reference
        for k, b in enumerate(basis):
            assert [b[c] for c in free] == [int(j == k) for j in range(dim)]
            for r in rows:
                assert sum(Fraction(x) * v for x, v in zip(r, b)) == 0

    @given(sparse_matrices())
    @settings(max_examples=100)
    def test_sparse_rows_match_dense(self, matrix):
        rows, ncols = matrix
        sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
        assert nullspace(sparse, ncols=ncols) == nullspace(rows, ncols=ncols)

    def test_sparse_row_outside_the_matrix(self):
        with pytest.raises(ValueError):
            nullspace([{0: 1, 3: 2}], ncols=3)

    def test_no_rows(self):
        dim, basis = nullspace([], ncols=3)
        assert dim == 3
        assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_solve_exact_inconsistent(self):
        assert solve_exact([[1, 1], [1, 1]], [1, 2]) is None

    def test_solve_exact_solution(self):
        x = solve_exact([[2, 0], [0, 4]], [1, 1])
        assert x == [Fraction(1, 2), Fraction(1, 4)]

    def test_solve_exact_ragged(self):
        with pytest.raises(ValueError):
            solve_exact([[1, 2], [3]], [1, 2])
        with pytest.raises(ValueError):
            solve_exact([[1, 2], [3, 4]], [1])

    @given(sparse_matrices(), st.data())
    @settings(max_examples=150)
    def test_solve_exact_matches_dense_reference(self, matrix, data):
        rows, ncols = matrix
        assume(rows)  # without rows, solve_exact cannot know ncols
        rhs = draw_rhs(data, rows, ncols)
        assert_solves(rows, ncols, rhs, solve_exact(rows, rhs))

    @given(sparse_matrices(), st.data())
    @settings(max_examples=150)
    def test_solve_columns_matches_dense_reference(self, matrix, data):
        rows, ncols = matrix
        assume(rows)
        rhss = [draw_rhs(data, rows, ncols)
                for _ in range(data.draw(st.integers(min_value=1, max_value=4)))]
        # a zero right-hand side, and a repeat of an earlier one (which is
        # often outside the column space)
        rhss.insert(data.draw(st.integers(0, len(rhss))), [0] * len(rows))
        rhss.append(list(data.draw(st.sampled_from(rhss))))
        for rhs, x in zip(rhss, _solve_columns(rows, rhss), strict=True):
            assert_solves(rows, ncols, rhs, x)

    def test_solve_columns_repeated_inconsistent(self):
        # b_2 = b_1 outside the column space: column k+2 of [A | -b_1 -b_2]
        # is not a pivot, and b_2 is still inconsistent
        rows = [[1, 0], [0, 0], [2, 0]]
        b1, b_ok = [0, 1, 0], [3, 0, 6]
        assert _solve_columns(rows, [b1, list(b1), [0, 0, 0], b_ok]) == [
            None, None, [0, 0], [3, 0]]
        assert _solve_columns(rows, []) == []


def draw_rhs(data, rows, ncols):
    """A right-hand side for `rows`: in the column space or arbitrary."""
    if data.draw(st.booleans()):  # b in the column space
        y = data.draw(st.lists(rationals, min_size=ncols, max_size=ncols))
        return [sum(Fraction(a) * v for a, v in zip(r, y)) for r in rows]
    return data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))


def assert_solves(rows, ncols, rhs, x):
    """x is the solution with free columns 0 from the dense reference, or
    None exactly when rhs is outside the column space."""
    # b is in the column space iff the column of -b is free in [A | -b];
    # that free column's basis vector is (x, 1) with x's free columns 0
    free, basis = dense_nullspace([[*r, -b] for r, b in zip(rows, rhs)], ncols + 1)
    if ncols not in free:
        assert x is None
        return
    assert x == basis[free.index(ncols)][:ncols]
    assert all(x[c] == 0 for c in free if c < ncols)
    for r, b in zip(rows, rhs):
        assert sum(Fraction(a) * v for a, v in zip(r, x)) == b


class TestDivideExact:
    def test_scalar_multiple(self):
        assert divide_exact(2 * MA2, MA2) == Poly.const(2)

    def test_zero_dividend(self):
        assert divide_exact(Poly.zero(), MA2) == Poly.zero()

    def test_no_divisor(self):
        assert divide_exact(MA2 + 1, MA2) is None

    def test_zero_divisor(self):
        with pytest.raises(DivisorZeroError):
            divide_exact(MA2, Poly.zero())

    @given(polys, polys)
    @settings(max_examples=60)
    def test_product_roundtrip(self, p, q):
        if q.is_zero:
            return
        mu = divide_exact(p * q, q)
        assert mu is not None
        assert mu * q == p * q
        assert mu == p

    @given(polys, polys)
    @settings(max_examples=60)
    def test_any_result_remultiplies(self, p, q):
        if q.is_zero:
            return
        mu = divide_exact(p, q)
        if mu is not None:
            assert mu * q == p


def test_poly_str_deterministic():
    p = u11 * u22 - u12 ** 2 - 1
    assert poly_str(p) == poly_str(Poly.from_terms(p.term_pairs()))
    assert poly_str(Poly.zero()) == "0"
