import itertools
from fractions import Fraction

import pytest

from liejet.algebra import (
    DEP,
    KIND_JET,
    Poly,
    THETA,
    coord,
    jet,
    mono_pairs,
    sym_adjugate,
    sym_det,
)
from liejet.equations import (
    PdeSystem,
    SamplingExhaustedError,
    _contraction_v,
    _contraction_z,
    _fourth_order_contraction,
    build_affine_maximal,
    build_monge_ampere,
    hessian_matrix,
    leading_minors_positive,
    sample_on_variety,
    solve_top_value,
)
from conftest import leibniz_hessian_det


def uj(*idx):
    return Poly.variable(jet(*idx))


class TestMongeAmpereBuilder:
    def test_n1(self):
        sys = build_monge_ampere(1)
        assert sys.F == uj(1, 1) - 1
        assert sys.order == 2 and sys.top_var == jet(1, 1)

    def test_n2(self):
        assert build_monge_ampere(2).F == \
            uj(1, 1) * uj(2, 2) - uj(1, 2) ** 2 - 1

    def test_n3_against_leibniz_oracle(self):
        sys = build_monge_ampere(3)
        assert sys.F == leibniz_hessian_det(3) - 1
        assert sys.F.max_jet_order() == 2


class TestAffineMaximalBuilder:
    def test_n1_symbolic(self):
        sys = build_affine_maximal(1)
        th = Poly.variable(THETA)
        assert sys.F == th * uj(1, 1, 1) ** 2 - uj(1, 1) * uj(1, 1, 1, 1) \
            + uj(1, 1, 1) ** 2
        assert sys.order == 4 and sys.top_var == jet(1, 1, 1, 1)

    def test_top_coefficient_at_identity_hessian(self):
        sys = build_affine_maximal(2)
        c = sys.F.diff(jet(1, 1, 1, 1))
        at_identity = c.substitute_atoms({
            jet(1, 1): Poly.const(1),
            jet(1, 2): Poly.const(0),
            jet(2, 2): Poly.const(1),
        })
        assert at_identity == Poly.const(-1)

    def test_quadratic_jets_solve(self):
        # every term carries a third- or fourth-order jet variable
        sys = build_affine_maximal(2)
        for m in sys.F.terms:
            assert any(a[0] == KIND_JET and len(a[1]) >= 3
                       for a, _ in mono_pairs(m))

    def test_pinned_theta(self):
        sys = build_affine_maximal(2, Fraction(3, 4))
        assert not sys.theta_symbolic
        with pytest.raises(ValueError):
            build_affine_maximal(2, Fraction(-1, 2))

    def test_theta_linearity(self):
        sys = build_affine_maximal(2)
        assert sys.F.diff(THETA) == _contraction_v(sym_adjugate(hessian_matrix(2)))
        assert sys.F.diff(THETA).diff(THETA).is_zero


def full_index_v(U):
    # U^{ij} w_i w_j, w_i = U^{ab} u_{abi}, over every index tuple
    rng = range(len(U))
    w = [sum((U[a][b] * uj(a + 1, b + 1, c + 1) for a in rng for b in rng),
             Poly.zero()) for c in rng]
    return sum((U[i][j] * w[i] * w[j] for i in rng for j in rng), Poly.zero())


def full_index_z(U):
    # u_{abc} U^{ai} U^{bj} U^{ck} u_{ijk}, over every index tuple
    rng = range(len(U))
    out = Poly.zero()
    for a, b, c in itertools.product(rng, repeat=3):
        raised = sum((U[a][i] * U[b][j] * U[c][k] * uj(i + 1, j + 1, k + 1)
                      for i, j, k in itertools.product(rng, repeat=3)),
                     Poly.zero())
        out = out + uj(a + 1, b + 1, c + 1) * raised
    return out


class TestNamedContractions:
    """The det^3-cleared contractions v and z, each given the cofactor
    matrix U of the jet Hessian."""

    def test_n1_specialization(self):
        U = sym_adjugate(hessian_matrix(1))
        assert _contraction_v(U) == uj(1, 1, 1) ** 2
        assert _contraction_z(U) == uj(1, 1, 1) ** 2

    @pytest.mark.parametrize("n", [1, 2])
    def test_recomposition(self, n):
        sys = build_affine_maximal(n)
        th = Poly.variable(THETA)
        H = hessian_matrix(n)
        U = sym_adjugate(H)
        composed = (th * _contraction_v(U)
                    - sym_det(H) * _fourth_order_contraction(U)
                    + _contraction_z(U))
        assert composed == sys.F

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sorted_index_sums_match_full_index_sums(self, n):
        # the builders sum over sorted index classes, weighted by their
        # orderings; the references sum over every index tuple
        U = sym_adjugate(hessian_matrix(n))
        assert _contraction_v(U).terms == full_index_v(U).terms
        assert _contraction_z(U).terms == full_index_z(U).terms

    def test_quadratic_jet_annihilates(self):
        v = _contraction_v(sym_adjugate(hessian_matrix(2)))
        env = {}
        for i in range(1, 3):
            for j in range(i, 3):
                env[jet(i, j)] = Fraction(1 if i == j else 0)
        for J in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]:
            env[jet(*J)] = Fraction(0)
        assert v.evaluate(env) == 0


class TestSolveTop:
    def test_ma_forced_point(self):
        sys = build_monge_ampere(2)
        env = {jet(1, 1): Fraction(2), jet(1, 2): Fraction(0)}
        assert solve_top_value(sys, env) == Fraction(1, 2)

    def test_am_reduced_point(self):
        sys = build_affine_maximal(2, Fraction(3, 4))
        env = {DEP: Fraction(0)}
        for i in (1, 2):
            env[coord(i)] = Fraction(0)
            env[jet(i)] = Fraction(0)
        env[jet(1, 1)] = env[jet(2, 2)] = Fraction(1)
        env[jet(1, 2)] = Fraction(0)
        for J in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]:
            env[jet(*J)] = Fraction(0)
        env[jet(1, 1, 1, 2)] = env[jet(1, 2, 2, 2)] = Fraction(0)
        env[jet(1, 1, 2, 2)] = Fraction(1)
        env[jet(2, 2, 2, 2)] = Fraction(3)
        # F reduces to -(u1111 + 2 u1122 + u2222) at the identity Hessian
        assert solve_top_value(sys, env) == Fraction(-5)

    @pytest.mark.parametrize("sys", [build_monge_ampere(3),
                                     build_affine_maximal(2),
                                     build_affine_maximal(2, Fraction(3, 4))])
    def test_top_split_recomposes_F(self, sys):
        a, b = sys.top_split
        assert sys.top_var not in a.atoms() | b.atoms()
        assert a * Poly.variable(sys.top_var) + b == sys.F

    def test_degenerate_coefficient_returns_none(self):
        sys = build_monge_ampere(2)
        env = {jet(1, 1): Fraction(0), jet(1, 2): Fraction(0)}
        assert solve_top_value(sys, env) is None


class TestSampling:
    @pytest.mark.parametrize("make,n", [
        (lambda: build_monge_ampere(2), 2),
        (lambda: build_monge_ampere(3), 3),
        (lambda: build_affine_maximal(2, Fraction(3, 4)), 2),
    ])
    def test_points_on_variety_and_convex(self, make, n):
        sys = make()
        pts = sample_on_variety(sys, 42, 20)
        assert len(pts) == 20
        for p in pts:
            assert sys.F.evaluate(p) == 0
            assert leading_minors_positive(
                [[h.evaluate(p) for h in row] for row in hessian_matrix(n)])

    def test_env_covers_all_jets(self):
        sys = build_affine_maximal(2, Fraction(1, 2))
        pt = sample_on_variety(sys, 1, 1)[0]
        from liejet.jets import multi_indices
        for r in range(1, 5):
            for J in multi_indices(2, r):
                assert jet(*J) in pt
        assert DEP in pt and coord(1) in pt and coord(2) in pt

    def test_symbolic_theta_sampled_positive(self):
        sys = build_affine_maximal(2)
        pts = sample_on_variety(sys, 3, 5)
        for p in pts:
            assert p[THETA] > 0
            assert sys.F.evaluate(p) == 0

    def test_trace_identity_on_variety(self):
        # the fourth-order contraction equals theta*v + z once F = 0,
        # after clearing by the determinant powers
        sys = build_affine_maximal(2, Fraction(3, 4))
        H = hessian_matrix(2)
        U = sym_adjugate(H)
        lhs = sym_det(H) * _fourth_order_contraction(U)
        rhs = Fraction(3, 4) * _contraction_v(U) + _contraction_z(U)
        for p in sample_on_variety(sys, 11, 10):
            assert lhs.evaluate(p) == rhs.evaluate(p)

    def test_deterministic_per_seed(self):
        sys = build_monge_ampere(2)
        a = sample_on_variety(sys, 7, 4)
        b = sample_on_variety(sys, 7, 4)
        assert a == b
        c = sample_on_variety(sys, 8, 4)
        assert any(x != y for x, y in zip(a, c))

    def test_exhaustion(self):
        # a system whose top variable never occurs: unsolvable, budget hit
        F = uj(1, 1) * uj(2, 2) - uj(1, 2) ** 2 - 1
        sys = PdeSystem(n=2, F=F, top_var=jet(1))
        with pytest.raises(SamplingExhaustedError):
            sample_on_variety(sys, 0, 1)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_on_variety(build_monge_ampere(2), 0, 0)


class TestPdeSystemInvariants:
    def test_keeps_only_what_F_does_not_determine(self):
        assert PdeSystem._fields == ("n", "F", "top_var")
        F = uj(1, 1, 1, 1) * uj(1) + uj(1, 1) - 1
        assert PdeSystem(n=1, F=F, top_var=jet(1, 1, 1, 1)).order == 4

    def test_top_var_must_be_affine(self):
        F = uj(1, 1) ** 2 - 1
        with pytest.raises(ValueError):
            PdeSystem(n=1, F=F, top_var=jet(1, 1))

    def test_no_unknown_function_symbols(self):
        from liejet.algebra import func_partial
        F = Poly.variable(func_partial(0)) * uj(1, 1)
        with pytest.raises(ValueError):
            PdeSystem(n=1, F=F, top_var=jet(1, 1))
