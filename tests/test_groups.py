import math
from fractions import Fraction

import pytest

from liejet.algebra import DEP, Poly, coord, jet
from liejet.equations import build_affine_maximal, build_monge_ampere
from liejet.groups import (
    BadParamsError,
    DetNotOneError,
    GroupElement,
    NotInvertibleHereError,
    PNotAllowedError,
    SingularError,
    SolutionSample,
    act,
    fd_derivative,
    fd_jet_values,
    make_am_element,
    make_ma_element,
    polynomial_sample,
    residual,
    residual_polynomial,
    solution_family,
    transport_local,
)
from liejet.jets import VectorField, multi_indices

x1 = Poly.variable(coord(1))
x2 = Poly.variable(coord(2))
ONE = Poly.const(1)
ZERO = Poly.zero()
I2 = [[1, 0], [0, 1]]

# The nilpotent fields of the MA basis at N=2: the matrix M of each on
# (x, u, 1) has M^2 = 0, so I + eps M is its exact flow.  Each field comes
# with the parameters of that flow, as a function of eps.
NILPOTENT_FLOWS = {
    "x1-translation": (VectorField(2, (ONE, ZERO), ZERO), lambda e: {"r": [e, 0]}),
    "x2-translation": (VectorField(2, (ZERO, ONE), ZERO), lambda e: {"r": [0, e]}),
    "u-shift": (VectorField(2, (ZERO, ZERO), ONE), lambda e: {"d": e}),
    "x1-gauge": (VectorField(2, (ZERO, ZERO), x1), lambda e: {"dvec": [e, 0]}),
    "x2-gauge": (VectorField(2, (ZERO, ZERO), x2), lambda e: {"dvec": [0, e]}),
    "shear": (VectorField(2, (x2, ZERO), ZERO), lambda e: {"q": [[1, e], [0, 1]]}),
}


def _flow(q=I2, dvec=(0, 0), r=(0, 0), d=0):
    return make_am_element(q, [0, 0], dvec, 1, r, d)


@pytest.fixture(scope="module")
def ma2():
    return build_monge_ampere(2)


@pytest.fixture(scope="module")
def am1_half():
    return build_affine_maximal(1, Fraction(1, 2))


@pytest.fixture(scope="module")
def paraboloid():
    return solution_family("quadratic", {"M": I2})


class TestElements:
    def test_ma_blocks(self):
        g = make_ma_element(2, [[Fraction(1, 3), 0], [0, 3]], [1, 0], [0, 1], 5)
        assert g.c == 4 and g.p == (0, 0)
        assert g.q[0][0] == Fraction(2, 3) and g.q[1][1] == 6

    def test_det_not_one(self):
        with pytest.raises(DetNotOneError):
            make_ma_element(1, [[2, 0], [0, 1]], [0, 0], [0, 0], 0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            make_ma_element(-1, I2, [0, 0], [0, 0], 0)

    def test_p_not_allowed_generic(self):
        with pytest.raises(PNotAllowedError):
            make_am_element(I2, [1, 0], [0, 0], 1, [0, 0], 0)

    def test_p_allowed_special(self):
        g = make_am_element(I2, [Fraction(1, 2), 0], [0, 0], 1, [0, 0], 0,
                            regime="am-special")
        assert g.local

    def test_local_follows_p(self, paraboloid):
        # built directly, without make_am_element's regime check
        shear = GroupElement(n=2, q=((1, 0), (0, 1)), p=(Fraction(1, 10), 0),
                             dvec=(0, 0), c=Fraction(1), r=(0, 0),
                             d=Fraction(0))
        assert shear.local
        assert not make_ma_element(1, I2, [0, 0], [0, 0], 0).local
        fam = solution_family("am1d", {"theta": Fraction(1, 2), "a": 1, "b": 1})
        shear1 = make_am_element([[1]], [Fraction(1, 10)], [0], 1, [0], 0,
                                 regime="am-special")
        # act refuses a local element whatever the sample kind
        for g, s in ((shear, paraboloid), (shear1, fam)):
            with pytest.raises(ValueError, match="local element"):
                act(g, s)

    def test_singular_rejected(self):
        with pytest.raises(SingularError):
            make_am_element([[1, 0], [1, 0]], [0, 0], [0, 0], 0, [0, 0], 0)


class TestActOnQuadratics:
    def test_gauge_shift(self, ma2, paraboloid):
        g = make_ma_element(1, I2, [0, 0], [0, 0], Fraction(3, 2))
        s = act(g, paraboloid)
        assert s.poly == paraboloid.poly + Fraction(3, 2)
        assert residual_polynomial(s, ma2).is_zero

    def test_x_shear_on_u(self, ma2, paraboloid):
        g = make_ma_element(1, I2, [0, 0], [2, 0], 0)
        s = act(g, paraboloid)
        assert residual_polynomial(s, ma2).is_zero

    def test_scale_with_compensating_c(self, ma2, paraboloid):
        # x -> 2 Abar x with det(Abar)=1, u -> 4u keeps the determinant
        g = make_ma_element(2, [[Fraction(1, 3), 0], [0, 3]], [0, 0], [0, 0], 0)
        s = act(g, paraboloid)
        assert residual_polynomial(s, ma2).is_zero

    def test_sl_shear(self, ma2, paraboloid):
        g = make_ma_element(1, [[1, 1], [0, 1]], [0, 0], [0, 0], 0)
        s = act(g, paraboloid)
        assert residual_polynomial(s, ma2).is_zero

    def test_translation_explicit_form(self, ma2, paraboloid):
        g = make_ma_element(1, I2, [3, -1], [0, 0], 0)
        s = act(g, paraboloid)
        env = {coord(1): Fraction(3), coord(2): Fraction(-1)}
        assert s.poly.evaluate(env) == 0  # new center maps to old origin
        assert residual_polynomial(s, ma2).is_zero

    @pytest.mark.parametrize("field, flow", NILPOTENT_FLOWS.values(),
                             ids=list(NILPOTENT_FLOWS))
    def test_nilpotent_flow_derivative_is_the_characteristic(
            self, paraboloid, field, flow):
        """The paraboloid moved by I + eps M is quadratic in eps, so the
        central difference at a finite rational eps is its exact derivative
        at eps = 0: the characteristic phi - xi . grad s, as a polynomial."""
        eps = Fraction(1, 7)
        plus, minus = _flow(**flow(eps)), _flow(**flow(-eps))
        s = paraboloid.poly
        # (I + eps M)(I - eps M) = I - eps^2 M^2 = I
        assert act(minus, act(plus, paraboloid)).poly == s
        on_s = {DEP: s}
        want = field.phi.substitute_atoms(on_s) - sum(
            (field.xi[i].substitute_atoms(on_s) * s.diff(coord(i + 1))
             for i in range(2)), ZERO)
        got = (act(plus, paraboloid).poly
               - act(minus, paraboloid).poly) * (1 / (2 * eps))
        assert got == want


class TestSolutionFamilies:
    def test_quadratic_needs_spd(self):
        with pytest.raises(BadParamsError):
            solution_family("quadratic", {"M": [[-1, 0], [0, 1]]})
        with pytest.raises(BadParamsError):
            solution_family("quadratic", {"M": [[1, 2], [0, 1]]})

    def test_quadratic_solves_both(self, ma2):
        s = solution_family("quadratic", {"M": I2, "l": [1, -2], "c": 3})
        assert residual_polynomial(s, ma2).is_zero
        am = build_affine_maximal(2, Fraction(3, 4))
        assert residual_polynomial(s, am).is_zero

    def test_gradient_is_the_exact_partials(self):
        s = solution_family("quadratic", {"M": [[2, 1], [1, 3]], "l": [1, -2]})
        x = [0.3, -1.7]
        env = {coord(1): x[0], coord(2): x[1]}
        want = [s.poly.diff(coord(i)).evaluate_float(env) for i in (1, 2)]
        assert s.gradient(x) == want
        assert s.gradient(x) == want  # second call reuses the partials

    def test_ma_needs_unit_determinant(self, ma2):
        s = solution_family("quadratic", {"M": [[2, 0], [0, 1]]})
        r = residual_polynomial(s, ma2)
        assert r == Poly.const(1)  # det 2 - 1

    def test_am1d_closed_form(self, am1_half):
        s = solution_family("am1d", {"theta": Fraction(1, 2), "a": 1, "b": 1})
        # u'' = (1+x)^-2, so w = (u'')^(-1/2) = 1 + x is affine
        assert abs(s([0.0]) - 0.0) < 1e-15
        vals = residual(s, am1_half, [[0.0], [0.2], [0.4]])
        assert max(abs(v) for v in vals) < 1e-8

    def test_am1d_other_exponents(self):
        for theta in (Fraction(1), Fraction(1, 3)):
            sysx = build_affine_maximal(1, theta)
            s = solution_family("am1d", {"theta": theta, "a": 2, "b": -1})
            vals = residual(s, sysx, [[0.0], [0.4], [-0.5]])
            assert max(abs(v) for v in vals) < 1e-8

    def test_am1d_bad_params(self):
        with pytest.raises(BadParamsError):
            solution_family("am1d", {"theta": Fraction(1, 2), "a": -1, "b": 1})
        with pytest.raises(BadParamsError):
            solution_family("am1d", {"theta": Fraction(2, 5), "a": 1, "b": 1})
        with pytest.raises(BadParamsError):
            solution_family("am1d", {"theta": Fraction(1, 2), "a": 1, "b": 0})
        with pytest.raises(BadParamsError, match="missing: b$"):
            solution_family("am1d", {"theta": Fraction(1, 2), "a": 1})
        with pytest.raises(BadParamsError, match="missing: theta, a$"):
            solution_family("am1d", {"b": 1})
        with pytest.raises(BadParamsError, match="unknown am1d parameter.*zz"):
            solution_family("am1d", {"theta": Fraction(1, 2), "a": 1, "b": 1,
                                     "zz": 3})


class TestResiduals:
    def test_exact_zero_for_unit_hessians(self, ma2):
        s = solution_family("quadratic", {"M": [[2, 0], [0, Fraction(1, 2)]]})
        assert residual_polynomial(s, ma2).is_zero
        vals = residual(s, ma2, [[Fraction(1, 3), Fraction(-2, 5)]])
        assert vals == [0]

    def test_quartic_fails_am1d(self, am1_half):
        s = polynomial_sample(1, Poly.variable(coord(1)) ** 4)
        vals = residual(s, am1_half, [[1]])
        assert abs(vals[0]) > Fraction(1, 1000)

    def test_symbolic_theta_rejected(self, paraboloid):
        with pytest.raises(ValueError):
            residual_polynomial(paraboloid, build_affine_maximal(2))


class TestTransportedSolutions:
    def test_am_scaling_preserves_family(self, am1_half):
        fam = solution_family("am1d", {"theta": Fraction(1, 2), "a": 1, "b": 1})
        g = make_am_element([[2]], [0], [Fraction(1, 3)], 3, [Fraction(1, 5)], 2)
        moved = act(g, fam)
        vals = residual(moved, am1_half, [[0.0], [0.3], [0.6]])
        assert max(abs(v) for v in vals) < 1e-8


class TestExactLocalTransport:
    SHEAR = make_am_element(I2, [Fraction(1, 10), 0], [0, 0], 1, [0, 0], 0,
                            regime="am-special")

    def _fd_residual_of_shear(self, theta):
        """The exact residual of the shear x1 -> x1 + u/10 on
        u = x1^2/2 + x2^2 at a source point, and an independent float
        oracle: the finite-difference residual at the image point of the
        transported function, written in closed form.  Solving
        x~1 = x1 + u(x1, x~2)/10 for x1 gives
        x1 = 10 (-1 + sqrt(1 - (x~2^2/10 - x~1)/5))."""
        def fn(xt):
            y1 = 10 * (-1 + math.sqrt(1 - (xt[1] ** 2 / 10 - xt[0]) / 5))
            return y1 ** 2 / 2 + xt[1] ** 2

        # defined for x~1 > x~2^2/10 - 5: radius 1 keeps the stencils inside
        moved = SolutionSample(n=2, kind="callable", fn=fn, center=(0.0, 0.0),
                               radius=1.0)
        s = solution_family("quadratic", {"M": [[1, 0], [0, 2]]})
        am = build_affine_maximal(2, theta)
        point, value = transport_local(self.SHEAR, s, am).at(
            [Fraction(1, 20), Fraction(-1, 30)])
        [fd] = residual(moved, am, [point])
        return value, fd

    def test_agrees_with_finite_differences(self):
        value, fd = self._fd_residual_of_shear(1)
        assert value != 0
        assert abs(fd - float(value)) < 1e-8 * abs(float(value))

    def test_zero_at_the_special_theta_agrees_with_finite_differences(self):
        value, fd = self._fd_residual_of_shear(Fraction(3, 4))
        assert value == 0
        assert abs(fd) < 1e-8

    def test_p_zero_agrees_with_the_global_action(self):
        s = polynomial_sample(2, x1 ** 4 + x1 * Poly.variable(coord(2)) ** 2)
        g = make_am_element([[2, 1], [0, Fraction(1, 2)]], [0, 0], [1, -1], 3,
                            [Fraction(1, 3), 2], 5)
        am = build_affine_maximal(2, Fraction(3, 4))
        tr = transport_local(g, s, am)
        x0 = [Fraction(1, 7), Fraction(-2, 9)]
        point, value = tr.at(x0)
        assert residual(act(g, s), am, [point]) == [value] != [0]

    def test_degenerate_point_map(self, paraboloid):
        # delta = x1: singular at the center
        g = make_am_element([[0, 0], [0, 1]], [1, 0], [1, 0], 0, [0, 0], 0,
                            regime="am-special")
        with pytest.raises(NotInvertibleHereError):
            transport_local(g, paraboloid, build_affine_maximal(2, 1))
        # delta = 1 - x1/2: singular at the source point x1 = 2
        g = make_am_element(I2, [Fraction(-1, 2), 0], [0, 0], 1, [0, 0], 0,
                            regime="am-special")
        tr = transport_local(g, paraboloid, build_affine_maximal(2, 1))
        with pytest.raises(NotInvertibleHereError):
            tr.at([2, 0])

    def test_needs_a_polynomial_sample(self):
        fam = solution_family("am1d", {"theta": Fraction(1, 2), "a": 1, "b": 1})
        g = make_am_element([[2]], [Fraction(1, 10)], [0], 1, [0], 0,
                            regime="am-special")
        with pytest.raises(ValueError):
            transport_local(g, fam, build_affine_maximal(1, Fraction(1, 2)))


class TestFiniteDifferences:
    def test_polynomial_derivatives_recovered(self):
        s = polynomial_sample(2, x1 ** 2 * Poly.variable(coord(2)))
        env = fd_jet_values(s, [0.3, -0.2], 3)
        assert abs(env[jet(1, 1)] - 2 * (-0.2)) < 1e-10
        assert abs(env[jet(1, 1, 2)] - 2.0) < 1e-9
        assert abs(env[jet(2, 2)]) < 1e-10

    def test_jet_values_evaluate_each_point_once(self):
        calls = []

        def fn(y):
            calls.append(tuple(y))
            return math.exp(0.3 * y[0]) * math.cos(y[1]) + y[0] ** 3 * y[1]

        s = SolutionSample(n=2, kind="callable", fn=fn, center=(0.0, 0.0))
        x = [0.1, -0.2]
        env = fd_jet_values(s, x, 4)
        assert len(calls) == len(set(calls))
        # the memo changes no value: each entry equals the derivative taken
        # on the raw callable with the same h ladder
        assert env[DEP] == fn(x)
        for r in range(1, 5):
            for J in multi_indices(2, r):
                assert env[jet(*J)] == fd_derivative(fn, x, J, 0.32)[0]

    def test_log_fourth_derivative(self):
        fn = lambda x: math.log(1 + x[0])
        val, est = fd_derivative(fn, [0.0], (1, 1, 1, 1), h0=0.12)
        assert abs(val - (-6.0)) < 1e-8
        assert est < 1e-6
