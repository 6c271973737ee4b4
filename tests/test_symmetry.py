import itertools
import os
import subprocess
from fractions import Fraction
from pathlib import Path
from sys import executable

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liejet.algebra import (
    DEP,
    ExponentOverflowError,
    KIND_FUNC,
    Poly,
    coord,
    divide_exact,
    exact_quotient,
    func_partial,
    integer_primitive,
    jet,
    mono_pairs,
    tuple_order,
)
from liejet.equations import (
    PdeSystem,
    build_affine_maximal,
    build_monge_ampere,
    eliminate_top,
    sample_point,
    top_weights,
)
from liejet.jets import SymbolicVectorField, VectorField, apply_prolonged
from liejet.symmetry import (
    ExplicitVariableError,
    GeneratorBasis,
    _add_products,
    _linear_system,
    _shards,
    _span_solutions,
    NotClosedError,
    affine_maximal_basis,
    ansatz_dimension,
    closure_check,
    degree_certified,
    expected_dimension,
    extract_determining,
    infinitesimal_check,
    lie_bracket,
    monge_ampere_basis,
    mutual_span,
    satisfies_determining,
    taylor_rows,
)

x1 = Poly.variable(coord(1))
x2 = Poly.variable(coord(2))
u = Poly.variable(DEP)
ZERO = Poly.zero()
ONE = Poly.const(1)


def vf(n, xi, phi=ZERO):
    return VectorField(n, tuple(xi), phi)


@pytest.fixture(scope="module")
def ma2():
    return build_monge_ampere(2)


@pytest.fixture(scope="module")
def am2_theta1():
    return build_affine_maximal(2, 1)


@pytest.fixture(scope="module")
def am2_special():
    return build_affine_maximal(2, Fraction(3, 4))


class TestInfinitesimalCheck:
    def test_gauge_shift_identical(self, ma2):
        rep = infinitesimal_check(ma2, vf(2, [ZERO, ZERO], ONE), trials=3)
        assert rep.verdict == "identically-zero"
        assert rep.passed

    def test_weighted_dilation_identical(self, ma2):
        v = vf(2, [2 * x1, ZERO], 2 * u)
        rep = infinitesimal_check(ma2, v, trials=3)
        assert rep.verdict == "identically-zero"

    def test_graph_shear_fails_at_generic_theta(self, am2_theta1):
        v = vf(2, [u, ZERO])
        rep = infinitesimal_check(am2_theta1, v, trials=10)
        assert rep.verdict == "fails"
        assert rep.residual is not None and rep.residual != 0
        assert rep.witness is not None
        # the witness is an exact disproof: re-evaluate independently
        from liejet.jets import apply_prolonged
        R = apply_prolonged(v, am2_theta1.F, 4)
        assert R.evaluate(rep.witness) == rep.residual

    def test_graph_shear_passes_at_special_theta(self, am2_special):
        v = vf(2, [u, ZERO])
        rep = infinitesimal_check(am2_special, v, trials=10)
        assert rep.passed
        assert rep.verdict in ("identically-zero", "multiplier-found",
                               "zero-on-variety")

    def test_multiplier_is_exact(self, am2_special):
        from liejet.jets import apply_prolonged
        v = vf(2, [u, ZERO])
        rep = infinitesimal_check(am2_special, v, trials=3)
        if rep.multiplier is not None:
            R = apply_prolonged(v, am2_special.F, 4)
            assert rep.multiplier * am2_special.F == R

    def test_multiplier_of_the_integer_forms(self):
        # theta = 4/5 gives F rational coefficients; divide_exact divides
        # the integer forms and scales back, so the multiplier is the
        # rational quotient of R by F itself
        sys = build_affine_maximal(2, Fraction(4, 5))
        found = 0
        for v in affine_maximal_basis(2).fields:
            rep = infinitesimal_check(sys, v, trials=1)
            if rep.verdict == "multiplier-found":
                found += 1
                R = apply_prolonged(v, sys.F, 4)
                assert rep.multiplier.terms == divide_exact(R, sys.F).terms
                assert rep.multiplier * sys.F == R
        assert found

    def test_trials_validation(self, ma2):
        with pytest.raises(ValueError):
            infinitesimal_check(ma2, vf(2, [ZERO, ZERO], ONE), trials=0)

    def test_sampled_zero_is_not_accepted(self, ma2):
        # u -> u + eps*x1*x2 leaves R = -2*u12, which vanishes at sample 0 of
        # the first seed whose u12 is 0: elimination still refuses the field
        seed = next(s for s in range(300)
                    if sample_point(ma2, s, 0)[jet(1, 2)] == 0)
        rep = infinitesimal_check(ma2, vf(2, [ZERO, ZERO], x1 * x2),
                                  trials=1, seed=seed)
        assert rep.verdict == "fails"
        assert rep.passed is False
        assert rep.witness is None and rep.residual is None
        assert rep.samples == 1


def eliminated(sys, v):
    R = apply_prolonged(v, sys.F, sys.order)
    return R, eliminate_top(R, *sys.top_split, sys.top_var)


class TestElimination:
    def test_certifies_what_division_does_not(self):
        # F = (det - 1)*x1: the x1-translation leaves R = det - 1, which is
        # no polynomial multiple of F but vanishes where F = 0 and x1 != 0
        det = (Poly.variable(jet(1, 1)) * Poly.variable(jet(2, 2))
               - Poly.variable(jet(1, 2)) ** 2)
        sys = PdeSystem(n=2, F=(det - 1) * x1, top_var=jet(2, 2))
        v = vf(2, [ONE, ZERO])
        R, cleared = eliminated(sys, v)
        assert divide_exact(R, sys.F) is None
        assert cleared.is_zero
        assert infinitesimal_check(sys, v, trials=3).verdict == \
            "zero-on-variety"

    def test_agrees_with_every_multiplier(self, ma2, am2_special):
        # tier 2 implies tier 3: R = mu*F vanishes wherever F does
        found = 0
        for sys, basis in ((ma2, monge_ampere_basis(2)),
                           (am2_special, affine_maximal_basis(2, special=True))):
            for v in basis.fields:
                if infinitesimal_check(sys, v, trials=1).verdict == \
                        "multiplier-found":
                    found += 1
                    assert eliminated(sys, v)[1].is_zero
        assert found


class TestGeneratorBases:
    @pytest.mark.parametrize("n", [2, 3])
    def test_ma_basis_annihilates_identically(self, n):
        sys = build_monge_ampere(n)
        basis = monge_ampere_basis(n)
        assert len(basis.fields) == (n + 1) ** 2
        reports = [infinitesimal_check(sys, v, trials=2)
                   for v in basis.fields]
        assert all(r.verdict == "identically-zero" for r in reports)

    def test_ma_basis_refuses_n1(self):
        # u'' = 1 has the 8-dimensional sl(3), not (n+1)^2 = 4 generators
        with pytest.raises(ValueError, match="N >= 2"):
            monge_ampere_basis(1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_am_symbolic_theta_basis_passes(self, n):
        sys = build_affine_maximal(n)  # theta symbolic
        basis = affine_maximal_basis(n, special=False)
        reports = [infinitesimal_check(sys, v, trials=5)
                   for v in basis.fields]
        assert all(r.passed for r in reports)

    def test_am_special_basis_n1(self):
        sys = build_affine_maximal(1, Fraction(2, 3))
        basis = affine_maximal_basis(1, special=True)
        reports = [infinitesimal_check(sys, v, trials=5)
                   for v in basis.fields]
        assert all(r.passed for r in reports)

    def test_am_special_basis_n3(self):
        # the special parameter value at N=3 is 4/5; the nearby 5/6 (the
        # N=4 value) must reject the graph shears
        sys = build_affine_maximal(3, Fraction(4, 5))
        basis = affine_maximal_basis(3, special=True)
        assert len(basis.fields) == 20
        reports = [infinitesimal_check(sys, v, trials=5)
                   for v in basis.fields]
        assert all(r.passed for r in reports)
        u = Poly.variable(DEP)
        shear = vf(3, [u, ZERO, ZERO])
        off = infinitesimal_check(build_affine_maximal(3, Fraction(5, 6)),
                                  shear, trials=5)
        assert off.verdict == "fails"

    def test_am_special_basis_passes(self, am2_special):
        basis = affine_maximal_basis(2, special=True)
        reports = [infinitesimal_check(am2_special, v, trials=5)
                   for v in basis.fields]
        assert all(r.passed for r in reports)

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            GeneratorBasis((vf(1, [ONE]), vf(1, [2 * ONE])), 1, "dup")

    def test_expected_dimensions(self):
        assert expected_dimension("ma", 1) == 8
        assert expected_dimension("ma", 2) == 9
        assert expected_dimension("ma", 3) == 16
        assert expected_dimension("am", 2, Fraction(1)) == 10
        assert expected_dimension("am", 2, Fraction(3, 4)) == 12
        assert expected_dimension("am", 3, Fraction(1)) == 17
        assert expected_dimension("am", 3, Fraction(4, 5)) == 20


class TestLieBracket:
    def test_translation_and_gauge(self):
        a = vf(1, [ONE])                     # d/dx1
        b = vf(1, [ZERO], x1)                # x1 d/du
        br = lie_bracket(a, b)
        assert br.xi[0].is_zero and br.phi == ONE

    def test_scalings(self):
        a = vf(1, [ZERO], u)                 # u d/du
        b = vf(1, [ZERO], x1)                # x1 d/du
        br = lie_bracket(a, b)
        assert br.phi == -x1 and br.xi[0].is_zero

    def test_euler_field(self):
        a = vf(1, [ONE])
        b = vf(1, [x1])
        br = lie_bracket(a, b)
        assert br.xi[0] == ONE and br.phi.is_zero

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lie_bracket(vf(1, [ONE]), vf(2, [ONE, ZERO]))


class TestClosure:
    @pytest.mark.parametrize("make", [
        lambda: monge_ampere_basis(2),
        lambda: monge_ampere_basis(3),
        lambda: affine_maximal_basis(2, special=False),
        lambda: affine_maximal_basis(2, special=True),
    ])
    def test_classified_bases_close(self, make):
        basis = make()
        structure = closure_check(basis)
        npairs = len(basis.fields) * (len(basis.fields) - 1) // 2
        assert len(structure) == npairs
        for coeffs in structure.values():
            assert all(isinstance(c, Fraction) for c in coeffs)

    def test_structure_constants_reproduce_bracket(self):
        basis = monge_ampere_basis(2)
        i, j = 0, len(basis.fields) - 1
        br = lie_bracket(basis.fields[i], basis.fields[j])
        coeffs = closure_check(basis)[(i, j)]
        recomposed_phi = Poly.zero()
        for c, f in zip(coeffs, basis.fields):
            recomposed_phi = recomposed_phi + c * f.phi
        assert recomposed_phi == br.phi

    def test_quadratic_coefficient_escapes(self):
        basis = GeneratorBasis((vf(1, [ONE]), vf(1, [x1 * x1])), 1, "probe")
        with pytest.raises(NotClosedError) as err:
            closure_check(basis)
        assert err.value.pair == (0, 1)
        assert err.value.bracket.xi[0] == 2 * x1

    def test_first_escaping_pair_in_pair_order(self):
        # [d/dx, x^3 d/dx] = 3x^2 d/dx escapes at (0, 2), and the later pair
        # (0, 3) has the same bracket; (0, 1) closes
        x3 = x1 * x1 * x1
        basis = GeneratorBasis((vf(1, [ONE]), vf(1, [ZERO], ONE),
                                vf(1, [x3]), vf(1, [x3 + u])), 1, "probe")
        fields = basis.fields
        escapes = [(pair, br) for pair in itertools.combinations(range(4), 2)
                   if _span_solutions(
                       fields, [br := lie_bracket(*(fields[i] for i in pair))])[0]
                   is None]
        assert [pair for pair, _ in escapes][:2] == [(0, 2), (0, 3)]
        assert escapes[0][1] == escapes[1][1]
        with pytest.raises(NotClosedError) as err:
            closure_check(basis)
        assert (err.value.pair, err.value.bracket) == escapes[0]


def linear_system_reference(eqs):
    """`_linear_system` as it was before the support filter: every nonzero
    equation's sign-fixed integer primitive form is looked up in one set."""
    seen, equations = set(), []
    for eq in eqs:
        if eq.is_zero:
            continue
        lead = max(eq.terms, key=mono_pairs)
        form = integer_primitive(eq.terms)
        sign = 1 if form[lead] > 0 else -1
        key = frozenset((m, sign * v) for m, v in form.items())
        if key not in seen:
            seen.add(key)
            equations.append(eq * exact_quotient(1, eq.terms[lead]))
    unknowns = sorted({a for eq in equations for a in eq.atoms()
                       if a[0] == KIND_FUNC})
    return tuple(unknowns), tuple(equations)


def unknowns_of(equations):
    """The unknowns of a determining system: its sorted atoms."""
    return tuple(sorted({a for eq in equations for a in eq.atoms()}))


UNKNOWN_POOL = [func_partial(0), func_partial(1, (1,)), func_partial(0, (1, 2)),
                func_partial(2, (), 1), func_partial(1, (2,), 1)]
nonzero_rationals = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-12, max_value=12),
              st.integers(min_value=1, max_value=6)),
).filter(bool)


@st.composite
def equation_groups(draw):
    """Linear groups over a few shared supports (single terms among them),
    with scaled copies of earlier groups (negative and `Fraction` factors
    too) and zero groups."""
    supports = draw(st.lists(
        st.lists(st.sampled_from(UNKNOWN_POOL), min_size=1, max_size=3,
                 unique=True), min_size=1, max_size=4))
    groups = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(st.sampled_from(["new", "new", "copy", "copy", "zero"]))
        if kind == "copy" and groups:
            groups.append(draw(st.sampled_from(groups)) * draw(nonzero_rationals))
        elif kind == "zero":
            groups.append(Poly.zero())
        else:
            support = draw(st.sampled_from(supports))
            groups.append(Poly.from_terms(
                ([(a, 1)], draw(nonzero_rationals)) for a in support))
    return groups


PHI, XI1_X1 = Poly.variable(UNKNOWN_POOL[0]), Poly.variable(UNKNOWN_POOL[1])


def as_groups(polys):
    """Linear equations as the groups `_linear_system` reads, keyed by their
    position: one term as an (atom, coefficient) pair, others as a dict."""
    groups = {}
    for k, p in enumerate(polys):
        terms = {mono_pairs(m)[0][0]: c for m, c in p.terms.items()}
        groups[k] = next(iter(terms.items())) if len(terms) == 1 else terms
    return groups


def position(k):
    return k


class TestLinearSystem:
    @given(equation_groups())
    @settings(max_examples=200)
    # one support: a negative copy, a non-copy, repeated single terms
    @example([PHI + XI1_X1, -2 * PHI - 2 * XI1_X1, PHI - XI1_X1, 3 * PHI,
              Fraction(-1, 2) * PHI, XI1_X1, Poly.zero()])
    def test_matches_reference(self, groups):
        equations = _linear_system([as_groups(groups)], position)
        ref_unknowns, ref_equations = linear_system_reference(groups)
        assert unknowns_of(equations) == ref_unknowns
        assert list(equations) == list(ref_equations)

    def test_smallest_key_orders_a_class(self):
        # groups arrive in any order and shard; a class sits where its
        # first copy would be after sorting every group by key
        groups = as_groups([XI1_X1, 2 * PHI + XI1_X1, 3 * PHI, PHI])
        shards = [{k: groups[k] for k in ks} for ks in ((3, 1), (0,), (2,))]
        equations = _linear_system(shards, position)
        assert list(equations) == [XI1_X1, 2 * PHI + XI1_X1, PHI]

    def test_cancelled_groups(self):
        # products for jet monomials u1, u2, u1*u2 (weights 1, u2, u1): at
        # u1 the single atom phi cancels; at u1*u2 the atom xi1_x1 cancels
        # and the rest, 2*phi, joins the class of 3*phi at u2
        phi, xi = UNKNOWN_POOL[0], UNKNOWN_POOL[1]
        atom_of = {next(iter(Poly.variable(a).terms)): a for a in (phi, xi)}
        u1, u2 = Poly.variable(jet(1)), Poly.variable(jet(2))
        products = [(PHI * u1, ONE), (-PHI * u1, ONE), (3 * PHI, u2),
                    (PHI + XI1_X1, u1 * u2), (PHI - XI1_X1, u1 * u2)]
        groups = {}
        for c, w in products:
            _add_products(groups, c, w, atom_of)
        [m1], [m2] = u1.terms, u2.terms
        assert groups[m1] == (phi, 0) and groups[m1 + m2] == {phi: 2, xi: 0}
        order = tuple_order([jet(1), jet(2)])
        equations = _linear_system([groups], order)
        assert unknowns_of(equations) == (phi,) and list(equations) == [PHI]
        cleared = sum((c * w for c, w in products), Poly.zero())
        ref = cleared.collect(lambda a: a[0] != KIND_FUNC)
        assert linear_system_reference(
            ref[k] for k in sorted(ref, key=order)) == (unknowns_of(equations),
                                                        equations)


SRC = str(Path(__file__).resolve().parents[1] / "src")
MEMORY_PROBE = """
import tracemalloc
from liejet.equations import build_monge_ampere
from liejet.symmetry import extract_determining
system = build_monge_ampere(5)
tracemalloc.start()
extract_determining(system)
print(tracemalloc.get_traced_memory()[1])
"""


def determining_reference(sys):
    """`extract_determining` by the expanded route: the cleared polynomial,
    collected by jet monomial, every group sorted by `tuple_order`, copies
    dropped by `linear_system_reference`."""
    terms, L = sys.F.integer_form()
    R = apply_prolonged(SymbolicVectorField(sys.n), Poly(terms), sys.order)
    cleared = eliminate_top(R, *(p * L for p in sys.top_split), sys.top_var)

    def is_jet(a):
        return a[0] != KIND_FUNC

    groups = cleared.collect(is_jet)
    order = tuple_order(a for a in cleared.atoms() if is_jet(a))
    return linear_system_reference(groups[k] for k in sorted(groups, key=order))


def assert_matches_reference(sys):
    eqs = extract_determining(sys)
    unknowns, equations = determining_reference(sys)
    assert unknowns_of(eqs) == unknowns
    assert [eq.terms for eq in eqs] == [eq.terms for eq in equations]


@st.composite
def affine_jet_equations(draw):
    """A small F = A * top + B in the jets of order 1..k (no x, u), with
    A != 0 and neither A nor B holding the top variable."""
    n, order = draw(st.sampled_from([(1, 2), (1, 3), (2, 2)]))
    top = jet(*[n] * order)
    pool = [jet(*J) for k in range(1, order + 1)
            for J in itertools.combinations_with_replacement(range(1, n + 1), k)
            if jet(*J) != top]

    def poly():
        out = Poly.zero()
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            term = Poly.const(draw(nonzero_rationals))
            for a in draw(st.lists(st.sampled_from(pool), max_size=3)):
                term = term * Poly.variable(a)
            out = out + term
        return out
    A = poly()
    assume(not A.is_zero)
    return PdeSystem(n=n, F=A * Poly.variable(top) + poly(),
                     top_var=top)


class TestDeterminingOracle:
    """`extract_determining` against the expanded route it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ma(self, n):
        assert_matches_reference(build_monge_ampere(n))

    @pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(3, 4), 1, 2])
    def test_am_n2(self, theta):
        assert_matches_reference(build_affine_maximal(2, theta))

    @given(affine_jet_equations())
    @settings(max_examples=40, deadline=None)
    def test_custom_equations(self, sys):
        assert_matches_reference(sys)

    def test_peak_memory(self):
        # a fresh process, so the atoms are packed in the CLI's order; in
        # this probe the expanded route peaked at 70 MB, the streamed one
        # at 23-25 MB, the sharded one at 5 MB
        proc = subprocess.run(
            [executable, "-c", MEMORY_PROBE], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 10e6


def products(sys):
    """The (c_r, W_r) pairs with W_r != 0 and the func atom map that
    `extract_determining` forms."""
    terms, L = sys.F.integer_form()
    R = apply_prolonged(SymbolicVectorField(sys.n), Poly(terms), sys.order)
    powers = R.coefficient_powers(sys.top_var)
    weights = top_weights(powers, *(p * L for p in sys.top_split))
    atom_of = {next(iter(Poly.variable(a).terms)): a
               for a in R.atoms() if a[0] == KIND_FUNC}
    return [(c, weights[r]) for r, c in powers.items()
            if not weights[r].is_zero], atom_of


class TestShards:
    @pytest.mark.parametrize("build", [
        lambda: build_monge_ampere(3),
        lambda: build_affine_maximal(2, Fraction(3, 4))], ids=["ma3", "am2"])
    def test_partition(self, build):
        # the shards hold the groups of one unsharded pass, each key once
        pairs, atom_of = products(build())
        whole = {}
        for c, w in pairs:
            _add_products(whole, c, w, atom_of)
        shards = list(_shards(pairs, atom_of))
        assert len(shards) > 1
        assert sum(map(len, shards)) == len(whole)
        assert {k: g for s in shards for k, g in s.items()} == whole

    def test_no_shard_atom_is_one_shard(self):
        # A = u[1] puts the only first-order jet in every W_r
        u1, u11 = Poly.variable(jet(1)), Poly.variable(jet(1, 1))
        sys = PdeSystem(n=1, F=u1 * u11 + u1 ** 3 - 2, top_var=jet(1, 1))
        assert len(list(_shards(*products(sys)))) == 1
        assert_matches_reference(sys)

    def test_products_overflow(self):
        # c_r and W_r fit EXP_MAX = 127 in u[1], their products do not
        u1, u11 = Poly.variable(jet(1)), Poly.variable(jet(1, 1))
        sys = PdeSystem(n=1, F=u1 ** 63 * (u11 + 1), top_var=jet(1, 1))
        with pytest.raises(ExponentOverflowError):
            extract_determining(sys)


class TestDetermining:
    def test_ma_family_satisfies_identically(self, ma2):
        eqs = extract_determining(ma2)
        assert len(eqs) > 0
        # xi = A x + B, phi = D x + c u + d with tr A = N c / 2; check a
        # spanning set of the 9-parameter family
        family = []
        for i in range(2):
            for j in range(2):
                xi = [ZERO, ZERO]
                xi[i] = Poly.variable(coord(j + 1))
                family.append(vf(2, xi, u if i == j else ZERO))
        family += [vf(2, [ONE, ZERO]), vf(2, [ZERO, ONE]),
                   vf(2, [ZERO, ZERO], x1), vf(2, [ZERO, ZERO], x2),
                   vf(2, [ZERO, ZERO], ONE)]
        assert len(family) == 9
        for v in family:
            assert satisfies_determining(eqs, v)

    def test_ma_rejects_quadratic_scaling(self, ma2):
        eqs = extract_determining(ma2)
        bad = vf(2, [x1 * x1, ZERO])
        assert not satisfies_determining(eqs, bad)

    def test_no_jets_and_linear_in_unknowns(self, ma2):
        for eq in extract_determining(ma2):
            for m in eq.terms:
                mono = mono_pairs(m)
                assert len(mono) == 1
                atom, e = mono[0]
                assert atom[0] == 3 and e == 1  # one unknown symbol, degree 1

    def test_am_theta1_rejects_graph_shear_accepts_scaling(self, am2_theta1):
        eqs = extract_determining(am2_theta1)
        assert not satisfies_determining(eqs, vf(2, [u, ZERO]))
        assert satisfies_determining(eqs, vf(2, [ZERO, ZERO], u))

    def test_am_special_accepts_graph_shear(self, am2_special):
        eqs = extract_determining(am2_special)
        assert satisfies_determining(eqs, vf(2, [u, ZERO]))

    def test_scaling_F_keeps_the_system(self, am2_special):
        eqs = extract_determining(am2_special)
        n, F, top_var = am2_special
        eqs7 = extract_determining(PdeSystem(n, F * Fraction(7, 3), top_var))
        assert unknowns_of(eqs7) == unknowns_of(eqs)
        assert [eq.terms for eq in eqs7] == [eq.terms for eq in eqs]

    def test_symbolic_theta_needs_pin(self):
        with pytest.raises(ValueError):
            extract_determining(build_affine_maximal(2))

    def test_refuses_explicit_x_or_u(self):
        # u'' = x1 has the symmetry phi = u - x1^3/6, certified by an exact
        # multiplier, but collecting by x1 would split its equations wrongly
        F = Poly.variable(jet(1, 1)) - x1
        sys = PdeSystem(n=1, F=F, top_var=jet(1, 1))
        v = vf(1, [ZERO], u - Fraction(1, 6) * x1 ** 3)
        assert infinitesimal_check(sys, v, trials=3).verdict == "multiplier-found"
        with pytest.raises(ExplicitVariableError, match="x1"):
            extract_determining(sys)
        with_u = PdeSystem(n=1, F=F + x1 - u, top_var=jet(1, 1))
        with pytest.raises(ExplicitVariableError, match="u"):
            extract_determining(with_u)

    def test_equivalent_to_coefficient_comparison(self, ma2):
        # Independent derivation: expand the second-order invariance
        # condition by hand into its first-jet coefficient system and
        # compare nullspaces.  Note the comparison is pointwise in the
        # derivative symbols, so e.g. phi_uu = 2 xi1_x1u = 2 xi2_x2u
        # remains a free direction here; phi_uu = 0 only follows once the
        # symbols are derivatives of one function (the ansatz level).
        from liejet.algebra import KIND_FUNC, func_partial, jet, nullspace

        def fp(comp, xs=(), du=0):
            return Poly.variable(func_partial(comp, xs, du))

        def uj(*i):
            return Poly.variable(jet(*i))

        n = 2
        hand = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                eta = (fp(0, (i, j)) + fp(0, (i,), 1) * uj(j)
                       + (fp(0, (j,), 1) + fp(0, (), 2) * uj(j)) * uj(i))
                for s in range(1, n + 1):
                    eta = eta - (fp(s, (i, j)) + fp(s, (i,), 1) * uj(j)
                                 + (fp(s, (j,), 1) + fp(s, (), 2) * uj(j))
                                 * uj(i)) * uj(s)
                hand.extend(eta.collect(lambda a: a[0] != KIND_FUNC).values())
        scalar = Poly.const(n) * fp(0, (), 1)
        for s in range(1, n + 1):
            scalar = scalar - 2 * fp(s, (s,)) - (n + 2) * fp(s, (), 1) * uj(s)
        hand.extend(scalar.collect(lambda a: a[0] != KIND_FUNC).values())

        eqs = extract_determining(ma2)
        unknowns = sorted({a for eq in list(eqs) + hand for a in eq.atoms()})
        idx = {a: k for k, a in enumerate(unknowns)}

        def rows(eqs):
            out = []
            for eq in eqs:
                vec = [Fraction(0)] * len(unknowns)
                for m, c in eq.terms.items():
                    (atom, _), = mono_pairs(m)
                    vec[idx[atom]] = c
                out.append(vec)
            return out

        dim_e = nullspace(rows(eqs), ncols=len(unknowns))[0]
        dim_h = nullspace(rows(hand), ncols=len(unknowns))[0]
        dim_u = nullspace(rows(list(eqs) + hand),
                          ncols=len(unknowns))[0]
        assert dim_e == dim_h == dim_u


class TestAnsatzDimension:
    def test_ma_n2(self, ma2):
        dim, fields = ansatz_dimension(ma2, 2)
        assert dim == 9 and len(fields) == 9

    def test_ma_n2_stability(self, ma2):
        assert ansatz_dimension(ma2, 3)[0] == 9
        assert ansatz_dimension(ma2, 4)[0] == 9

    def test_ma_n3(self):
        assert ansatz_dimension(build_monge_ampere(3), 2)[0] == 16

    def test_am_n2_generic(self, am2_theta1):
        assert ansatz_dimension(am2_theta1, 2)[0] == 10

    def test_am_n2_special(self, am2_special):
        assert ansatz_dimension(am2_special, 2)[0] == 12

    def test_monotone_in_degree(self, am2_theta1):
        d1 = ansatz_dimension(am2_theta1, 1)[0]
        d2 = ansatz_dimension(am2_theta1, 2)[0]
        assert d1 <= d2

    def test_basis_spans_classified_generators(self, ma2, am2_special):
        _, fields = ansatz_dimension(ma2, 2)
        assert mutual_span(fields, monge_ampere_basis(2).fields)
        _, fields = ansatz_dimension(am2_special, 2)
        assert mutual_span(fields, affine_maximal_basis(2, True).fields)

    def test_degree_validation(self, ma2):
        with pytest.raises(ValueError):
            ansatz_dimension(ma2, 0)


class TestTaylorRows:
    def test_rows_shift_every_column(self):
        # n = 1: phi_u - xi1_x1 = 0 and every derivative of it up to order 1
        eq = (Poly.variable(func_partial(0, (), 1))
              - Poly.variable(func_partial(1, (1,))))
        assert taylor_rows((eq,), 1, 1) == [
            {(0, (0, 1)): 1, (1, (1, 0)): -1},
            {(0, (0, 2)): 1, (1, (1, 1)): -1},
            {(0, (1, 1)): 1, (1, (2, 0)): -1},
        ]

    def test_truncated_rows_are_the_full_rows_cut_at_the_degree(
            self, ma2, am2_theta1):
        # the ansatz's rows: columns past the degree dropped, then the rows
        # left empty (an empty equation included), the others in order
        for sys in (ma2, am2_theta1):
            eqs = (*extract_determining(sys), Poly.zero())
            for k in range(1, 4):
                cut = [{c: v for c, v in row.items() if sum(c[1]) <= k}
                       for row in taylor_rows(eqs, 2, k)]
                assert taylor_rows(eqs, 2, k, k) == [row for row in cut if row]

    def test_smallest_certified_degree_and_order(self, ma2, am2_theta1,
                                                 am2_special):
        eqs = extract_determining(ma2)
        assert not degree_certified(eqs, 2, 1, 0)
        assert degree_certified(eqs, 2, 1, 1)
        for sys in (am2_theta1, am2_special):
            assert degree_certified(extract_determining(sys), 2, 1, 0)

    def test_ma_n1_needs_degree_4(self):
        # u'' = 1 has the 8-dimensional sl(3), whose fields reach degree 4
        sys = build_monge_ampere(1)
        eqs = extract_determining(sys)
        assert [ansatz_dimension(sys, k, eqs)[0] for k in range(1, 5)] == \
            [4, 6, 7, 8]
        for degree in range(1, 4):
            assert not any(degree_certified(eqs, 1, degree, order)
                           for order in range(4))
        assert degree_certified(eqs, 1, 4, 3)

    def test_no_equations_certify_nothing(self):
        # every target column counts, also those no row touches
        assert not degree_certified((), 2, 1, 2)

    def test_dropping_an_equation_is_seen(self, ma2):
        # negative control: without equation 0 the certificate fails (and
        # a degree-2 field appears); without equation 2 (xi1_u = 0) it holds
        # but the degree-1 count rises, as xi1 = u is then a solution
        eqs = extract_determining(ma2)
        for dropped in (0, 2):
            weaker = eqs[:dropped] + eqs[dropped + 1:]
            assert (not degree_certified(weaker, 2, 1, 1)
                    or ansatz_dimension(ma2, 1, weaker)[0] > 9)
        without_0 = eqs[1:]
        assert not degree_certified(without_0, 2, 1, 1)
        assert ansatz_dimension(ma2, 2, without_0)[0] == 10


class TestNegativeControls:
    def test_perturbed_generator_fails_ma(self, ma2):
        v = vf(2, [2 * x1, ZERO], 2 * u + u * u)
        rep = infinitesimal_check(ma2, v, trials=20)
        assert rep.verdict == "fails"
        assert rep.residual != 0

    def test_perturbed_generator_fails_am(self, am2_special):
        v = vf(2, [ZERO, ZERO], u + u * u)
        rep = infinitesimal_check(am2_special, v, trials=20)
        assert rep.verdict == "fails"


class TestSpanUtilities:
    def test_span_solutions(self):
        fields = [vf(1, [ONE]), vf(1, [x1])]
        target = vf(1, [3 * x1 - 2 * ONE])
        assert _span_solutions(fields, [target]) == [[Fraction(-2), Fraction(3)]]

    def test_span_failure(self):
        fields = [vf(1, [ONE])]
        assert _span_solutions(fields, [vf(1, [x1])]) == [None]
