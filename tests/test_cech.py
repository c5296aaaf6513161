"""Line-bundle cohomology, Bott formulas, class extraction, connecting maps."""

import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from supergeo import (
    Atlas,
    CohClass,
    MatrixCocycle,
    SuperElem,
    SuperError,
    TransitionMap,
    basis_top,
    bott,
    check_cocycle_loop,
    default_picard_lift,
    euler_char,
    format_elem,
    h1_tangent,
    h1_tangent_bott,
    h_line,
    monomial_str,
    obstruction_delta,
    omega_cocycle_sum,
    parse,
    picard_delta,
    serre_dual_params,
    standard_chart,
    substitute,
    truncate_J,
)
from supergeo.atlas import CYCLIC
from supergeo.cech import MAX_BASIS, _comb, _homogenize, _top_class
from supergeo.families import build_decomposable, build_omega1, build_pi_plane, decomposable_cocycle, frame_signs

from oracles import count_h0, count_hn, j2_shift, omega_cocycle_sum_composed, rescale_odd

T0 = standard_chart(0)


# ---------------------------------------------------------------------------
# h_line and friends
# ---------------------------------------------------------------------------


def test_h_line_frozen_values():
    assert h_line(2, -3, 2) == 1
    assert h_line(2, 0, 0) == 1
    assert all(h_line(2, -1, q) == 0 for q in range(3))
    assert all(h_line(2, -2, q) == 0 for q in range(3))
    assert h_line(2, 2, 0) == 6
    assert h_line(1, -4, 1) == 3


def test_h_line_rejects_bad_degree():
    with pytest.raises(ValueError):
        h_line(2, 0, 3)
    with pytest.raises(ValueError):
        h_line(2, 0, -1)


def test_h_line_matches_monomial_counting():
    for n in (1, 2, 3):
        for k in range(-9, 9):
            assert h_line(n, k, 0) == count_h0(n, k)
            assert h_line(n, k, n) == count_hn(n, k)
            for q in range(1, n):
                assert h_line(n, k, q) == 0


def test_serre_duality():
    for n in (1, 2, 3):
        for k in range(-12, 13):
            for q in range(n + 1):
                dn, dk, dq = serre_dual_params(n, k, q)
                assert (dn, dk, dq) == (n, -k - n - 1, n - q)
                assert h_line(n, k, q) == h_line(dn, dk, dq)


def test_euler_characteristic_is_polynomial():
    # alternating sum equals the extended binomial C(n+k, n)
    for n in (1, 2, 3):
        for k in range(-12, 13):
            poly = Fraction(1)
            for i in range(1, n + 1):
                poly *= Fraction(k + i, i)
            assert euler_char(n, k) == poly


# ---------------------------------------------------------------------------
# top-degree bases
# ---------------------------------------------------------------------------


def test_basis_top_frozen():
    assert basis_top(2, -3) == [(-1, -1, -1)]
    assert basis_top(1, -2) == [(-1, -1)]
    assert basis_top(2, -2) == []
    assert basis_top(1, -5) == [(-4, -1), (-3, -2), (-2, -3), (-1, -4)]


def test_basis_top_length_matches_dimension():
    for n in (1, 2):
        for k in range(-10, 2):
            assert len(basis_top(n, k)) == h_line(n, k, n)


def test_basis_top_matches_brute_force():
    for n in range(1, 5):
        for k in range(-n - 8, 1):
            brute = [m for m in product(range(k + n, 0), repeat=n + 1) if sum(m) == k]
            assert basis_top(n, k) == brute  # product() runs in sorted order
            assert len(brute) == count_hn(n, k)


def test_comb_refuses_only_what_cannot_print(str_digits):
    str_digits(640)
    rng = random.Random(7)
    refused = 0
    for _ in range(400):
        N = rng.choice([rng.randrange(1, 6000), rng.randrange(1, 10**40)])
        m = rng.randrange(0, min(N, 200) + 1)
        m = rng.choice([m, N - m])
        try:
            value = _comb(N, m)
        except ValueError as exc:
            assert str(exc) == "the result has more than 640 digits"
            assert comb(N, m) >= 10**640
            refused += 1
        else:
            assert value == comb(N, m)
    assert 50 < refused < 350


def test_monomial_str():
    assert monomial_str((-1, -1, -1)) == "X0^-1*X1^-1*X2^-1"
    assert monomial_str((-4, -1)) == "X0^-4*X1^-1"


# ---------------------------------------------------------------------------
# Bott formulas and twisted tangent cohomology
# ---------------------------------------------------------------------------


def test_bott_frozen_values():
    assert bott(2, 1, 0, 1) == 1  # the hyperplane class
    assert bott(2, 2, 0, 2) == 1
    assert bott(3, 2, 0, 2) == 1
    assert bott(2, 1, 1, 1) == 0


def test_bott_reduces_to_h_line():
    for n in (1, 2, 3):
        for k in range(-8, 8):
            for q in range(n + 1):
                assert bott(n, 0, k, q) == h_line(n, k, q)


def test_bott_rejects_bad_indices():
    with pytest.raises(ValueError):
        bott(2, 3, 0, 1)
    with pytest.raises(ValueError):
        bott(2, 1, 0, 5)


def test_h1_tangent_frozen():
    assert h1_tangent(2, -3) == 1
    assert h1_tangent(2, -7) == 0
    assert h1_tangent(1, -6) == 3
    assert h1_tangent(3, -3) == 0
    assert h1_tangent(4, 1) == 0


def test_h1_tangent_two_routes_agree():
    for n in (1, 2, 3, 4):
        for k in range(-40, 13):
            kernel = h1_tangent(n, k)
            assert kernel == h1_tangent_bott(n, k), (n, k)
            if n == 2:
                assert kernel == (1 if k == -3 else 0)


def test_euler_sequence_map_is_monomial():
    # h1_tangent counts the kernel of m -> (m + e_i)_i on the top bases; that
    # count is the kernel only because each X_i is injective on the basis and
    # sends every monomial into the target basis or out of the totally
    # negative ones (to 0).
    for k in range(-40, 13):
        source, target = basis_top(2, k), set(basis_top(2, k + 1))
        for i in range(3):
            images = [tuple(e + (c == i) for c, e in enumerate(m)) for m in source]
            assert len(set(images)) == len(images)
            assert all(image in target or max(image) > -1 for image in images)


def test_basis_bound():
    assert MAX_BASIS == 10**5
    assert len(basis_top(2, -448)) == h_line(2, -448, 2) == 99_681
    message = r"^H\^2\(P\^2, O\(-449\)\) has 100128 basis monomials, above the bound 100000$"
    with pytest.raises(ValueError, match=message):
        basis_top(2, -449)
    with pytest.raises(ValueError, match=message):
        h1_tangent(2, -449)
    with pytest.raises(ValueError, match="has 50445672272782096667406248628 basis monomials"):
        basis_top(50, -100)
    # at most 3 * MAX_BASIS exponents in all, n + 1 per monomial
    n = 3 * MAX_BASIS - 1
    assert basis_top(n, -n - 1) == [(-1,) * (n + 1)]
    with pytest.raises(ValueError, match=r"has 1 basis monomials of 300001 exponents each, above the bound 300000 exponents$"):
        basis_top(n + 1, -n - 2)


def test_h1_tangent_projective_line_ladder():
    for l in range(4, 13):
        assert h1_tangent(1, -l) == l - 3
        assert h_line(1, 2 - l, 1) == l - 3


# ---------------------------------------------------------------------------
# CohClass and class extraction
# ---------------------------------------------------------------------------


def test_cohclass_drops_zeros():
    c = CohClass({(-1, -1, -1): Fraction(0)})
    assert c.is_zero()
    assert c == CohClass({})


def test_cohclass_to_dict():
    c = CohClass({(-1, -1, -1): Fraction(3, 2)})
    assert c.to_dict() == {"X0^-1*X1^-1*X2^-1": "3/2"}


# A chart-0 section's class in the top cohomology H^2(O(-3)): the section read
# as a Laurent form with t10*t20 = s_0 * X0^-3, then its totally negative part.


def class_in_top(section: SuperElem, frame_sign: int = 1) -> CohClass:
    return _top_class(_homogenize(section, 0, frame_sign))


def test_class_in_top_generator():
    section = parse("t10*t20/(z10*z20)", T0)
    c = class_in_top(section)
    assert (c.n, c.k, c.q) == (2, -3, 2)
    assert c.coeffs == {(-1, -1, -1): Fraction(1)}


def test_class_in_top_coboundary_dies():
    assert class_in_top(parse("z10*t10*t20", T0)).is_zero()
    assert class_in_top(SuperElem.zero(T0)).is_zero()


# the twist is fixed at -3 (Sym^2 F = K); only that degree is left to read
@pytest.mark.parametrize("k, mono", [(-3, (-1, -1, -1))])
def test_class_in_top_other_degrees(k, mono):
    # the last two terms read as monomials with a zero exponent: coboundaries
    section = parse("t10*t20/(z10*z20) + t10*t20/z20 + 2*t10*t20", T0)
    c = class_in_top(section)
    assert c.k == k
    assert c.coeffs == {mono: Fraction(1)}


def test_class_in_top_frame_sign():
    section = parse("t10*t20/(z10*z20)", T0)
    assert class_in_top(section, frame_sign=-1).coeffs == {(-1, -1, -1): Fraction(-1)}


def test_class_in_top_rejects_wrong_degree():
    with pytest.raises(SuperError, match="not a pure J-degree-2 multiple of the odd frame"):
        class_in_top(parse("t10", T0))


# ---------------------------------------------------------------------------
# the two connecting maps and the omega cocycle
# ---------------------------------------------------------------------------

GEN = (-1, -1, -1)


@pytest.mark.parametrize("family", [build_decomposable, build_omega1])
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(2)])
def test_picard_delta(family, lam):
    c = picard_delta(family(lam))
    assert (c.n, c.k, c.q) == (2, -3, 2)
    if lam == 0:
        assert c.is_zero()
    else:
        assert c.coeffs == {GEN: lam}


def test_picard_delta_linearity():
    c1 = picard_delta(build_decomposable(Fraction(1)))
    c3 = picard_delta(build_decomposable(Fraction(3)))
    assert {m: 3 * v for m, v in c1.coeffs.items()} == c3.coeffs


def test_picard_delta_trivial_lift():
    atlas = build_decomposable(Fraction(1))
    lifts = MatrixCocycle({pair: [[SuperElem.one(standard_chart(pair[1]))]] for pair in CYCLIC})
    assert picard_delta(atlas, lifts=lifts).is_zero()


def test_picard_delta_rejects_lift_over_the_wrong_chart():
    grids = default_picard_lift().matrices
    with pytest.raises(SuperError, match=r"overlap \(0, 1\): matrix entry not written over chart 1"):
        MatrixCocycle({**grids, (0, 1): [[parse("1/z10", T0)]]})
    with pytest.raises(SuperError, match=r"overlap \(2, 0\): matrix entry not written over chart 0"):
        MatrixCocycle({**grids, (2, 0): [[parse("z22", standard_chart(2))]]})


def test_picard_delta_keeps_only_its_own_checks():
    # the type checks overlaps, parity and charts; picard_delta the size and the body
    atlas = build_decomposable(Fraction(1))
    with pytest.raises(SuperError, match="Picard lifts must be 1x1, got 2x2"):
        picard_delta(atlas, lifts=decomposable_cocycle())
    grids = default_picard_lift().matrices
    grids[(1, 2)] = [[parse("1 + z22", standard_chart(2))]]
    with pytest.raises(SuperError, match=r"lift on \(1, 2\) is not invertible"):
        picard_delta(atlas, lifts=MatrixCocycle(grids))


def test_picard_delta_rejects_non_cocycle_lift():
    atlas = build_decomposable(Fraction(1))
    grids = default_picard_lift().matrices
    ((lift,),) = grids[(2, 0)]
    grids[(2, 0)] = [[lift * parse("z20", standard_chart(0))]]
    with pytest.raises(SuperError, match="lift reductions do not form a cocycle"):
        picard_delta(atlas, lifts=MatrixCocycle(grids))


@pytest.mark.parametrize("family", [build_decomposable, build_omega1])
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(2), Fraction(3, 2)])
def test_obstruction_delta(family, lam):
    c = obstruction_delta(family(lam))
    assert (c.n, c.k, c.q) == (2, -3, 2)
    if lam == 0:
        assert c.is_zero()
    else:
        assert c.coeffs == {GEN: lam}


@pytest.mark.parametrize("family", [build_decomposable, build_omega1])
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(2)])
def test_omega_cocycle_sums_to_zero(family, lam):
    total = omega_cocycle_sum(family(lam))
    assert total
    assert all(v.is_zero() for v in total.values())


# shifts h of z_mi -> z_mi + h*t1i*t2i on each chart
J2_SHIFTS = {0: {"z10": "z10^2", "z20": "3*z10*z20"}, 1: {"z21": "1 + z21"}, 2: {"z12": "z12^3 - 2"}}

OMEGA_ATLASES = {
    **{
        f"{family.__name__}-{lam}": (lambda lam=lam, family=family: family(lam))
        for family in (build_decomposable, build_omega1)
        for lam in (Fraction(0), Fraction(3, 2), Fraction(-7, 3))
    },
    "pi-plane": build_pi_plane,
    "omega1-3-rescaled-2": lambda: rescale_odd(build_omega1(Fraction(3)), 2),
    "decomposable-1-j2-shifted": lambda: j2_shift(build_decomposable(Fraction(1)), J2_SHIFTS),
    "omega1-3/2-j2-shifted": lambda: j2_shift(build_omega1(Fraction(3, 2)), J2_SHIFTS),
    "decomposable-corrupted": lambda: corrupted_decomposable(),
    # F is not a cocycle: (2<-0) doubles t12, so the loop moves t10, t20 and z10
    "omega1-3/2-odd-block-broken": lambda: corrupted(build_omega1(Fraction(3, 2)), (2, 0), "t12", "-2*z20^-2*t20"),
    # the reduced loop is not the identity: (0<-1) adds z21 to z10
    "decomposable-3/2-reduced-broken": lambda: corrupted(
        build_decomposable(Fraction(3, 2)), (0, 1), "z10", "z11^-1 + z21"
    ),
}


@pytest.mark.parametrize("name", sorted(OMEGA_ATLASES))
def test_omega_cocycle_sum_matches_the_composed_jacobians(name):
    atlas = OMEGA_ATLASES[name]()
    assert omega_cocycle_sum(atlas) == omega_cocycle_sum_composed(atlas)


def test_j2_shift_keeps_the_loop_and_moves_the_maps():
    atlas = build_omega1(Fraction(3, 2))
    shifted = j2_shift(atlas, J2_SHIFTS)
    assert check_cocycle_loop(shifted).ok
    assert shifted.map(0, 1).assignment != atlas.map(0, 1).assignment
    assert all(v.is_zero() for v in omega_cocycle_sum(shifted).values())


def corrupted(atlas: Atlas, pair: tuple[int, int], name: str, text: str) -> Atlas:
    """atlas with the assignment of `name` on overlap `pair` replaced by `text`."""
    i, j = pair
    bad = dict(atlas.map(i, j).assignment)
    bad[name] = parse(text, standard_chart(j))
    maps = dict(atlas.maps)
    maps[pair] = TransitionMap(standard_chart(j), standard_chart(i), bad)
    return Atlas(maps)


def corrupted_decomposable() -> Atlas:
    """build_decomposable(1) with the deformation sign of (0<-1) flipped."""
    return corrupted(build_decomposable(Fraction(1)), (0, 1), "z20", "z21/z11 - t11*t21/z11^2")


@pytest.mark.parametrize(
    "name, residual",
    [("omega1-3/2-odd-block-broken", "t10"), ("decomposable-3/2-reduced-broken", "z10")],
)
def test_broken_atlases_have_a_nonzero_omega_sum(name, residual):
    """Each broken atlas fails its loop where its name says, and the J-degree-2
    part of the loop it reads as the omega sum is not zero."""
    atlas = OMEGA_ATLASES[name]()
    loop = check_cocycle_loop(atlas)
    assert residual in loop.nonzero()
    assert truncate_J(loop.residuals[residual], 2) != SuperElem.zero(T0)
    total = omega_cocycle_sum(atlas)
    assert {k for k, v in total.items() if not v.is_zero()} == {"z10"}
    assert all(total[k].is_zero() for k in T0.odd)


def test_connecting_maps_on_a_corrupted_atlas():
    atlas = corrupted_decomposable()
    assert check_cocycle_loop(atlas).nonzero() == {"z20": "-2*z10^-1*t10*t20"}
    total = omega_cocycle_sum(atlas)
    assert {k: format_elem(v) for k, v in total.items() if not v.is_zero()} == {"z20": "-2*z10^-1*t10*t20"}
    assert picard_delta(atlas).to_dict() == {"X0^-1*X1^-1*X2^-1": "1"}


def test_obstruction_delta_on_a_corrupted_atlas():
    with pytest.raises(SuperError, match="not a multiple of the Euler field"):
        obstruction_delta(corrupted_decomposable())


READING_ATLASES = {
    **{
        f"{family.__name__}-{lam}": (family, lam)
        for family in (build_decomposable, build_omega1)
        for lam in (Fraction(0), Fraction(3, 2))
    },
    "pi-plane": (lambda lam: build_pi_plane(), None),
    "omega1-1-rescaled--3": (lambda lam: rescale_odd(build_omega1(Fraction(1)), -3), None),
}


@pytest.mark.parametrize("name", sorted(READING_ATLASES))
def test_top_reading_is_chart_independent(name):
    """g*t1j*t2j read on chart j with s_j equals its pull-back read on chart 0 with s_0."""
    family, lam = READING_ATLASES[name]
    atlas = family(lam)
    signs = frame_signs(atlas)
    walk = atlas.walk()
    rng = random.Random(1706)
    for j in (1, 2):
        table = standard_chart(j)
        z1, z2, t1, t2 = (SuperElem.var(table, n) for n in table.names)
        g = SuperElem.zero(table)
        for _ in range(4):
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
            g = g + c * z1 ** rng.randint(-3, 3) * z2 ** rng.randint(-3, 3)
        section = g * t1 * t2
        here = _homogenize(section, j, signs[j])
        assert here != _homogenize(SuperElem.zero(table), j, signs[j])
        assert here == _homogenize(substitute(section, walk[j]), 0, signs[0])


@pytest.mark.parametrize("family", [build_decomposable, build_omega1])
@pytest.mark.parametrize("c", [Fraction(2), Fraction(-3), Fraction(1, 2)])
def test_odd_rescaling_scales_both_classes(family, c):
    atlas = family(Fraction(3, 2))
    scaled = rescale_odd(atlas, c)
    assert all(v.is_zero() for v in omega_cocycle_sum(scaled).values())
    for delta in (picard_delta, obstruction_delta):
        base = delta(atlas).coeffs
        assert base == {GEN: Fraction(3, 2)}
        assert delta(scaled).coeffs == {m: v / c**2 for m, v in base.items()}
