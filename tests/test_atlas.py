"""Charts, transition maps, cocycle loops, the chart-0 walk, Jacobians."""

import copy
import pickle
from fractions import Fraction
from functools import partial

import pytest

from supergeo import (
    Atlas,
    berezinian,
    Chart,
    SuperElem,
    SuperError,
    TransitionMap,
    VarTable,
    chart0_walk,
    check_cocycle_loop,
    even_remainder_derivation,
    format_elem,
    is_calabi_yau,
    jacobian,
    matmul,
    parse,
    standard_chart,
    substitute,
)
from supergeo.atlas import (
    AFFINE,
    CHARTS,
    CYCLIC,
    HOM,
    MatrixCocycle,
    _reduced_walk,
    affine_indices,
    correction,
    cycle_product,
    normal_form_orders,
    pivot,
    reduced_transition,
    transition_berezinian,
)
from supergeo.families import build_decomposable, build_omega1, build_pi_plane
from oracles import compose, compose_jacobians, from_grid, identity_map, invert_map, j2_shift, rescale_odd
from test_cech import J2_SHIFTS


def test_standard_chart_names():
    c = standard_chart(1)
    assert c.table.even == ("z11", "z21")
    assert c.table.odd == ("t11", "t21")
    assert c.index == 1


def test_chart_is_an_immutable_value():
    c = standard_chart(1)
    same = Chart(1, VarTable(("z11", "z21"), ("t11", "t21")))
    assert same is not c and same == c and hash(same) == hash(c)
    assert {c: 1}[same] == 1
    assert c != Chart(2, c.table) and c != Chart(1, standard_chart(2).table)
    assert c != (1, c.table)
    with pytest.raises(AttributeError):
        c.index = 2
    with pytest.raises(AttributeError):
        c.table = standard_chart(2).table
    with pytest.raises(AttributeError):
        del c.table
    with pytest.raises(SuperError):
        Chart(1, VarTable(("z11", "z11"), ("t11", "t21")))
    atlas = build_omega1(Fraction(3, 2))
    twin = pickle.loads(pickle.dumps(atlas))
    assert twin.charts == atlas.charts
    assert {k: f.assignment for k, f in copy.deepcopy(atlas).maps.items()} == {
        k: f.assignment for k, f in atlas.maps.items()
    } == {k: f.assignment for k, f in twin.maps.items()}


# ---------------------------------------------------------------------------
# cover facts derived from the rule z{m+1}{i} = X_c/X_i, frozen as typed
# ---------------------------------------------------------------------------


def test_cover_facts_frozen():
    assert CYCLIC == ((0, 1), (1, 2), (2, 0))
    assert [affine_indices(i) for i in range(3)] == [(1, 2), (0, 2), (0, 1)]
    assert AFFINE == {
        (0, "z10"): 1,
        (0, "z20"): 2,
        (1, "z11"): 0,
        (1, "z21"): 2,
        (2, "z12"): 0,
        (2, "z22"): 1,
    }
    assert {pair: pivot(pair) for pair in CYCLIC} == {(0, 1): "z11", (1, 2): "z22", (2, 0): "z20"}
    reduced = {
        (0, 1): {"z10": "1/z11", "z20": "z21/z11"},
        (1, 2): {"z11": "z12/z22", "z21": "1/z22"},
        (2, 0): {"z12": "1/z20", "z22": "z10/z20"},
    }
    corrections = {
        (0, 1): ("z20", "t11*t21/z11^2"),
        (1, 2): ("z11", "t12*t22/z22^2"),
        (2, 0): ("z22", "t10*t20/z20^2"),
    }
    nf_target = {(0, 1): ("z10", "z20"), (1, 2): ("z21", "z11"), (2, 0): ("z12", "z22")}
    nf_source = {(0, 1): ("z11", "z21"), (1, 2): ("z22", "z12"), (2, 0): ("z20", "z10")}
    for pair in CYCLIC:
        table = standard_chart(pair[1]).table
        got = reduced_transition(pair)
        assert list(got) == list(reduced[pair])
        assert got == {name: parse(text, table) for name, text in reduced[pair].items()}
        name, text = corrections[pair]
        assert correction(pair) == (name, parse(text, table))
        assert normal_form_orders(pair) == (nf_target[pair], nf_source[pair])


def test_transition_map_validation():
    c0, c1 = standard_chart(0), standard_chart(1)
    t1 = c1.table
    good = {
        "z10": parse("z11^-1", t1),
        "z20": parse("z21/z11", t1),
        "t10": parse("t11/z11", t1),
        "t20": parse("t21/z11^2", t1),
    }
    TransitionMap(c1, c0, good)
    with pytest.raises(SuperError):
        TransitionMap(c1, c0, {**good, "t10": parse("z11", t1)})  # parity
    with pytest.raises(SuperError):
        TransitionMap(c1, c0, {k: v for k, v in good.items() if k != "z20"})
    with pytest.raises(SuperError):
        TransitionMap(c1, c0, {**good, "z10": parse("z10^-1", c0.table)})


# ---------------------------------------------------------------------------
# composition and inversion
# ---------------------------------------------------------------------------


def test_compose_with_identity():
    atlas = build_decomposable(Fraction(1))
    f = atlas.map(0, 1)
    assert compose(f, identity_map(atlas.charts[1])) == f
    assert compose(identity_map(atlas.charts[0]), f) == f


def test_compose_equals_inverse_of_third():
    atlas = build_decomposable(Fraction(1))
    f02 = compose(atlas.map(0, 1), atlas.map(1, 2))
    assert f02 == invert_map(atlas.map(2, 0))


def test_invert_identity():
    c = standard_chart(0)
    assert invert_map(identity_map(c)) == identity_map(c)


def test_invert_decomposable_01_frozen():
    atlas = build_decomposable(Fraction(1))
    g = invert_map(atlas.map(0, 1))
    t0 = standard_chart(0).table
    assert g.assignment == {
        "z11": parse("z10^-1", t0),
        "z21": parse("-z10^-2*t10*t20 + z10^-1*z20", t0),
        "t11": parse("z10^-1*t10", t0),
        "t21": parse("z10^-2*t20", t0),
    }


def test_invert_linear_diag():
    c = standard_chart(0)
    t = c.table
    f = TransitionMap(
        c,
        c,
        {
            "z10": parse("2*z10", t),
            "z20": parse("3*z20", t),
            "t10": parse("t10", t),
            "t20": parse("t20", t),
        },
    )
    g = invert_map(f)
    assert g.assignment["z10"] == parse("1/2*z10", t)
    assert g.assignment["z20"] == parse("1/3*z20", t)


@pytest.mark.parametrize("family", [build_decomposable, build_omega1])
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(2)])
def test_invert_round_trip(family, lam):
    atlas = family(lam)
    for (i, j), f in atlas.maps.items():
        g = invert_map(f)
        assert compose(f, g) == identity_map(atlas.charts[i])
        assert compose(g, f) == identity_map(atlas.charts[j])


def test_invert_rejects_non_monomial_body():
    c = standard_chart(0)
    t = c.table
    f = TransitionMap(
        c,
        c,
        {
            "z10": parse("z10 + z20", t),
            "z20": parse("z20", t),
            "t10": parse("t10", t),
            "t20": parse("t20", t),
        },
    )
    with pytest.raises(SuperError):
        invert_map(f)


# ---------------------------------------------------------------------------
# cocycle loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", [build_decomposable, build_omega1])
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(3, 2)])
def test_loop_closes(family, lam):
    report = check_cocycle_loop(family(lam))
    assert report.ok
    assert report.nonzero() == {}
    assert set(report.residuals) == {"z10", "z20", "t10", "t20"}


def test_loop_detects_flipped_correction_sign():
    atlas = build_decomposable(Fraction(1))
    t1 = standard_chart(1).table
    bad = dict(atlas.map(0, 1).assignment)
    bad["z20"] = parse("z21/z11 - t11*t21/z11^2", t1)
    maps = dict(atlas.maps)
    maps[(0, 1)] = TransitionMap(standard_chart(1), standard_chart(0), bad)
    report = check_cocycle_loop(Atlas(atlas.charts.values(), maps))
    assert not report.ok
    assert set(report.nonzero()) == {"z20"}


# ---------------------------------------------------------------------------
# Jacobians and the graded chain rule
# ---------------------------------------------------------------------------


def test_jacobian_frozen_blocks():
    # target rows z10, z20, t10, t20; source columns z11, z21, t11, t21
    atlas = build_decomposable(Fraction(1))
    t1 = standard_chart(1).table
    grid = jacobian(atlas.map(0, 1)).grid()
    expected = [
        ["-z11^-2", "0", "0", "0"],
        ["-z21*z11^-2 - 2*t11*t21/z11^3", "z11^-1", "t21/z11^2", "-t11/z11^2"],
        ["-t11/z11^2", "0", "z11^-1", "0"],
        ["-2*t21/z11^3", "0", "0", "z11^-2"],
    ]
    for i in range(4):
        for j in range(4):
            assert grid[i][j] == parse(expected[i][j], t1), (i, j)


@pytest.mark.parametrize("family", [build_decomposable, build_omega1])
def test_chain_rule_graded(family):
    atlas = family(Fraction(1))
    for f, g in [
        (atlas.map(0, 1), atlas.map(1, 2)),
        (atlas.map(1, 2), atlas.map(2, 0)),
        (atlas.map(2, 0), atlas.map(0, 1)),
    ]:
        assert compose_jacobians(f, g) == jacobian(compose(f, g))


def test_naive_matrix_chain_rule_fails():
    # multiplying the Jacobian matrices while ignoring the grading of the
    # intermediate coordinates produces a wrong sign on mixed second-order
    # terms; the error is concentrated in one even entry
    atlas = build_decomposable(Fraction(1))
    f, g = atlas.map(0, 1), atlas.map(1, 2)
    Jf, Jg = jacobian(f), jacobian(g)
    moved = [
        [substitute(e, g.assignment) for e in row] for row in Jf.grid()
    ]
    naive = matmul(from_grid(g.source.table, moved, 2, 2), Jg).grid()
    true = jacobian(compose(f, g)).grid()
    diffs = {
        (i, j): naive[i][j] - true[i][j]
        for i in range(4)
        for j in range(4)
        if naive[i][j] != true[i][j]
    }
    t2 = standard_chart(2).table
    assert diffs == {
        (1, 1): parse("6*z12^-2*z22^-2*t12*t22", t2),
        (2, 2): parse("-2*z12^-2*z22^-1*t12*t22", t2),
        (3, 3): parse("-4*z12^-3*z22^-1*t12*t22", t2),
    }


# ---------------------------------------------------------------------------
# Berezinian flag, remainders, the chart-0 walk
# ---------------------------------------------------------------------------


def test_calabi_yau_flag_and_values():
    dec = is_calabi_yau(build_decomposable(Fraction(2)))
    assert dec.ok
    assert dec.values() == {(0, 1): -1, (1, 2): -1, (2, 0): 1}
    om = is_calabi_yau(build_omega1(Fraction(2)))
    assert om.ok
    assert om.values() == {(0, 1): 1, (1, 2): 1, (2, 0): 1}
    pi = is_calabi_yau(build_pi_plane())
    assert pi.ok
    assert pi.values() == {(0, 1): 1, (1, 2): 1, (2, 0): 1}


def test_even_remainder_derivation():
    atlas = build_decomposable(Fraction(2))
    t1 = standard_chart(1).table
    rem = even_remainder_derivation(atlas.map(0, 1))
    assert rem["z10"].is_zero()
    assert rem["z20"] == parse("2*t11*t21/z11^2", t1)


WALK_ATLASES = {
    **{
        f"{family.__name__}-{lam}": (family, lam)
        for family in (build_decomposable, build_omega1)
        for lam in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-7, 3))
    },
    "pi-plane": (lambda lam: build_pi_plane(), None),
    "omega1-3-rescaled-2": (lambda lam: rescale_odd(build_omega1(Fraction(3)), 2), None),
}


@pytest.mark.parametrize("name", sorted(WALK_ATLASES))
def test_chart0_walk_matches_inverse_maps(name):
    family, lam = WALK_ATLASES[name]
    atlas = family(lam)
    walk = atlas.walk()
    assert walk == chart0_walk({pair: atlas.map(*pair).assignment for pair in CYCLIC})
    assert list(walk) == [2, 1, 0]
    assert walk[2] == atlas.map(2, 0).assignment
    assert walk[1] == invert_map(atlas.map(0, 1)).assignment
    assert walk[0] == identity_map(standard_chart(0)).assignment


def constant_grid(pair, rows):
    table = standard_chart(pair[1]).table
    return [[SuperElem.const(table, c) for c in row] for row in rows]


def test_cycle_product_multiplies_in_the_cycle_order():
    # A B C != C B A for these grids, so the product pins the order (0<-1)(1<-2)(2<-0)
    rows = {(0, 1): [[1, 1], [0, 1]], (1, 2): [[1, 0], [1, 1]], (2, 0): [[2, 0], [0, 1]]}
    grids = MatrixCocycle({pair: constant_grid(pair, r) for pair, r in rows.items()})
    product = cycle_product(_reduced_walk(), grids)
    assert [[e.constant_value() for e in row] for row in product] == [[4, 1], [2, 1]]
    reversed_rows = {(0, 1): rows[(2, 0)], (1, 2): rows[(1, 2)], (2, 0): rows[(0, 1)]}
    reversed_grids = MatrixCocycle({p: constant_grid(p, r) for p, r in reversed_rows.items()})
    reversed_product = cycle_product(_reduced_walk(), reversed_grids)
    assert [[e.constant_value() for e in row] for row in reversed_product] == [[2, 2], [1, 2]]


@pytest.mark.parametrize("name", ["decomposable", "pi-plane"])
def test_cycle_product_reads_each_grid_on_chart_0(name):
    # the O(1) cocycle X_i/X_j, one pivot per overlap, closes on chart 0
    atlas = build_decomposable(Fraction(1)) if name == "decomposable" else build_pi_plane()
    grids = {pair: [[SuperElem.var(standard_chart(pair[1]).table, pivot(pair))]] for pair in CYCLIC}
    for walk in (_reduced_walk(), atlas.walk()):
        ((product,),) = cycle_product(walk, MatrixCocycle(grids))
        assert product.body() == SuperElem.one(standard_chart(0).table)
    # a non-cocycle: the (2<-0) grid is read as it stands, not through the loop
    grids[(2, 0)] = [[SuperElem.var(standard_chart(0).table, "z10")]]
    ((product,),) = cycle_product(_reduced_walk(), MatrixCocycle(grids))
    assert format_elem(product) == "z10*z20^-1"


# ---------------------------------------------------------------------------
# the Berezinian and Jacobian cocycles of a glued atlas
# ---------------------------------------------------------------------------

# z10 -> z10 + z10^2*t10*t20 on chart 0 and z22 -> z22 + 3*t12*t22 on chart 2
SHIFT = {0: {"z10": "z10^2"}, 2: {"z22": "3"}}

GLUED_ATLASES = {
    **{
        f"{family.__name__}-{lam}": partial(family, lam)
        for family in (build_decomposable, build_omega1)
        for lam in (Fraction(0), Fraction(3, 2), Fraction(-7, 3))
    },
    "pi-plane": build_pi_plane,
    "omega1-3-rescaled-2": lambda: rescale_odd(build_omega1(Fraction(3)), 2),
    "omega1-3/2-shifted": lambda: j2_shift(build_omega1(Fraction(3, 2)), SHIFT),
    "decomposable-1-shifted": lambda: j2_shift(build_decomposable(Fraction(1)), J2_SHIFTS),
}


def berezinian_cocycle(atlas, ber=transition_berezinian) -> MatrixCocycle:
    return MatrixCocycle({pair: [[ber(atlas.map(*pair))]] for pair in CYCLIC})


@pytest.mark.parametrize("name", sorted(GLUED_ATLASES))
def test_transition_berezinians_form_a_cocycle(name):
    atlas = GLUED_ATLASES[name]()
    assert check_cocycle_loop(atlas).ok
    assert cycle_product(atlas.walk(), berezinian_cocycle(atlas)) == [[SuperElem.one(standard_chart(0).table)]]


@pytest.mark.parametrize("name", sorted(GLUED_ATLASES))
def test_transition_berezinian_is_multiplicative(name):
    # Ber(f o g) = (Ber(f) o g) * Ber(g) for each pair of adjacent stored maps
    atlas = GLUED_ATLASES[name]()
    for (i, j), (k, l) in zip(CYCLIC, CYCLIC[1:] + CYCLIC[:1]):
        f, g = atlas.map(i, j), atlas.map(k, l)
        want = substitute(transition_berezinian(f), g.assignment) * transition_berezinian(g)
        assert transition_berezinian(compose(f, g)) == want, (i, j, k, l)


@pytest.mark.parametrize("name", sorted(GLUED_ATLASES))
def test_jacobian_cocycle_loop_is_the_identity(name):
    # the graded chain rule of the oracles, taken round (0<-1)(1<-2)(2<-0)
    atlas = GLUED_ATLASES[name]()
    f01, f12, f20 = (atlas.map(*pair) for pair in CYCLIC)
    assert compose_jacobians(f12, f20) == jacobian(compose(f12, f20))
    identity = jacobian(identity_map(standard_chart(0)))
    assert compose_jacobians(f01, compose(f12, f20)) == identity
    assert compose_jacobians(compose(f01, f12), f20) == identity


def test_untransposed_berezinian_is_not_a_cocycle():
    # Ber of the left-derivative Jacobian itself is not multiplicative on a
    # J^2-shifted atlas, so its three values need not close round the loop
    atlas = GLUED_ATLASES["omega1-3/2-shifted"]()
    naive = lambda f: berezinian(jacobian(f))
    ((product,),) = cycle_product(atlas.walk(), berezinian_cocycle(atlas, naive))
    assert format_elem(product) == "18*z10^-1*z20^-2*t10*t20 + 1 + 6*z10*t10*t20"
    f, g = atlas.map(1, 2), atlas.map(2, 0)
    assert format_elem(berezinian(compose_jacobians(f, g))) == "1 + 4*z10*t10*t20"
    assert format_elem(substitute(naive(f), g.assignment) * naive(g)) == "18*z10^-1*z20^-2*t10*t20 + 1 - 2*z10*t10*t20"


def test_cover_indices_come_from_the_cycle():
    assert CHARTS == (0, 1, 2)
    assert HOM.even == ("X0", "X1", "X2")
    assert {i: affine_indices(i) for i in CHARTS} == {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def test_atlas_requires_consistent_keys():
    atlas = build_decomposable(Fraction(1))
    maps = dict(atlas.maps)
    maps[(1, 0)] = maps.pop((0, 1))
    with pytest.raises(SuperError):
        Atlas(atlas.charts.values(), maps)
    with pytest.raises(SuperError):
        Atlas(atlas.charts.values(), atlas.maps).map(0, 2)
