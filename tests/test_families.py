"""The 2|2 atlases over P^2: builders, matrix cocycles, normal forms, rescaling."""

import ast
import re
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from oracles import (
    DECOMPOSABLE,
    OMEGA1,
    family_assignments,
    identity_cocycle,
    j_degrees,
    normal_form_map,
    rescale_odd,
)
from supergeo import (
    Atlas,
    MatrixCocycle,
    SuperElem,
    SuperError,
    TransitionMap,
    atlas_equal,
    berezinian,
    berezinian_normal_form,
    berezinian_raw,
    big_cell,
    build_decomposable,
    build_generic,
    build_omega1,
    build_pi_plane,
    check_cocycle_loop,
    cotangent_cocycle,
    decomposable_cocycle,
    fermionic_cocycle,
    frame_signs,
    jacobian,
    normal_form_signs,
    parse,
    standard_chart,
    substitute,
    sym_restricted_rank,
)
from test_acceptance import _split_minus_one_twice_atlas

T0 = standard_chart(0).table
T1 = standard_chart(1).table
T2 = standard_chart(2).table


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_decomposable_01_assignment_frozen():
    f = build_decomposable(Fraction(1)).map(0, 1)
    assert f.assignment == {
        "z10": parse("z11^-1", T1),
        "z20": parse("z21/z11 + t11*t21/z11^2", T1),
        "t10": parse("t11/z11", T1),
        "t20": parse("t21/z11^2", T1),
    }


def test_omega1_01_assignment_frozen():
    f = build_omega1(Fraction(2)).map(0, 1)
    assert f.assignment == {
        "z10": parse("z11^-1", T1),
        "z20": parse("z21/z11 + 2*t11*t21/z11^2", T1),
        "t10": parse("-t11/z11^2", T1),
        "t20": parse("-z21*t11/z11^2 + t21/z11", T1),
    }


def test_lambda_zero_is_split():
    for build in (build_decomposable, build_omega1):
        atlas = build(Fraction(0))
        for f in atlas.maps.values():
            for name in f.target.table.even:
                assert j_degrees(f.assignment[name]) <= {0}


def test_builders_accept_rational_lambda():
    atlas = build_decomposable(Fraction(3, 2))
    z20 = atlas.map(0, 1).assignment["z20"]
    assert z20 == parse("z21/z11 + 3/2*t11*t21/z11^2", T1)


# ---------------------------------------------------------------------------
# matrix cocycles and the generic builder
# ---------------------------------------------------------------------------


def test_matrix_cocycle_validation():
    good = decomposable_cocycle()
    with pytest.raises(SuperError):
        MatrixCocycle({(0, 1): good.matrices[(0, 1)]})
    with pytest.raises(SuperError):
        MatrixCocycle({**good.matrices, (0, 1): [[parse("1", T1)]]})
    with pytest.raises(SuperError):
        MatrixCocycle(
            {**good.matrices, (0, 1): [[parse("t11", T1), parse("0", T1)],
                                       [parse("0", T1), parse("1", T1)]]}
        )


def test_builtin_cocycles_frozen():
    typed = {
        decomposable_cocycle: {
            (0, 1): [["1/z11", "0"], ["0", "1/z11^2"]],
            (1, 2): [["1/z22", "0"], ["0", "1/z22^2"]],
            (2, 0): [["1/z20", "0"], ["0", "1/z20^2"]],
        },
        cotangent_cocycle: {
            (0, 1): [["-1/z11^2", "0"], ["-z21/z11^2", "1/z11"]],
            (1, 2): [["1/z22", "-z12/z22^2"], ["0", "-1/z22^2"]],
            (2, 0): [["0", "-1/z20^2"], ["1/z20", "-z10/z20^2"]],
        },
        identity_cocycle: {pair: [["1", "0"], ["0", "1"]] for pair in ((0, 1), (1, 2), (2, 0))},
    }
    tables = {j: standard_chart(j).table for j in range(3)}
    for cocycle, mats in typed.items():
        want = {
            pair: [[parse(text, tables[pair[1]]) for text in row] for row in rows]
            for pair, rows in mats.items()
        }
        assert cocycle().matrices == want


def test_det_cocycle_values():
    # build_generic accepts exactly the det twist -3
    for mc in (decomposable_cocycle(), cotangent_cocycle()):
        assert check_cocycle_loop(build_generic(mc, 1)).ok
    with pytest.raises(SuperError) as exc:
        build_generic(identity_cocycle(), 1)
    assert str(exc.value) == "matrix cocycle has det twist 0, need -3"


def test_det_cocycle_rejects_mismatched_twists():
    mats = decomposable_cocycle().matrices
    mats[(1, 2)] = [[parse("1/z22", T2), parse("0", T2)],
                    [parse("0", T2), parse("1/z22", T2)]]
    with pytest.raises(SuperError, match="det exponents disagree across overlaps"):
        build_generic(MatrixCocycle(mats), 1)


def test_det_cocycle_rejects_non_coboundary_signs():
    mats = decomposable_cocycle().matrices
    mats[(0, 1)] = [[parse("-1/z11", T1), parse("0", T1)],
                    [parse("0", T1), parse("1/z11^2", T1)]]
    with pytest.raises(SuperError, match="are not a coboundary"):
        build_generic(MatrixCocycle(mats), 1)


def test_det_sign_rule_raises_one_message():
    # the builder and frame_signs, which reads a stored atlas, share the rule
    mats = decomposable_cocycle().matrices
    mats[(0, 1)] = [[parse("-1/z11", T1), parse("0", T1)],
                    [parse("0", T1), parse("1/z11^2", T1)]]
    atlas = build_decomposable(Fraction(0))
    f = atlas.map(0, 1)
    flipped = TransitionMap(f.source, f.target, {**f.assignment, "t10": -f.assignment["t10"]})
    atlas = Atlas(atlas.charts.values(), {**atlas.maps, (0, 1): flipped})
    want = "det signs {(0, 1): -1, (1, 2): 1, (2, 0): 1} are not a coboundary; no O(k) identification"
    with pytest.raises(SuperError) as by_build:
        build_generic(MatrixCocycle(mats), 1)
    with pytest.raises(SuperError) as by_atlas:
        frame_signs(atlas)
    assert str(by_build.value) == str(by_atlas.value) == want


def test_fermionic_cocycle_round_trip():
    mc = fermionic_cocycle(build_omega1(Fraction(2)))
    assert atlas_equal(build_generic(mc, 2), build_omega1(Fraction(2)))
    assert mc.matrices[(0, 1)] == cotangent_cocycle().matrices[(0, 1)]


def test_frame_signs():
    assert frame_signs(build_decomposable(Fraction(1))) == {0: 1, 1: 1, 2: 1}
    assert frame_signs(build_omega1(Fraction(1))) == {0: -1, 1: 1, 2: -1}


@pytest.mark.parametrize(
    "lam",
    [Fraction(0), Fraction(1), Fraction(2), Fraction(3, 2), Fraction(-2), Fraction(-7, 3)],
)
def test_build_generic_reproduces_named_families(lam):
    # against the hand-typed tables, which share no code with the builders
    for build, cocycle, strings in (
        (build_decomposable, decomposable_cocycle, DECOMPOSABLE),
        (build_omega1, cotangent_cocycle, OMEGA1),
    ):
        want = family_assignments(strings, lam)
        for atlas in (build(lam), build_generic(cocycle(), lam)):
            assert {pair: f.assignment for pair, f in atlas.maps.items()} == want


def test_build_generic_loop_closes_for_swapped_cocycle():
    # the decomposable cocycle conjugated by a constant frame swap in chart 0:
    # still multiplies to the identity, but is neither named family
    mats = {
        (0, 1): [["0", "1/z11^2"], ["1/z11", "0"]],
        (1, 2): [["1/z22", "0"], ["0", "1/z22^2"]],
        (2, 0): [["0", "1/z20"], ["1/z20^2", "0"]],
    }
    charts = {i: standard_chart(i) for i in range(3)}
    mc = MatrixCocycle(
        {
            pair: [[parse(s, charts[pair[1]].table) for s in row] for row in grid]
            for pair, grid in mats.items()
        }
    )
    atlas = build_generic(mc, Fraction(1))
    assert check_cocycle_loop(atlas).ok
    assert is_constant_minus_one_normal_form(atlas)


def is_constant_minus_one_normal_form(atlas):
    return all(
        berezinian_normal_form(atlas, pair).constant_value() == -1
        for pair in ((0, 1), (1, 2), (2, 0))
    )


def test_build_generic_rejects_wrong_twist():
    mats = {
        pair: [["1/" + piv, "0"], ["0", "1/" + piv]]
        for pair, piv in (((0, 1), "z11"), ((1, 2), "z22"), ((2, 0), "z20"))
    }
    charts = {i: standard_chart(i) for i in range(3)}
    mc = MatrixCocycle(
        {
            pair: [[parse(s, charts[pair[1]].table) for s in row] for row in grid]
            for pair, grid in mats.items()
        }
    )
    with pytest.raises(SuperError, match="det twist -2"):
        build_generic(mc, Fraction(1))


def test_build_generic_rejects_broken_cocycle():
    mats = decomposable_cocycle().matrices
    # right twist and coboundary dets, but M01*M12*M20 != 1
    mats[(0, 1)] = [[parse("0", T1), parse("-1/z11", T1)],
                    [parse("1/z11^2", T1), parse("0", T1)]]
    with pytest.raises(SuperError, match="violates"):
        build_generic(MatrixCocycle(mats), Fraction(1))


# ---------------------------------------------------------------------------
# big cells and the Pi-plane
# ---------------------------------------------------------------------------


def test_big_cell_structure():
    Z = big_cell(0)
    row = Z.grid()[0]
    assert row == [
        parse("1", T0), parse("z10", T0), parse("z20", T0),
        parse("0", T0), parse("t10", T0), parse("t20", T0),
    ]
    # lower body row repeats the upper one with mirrored odd part
    assert Z.grid()[1][0] == parse("0", T0)
    assert Z.grid()[1][1] == parse("-t10", T0)
    assert Z.grid()[1][4] == parse("z10", T0)


def test_pi_plane_is_omega1_at_lambda_one():
    assert atlas_equal(build_pi_plane(), build_omega1(Fraction(1)))
    assert not atlas_equal(build_pi_plane(), build_omega1(Fraction(2)))
    assert not atlas_equal(build_pi_plane(), build_decomposable(Fraction(1)))


def test_atlas_equal_requires_same_shape():
    atlas = build_decomposable(Fraction(1))
    partial = Atlas(atlas.charts.values(), {(0, 1): atlas.map(0, 1)})
    with pytest.raises(SuperError):
        atlas_equal(atlas, partial)


# ---------------------------------------------------------------------------
# odd rescaling
# ---------------------------------------------------------------------------


def test_rescale_odd_moves_lambda_quadratically():
    assert atlas_equal(rescale_odd(build_decomposable(Fraction(4)), Fraction(2)),
                       build_decomposable(Fraction(1)))
    assert atlas_equal(rescale_odd(build_omega1(Fraction(9)), Fraction(3)),
                       build_omega1(Fraction(1)))


def test_rescale_odd_round_trip():
    atlas = build_omega1(Fraction(2))
    back = rescale_odd(rescale_odd(atlas, Fraction(5)), Fraction(1, 5))
    assert atlas_equal(atlas, back)


def test_rescale_odd_rejects_zero():
    with pytest.raises(SuperError):
        rescale_odd(build_decomposable(Fraction(1)), Fraction(0))


def test_nonzero_lambdas_give_isomorphic_but_unequal_atlases():
    a1 = build_decomposable(Fraction(1))
    a4 = build_decomposable(Fraction(4))
    assert not atlas_equal(a1, a4)
    assert atlas_equal(rescale_odd(a4, Fraction(2)), a1)


# ---------------------------------------------------------------------------
# Berezinians in raw and adapted conventions
# ---------------------------------------------------------------------------


def test_berezinian_raw_frozen():
    dec = build_decomposable(Fraction(1))
    assert {p: berezinian_raw(dec, p).constant_value() for p in dec.maps} == {
        (0, 1): -1, (1, 2): -1, (2, 0): 1,
    }
    om = build_omega1(Fraction(1))
    assert {p: berezinian_raw(om, p).constant_value() for p in om.maps} == {
        (0, 1): 1, (1, 2): 1, (2, 0): 1,
    }


def test_berezinian_raw_product_is_one():
    # the loop identity forces the three raw values to multiply to 1,
    # whatever the family; so no single fixed convention can see -1 thrice
    for build in (build_decomposable, build_omega1):
        for lam in (Fraction(0), Fraction(2)):
            atlas = build(lam)
            prod = Fraction(1)
            for pair in atlas.maps:
                prod *= berezinian_raw(atlas, pair).constant_value()
            assert prod == 1


@pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 0)])
def test_berezinian_normal_form_spot(pair):
    atlas = build_omega1(Fraction(3, 2))
    assert berezinian_normal_form(atlas, pair).constant_value() == -1


NF_LAMBDAS = (Fraction(0), Fraction(1), Fraction(2), Fraction(3, 2), Fraction(-7, 3))
NF_ATLASES = {
    **{f"{b.__name__}({lam})": partial(b, lam) for b in (build_decomposable, build_omega1) for lam in NF_LAMBDAS},
    "build_pi_plane()": build_pi_plane,
    "rescale_odd(build_omega1(3), 2)": lambda: rescale_odd(build_omega1(Fraction(3)), 2),
    "split O(-1)+O(-1)": _split_minus_one_twice_atlas,  # non-constant Berezinians
}


@pytest.mark.parametrize("name", NF_ATLASES)
def test_normal_form_signs_match_the_recomposed_map(name):
    # the raw value times the sign table equals the Berezinian of the map
    # recomposed in the adapted frames, read back onto chart j's own table
    atlas = NF_ATLASES[name]()
    s = frame_signs(atlas)
    for pair in ((0, 1), (1, 2), (2, 0)):
        table = standard_chart(pair[1]).table
        back = {n: SuperElem.var(table, n) for n in table.names}
        back[table.odd[0]] = back[table.odd[0]] * s[pair[1]]  # undo the source rebasing
        want = substitute(berezinian(jacobian(normal_form_map(atlas, pair))), back)
        assert berezinian_normal_form(atlas, pair) == want, pair


def test_normal_form_signs_of_the_named_families():
    assert normal_form_signs(build_decomposable(Fraction(1))) == {(0, 1): 1, (1, 2): 1, (2, 0): -1}
    assert normal_form_signs(build_omega1(Fraction(1))) == {(0, 1): -1, (1, 2): -1, (2, 0): -1}


def test_berezinian_normal_form_rejects_unknown_pair():
    with pytest.raises(SuperError):
        berezinian_normal_form(build_decomposable(Fraction(1)), (1, 0))


# ---------------------------------------------------------------------------
# the recorded failing variant of the third overlap
# ---------------------------------------------------------------------------


def test_third_overlap_with_z10_denominators_breaks_the_loop():
    # replacing the (2<-0) assignment by the same shape over z10 instead of
    # z20 leaves a plausible-looking atlas whose cyclic loop does not close
    atlas = build_decomposable(Fraction(1))
    variant = {
        "z12": parse("z10^-1", T0),
        "z22": parse("z20/z10 + t10*t20/z10^2", T0),
        "t12": parse("t10/z10", T0),
        "t22": parse("t20/z10^2", T0),
    }
    maps = dict(atlas.maps)
    maps[(2, 0)] = TransitionMap(standard_chart(0), standard_chart(2), variant)
    report = check_cocycle_loop(Atlas(atlas.charts.values(), maps))
    assert not report.ok
    assert report.nonzero()


# ---------------------------------------------------------------------------
# rank bookkeeping for the restricted symmetric powers
# ---------------------------------------------------------------------------


def test_sym_restricted_rank():
    for k in range(1, 8):
        assert sym_restricted_rank(k) == (2 * k, 2 * k)
    with pytest.raises(SuperError):
        sym_restricted_rank(0)
    with pytest.raises(SuperError):
        sym_restricted_rank(-2)


# ---------------------------------------------------------------------------
# the README quick tour
# ---------------------------------------------------------------------------


def test_readme_quick_tour():
    # run the block and check each expression line against the literal that
    # leads its comment, e.g. "-1 in the adapted frames"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[stmt.lineno - 1].split("#", 1)[1].strip()
        want = ast.literal_eval(re.match(r"True|False|-?\d+|\{.*\}", comment)[0])
        assert eval(code, namespace) == want, (code, comment)
        checked += 1
    assert checked == 5
