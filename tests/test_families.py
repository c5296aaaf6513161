"""The 2|2 atlases over P^2: builders, matrix cocycles, normal forms, rescaling."""

import ast
import importlib
import inspect
import re
from fractions import Fraction
from functools import partial

import pytest

from oracles import (
    DECOMPOSABLE,
    OMEGA1,
    family_assignments,
    identity_cocycle,
    j_degrees,
    normal_form_map,
    rescale_odd,
    split_cocycle,
    syzygy_cocycle,
)
from supergeo import (
    Atlas,
    CohClass,
    MatrixCocycle,
    SuperElem,
    SuperError,
    TransitionMap,
    atlas_equal,
    berezinian,
    berezinian_normal_form,
    big_cell,
    build_decomposable,
    build_generic,
    build_omega1,
    build_pi_plane,
    check_cocycle_loop,
    cotangent_cocycle,
    decomposable_cocycle,
    fermionic_cocycle,
    format_elem,
    frame_signs,
    is_calabi_yau,
    jacobian,
    normal_form_signs,
    obstruction_delta,
    omega_cocycle_sum,
    parse,
    picard_delta,
    standard_chart,
    substitute,
    sym_restricted_rank,
)
from supergeo.atlas import CHARTS, CYCLIC, pivot, reduced_transition, transition_berezinian
from supergeo.cli import run
from test_acceptance import _split_minus_one_twice_atlas
from test_layering import LAYERS, README, quick_tour

T0 = standard_chart(0)
T1 = standard_chart(1)
T2 = standard_chart(2)


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
            for name in f.target.even:
                assert j_degrees(f.assignment[name]) <= {0}


def test_builders_accept_rational_lambda():
    atlas = build_decomposable(Fraction(3, 2))
    z20 = atlas.map(0, 1).assignment["z20"]
    assert z20 == parse("z21/z11 + 3/2*t11*t21/z11^2", T1)


def test_hand_typed_notes_name_the_cover_facts():
    # the notes appear in every verify-atlas report
    dec = build_decomposable(Fraction(3, 2)).notes
    om = build_omega1(Fraction(3, 2))
    assert re.search(r"with pivots (\w+), (\w+), (\w+)$", dec[0]).groups() == tuple(pivot(p) for p in CYCLIC)
    for notes in (dec, om.notes):
        (note,) = (n for n in notes if n.startswith("(2<-0)"))
        assert re.search(r"pivot (\w+)", note)[1] == pivot((2, 0))
    (note,) = (n for n in om.notes if "frame rebasing" in n)
    signs = re.search(r"s = \(([-+]1), ([-+]1), ([-+]1)\)", note).groups()
    assert tuple(map(int, signs)) == tuple(frame_signs(om)[i] for i in CHARTS)


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


def test_matrix_cocycle_names_the_overlap():
    good = decomposable_cocycle().matrices
    with pytest.raises(SuperError, match=r"^overlap \(0, 1\): matrix is not 1x1$"):
        MatrixCocycle({**good, (0, 1): []})
    with pytest.raises(SuperError, match=r"^overlap \(1, 2\): matrix is not 2x2$"):
        MatrixCocycle({**good, (1, 2): [[parse("1", T2)]]})
    with pytest.raises(SuperError, match=r"^overlap \(2, 0\): matrix is not 2x2$"):
        MatrixCocycle({**good, (2, 0): [[parse("1", T0), parse("0", T0)], [parse("1", T0)]]})
    # a 1x1 cocycle is a valid type, but F needs 2x2
    ones = MatrixCocycle({pair: [[SuperElem.one(standard_chart(pair[1]))]] for pair in good})
    assert ones.size == 1 and decomposable_cocycle().size == 2
    with pytest.raises(SuperError, match=r"^overlap \(0, 1\): matrix is not 2x2$"):
        build_generic(ones, 1)


def test_build_generic_refuses_a_grid_over_the_wrong_chart():
    # (0<-1) written over chart 0 used to escape the det check as a bare ValueError
    mats = {**decomposable_cocycle().matrices, (0, 1): [[parse("1/z10", T0), parse("0", T0)],
                                                        [parse("0", T0), parse("z10^-2", T0)]]}
    with pytest.raises(SuperError, match=r"^overlap \(0, 1\): matrix entry not written over chart 1$"):
        build_generic(MatrixCocycle(mats), 1)


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
    tables = {j: standard_chart(j) for j in range(3)}
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
    atlas = Atlas({**atlas.maps, (0, 1): flipped})
    want = "det signs {(0, 1): -1, (1, 2): 1, (2, 0): 1} are not a coboundary; no O(k) identification"
    with pytest.raises(SuperError) as by_build:
        build_generic(MatrixCocycle(mats), 1)
    with pytest.raises(SuperError) as by_atlas:
        frame_signs(atlas)
    assert str(by_build.value) == str(by_atlas.value) == want


def test_det_exponent_rule_raises_one_message():
    # as above, for the exponents: (1<-2) has det pivot^-2 where the others have pivot^-3
    mats = decomposable_cocycle().matrices
    mats[(1, 2)] = [[parse("1/z22", T2), parse("0", T2)],
                    [parse("0", T2), parse("1/z22", T2)]]
    atlas = build_decomposable(Fraction(0))
    f = atlas.map(1, 2)
    lowered = TransitionMap(f.source, f.target, {**f.assignment, "t21": f.assignment["t21"] * parse("z22", T2)})
    atlas = Atlas({**atlas.maps, (1, 2): lowered})
    want = "det exponents disagree across overlaps: {(0, 1): -3, (1, 2): -2, (2, 0): -3}"
    with pytest.raises(SuperError) as by_build:
        build_generic(MatrixCocycle(mats), 1)
    with pytest.raises(SuperError) as by_atlas:
        frame_signs(atlas)
    assert str(by_build.value) == str(by_atlas.value) == want


def test_formula_cocycles_give_the_named_ones():
    assert syzygy_cocycle(1).matrices == cotangent_cocycle().matrices
    assert split_cocycle(-1).matrices == decomposable_cocycle().matrices


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(3, 2), Fraction(-7, 3)])
def test_build_generic_accepts_a_syzygy_bundle(d, lam):
    # F_3 is not split: h^1(F_3) = 7 by its defining sequence, and Horrocks'
    # criterion splits a bundle on P^2 only when every h^1(F(k)) is 0
    atlas = build_generic(syzygy_cocycle(d), lam)
    assert check_cocycle_loop(atlas).ok
    assert is_calabi_yau(atlas).ok
    assert frame_signs(atlas) == {0: -1, 1: 1, 2: -1}
    want = CohClass({(-1, -1, -1): lam})
    assert picard_delta(atlas) == want
    assert obstruction_delta(atlas) == want
    assert all(v.is_zero() for v in omega_cocycle_sum(atlas).values())


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
    mc = MatrixCocycle(
        {
            pair: [[parse(s, standard_chart(pair[1])) for s in row] for row in grid]
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
    mc = MatrixCocycle(
        {
            pair: [[parse(s, standard_chart(pair[1])) for s in row] for row in grid]
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
# the fixed cover is memoized; what a caller gets stays its own
# ---------------------------------------------------------------------------

LAYER_MODULES = [importlib.import_module(f"supergeo.{layer}") for layer in LAYERS]


def memoized_helpers() -> dict[str, object]:
    """Every functools-memoized function of the layers, by the module.name that
    defines it (a helper another layer imports is listed once)."""
    return {
        f"{value.__module__.split('.')[-1]}.{value.__name__}": value
        for module in LAYER_MODULES
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }


def clear_memoized_helpers():
    for helper in memoized_helpers().values():
        helper.cache_clear()


def test_memoized_helpers_are_keyed_by_the_cover_only():
    # a chart index or a cyclic pair, never lambda, a degree or user text;
    # the Koszul sign table is keyed by two odd masks of one table
    helpers = memoized_helpers()
    assert {name: tuple(inspect.signature(f.__wrapped__).parameters) for name, f in helpers.items()} == {
        "superalg._mask_sign": ("s", "t"),
        "atlas._standard_chart": ("i",),
        "atlas._reduced_transition": ("pair",),
        "atlas._correction": ("pair",),
        "atlas._reduced_walk": (),
        "families._valid_decomposable": (),
        "families._valid_cotangent": (),
        "families._pi_plane": (),
    }
    for lam in (0, 1, Fraction(3, 2), -7):
        build_decomposable(lam)
        build_omega1(lam)
    run(["parse", "z10^5 + 3/2*t10", "--table", "0"])
    run(["parse", "z21/z11", "--table", "1"])
    run(["cohomology", "--n", "2", "--k", "-5", "--q", "2"])
    sizes = {name: f.cache_info().currsize for name, f in helpers.items() if name != "superalg._mask_sign"}
    assert max(sizes.values()) <= 3, sizes


@pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 0)])
def test_reduced_transition_hands_out_a_fresh_dict(pair):
    want = {name: format_elem(e) for name, e in reduced_transition(pair).items()}
    got = reduced_transition(pair)
    table = standard_chart(pair[1])
    for name in list(got):
        got[name] = SuperElem.zero(table)
    got["bogus"] = SuperElem.one(table)
    assert {name: format_elem(e) for name, e in reduced_transition(pair).items()} == want
    built = build_generic(decomposable_cocycle(), 1)
    assert {p: f.assignment for p, f in built.maps.items()} == family_assignments(DECOMPOSABLE, 1)


def test_build_pi_plane_hands_out_fresh_maps():
    got = build_pi_plane()
    for f in got.maps.values():
        for name in list(f.assignment):
            f.assignment[name] = SuperElem.zero(f.source)
        f.assignment["bogus"] = SuperElem.one(f.source)
    got.maps.clear()
    assert {p: f.assignment for p, f in build_pi_plane().maps.items()} == family_assignments(OMEGA1, 1)
    code, report = run(["pi-plane-compare"])
    assert (code, report["details"]["equal"]) == (0, True)


@pytest.mark.parametrize(
    ("cocycle", "builder", "strings"),
    [(decomposable_cocycle, build_decomposable, DECOMPOSABLE), (cotangent_cocycle, build_omega1, OMEGA1)],
)
def test_builtin_cocycle_is_handed_out_fresh(cocycle, builder, strings):
    builder(2)  # validates and caches the built-in cocycle
    got = cocycle()
    for grid in got.matrices.values():
        for row in grid:
            row[:] = [e * 5 for e in row]
    assert got.matrices != cocycle().matrices
    assert {p: f.assignment for p, f in builder(2).maps.items()} == family_assignments(strings, 2)


@pytest.mark.parametrize("cocycle", [decomposable_cocycle, cotangent_cocycle])
def test_build_after_another_lambda_equals_a_fresh_build(cocycle):
    mc = cocycle()
    build_generic(mc, 3)
    after = build_generic(mc, 2)
    clear_memoized_helpers()
    assert atlas_equal(after, build_generic(cocycle(), 2))


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
    # a one-map atlas is refused when it is built, so atlas_equal never sees one
    atlas = build_decomposable(Fraction(1))
    with pytest.raises(SuperError, match="atlas must hold exactly the overlaps"):
        Atlas({(0, 1): atlas.map(0, 1)})


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
    assert {p: transition_berezinian(dec.map(*p)).constant_value() for p in dec.maps} == {
        (0, 1): -1, (1, 2): -1, (2, 0): 1,
    }
    om = build_omega1(Fraction(1))
    assert {p: transition_berezinian(om.map(*p)).constant_value() for p in om.maps} == {
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
                prod *= transition_berezinian(atlas.map(*pair)).constant_value()
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
        table = standard_chart(pair[1])
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
    report = check_cocycle_loop(Atlas(maps))
    assert not report.ok
    assert report.nonzero()


# ---------------------------------------------------------------------------
# rank bookkeeping for the restricted symmetric powers
# ---------------------------------------------------------------------------


def test_sym_restricted_rank():
    for k in range(1, 8):
        assert sym_restricted_rank(k) == (2 * k, 2 * k)
    for k in (0, -2):  # bad input, not a failed verification
        with pytest.raises(ValueError) as exc:
            sym_restricted_rank(k)
        assert not isinstance(exc.value, SuperError)


# ---------------------------------------------------------------------------
# the README quick tour
# ---------------------------------------------------------------------------


def test_readme_quick_tour():
    # run the block and check each expression line against the literal that
    # leads its comment, e.g. "-1 in the adapted frames"
    block = quick_tour(README.read_text())
    lines = block.splitlines()
    namespace = {}
    wants = []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[stmt.lineno - 1].split("#", 1)[1].strip()
        want = ast.literal_eval(re.match(r"True|False|-?\d+|\{.*\}", comment)[0])
        assert eval(code, namespace) == want, (code, comment)
        wants.append(want)
    lam = {"X0^-1*X1^-1*X2^-1": "3/2"}
    assert wants == [True, {(0, 1): 1, (1, 2): 1, (2, 0): 1}, -1, lam, lam]
