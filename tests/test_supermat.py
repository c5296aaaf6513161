"""Block-graded matrices: product, determinant, inverse, Berezinian, row reduction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergeo import (
    SuperElem,
    SuperError,
    SuperMatrix,
    VarTable,
    berezinian,
    det_even,
    inverse,
    matmul,
    parse,
    standard_form,
)
from supergeo.families import big_cell
from supergeo.selfcheck import TABLE, random_supermatrix

from oracles import berezinian_alt, identity_matrix, perm_det

T = VarTable(("z11", "z21"), ("t11", "t21"))


def E(text, table=T):
    return parse(text, table)


# -- strategies over T: masks 0 and 3 are even, 1 and 2 odd, 3 is nilpotent ----

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def elems_of(masks, min_size=0):
    def build(term_list):
        acc = {}
        for c, e, m in term_list:
            acc[(e, m)] = acc.get((e, m), Fraction(0)) + c
        return SuperElem(T, acc)

    return st.builds(build, st.lists(st.tuples(coeffs, exps, st.sampled_from(masks)), min_size=min_size, max_size=3))


even_elems = elems_of([0, 3])
odd_elems = elems_of([1, 2])
nilpotent_elems = elems_of([3])
units = st.builds(lambda c, e, n: SuperElem(T, {(e, 0): c}) + n, coeffs, exps, nilpotent_elems)


@st.composite
def invertible_supermatrices(draw, n):
    """n|n supermatrices whose even blocks have unit diagonals and a nilpotent
    lower triangle, so det(A), det(D) and both Schur complements are units."""

    def even_block():
        return [
            [draw(units) if i == j else draw(even_elems if i < j else nilpotent_elems) for j in range(n)]
            for i in range(n)
        ]

    def odd_block():
        return [[draw(odd_elems) for _ in range(n)] for _ in range(n)]

    return SuperMatrix(T, even_block(), odd_block(), odd_block(), even_block())


supermatrices = st.sampled_from([1, 2]).flatmap(invertible_supermatrices)


def diag_matrix(a_texts, d_texts, table=T):
    p, q = len(a_texts), len(d_texts)
    zero = SuperElem.zero(table)
    A = [[E(a_texts[i], table) if i == j else zero for j in range(p)] for i in range(p)]
    D = [[E(d_texts[i], table) if i == j else zero for j in range(q)] for i in range(q)]
    B = [[zero] * q for _ in range(p)]
    C = [[zero] * p for _ in range(q)]
    return SuperMatrix(table, A, B, C, D)


# ---------------------------------------------------------------------------
# det_even
# ---------------------------------------------------------------------------


def test_det_diag():
    grid = [[E("z11^-1"), E("0")], [E("0"), E("z11^-2")]]
    assert det_even(grid) == E("z11^-3")


def test_det_identity():
    grid = [[E("1"), E("0")], [E("0"), E("1")]]
    assert det_even(grid) == SuperElem.one(T)


def test_det_cotangent_block():
    grid = [[E("-z11^-2"), E("0")], [E("-z21*z11^-2"), E("z11^-1")]]
    assert det_even(grid) == E("-z11^-3")


def test_det_rejects_bad_input():
    with pytest.raises(SuperError):
        det_even([[E("1"), E("0")]])
    with pytest.raises(SuperError):
        det_even([[E("t11")]])


def even_grids(n):
    return st.lists(st.lists(even_elems, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(even_grids))
def test_det_matches_permutation_expansion(grid):
    assert det_even(grid) == perm_det(grid)


@settings(max_examples=20, deadline=None)
@given(
    even_grids(2),
    elems_of([1, 2], min_size=1).filter(lambda x: not x.is_zero()),
    st.integers(0, 1),
    st.integers(0, 1),
)
def test_property_det_2x2_refuses_an_odd_entry(grid, odd, i, j):
    grid[i][j] = odd
    with pytest.raises(SuperError, match="not even"):
        det_even(grid)


def test_det_multiplicative_on_commuting_grids():
    rng = random.Random(99)
    for _ in range(10):
        def rand_grid():
            return [
                [
                    SuperElem(
                        T,
                        {
                            ((rng.randint(-1, 1), rng.randint(-1, 1)), rng.choice([0, 3])): Fraction(
                                rng.randint(1, 3)
                            )
                        },
                    )
                    for _ in range(2)
                ]
                for _ in range(2)
            ]

        X, Y = rand_grid(), rand_grid()
        prod = [
            [sum((X[i][k] * Y[k][j] for k in range(2)), SuperElem.zero(T)) for j in range(2)]
            for i in range(2)
        ]
        assert det_even(prod) == det_even(X) * det_even(Y)


# ---------------------------------------------------------------------------
# construction and product
# ---------------------------------------------------------------------------


def test_parity_check_on_construction():
    zero = SuperElem.zero(T)
    with pytest.raises(SuperError):
        SuperMatrix(T, [[E("t11")]], [[zero]], [[zero]], [[E("1")]])
    with pytest.raises(SuperError):
        SuperMatrix(T, [[E("1")]], [[E("z11")]], [[zero]], [[E("1")]])


def test_matmul_identity():
    X = random_supermatrix(random.Random(5))
    I = identity_matrix(TABLE, 2, 2)
    assert matmul(X, I) == X
    assert matmul(I, X) == X


def test_matmul_diag_inverse_pair():
    X = diag_matrix(["z11", "z11"], ["1", "1"])
    Y = diag_matrix(["z11^-1", "z11^-1"], ["1", "1"])
    assert matmul(X, Y) == identity_matrix(T, 2, 2)


def test_matmul_dimension_mismatch():
    X = identity_matrix(T, 2, 2)
    Y = identity_matrix(T, 1, 1)
    with pytest.raises(SuperError):
        matmul(X, Y)


def test_matmul_associative():
    rng = random.Random(17)
    X, Y, Z = (random_supermatrix(rng) for _ in range(3))
    assert matmul(matmul(X, Y), Z) == matmul(X, matmul(Y, Z))


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------


def test_inverse_identity():
    I = identity_matrix(T, 2, 2)
    assert inverse(I) == I


def test_inverse_diag():
    X = diag_matrix(["z11"], ["z11^2"])
    assert inverse(X) == diag_matrix(["z11^-1"], ["z11^-2"])


def test_inverse_two_sided_random():
    rng = random.Random(4242)
    I = identity_matrix(TABLE, 2, 2)
    for _ in range(8):
        X = random_supermatrix(rng)
        Xi = inverse(X)
        assert matmul(X, Xi) == I
        assert matmul(Xi, X) == I


def test_inverse_requires_invertible_blocks():
    zero = SuperElem.zero(T)
    X = SuperMatrix(T, [[zero]], [[zero]], [[zero]], [[E("1")]])
    with pytest.raises(SuperError):
        inverse(X)


# ---------------------------------------------------------------------------
# Berezinian
# ---------------------------------------------------------------------------


def test_berezinian_identity():
    assert berezinian(identity_matrix(T, 2, 2)) == SuperElem.one(T)


def test_berezinian_diag():
    X = diag_matrix(["z11^2"], ["z11^3"])
    assert berezinian(X) == E("z11^-1")


def test_berezinian_multiplicative():
    rng = random.Random(314159)
    for _ in range(8):
        X, Y = random_supermatrix(rng), random_supermatrix(rng)
        assert berezinian(matmul(X, Y)) == berezinian(X) * berezinian(Y)


@settings(max_examples=25, deadline=None)
@given(supermatrices)
def test_berezinian_of_inverse(X):
    assert berezinian(X) * berezinian(inverse(X)) == SuperElem.one(T)


@settings(max_examples=25, deadline=None)
@given(supermatrices)
def test_berezinian_conventions_agree(X):
    assert berezinian(X) == berezinian_alt(X)


# ---------------------------------------------------------------------------
# standard form of big cells
# ---------------------------------------------------------------------------


def test_standard_form_already_reduced():
    Z0 = big_cell(0)
    assert standard_form(Z0, 0) == Z0


def test_standard_form_reads_off_chart_change():
    Z1 = big_cell(1)
    W = standard_form(Z1, 0)
    table = Z1.table
    # even row carries the new even coordinates ...
    assert W.grid()[0][0] == SuperElem.one(table)
    assert W.grid()[0][1] == parse("z11^-1", table)
    assert W.grid()[0][2] == parse("z21/z11 + t11*t21/z11^2", table)
    # ... and, via the odd-column block, the new odd coordinates
    assert W.grid()[0][3].is_zero()
    assert W.grid()[0][4] == parse("-t11/z11^2", table)
    assert W.grid()[0][5] == parse("-z21*t11/z11^2 + t21/z11", table)


def test_standard_form_idempotent():
    W = standard_form(big_cell(2), 1)
    assert standard_form(W, 1) == W


def test_standard_form_rejects_singular_minor():
    zero = SuperElem.zero(T)
    Z = SuperMatrix(
        T,
        [[zero, E("1")]],
        [[E("t11"), zero]],
        [[E("-t11"), zero]],
        [[zero, E("1")]],
    )
    with pytest.raises(SuperError):
        standard_form(Z, 0)
