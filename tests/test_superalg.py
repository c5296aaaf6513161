"""Core algebra: canonical forms, Koszul signs, inversion, substitution."""

import copy
import pickle
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supergeo import (
    NotAUnit,
    ParseError,
    SuperElem,
    SuperError,
    TableMismatch,
    VarTable,
    deriv_even,
    deriv_odd_left,
    format_elem,
    invert_unit,
    parse,
    substitute,
    truncate_J,
)
from supergeo import selfcheck
from supergeo.superalg import MAX_DEPTH, MAX_EXPONENT, int_digit_limit, printable

from oracles import add, elem_to_naive, j_degrees, mul, naive_add, naive_mul

T = VarTable(("z", "w"), ("t1", "t2"))


def E(text, **bindings):
    return parse(text, T, {k: Fraction(v) for k, v in bindings.items()})


# ---------------------------------------------------------------------------
# constructors and predicates
# ---------------------------------------------------------------------------


def test_var_table_rejects_duplicates():
    with pytest.raises(SuperError):
        VarTable(("z", "z"), ("t1",))
    with pytest.raises(SuperError):
        VarTable(("z",), ("t1", "t1"))
    with pytest.raises(SuperError):
        VarTable(("z",), ("z",))


def test_var_table_is_an_immutable_value():
    same = VarTable(even=("z", "w"), odd=("t1", "t2"))
    assert same is not T and same == T and hash(same) == hash(T)
    assert {T: 1}[same] == 1
    assert T != VarTable(("w", "z"), ("t1", "t2"))
    assert T != VarTable(("z", "w"), ("t1",))
    assert T != (("z", "w"), ("t1", "t2"))
    with pytest.raises(AttributeError):
        T.even = ("x",)
    with pytest.raises(AttributeError):
        T.extra = 1
    with pytest.raises(AttributeError):
        del T.odd
    assert T.names == ("z", "w", "t1", "t2")
    for twin in (copy.copy(T), copy.deepcopy(T), pickle.loads(pickle.dumps(T))):
        assert twin == T and twin.names == T.names


def test_zero_one_const():
    assert SuperElem.zero(T).is_zero()
    assert SuperElem.one(T).is_constant()
    assert SuperElem.const(T, Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert SuperElem.zero(T).constant_value() == 0


def test_parity_predicates():
    assert E("z + t1*t2").is_even()
    assert E("t1 + z*t2").is_odd()
    assert not E("z + t1").is_even()
    assert not E("z + t1").is_odd()
    assert SuperElem.zero(T).is_even() and SuperElem.zero(T).is_odd()


def test_j_degrees():
    assert j_degrees(E("z + t1*t2")) == {0, 2}
    assert j_degrees(E("t1")) == {1}
    assert E("z").body() == E("z")
    assert E("z + t1*t2").body() == E("z")


# ---------------------------------------------------------------------------
# add / mul, frozen examples
# ---------------------------------------------------------------------------


def test_add_cancellation():
    assert add(E("t1*t2"), E("-t1*t2")).is_zero()


def test_add_merges_like_terms():
    assert add(E("z^-1"), E("z^-1")) == E("2*z^-1")


def test_add_merges_across_keys():
    # independently: pool both term lists and sum coefficients per key
    a, b = E("1 + t1*t2"), E("z - t1*t2")
    assert elem_to_naive(add(a, b)) == naive_add(
        [(c, k[0], _names(k[1])) for k, c in _raw(a)],
        [(c, k[0], _names(k[1])) for k, c in _raw(b)],
    )
    assert add(a, b) == E("1 + z")


def _raw(elem):
    return list(elem.terms.items())


def _names(mask):
    return tuple(n for i, n in enumerate(T.odd) if mask & (1 << i))


def test_mul_anticommutation():
    assert mul(E("t1"), E("t2")) == E("t1*t2")
    assert mul(E("t2"), E("t1")) == E("-t1*t2")


def test_mul_nilpotency():
    assert mul(E("t1*t2"), E("t1*t2")).is_zero()
    assert E("t1*t1").is_zero()


def test_mul_conjugate_pair():
    # (z + t1 t2)(z - t1 t2): the cross terms cancel, the square dies
    assert mul(E("z + t1*t2"), E("z - t1*t2")) == E("z^2")


def test_table_mismatch_raises():
    other = VarTable(("z", "w"), ("t1", "t2", "t3"))
    with pytest.raises(TableMismatch):
        add(E("z"), SuperElem.var(other, "z"))
    with pytest.raises(TableMismatch):
        mul(E("z"), SuperElem.var(other, "t3"))


def test_operator_sugar():
    a = E("z")
    assert a + 1 == E("z + 1")
    assert 1 - a == E("1 - z")
    assert a * Fraction(1, 2) == E("z") / 2
    assert a**3 == E("z^3")
    assert a**-2 == E("z^-2")
    assert (a + E("t1*t2")) ** 0 == SuperElem.one(T)


# ---------------------------------------------------------------------------
# invert_unit
# ---------------------------------------------------------------------------


def test_invert_plain_variable():
    assert invert_unit(E("z")) == E("z^-1")


def test_invert_with_nilpotent_part():
    inv = invert_unit(E("z + t1*t2"))
    assert inv == E("z^-1 - z^-2*t1*t2")
    assert mul(E("z + t1*t2"), inv) == SuperElem.one(T)


def test_invert_scaled_laurent_unit():
    a = E("-3*z^2*w^-1 + w*t1")
    assert mul(a, invert_unit(a)) == SuperElem.one(T)


def test_invert_rejects_nilpotent():
    with pytest.raises(NotAUnit):
        invert_unit(E("t1*t2"))


def test_invert_rejects_multi_term_body():
    with pytest.raises(NotAUnit):
        invert_unit(E("z + w"))
    with pytest.raises(NotAUnit):
        invert_unit(SuperElem.zero(T))


# ---------------------------------------------------------------------------
# substitute
# ---------------------------------------------------------------------------


def test_substitute_even_through_inverse():
    a = E("z^-1")
    out = substitute(a, {"z": invert_unit(E("w")), "w": E("w"), "t1": E("t1"), "t2": E("t2")})
    assert out == E("w")


def test_substitute_odd_swap_picks_up_sign():
    out = substitute(E("t1*t2"), {"z": E("z"), "w": E("w"), "t1": E("t2"), "t2": E("t1")})
    assert out == E("-t1*t2")


def test_substitute_is_multiplicative():
    images = {"z": E("w + t1*t2"), "w": E("z^-1"), "t1": E("w*t2"), "t2": E("t1 + z*t2")}
    a, b = E("z*t1 + w^2"), E("t2 - 3*z")
    assert substitute(mul(a, b), images) == mul(substitute(a, images), substitute(b, images))


def test_substitute_rejects_odd_parity_violation():
    with pytest.raises(ValueError):
        substitute(E("t1"), {"z": E("z"), "w": E("w"), "t1": E("z"), "t2": E("t2")})


def test_substitute_needs_unit_only_for_negative_powers():
    # a nilpotent even image is fine while no negative power of it is taken
    images = {"z": E("t1*t2"), "w": E("w"), "t1": E("t1"), "t2": E("t2")}
    assert substitute(E("z^2"), images).is_zero()
    with pytest.raises(SuperError):
        substitute(E("z^-1"), images)


# ---------------------------------------------------------------------------
# derivatives and truncation
# ---------------------------------------------------------------------------


def test_deriv_even_laurent():
    assert deriv_even(E("z^-1"), "z") == E("-z^-2")
    assert deriv_even(E("z^-2*t1*t2"), "z") == E("-2*z^-3*t1*t2")
    assert deriv_even(E("w"), "z").is_zero()


def test_deriv_odd_left_signs():
    assert deriv_odd_left(E("t1*t2"), "t1") == E("t2")
    assert deriv_odd_left(E("t1*t2"), "t2") == E("-t1")
    assert deriv_odd_left(E("z"), "t1").is_zero()


def test_deriv_unknown_variable():
    with pytest.raises(ValueError):
        deriv_even(E("z"), "q")
    with pytest.raises(ValueError):
        deriv_odd_left(E("t1"), "q")


def test_truncate_J():
    a = E("z + t1 + t1*t2")
    assert truncate_J(a, 0).is_zero()
    assert truncate_J(a, 1) == E("z")
    assert truncate_J(a, 2) == E("z + t1")
    assert truncate_J(a, 3) == a


# ---------------------------------------------------------------------------
# parser and formatter
# ---------------------------------------------------------------------------


def test_parse_single_term():
    a = E("t1*t2/z^2")
    assert a.terms == {((-2, 0), 0b11): Fraction(1)}


def test_parse_with_binding():
    a = parse("w/z + l*t1*t2/z^2", T, {"l": Fraction(1)})
    assert a == E("z^-1*w + z^-2*t1*t2")


def test_parse_square_is_zero():
    assert E("t1*t1").is_zero()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("z +", T)
    with pytest.raises(ParseError):
        parse("q + 1", T)
    with pytest.raises(ParseError):
        parse("z^x", T)
    with pytest.raises(ParseError):
        parse("1/(z + w)", T)


@pytest.mark.parametrize(
    "text, pos",
    [("\u00b2", 0), ("z^\u00b2", 2), ("z^\u0663", 2), ("1\u0663", 1), ("3*\uff17", 2)],
    ids=["superscript", "superscript-exponent", "arabic-indic-exponent", "arabic-indic-tail", "fullwidth"],
)
def test_parse_reads_only_ascii_digits(text, pos):
    # str.isdigit() holds for each of these characters; int() reads some of them
    with pytest.raises(ParseError, match=f"unexpected character .* at position {pos}$"):
        parse(text, T)


def count_adds(monkeypatch) -> list[int]:
    calls = [0]
    add = SuperElem.__add__

    def counting(self, other):
        calls[0] += 1
        return add(self, other)

    monkeypatch.setattr(SuperElem, "__add__", counting)
    monkeypatch.setattr(SuperElem, "__radd__", counting)
    return calls


@pytest.mark.parametrize("n", [10, 400])
def test_parse_sums_without_copying_the_partial_sum(n, monkeypatch):
    text = " + ".join(f"{i}*z^{i}" for i in range(1, n + 1)) + " - z^3 - 2*w"
    want = {((i, 0), 0): Fraction(i) for i in range(1, n + 1) if i != 3}
    want[((3, 0), 0)] = Fraction(2)
    want[((0, 1), 0)] = Fraction(-2)
    calls = count_adds(monkeypatch)
    assert parse(text, T).terms == want
    assert calls[0] == 0  # a chain of `+` would copy the growing sum n + 1 times


@pytest.mark.parametrize("n", [10, 400])
def test_substitute_sums_without_copying_the_partial_sum(n, monkeypatch):
    elem = parse(" + ".join(f"{i}*z^{i}*t1" for i in range(1, n + 1)), T)
    images = {"z": E("w"), "w": E("z"), "t1": E("t2"), "t2": E("t1")}
    calls = count_adds(monkeypatch)
    out = substitute(elem, images)
    assert calls[0] == 0
    assert out == parse(" + ".join(f"{i}*w^{i}*t2" for i in range(1, n + 1)), T)


def test_format_round_trip_frozen():
    for text in ["0", "1", "-1", "z^-1*w", "1/2 - 3*z^2*t1", "w^-1 + z*t1*t2"]:
        a = E(text)
        assert parse(format_elem(a), T) == a


def test_format_examples():
    # terms are emitted in lexicographic key order: (-2, 0) before (-1, 0)
    assert format_elem(E("w/z + t1*t2/z^2")) == "z^-2*t1*t2 + z^-1*w"
    assert format_elem(SuperElem.zero(T)) == "0"
    assert format_elem(E("-t1/2")) == "-1/2*t1"


# ---------------------------------------------------------------------------
# randomized properties, cross-checked against the naive oracle
# ---------------------------------------------------------------------------

narrow_coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda q: q != 0)
# coprime denominators and powers of 2 reach the lcm and gcd rescaling of the
# kernel's one shared denominator; numerators past 10^20 reach big ints
wide_coeffs = st.builds(
    Fraction,
    st.one_of(st.integers(-12, 12), st.sampled_from([10**20 + 1, -3 * 10**21, 2**70])).filter(bool),
    st.sampled_from([1, 2, 4, 64, 7, 11, 13]),
)
coeffs = st.one_of(narrow_coeffs, wide_coeffs)
exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
masks = st.integers(0, 3)
terms = st.lists(st.tuples(coeffs, exps, masks), max_size=4)


def build(term_list):
    acc = {}
    for c, e, m in term_list:
        key = (e, m)
        acc[key] = acc.get(key, Fraction(0)) + c
    return SuperElem(T, acc)


elems = st.builds(build, terms)
even_elems = st.builds(build, st.lists(st.tuples(coeffs, exps, st.sampled_from([0, 3])), max_size=4))
odd_elems = st.builds(build, st.lists(st.tuples(coeffs, exps, st.sampled_from([1, 2])), max_size=4))
homogeneous = st.one_of(even_elems, odd_elems)


@settings(max_examples=60, deadline=None)
@example(
    SuperElem(T, {((1, 0), 0): Fraction(1, 7), ((0, 0), 1): Fraction(10**20 + 1, 4)}),
    SuperElem(T, {((-1, 0), 0): Fraction(7, 11), ((0, 1), 2): Fraction(-1, 13)}),
)
@given(elems, elems)
def test_property_mul_matches_naive_oracle(a, b):
    assert elem_to_naive(mul(a, b)) == naive_mul(
        [(c, k[0], _names(k[1])) for k, c in _raw(a)],
        [(c, k[0], _names(k[1])) for k, c in _raw(b)],
    )


@settings(max_examples=60, deadline=None)
@given(homogeneous, homogeneous)
def test_property_supercommutativity(a, b):
    sign = -1 if a.is_odd() and b.is_odd() else 1
    assert mul(a, b) == mul(b, a) * sign


@settings(max_examples=40, deadline=None)
@given(elems, elems, elems)
def test_property_associativity_distributivity(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@settings(max_examples=60, deadline=None)
@given(homogeneous, elems)
def test_property_leibniz_odd_left(a, b):
    lhs = deriv_odd_left(mul(a, b), "t1")
    sign = -1 if a.is_odd() else 1
    rhs = add(mul(deriv_odd_left(a, "t1"), b), mul(a, deriv_odd_left(b, "t1")) * sign)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(elems)
def test_property_format_parse_round_trip(a):
    assert parse(format_elem(a), T) == a


@settings(max_examples=40, deadline=None)
@given(coeffs, exps, elems)
def test_property_invert_unit_round_trip(c, e, noise):
    body = SuperElem(T, {(e, 0): c})
    a = body + (noise - noise.body())
    assert mul(a, invert_unit(a)) == SuperElem.one(T)


@settings(max_examples=60, deadline=None)
@example(Fraction(-3, 2), (2, -1))
@given(coeffs, exps)
def test_property_invert_unit_without_nilpotent_part(c, e):
    a = SuperElem(T, {(e, 0): c})
    inv = invert_unit(a)
    assert inv.terms == {((-e[0], -e[1]), 0): 1 / c}
    assert_canonical(inv)
    assert mul(a, inv) == SuperElem.one(T)


# ---------------------------------------------------------------------------
# hash/eq contract, the internal constructor, powers, exponent bound
# ---------------------------------------------------------------------------


def test_constant_hashes_like_its_fraction():
    assert SuperElem.one(T) == 1
    assert 1 in {SuperElem.one(T)}
    assert SuperElem.one(T) in {1}
    assert {Fraction(3, 2): "x"}[SuperElem.const(T, Fraction(3, 2))] == "x"
    assert hash(SuperElem.const(T, Fraction(3, 2))) == hash(Fraction(3, 2))
    assert hash(SuperElem.const(T, Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(SuperElem.zero(T)) == hash(Fraction(0))
    assert 0 in {SuperElem.zero(T)}
    assert hash(E("1 + t1*t2")) == hash(E("t1*t2 + 1"))


def unit_from(c, e, noise):
    """A unit: the Laurent term c*z^e plus the nilpotent part of `noise`."""
    return SuperElem(T, {(e, 0): c}) + (noise - noise.body())


units = st.builds(unit_from, coeffs, exps, elems)
even_units = st.builds(unit_from, coeffs, exps, even_elems)


def assert_canonical(x):
    """Nonzero int numerators over one den >= 1 sharing no factor with all of
    them; `terms` reads each as a nonzero Fraction; rebuilt from those
    Fractions the element is equal and hashes equal."""
    nums, den = list(x._num.values()), x._den
    assert type(den) is int and den >= 1
    assert all(type(n) is int and n != 0 for n in nums)
    assert gcd(den, *nums) == 1
    assert list(x.terms) == list(x._num) and len(x.terms) == len(nums)
    assert all(type(c) is Fraction and c != 0 for c in x.terms.values())
    twin = SuperElem(x.table, dict(x.terms))
    assert twin == x and hash(twin) == hash(x)


def assert_kernel_output(op, *operands):
    """`op` yields canonical elements and leaves its operands' terms alone."""
    before = [dict(x.terms) for x in operands]
    out = op(*operands)
    for x in out if isinstance(out, tuple) else (out,):
        assert_canonical(x)
    assert [x.terms for x in operands] == before


@settings(max_examples=60, deadline=None)
@given(elems, elems, units, st.integers(-3, 6))
def test_property_kernel_results_are_canonical(a, b, u, n):
    assert_kernel_output(lambda x, y: (x + y, x - y, -x, x * y), a, b)
    assert_kernel_output(lambda x: (x + 2, 1 - x, x * Fraction(1, 2), Fraction(-3) * x), a)
    assert_kernel_output(lambda x: (x**n, invert_unit(x), a / x), u)
    if n >= 0:
        assert_kernel_output(lambda x: x**n, a)
    assert_kernel_output(
        lambda x: (deriv_even(x, "z"), deriv_even(x, "w"), deriv_odd_left(x, "t1"),
                   deriv_odd_left(x, "t2"), x.body(), *(truncate_J(x, k) for k in range(4))),
        a,
    )
    # equal elements reached by different routes are equal and hash equal
    for x, y in (((a + b) - b, a), (a * (b + 1), a * b + a),
                 (u * invert_unit(u), SuperElem.one(T)), (a.body() + (a - a.body()), a)):
        assert x == y and hash(x) == hash(y)


@pytest.mark.parametrize("make, want", [
    (lambda: E("z/2 + t1*t2/3").body(), ({((1, 0), 0): 1}, 2)),
    (lambda: truncate_J(E("z/2 + t1*t2/3"), 2), ({((1, 0), 0): 1}, 2)),
    (lambda: truncate_J(E("z/2 + t1*t2/3"), 0), ({}, 1)),
    (lambda: deriv_even(E("z^2/2"), "z"), ({((1, 0), 0): 1}, 1)),
    (lambda: deriv_odd_left(E("z/2 + t1"), "t1"), ({((0, 0), 0): 1}, 1)),
    (lambda: SuperElem.const(T, Fraction(4, 6)), ({((0, 0), 0): 2}, 3)),
    (lambda: E("1/2 + z/2") * 2, ({((0, 0), 0): 1, ((1, 0), 0): 1}, 1)),
    (lambda: E("1/2 + t1") + E("1/2"), ({((0, 0), 0): 1, ((0, 0), 1): 1}, 1)),
    (lambda: invert_unit(E("z/2 + t1/4")), ({((-1, 0), 0): 2, ((-2, 0), 1): -1}, 1)),
], ids=["body", "truncate_J", "truncate_J-to-zero", "deriv_even", "deriv_odd_left", "const",
        "mul", "add", "invert_unit"])
def test_results_divide_out_a_common_factor(make, want):
    # each result but `const` keeps a factor shared by its denominator and all
    # its numerators unless the kernel divides it out; `const` takes 4/6 as 2/3
    x = make()
    assert_canonical(x)
    assert (x._num, x._den) == want


def test_selftest_odd_part_divides_out_a_common_factor():
    # 1/2 + t1 over the generators' denominator 6: its odd part 6/6 is t1
    raw = {((0, 0), 0): 3, ((0, 0), 1): 6}
    x = selfcheck._reduce(selfcheck.TABLE, selfcheck._odd_part(raw), selfcheck.DEN)
    assert_canonical(x)
    assert (x._num, x._den) == ({((0, 0), 1): 1}, 1)


@settings(max_examples=40, deadline=None)
@given(elems, even_units, even_units, odd_elems, odd_elems)
def test_property_substitute_results_are_canonical(a, z_img, w_img, t1_img, t2_img):
    images = {"z": z_img, "w": w_img, "t1": t1_img, "t2": t2_img}
    assert_kernel_output(lambda x, *imgs: substitute(x, images), a, *images.values())


def repeated_product(base, n):
    out = SuperElem.one(T)
    for _ in range(n):
        out = mul(out, base)
    return out


@pytest.mark.parametrize("text", [
    "z + 2*w^-1 - 1/3*z*t1*t2",  # multi-term even
    "1 + z*w + w*t1 - t2",
    "z + t1",
    "3/2",
    "-2/3*z^-1*w^2",
    "t1",
    "t1*t2",
    "0",
])
def test_pow_matches_repeated_multiplication(text):
    base = E(text)
    for n in range(10):
        assert base**n == repeated_product(base, n), n


@pytest.mark.parametrize("text", ["z + t1", "3/2", "-2/3*z^-1*w^2", "w - z*t1*t2 + 2*t2"])
def test_negative_pow_matches_inverse_products(text):
    base = E(text)
    inv = invert_unit(base)
    for n in range(1, 10):
        assert base**-n == repeated_product(inv, n), n
        assert mul(base**-n, base**n) == 1


@pytest.mark.parametrize("text", ["t1", "t1*t2", "z + w", "0"])
def test_negative_pow_of_non_unit_raises(text):
    with pytest.raises(NotAUnit):
        E(text) ** -1


def test_parse_huge_power_round_trips():
    table = VarTable(("z10", "z20"), ("t10", "t20"))  # chart 0
    a = parse("z10^1000000", table)
    assert a.terms == {((1000000, 0), 0): Fraction(1)}
    assert format_elem(a) == "z10^1000000"
    assert parse(format_elem(a), table) == a
    assert parse("z10^-1000000*z10^1000000", table) == 1


def test_parse_exponent_bound():
    assert MAX_EXPONENT == 10**6
    assert parse("l^1000000 * l^-1000000", T, {"l": Fraction(3, 2)}) == 1
    assert parse("z^0001000000", T) == parse(f"z^{MAX_EXPONENT}", T)
    for text in ["z^1000001", "z^-1000001", "l^3000000", "w*z^" + "9" * 5000]:
        with pytest.raises(ParseError, match="exceeds the bound 1000000 at position"):
            parse(text, T, {"l": Fraction(3, 2)})


def test_parse_nesting_bound():
    assert MAX_DEPTH == 100
    d = MAX_DEPTH
    assert parse("(" * d + "z" + ")" * d, T) == parse("z", T)
    assert parse("-" * d + "z", T) == parse("z", T)
    assert parse("(-" * (d // 2) + "z" + ")" * (d // 2), T) == parse("z", T)
    # the count is of what is open, not of what came before
    assert parse(" + ".join(["(" * d + "z" + ")" * d] * 3), T) == parse("3*z", T)
    assert parse(" - ".join(["-" * d + "w"] * 3), T) == parse("-w", T)
    for text, pos in (
        ("(" * (d + 1) + "z" + ")" * (d + 1), d),
        ("(" * 330 + "z" + ")" * 330, d),
        ("1+" + "-" * 1000 + "z", d + 2),
        ("(-" * (d // 2) + "-z" + ")" * (d // 2), d),
    ):
        with pytest.raises(ParseError, match=f"^nesting deeper than {d} at position {pos}$"):
            parse(text, T)


def test_parse_integer_literal_bound(str_digits):
    str_digits(4300)
    assert int_digit_limit() == 4300
    assert parse("9" * 4300, T) == int("9" * 4300)
    for text, pos in (("1" * 4301, 0), ("z + 2*" + "3" * 5000, 6), ("0" * 4300 + "1", 0)):
        with pytest.raises(ParseError, match=f"^integer literal exceeds 4300 digits at position {pos}$"):
            parse(text, T)


def test_printable(str_digits):
    str_digits(4300)
    assert printable(10**4300 - 1, Fraction(-1, 10**4300 - 1), 0)
    assert not printable(1, 10**4300)
    assert not printable(Fraction(1, 10**4300))
    str_digits(640)
    assert printable(-(10**640 - 1)) and not printable(-(10**640))


def test_parse_refuses_an_unprintable_coefficient(str_digits):
    str_digits(4300)
    message = "^a coefficient exceeds 4300 digits in its numerator or denominator$"
    cases = (("9" * 3000 + "*" + "9" * 3000, {}), ("z - l*l", {"l": 10**3000}), ("1/l^2", {"l": 10**3000}))
    for text, bindings in cases:
        with pytest.raises(ParseError, match=message):
            parse(text, T, bindings)
    # only the result must print: a large intermediate value that cancels is fine
    assert parse("9" * 3000 + "*" + "9" * 3000 + " - " + "9" * 3000 + "*" + "9" * 3000, T) == 0


def test_integer_literal_bound_follows_the_process_limit(str_digits):
    str_digits(640)  # the least limit Python accepts: int() refuses 641 digits
    assert int_digit_limit() == 640
    assert parse("9" * 640, T) == int("9" * 640)
    with pytest.raises(ParseError, match="^integer literal exceeds 640 digits at position 4$"):
        parse("z + " + "9" * 641, T)
    str_digits(0)  # no process limit: Python's default still bounds a literal
    assert int_digit_limit() == sys.int_info.default_max_str_digits == 4300
    with pytest.raises(ParseError, match="^integer literal exceeds 4300 digits at position 0$"):
        parse("1" * 4301, T)
