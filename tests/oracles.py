"""Independent naive reference implementations used to cross-check the package.

Everything here is deliberately written in a different style from the library:
terms are plain tuples, odd variables are carried as sorted name tuples, signs
are counted by bubble sort, determinants are expanded over permutations, and
cohomology dimensions are obtained by brute-force monomial enumeration.  None
of these helpers import anything from ``supergeo`` except the element type at
the conversion boundary, and the parser that reads the hand-typed family
tables at the end.
"""

from fractions import Fraction
from itertools import permutations

from supergeo import SuperElem, VarTable, parse

# ---------------------------------------------------------------------------
# naive Grassmann-Laurent arithmetic on list-of-term representations
# ---------------------------------------------------------------------------
#
# A "naive element" is a list of (coeff, even_exps, odd_names) triples where
# odd_names is a tuple of odd-variable names in the order they were written
# (not necessarily sorted).  ``naive_canon`` sorts each factor string by
# bubble sort, counting transpositions to accumulate the Koszul sign.


def _bubble_sign(names):
    arr = list(names)
    sign = 1
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
    return sign, tuple(arr)


def naive_canon(terms):
    """Canonicalize a naive term list into a dict keyed by (exps, odd_tuple)."""
    out = {}
    for coeff, exps, odds in terms:
        if len(set(odds)) != len(odds):
            continue  # repeated odd factor squares to zero
        sign, sorted_odds = _bubble_sign(odds)
        key = (tuple(exps), sorted_odds)
        out[key] = out.get(key, Fraction(0)) + sign * Fraction(coeff)
    return {k: v for k, v in out.items() if v}


def naive_add(a, b):
    return naive_canon(list(a) + list(b))


def naive_mul(a, b):
    prods = []
    for ca, ea, oa in a:
        for cb, eb, ob in b:
            prods.append(
                (
                    Fraction(ca) * Fraction(cb),
                    tuple(x + y for x, y in zip(ea, eb)),
                    tuple(oa) + tuple(ob),
                )
            )
    return naive_canon(prods)


def elem_to_naive(elem: SuperElem):
    """Convert a library element into the canonical naive dict."""
    table = elem.table
    terms = []
    for (exps, mask), coeff in elem.terms.items():
        odds = tuple(
            name for bit, name in enumerate(table.odd) if mask & (1 << bit)
        )
        terms.append((coeff, exps, odds))
    return naive_canon(terms)


# ---------------------------------------------------------------------------
# determinant of a purely even matrix by permutation expansion
# ---------------------------------------------------------------------------


def perm_det(grid):
    """Sum over permutations; entries may be Fractions or SuperElems."""
    n = len(grid)
    total = None
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(n - 1 - i):
                if seen[j] > seen[j + 1]:
                    seen[j], seen[j + 1] = seen[j + 1], seen[j]
                    sign = -sign
        prod = grid[0][perm[0]]
        for i in range(1, n):
            prod = prod * grid[i][perm[i]]
        contrib = prod if sign > 0 else -prod
        total = contrib if total is None else total + contrib
    return total


# ---------------------------------------------------------------------------
# brute-force line-bundle cohomology on P^n by monomial counting
# ---------------------------------------------------------------------------


def count_h0(n, k):
    """Number of degree-k monomials in X_0..X_n with all exponents >= 0."""
    if k < 0:
        return 0

    def count(vars_left, deg):
        if vars_left == 1:
            return 1 if deg >= 0 else 0
        return sum(count(vars_left - 1, deg - e) for e in range(deg + 1))

    return count(n + 1, k)


def count_hn(n, k):
    """Number of degree-k monomials with all exponents <= -1."""
    shifted = k + (n + 1)  # substitute e_i = -1 - f_i, f_i >= 0
    if shifted > 0:
        return 0
    return count_h0(n, -shifted)


# ---------------------------------------------------------------------------
# the two named families, hand-typed assignment by assignment
# ---------------------------------------------------------------------------
#
# Kept as an oracle for the builders, which derive the same atlases from the
# cover rule and a matrix cocycle.  `l` is the deformation parameter.

DECOMPOSABLE = {
    (0, 1): {
        "z10": "1/z11",
        "z20": "z21/z11 + l*t11*t21/z11^2",
        "t10": "t11/z11",
        "t20": "t21/z11^2",
    },
    (1, 2): {
        "z11": "z12/z22 + l*t12*t22/z22^2",
        "z21": "1/z22",
        "t11": "t12/z22",
        "t21": "t22/z22^2",
    },
    (2, 0): {
        "z12": "1/z20",
        "z22": "z10/z20 + l*t10*t20/z20^2",
        "t12": "t10/z20",
        "t22": "t20/z20^2",
    },
}

OMEGA1 = {
    (0, 1): {
        "z10": "1/z11",
        "z20": "z21/z11 + l*t11*t21/z11^2",
        "t10": "-t11/z11^2",
        "t20": "-z21*t11/z11^2 + t21/z11",
    },
    (1, 2): {
        "z11": "z12/z22 - l*t12*t22/z22^2",
        "z21": "1/z22",
        "t11": "t12/z22 - z12*t22/z22^2",
        "t21": "-t22/z22^2",
    },
    (2, 0): {
        "z12": "1/z20",
        "z22": "z10/z20 - l*t10*t20/z20^2",
        "t12": "-t20/z20^2",
        "t22": "t10/z20 - z10*t20/z20^2",
    },
}


def family_assignments(strings, lam):
    """Parse a hand-typed family at deformation lam: (i, j) -> name -> element.

    Each assignment is read over the source chart's variables z1j, z2j | t1j, t2j.
    """
    out = {}
    for (i, j), assigns in strings.items():
        table = VarTable(even=(f"z1{j}", f"z2{j}"), odd=(f"t1{j}", f"t2{j}"))
        out[(i, j)] = {
            name: parse(text, table, {"l": Fraction(lam)}) for name, text in assigns.items()
        }
    return out
