"""Independent naive reference implementations used to cross-check the package.

Everything here is deliberately written in a different style from the library:
terms are plain tuples, odd variables are carried as sorted name tuples, signs
are counted by bubble sort, determinants are expanded over permutations, and
cohomology dimensions are obtained by brute-force monomial enumeration.  None
of these helpers import anything from ``supergeo`` except the element type at
the conversion boundary, and the parser that reads the hand-typed family
tables.  The odd sheaves ``split_cocycle(a)`` (O(a) + O(-3-a)) and
``syzygy_cocycle(d)`` (the syzygy bundle of X0^d, X1^d, X2^d) are typed from
their formulas the same way, and parsed into the ``MatrixCocycle`` type;
``permute_cover`` relabels the homogeneous coordinates by a permutation,
and ``scale_frame`` rescales one odd frame on every chart.

The last section is different: it is former library code that no program path
runs, moved here unchanged and kept as the tests' reference -- the free
functions ``add``/``mul``, the former methods ``j_degrees``,
``identity_matrix`` and ``from_grid``, the second Berezinian convention
``berezinian_alt``, exact map inversion ``invert_map``, the
``identity_cocycle``, ``normal_form_map``, which recomposes an overlap map in
the adapted frames, the graded chain rule ``compose_jacobians``, the odd
rescaling ``rescale_odd``, map composition ``compose`` with ``identity_map``,
and ``omega_cocycle_sum_composed``, the omega-cocycle sum pushed through the
full Jacobians of the composed maps to chart 0.
It imports what it needs from ``supergeo.superalg``, ``supergeo.supermat``
(including the private matrix helpers ``_inv_even``, ``_mm``, ``_msub`` and
``_require_square``), ``supergeo.atlas`` and ``supergeo.families``.
"""

from fractions import Fraction
from itertools import permutations

from supergeo import SuperElem, VarTable, parse
from supergeo.superalg import SuperError, deriv_odd_left, format_elem, invert_unit, substitute
from supergeo.supermat import SuperMatrix, _inv_even, _mm, _msub, _require_square, det_even
from supergeo.atlas import (
    CYCLIC,
    Atlas,
    MatrixCocycle,
    TransitionMap,
    chart0_walk,
    even_remainder_derivation,
    jacobian,
    normal_form_orders,
    standard_chart,
)
from supergeo.families import frame_signs

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


# ---------------------------------------------------------------------------
# odd sheaves F from their formulas, entry by entry as text
# ---------------------------------------------------------------------------
#
# Chart j's even coordinates z1j, z2j are X_c/X_j for the two c != j in
# increasing order, and overlap (i <- j) divides by X_i/X_j.  Each entry is
# typed from its formula in these ratios and parsed over chart j; of the
# library's cover, only the chart tables are read.


def _others(j: int) -> list[int]:
    return [c for c in range(3) if c != j]


def _ratio(c: int, j: int) -> str:
    """The name of X_c/X_j over chart j, for c != j."""
    return f"z{_others(j).index(c) + 1}{j}"


def _formula_cocycle(entry) -> MatrixCocycle:
    """The 2x2 cocycle whose (i <- j) grid holds the text entry(i, j, p, q)
    at row p, column q, parsed over chart j."""
    return MatrixCocycle({
        (i, j): [[parse(entry(i, j, p, q), standard_chart(j)) for q in (0, 1)] for p in (0, 1)]
        for i, j in ((0, 1), (1, 2), (2, 0))
    })


def split_cocycle(a: int) -> MatrixCocycle:
    """O(a) + O(-3-a): diag((X_i/X_j)^a, (X_i/X_j)^(-3-a)) on (i <- j)."""
    return _formula_cocycle(
        lambda i, j, p, q: f"{_ratio(i, j)}^{(a, -3 - a)[p]}" if p == q else "0"
    )


def syzygy_cocycle(d: int) -> MatrixCocycle:
    """F_d = ker(O(a)^3 -> O(a+d)), the map (X0^d, X1^d, X2^d), a = (d-3)/2 for odd d.

    Chart j's frame is e_c = X_j^a (delta_c - (X_c/X_j)^d delta_j) for c != j,
    so on (i <- j) the entry at row c' != i, column c != j is
    (X_i/X_j)^a * (delta(c, c') - delta(c, i) * (X_c'/X_i)^d).
    """
    a = (d - 3) // 2

    def entry(i, j, p, q):
        row, col, piv = _others(i)[p], _others(j)[q], _ratio(i, j)
        power = f"{piv}^{-d}" if row == j else f"{_ratio(row, j)}^{d}*{piv}^{-d}"  # (X_c'/X_i)^d
        return f"{piv}^{a}*({int(col == row)} - {int(col == i)}*{power})"

    return _formula_cocycle(entry)


def permute_cover(atlas: Atlas, sigma: tuple[int, int, int], odd: str) -> Atlas:
    """The atlas with each X_c relabelled X_sigma[c], for a permutation sigma.

    Chart i's data becomes chart sigma[i]'s: z_mi = X_c/X_i is renamed to
    chart sigma[i]'s name for X_sigma[c]/X_sigma[i].  With odd="follow" each
    t_mi goes where z_mi goes; with odd="fixed" it keeps its index m.  A
    3-cycle maps the cyclic overlaps to themselves; a transposition reverses
    them, so each renamed map is inverted and stored at the reversed pair.
    """
    if odd not in ("follow", "fixed"):
        raise ValueError(f"odd must be 'follow' or 'fixed', got {odd!r}")

    def rename(i: int) -> dict[str, str]:
        names = {}
        for m, c in enumerate(_others(i), 1):
            image = _others(sigma[i]).index(sigma[c]) + 1
            names[f"z{m}{i}"] = f"z{image}{sigma[i]}"
            names[f"t{m}{i}"] = f"t{image if odd == 'follow' else m}{sigma[i]}"
        return names

    maps = {}
    for (i, j), f in atlas.maps.items():
        target, source = rename(i), rename(j)
        table = standard_chart(sigma[j])
        images = {name: SuperElem.var(table, new) for name, new in source.items()}
        assignment = {target[name]: substitute(elem, images) for name, elem in f.assignment.items()}
        image = TransitionMap(table, standard_chart(sigma[i]), assignment)
        if (sigma[i], sigma[j]) in CYCLIC:
            maps[(sigma[i], sigma[j])] = image
        else:
            maps[(sigma[j], sigma[i])] = invert_map(image)
    return Atlas(maps, atlas.notes)


# ---------------------------------------------------------------------------
# former library code, kept as the tests' reference
# ---------------------------------------------------------------------------
#
# Moved unchanged from the library, where no program path ran them.
# `berezinian_alt` is the independent check on `berezinian` and `invert_map`
# the independent check on `chart0_walk`; `identity_cocycle` is the det
# twist 0 control; `normal_form_map` is the independent check on
# `normal_form_signs`; `compose_jacobians` is the reference for the graded
# chain rule; `rescale_odd` and `scale_frame` make metamorphic cases (the
# deformation moves by 1/c^2, and by 1/c on a split F);
# `omega_cocycle_sum_composed`, which pushes each overlap's derivation to
# chart 0 by the chain rule and differentiates only the fields
# that carry a coefficient, is the reference for `omega_cocycle_sum`, which
# reads the J^2 part of the walked loop and differentiates nothing.


def identity_map(chart: VarTable) -> TransitionMap:
    assignment = {name: SuperElem.var(chart, name) for name in chart.names}
    return TransitionMap(chart, chart, assignment)


def compose(f: TransitionMap, g: TransitionMap) -> TransitionMap:
    """(f o g): target(f) <- source(g); requires source(f) == target(g)."""
    if f.source != g.target:
        raise SuperError(
            f"cannot compose: f has source chart {f.source.names}, g targets {g.target.names}"
        )
    assignment = {name: substitute(elem, g.assignment) for name, elem in f.assignment.items()}
    return TransitionMap(g.source, f.target, assignment)


def omega_cocycle_sum_composed(atlas: Atlas) -> dict[str, SuperElem]:
    """Read the three deformation derivations on chart 0 and sum them.

    Each overlap (i <- j) contributes the derivation with the J-degree-2 even
    remainders as coefficients (over chart j) on the chart-i coordinate
    fields.  The coefficients are pulled back to chart 0 along the chart-0
    walk; the chart-i fields are pushed through the (0 <- i) map (the
    identity, f01 or f01 o f12), whose Jacobian entries are pulled back the
    same way.  The sum of a true cocycle is the zero derivation.
    """
    walk = chart0_walk({pair: atlas.map(*pair).assignment for pair in CYCLIC})
    f01 = atlas.map(0, 1)
    to0 = {0: identity_map(standard_chart(0)), 1: f01, 2: compose(f01, atlas.map(1, 2))}
    table = standard_chart(0)
    total = {name: SuperElem.zero(table) for name in table.names}
    for i, j in CYCLIC:
        fields = {
            name: c if j == 0 else substitute(c, walk[j])
            for name, c in even_remainder_derivation(atlas.map(i, j)).items()
            if not c.is_zero()
        }
        jac = jacobian(to0[i]).grid()
        for m, sname in enumerate(to0[i].source.names):
            if sname not in fields:
                continue
            for l, tname in enumerate(table.names):
                if not jac[l][m].is_zero():
                    total[tname] = total[tname] + substitute(jac[l][m], walk[i]) * fields[sname]
    return total


def add(a: SuperElem, b: SuperElem) -> SuperElem:
    return a + b


def mul(a: SuperElem, b: SuperElem) -> SuperElem:
    return a * b


def j_degrees(a: SuperElem) -> set[int]:
    """The J-degrees of a's terms (was the method SuperElem.j_degrees)."""
    return {mask.bit_count() for _, mask in a.terms}


def identity_matrix(table: VarTable, p: int, q: int) -> SuperMatrix:
    """The p|q identity matrix (was the classmethod SuperMatrix.identity)."""

    def zeros(rows, cols):
        return [[SuperElem.zero(table) for _ in range(cols)] for _ in range(rows)]

    A = zeros(p, p)
    D = zeros(q, q)
    for i in range(p):
        A[i][i] = SuperElem.one(table)
    for i in range(q):
        D[i][i] = SuperElem.one(table)
    return SuperMatrix(table, A, zeros(p, q), zeros(q, p), D)



def berezinian_alt(x: SuperMatrix) -> SuperElem:
    """Cross-check route: Ber X = det(A) * det(D - C A^{-1} B)^{-1}."""
    _require_square(x)
    Ainv = _inv_even(x.A)
    S = _msub(x.D, _mm(_mm(x.C, Ainv), x.B))
    return det_even(x.A) * invert_unit(det_even(S))



def invert_map(f: TransitionMap) -> TransitionMap:
    """Exact two-sided inverse of a transition map.

    The even bodies must form an invertible monomial coordinate change (that
    is checked on the integer exponent matrix).  The odd part inverts as a
    linear system over the algebra, and a single Newton correction then kills
    the remaining even J-degree-2 error exactly since J^3 = 0.
    """
    src, tgt = f.source, f.target
    ne = len(src.even)
    if len(tgt.even) != ne or len(tgt.odd) != len(src.odd):
        raise SuperError("invert_map needs equal gradings on both charts")

    # 1. invert the monomial body map
    exps_rows: list[list[int]] = []
    coeffs: list[Fraction] = []
    for name in tgt.even:
        body = f.assignment[name].body()
        if len(body.terms) != 1:
            raise SuperError(f"body of {name!r} is not a single Laurent term")
        (exps, _mask), c = next(iter(body.terms.items()))
        exps_rows.append(list(exps))
        coeffs.append(c)
    inv_rows = _integer_inverse(exps_rows)

    g_assignment: dict[str, SuperElem] = {}
    for m, xname in enumerate(src.even):
        coeff = Fraction(1)
        exps = [0] * ne
        for l in range(ne):
            b = inv_rows[m][l]
            exps[l] = b
            coeff *= Fraction(coeffs[l]) ** -b
        g_assignment[xname] = SuperElem(tgt, {(tuple(exps), 0): coeff})

    # 2. odd part: theta'_l = sum_k M[l][k-] theta_k  inverts linearly
    nq = len(src.odd)
    if nq:
        M = [
            [deriv_odd_left(f.assignment[tname], sname) for sname in src.odd]
            for tname in tgt.odd
        ]
        for l, tname in enumerate(tgt.odd):
            linear = SuperElem.zero(src)
            for k, sname in enumerate(src.odd):
                linear = linear + M[l][k] * SuperElem.var(src, sname)
            if linear != f.assignment[tname]:
                raise SuperError(f"odd assignment for {tname!r} is not linear in the odd variables")
        even_part = {n: g_assignment[n] for n in src.even}
        Mt = [[substitute(entry, even_part) for entry in row] for row in M]
        Minv = _inv_even(Mt)  # adjugate inverse over the algebra
        for k, sname in enumerate(src.odd):
            acc = SuperElem.zero(tgt)
            for l, tname in enumerate(tgt.odd):
                acc = acc + Minv[k][l] * SuperElem.var(tgt, tname)
            g_assignment[sname] = acc

    g = TransitionMap(tgt, src, g_assignment)

    # 3. one Newton step on the even coordinates
    h = compose(f, g)
    ident = identity_map(tgt)
    error = {
        name: h.assignment[name] - ident.assignment[name] for name in tgt.names
    }
    if all(e.is_zero() for e in error.values()):
        return g
    for name in tgt.odd:
        if not error[name].is_zero():
            raise SuperError(f"odd inversion residual for {name!r}: {format_elem(error[name])}")
    shift = {
        name: ident.assignment[name] - error[name] for name in tgt.names
    }
    g_fixed = {name: substitute(elem, shift) for name, elem in g.assignment.items()}
    g = TransitionMap(tgt, src, g_fixed)
    h = compose(f, g)
    if h != ident:
        raise SuperError("Newton correction failed to produce an exact inverse")
    return g


def _integer_inverse(rows: list[list[int]]) -> list[list[int]]:
    """Inverse of an integer matrix, required to be integral."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise SuperError("body exponent matrix is singular; not a coordinate change")
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            v = aug[i][n + j]
            if v.denominator != 1:
                raise SuperError("body map is not invertible as a monomial change")
            row.append(int(v))
        out.append(row)
    return out



def identity_cocycle() -> MatrixCocycle:
    mats = {}
    for pair in CYCLIC:
        table = standard_chart(pair[1])
        one, zero = SuperElem.one(table), SuperElem.zero(table)
        mats[pair] = [[one, zero], [zero, one]]
    return MatrixCocycle(mats)


def normal_form_map(atlas: Atlas, pair: tuple[int, int]) -> TransitionMap:
    """The overlap map rewritten in the per-overlap theorem arrangement.

    Two explicit, recorded changes: (a) even coordinates are reordered so the
    reciprocal target coordinate and the source pivot come first; (b) the
    first odd frame of chart i is rescaled by the constant s_i that normalizes
    det M to +1/pivot^3 (solved from the stored odd blocks, s_1 = +1).  The
    result is an honest TransitionMap run through the ordinary Jacobian and
    Berezinian pipeline.
    """
    if pair not in CYCLIC:
        raise SuperError(f"normal form defined for the cyclic overlaps, got {pair}")
    s = frame_signs(atlas)
    i, j = pair
    f = atlas.map(i, j)
    target_order, source_order = normal_form_orders(pair)
    tgt_ad = VarTable(target_order, f.target.odd)
    src_ad = VarTable(source_order, f.source.odd)

    # rebase: adapted_target <- target, applying the frame sign on theta_1i
    r_tgt = TransitionMap(
        f.target,
        tgt_ad,
        {
            **{n: SuperElem.var(f.target, n) for n in tgt_ad.even},
            tgt_ad.odd[0]: SuperElem.var(f.target, f.target.odd[0]) * s[i],
            tgt_ad.odd[1]: SuperElem.var(f.target, f.target.odd[1]),
        },
    )
    # unbase: source <- adapted_source, removing the sign from theta_1j
    r_src = TransitionMap(
        src_ad,
        f.source,
        {
            **{n: SuperElem.var(src_ad, n) for n in f.source.even},
            f.source.odd[0]: SuperElem.var(src_ad, f.source.odd[0]) * Fraction(1, s[j]),
            f.source.odd[1]: SuperElem.var(src_ad, f.source.odd[1]),
        },
    )
    return compose(compose(r_tgt, f), r_src)


def from_grid(table: VarTable, grid: list, p: int, r: int) -> SuperMatrix:
    """Split a (p+q) x (r+s) grid into blocks at row p, column r (was the
    classmethod SuperMatrix.from_grid)."""
    A = [row[:r] for row in grid[:p]]
    B = [row[r:] for row in grid[:p]]
    C = [row[:r] for row in grid[p:]]
    D = [row[r:] for row in grid[p:]]
    return SuperMatrix(table, A, B, C, D)


def compose_jacobians(f: TransitionMap, g: TransitionMap) -> SuperMatrix:
    """Chain rule for left-derivative Jacobians.

    For left derivatives the correct product is the graded-ordered one,
        J(f o g)[l][m] = sum_i J(g)[i][m] * (J(f)[l][i] o g),
    with the J(g) factor on the left.  (The naive matmul of the substituted
    matrices differs by Koszul signs and is NOT the chain rule here; this is
    asserted in the tests.)
    """
    if f.source != g.target:
        raise SuperError("compose_jacobians: charts do not line up")
    jf = jacobian(f).grid()
    jg = jacobian(g).grid()
    src_names = g.source.names
    mid_names = f.source.names
    tgt_names = f.target.names
    jf_sub = [[substitute(e, g.assignment) if not e.is_zero() else SuperElem.zero(g.source) for e in row] for row in jf]
    grid = []
    for l in range(len(tgt_names)):
        row = []
        for m in range(len(src_names)):
            acc = SuperElem.zero(g.source)
            for i in range(len(mid_names)):
                acc = acc + jg[i][m] * jf_sub[l][i]
            row.append(acc)
        grid.append(row)
    p = len(f.target.even)
    r = len(g.source.even)
    return from_grid(g.source, grid, p, r)


def rescale_odd(atlas: Atlas, c) -> Atlas:
    """Globally rescale the odd coordinates by c; the deformation scales by 1/c^2.

    Conjugates every stored map by theta -> c*theta on each chart: the odd
    blocks are untouched while an even term bilinear in the source odds picks
    up 1/c^2, so rescale_odd(build_decomposable(4), 2) == build_decomposable(1).
    """
    return _scale_odd(atlas, (1, 2), c)


def scale_frame(atlas: Atlas, m: int, c) -> Atlas:
    """Rescale one odd frame, t_mi -> c*t_mi on every chart i (m = 1 or 2).

    A constant automorphism of a split F's summand, so the deformation picks
    up 1/c: scale_frame(build_decomposable(3/2), 1, c) == build_decomposable(3/(2c)).
    On a non-split F it is no automorphism: the loop still closes, but the
    odd blocks change.
    """
    if m not in (1, 2):
        raise ValueError(f"m must be 1 or 2, got {m!r}")
    return _scale_odd(atlas, (m,), c)


def _scale_odd(atlas: Atlas, frames: tuple[int, ...], c) -> Atlas:
    """Conjugate every stored map by t_mi -> c*t_mi for each m in frames."""
    c = Fraction(c)
    if not c:
        raise SuperError("odd rescaling must be invertible")
    maps = {}
    for key, f in atlas.maps.items():
        scale_tgt = _odd_scaling(f.target, frames, c)
        unscale_src = _odd_scaling(f.source, frames, 1 / c)
        maps[key] = compose(compose(scale_tgt, f), unscale_src)
    return Atlas(maps, atlas.notes)


def _odd_scaling(chart: VarTable, frames: tuple[int, ...], c: Fraction) -> TransitionMap:
    assignment = {name: SuperElem.var(chart, name) for name in chart.names}
    for m in frames:
        name = chart.odd[m - 1]
        assignment[name] = assignment[name] * c
    return TransitionMap(chart, chart, assignment)


def j2_shift(atlas: Atlas, shifts: dict[int, dict[str, str]]) -> Atlas:
    """Conjugate every stored map by the even J^2-shifts phi_i: z -> z + h*t1i*t2i.

    `shifts[i]` maps even coordinates of chart i to the text of h, a function
    of chart i's evens; phi_i^-1 flips the sign of the shift, since
    (t1i*t2i)^2 = 0.  The result is isomorphic to the given atlas.
    """

    def phi(i: int, sign: int) -> TransitionMap:
        t = standard_chart(i)
        bilinear = SuperElem.var(t, t.odd[0]) * SuperElem.var(t, t.odd[1])
        assignment = {name: SuperElem.var(t, name) for name in t.names}
        for name, h in shifts.get(i, {}).items():
            assignment[name] = assignment[name] + parse(h, t) * bilinear * sign
        return TransitionMap(t, t, assignment)

    maps = {(i, j): compose(compose(phi(i, 1), f), phi(j, -1)) for (i, j), f in atlas.maps.items()}
    return Atlas(maps, atlas.notes)
