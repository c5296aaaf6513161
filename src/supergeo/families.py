"""Builders for the 2|2 supermanifold families over the projective plane.

The reduced manifold is covered by the three standard affine charts; the odd
structure is a rank-2 bundle given by a 2x2 matrix cocycle M with det matching
the O(-3) cocycle, and the single even deformation is controlled by an exact
rational parameter lam.  The two named families take the same two steps as
`build_generic` (validate the cocycle, assemble the atlas) on built-in
cocycles derived from the cover in `atlas`, validated once per process.
Everything here is constructed symbolically and then verified by the exact
loop composition.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .superalg import SuperElem, SuperError, deriv_even, deriv_odd_left, format_elem
from .supermat import SuperMatrix, det_even, standard_form
from .atlas import (
    CHARTS,
    CYCLIC,
    Atlas,
    Chart,
    MatrixCocycle,
    TransitionMap,
    _reduced_walk,
    affine_indices,
    correction,
    cycle_product,
    normal_form_orders,
    pivot,
    pivot_power,
    reduced_transition,
    standard_chart,
    transition_berezinian,
)


def _charts() -> dict[int, Chart]:
    return {i: standard_chart(i) for i in CHARTS}


def build_decomposable(lam) -> Atlas:
    """Family with odd bundle cocycle diag(1/z, 1/z^2) on each overlap.

    The (2<-0) odd denominators are z20 (pivot of that overlap); the variant
    with z10 denominators does not satisfy the loop identity and is rejected
    by the tests.
    """
    notes = (
        "odd blocks: diag(1/pivot, 1/pivot^2) with pivots z11, z22, z20",
        "(2<-0) odd denominators use the pivot z20; the z10 variant fails the loop identity",
    )
    return _assemble(*_valid_decomposable(), Fraction(lam), notes)


def build_omega1(lam) -> Atlas:
    """Family whose odd bundle is the (parity-shifted) cotangent cocycle.

    Odd coordinates transform like the differentials of the even ones; the
    even deformation terms carry per-overlap signs fixed by the constant frame
    rebasing s = (-1, +1, -1) that normalizes det M to +1/pivot^3.
    """
    notes = (
        "odd blocks: cotangent cocycle in the natural (differential) frames",
        "constant frame rebasing s = (-1, +1, -1) normalizes det M to +1/pivot^3",
        "(2<-0) first odd denominator of t22 is the pivot z20 (forced by the loop identity)",
    )
    return _assemble(*_valid_cotangent(), Fraction(lam), notes)


# -- matrix cocycles ----------------------------------------------------------


def decomposable_cocycle() -> MatrixCocycle:
    """diag(1/pivot, 1/pivot^2) on each overlap: the split odd part O(-1) + O(-2)."""
    mats = {}
    for pair in CYCLIC:
        zero = SuperElem.zero(standard_chart(pair[1]).table)
        mats[pair] = [[pivot_power(pair, -1), zero], [zero, pivot_power(pair, -2)]]
    return MatrixCocycle(mats)


def cotangent_cocycle() -> MatrixCocycle:
    """How (dz1, dz2) transform between charts, read as a 0|2 bundle cocycle:
    the even Jacobian of the reduced transitions."""
    mats = {}
    for pair in CYCLIC:
        source = standard_chart(pair[1]).even
        mats[pair] = [
            [deriv_even(elem, name) for name in source] for elem in reduced_transition(pair).values()
        ]
    return MatrixCocycle(mats)


def _match_monomial(elem: SuperElem, var: str) -> tuple[int, int]:
    """Match elem == sign * var^k (sign +-1); returns (sign, k)."""
    if len(elem.terms) != 1:
        raise SuperError(f"not a single Laurent term: {format_elem(elem)}")
    (exps, mask), c = next(iter(elem.terms.items()))
    if mask:
        raise SuperError(f"unexpected odd factors in {format_elem(elem)}")
    if c not in (1, -1):
        raise SuperError(f"coefficient {c} is not +-1 in {format_elem(elem)}")
    idx = elem.table.even_index(var)
    for m, e in enumerate(exps):
        if m != idx and e != 0:
            raise SuperError(
                f"{format_elem(elem)} involves {elem.table.even[m]}, expected a power of {var}"
            )
    return (1 if c == 1 else -1, exps[idx])


def _det_powers(mc: MatrixCocycle) -> dict[tuple[int, int], tuple[int, int]]:
    """(sign, k) with det M_{i<-j} = sign * pivot^k, one det per overlap."""
    powers = {}
    for pair in CYCLIC:
        det = det_even(mc.matrices[pair])
        try:
            powers[pair] = _match_monomial(det, pivot(pair))
        except SuperError as exc:
            raise SuperError(f"overlap {pair[0]}<-{pair[1]}: det does not match any O(k) cocycle: {exc}") from exc
    return powers


def _det_twist(powers) -> int:
    """The k shared by all three dets (`_frame_signs` checks their signs)."""
    k_vals = {pair: k for pair, (_sign, k) in powers.items()}
    ks = set(k_vals.values())
    if len(ks) != 1:
        raise SuperError(f"det exponents disagree across overlaps: {k_vals}")
    return ks.pop()


def _frame_signs(powers) -> dict[int, int]:
    """Constant rebasing s with s_i/s_j = sign(det M_{i<-j}): s = +1 on the
    source chart of the first CYCLIC overlap, then solved round the loop.

    Such s exists exactly when the three det signs multiply to +1.  After
    rescaling the first odd frame of chart i by s_i, every det becomes
    +1/pivot^3; the anchor keeps the first overlap's deformation term with a plus sign.
    """
    eps = {pair: sign for pair, (sign, _k) in powers.items()}
    s = {CYCLIC[0][1]: 1}
    for i, j in CYCLIC[1:] + CYCLIC[:1]:  # from the anchor round the loop and back to it
        s_j = eps[(i, j)] * s[i]  # the signs are +-1, so s_i / eps_ij = eps_ij * s_i
        if s.setdefault(j, s_j) != s_j:  # back on the anchor, the loop must close
            raise SuperError(f"det signs {eps} are not a coboundary; no O(k) identification")
    return s


def fermionic_cocycle(atlas: Atlas) -> MatrixCocycle:
    """Extract the odd-block matrices M_{i<-j} from the stored cyclic maps."""
    mats = {}
    for pair in CYCLIC:
        f = atlas.map(*pair)
        mats[pair] = [
            [deriv_odd_left(f.assignment[tn], sn) for sn in f.source.table.odd]
            for tn in f.target.table.odd
        ]
    return MatrixCocycle(mats)


def frame_signs(atlas: Atlas) -> dict[int, int]:
    return _frame_signs(_det_powers(fermionic_cocycle(atlas)))


def build_generic(mc: MatrixCocycle, lam) -> Atlas:
    """Atlas with reduced even part + one deformation term per overlap, odd part M.

    Validates the cocycle invariants first (`_validate`).  The deformation
    term on overlap (i<-j) is lam * s_j * t1j*t2j / pivot^2 with the frame
    signs s solved from the det signs (`_frame_signs`), added to the corrected
    coordinate.
    """
    lam = Fraction(lam)
    s = _validate(mc)
    return _assemble(mc, s, lam, (f"generic build: frame signs s = ({', '.join(str(s[i]) for i in CHARTS)})",))


def _validate(mc: MatrixCocycle) -> dict[int, int]:
    """The frame signs s of a valid cocycle; raises SuperError otherwise.

    The grids must be 2x2, det must identify with the O(-3) cocycle (twist -3,
    pivot powers), and M_{0<-1} M_{1<-2} M_{2<-0} must be the identity on chart 0.
    """
    if mc.size != 2:  # _assemble reads a 2x2 odd block
        raise SuperError(f"overlap {CYCLIC[0]}: matrix is not 2x2")
    powers = _det_powers(mc)
    twist = _det_twist(powers)
    s = _frame_signs(powers)
    if twist != -3:
        raise SuperError(f"matrix cocycle has det twist {twist}, need -3")
    _check_matrix_cocycle(mc)
    return s


def _assemble(mc: MatrixCocycle, s: dict[int, int], lam: Fraction, notes: tuple[str, ...]) -> Atlas:
    """The atlas of a validated cocycle mc with frame signs s, at parameter lam."""
    charts = _charts()
    maps = {}
    for pair in CYCLIC:
        i, j = pair
        src, tgt = charts[j], charts[i]
        assignment = reduced_transition(pair)
        corrected, bilinear = correction(pair)
        assignment[corrected] = assignment[corrected] + bilinear * (lam * s[j])
        t1s, t2s = (SuperElem.var(src.table, n) for n in src.table.odd)
        M = mc.matrices[pair]
        assignment[tgt.table.odd[0]] = M[0][0] * t1s + M[0][1] * t2s
        assignment[tgt.table.odd[1]] = M[1][0] * t1s + M[1][1] * t2s
        maps[pair] = TransitionMap(src, tgt, assignment)
    return Atlas(charts.values(), maps, notes)


# The built-in cocycles are fixed, so each is validated once per process; the
# cached cocycle is only read, and the public constructors hand out fresh ones.


@cache
def _valid_decomposable() -> tuple[MatrixCocycle, dict[int, int]]:
    mc = decomposable_cocycle()
    return mc, _validate(mc)


@cache
def _valid_cotangent() -> tuple[MatrixCocycle, dict[int, int]]:
    mc = cotangent_cocycle()
    return mc, _validate(mc)


def _check_matrix_cocycle(mc: MatrixCocycle) -> None:
    """M_{0<-1} M_{1<-2} M_{2<-0} == identity, read on chart 0 along the reduced walk."""
    prod = cycle_product(_reduced_walk(), mc)
    bad = [
        f"[{a}][{b}] = {format_elem(entry)}"
        for a, row in enumerate(prod)
        for b, entry in enumerate(row)
        if entry != int(a == b)
    ]
    if bad:
        raise SuperError("matrix cocycle violates M01*M12*M20 = 1: " + "; ".join(bad))


# -- the Pi-projective plane via big cells ------------------------------------


def big_cell(i: int) -> SuperMatrix:
    """The 1|1 x 3|3 big-cell matrix of chart i.

    Even row: identity entry at column i, coordinates at the other columns;
    odd row mirrors it with sign-flipped odd entries (the Pi-symmetry).
    """
    c = standard_chart(i)
    t = c.table
    one, zero = SuperElem.one(t), SuperElem.zero(t)
    even_row, odd_row = [zero] * len(CHARTS), [zero] * len(CHARTS)
    even_row[i] = one
    for col, z, theta in zip(affine_indices(i), t.even, t.odd):
        even_row[col], odd_row[col] = SuperElem.var(t, z), SuperElem.var(t, theta)
    return SuperMatrix(t, [even_row], [odd_row], [[-e for e in odd_row]], [list(even_row)])


def build_pi_plane() -> Atlas:
    """Atlas read off from row-reducing big cells onto each target pivot.

    For the pair (i <- j) the chart-j cell is put in standard form on pivot
    column i; the reduced even row then contains the chart-i coordinates
    expressed over chart j, which is exactly the transition assignment.  The
    reduction runs once per process; each call hands out fresh maps.
    """
    atlas = _pi_plane()
    maps = {pair: TransitionMap(f.source, f.target, f.assignment) for pair, f in atlas.maps.items()}
    return Atlas(atlas.charts.values(), maps, atlas.notes)


@cache  # the Pi-plane is fixed: one reduction per process, only read
def _pi_plane() -> Atlas:
    charts = _charts()
    maps = {}
    for i, j in CYCLIC:
        cell = big_cell(j)
        reduced = standard_form(cell, i)
        others = affine_indices(i)
        tgt, src = charts[i], charts[j]
        assignment = {
            tgt.table.even[0]: reduced.A[0][others[0]],
            tgt.table.even[1]: reduced.A[0][others[1]],
            tgt.table.odd[0]: reduced.B[0][others[0]],
            tgt.table.odd[1]: reduced.B[0][others[1]],
        }
        # Pi-symmetry of the reduced cell: the odd row must mirror the even row.
        for col in CHARTS:
            if reduced.D[0][col] != reduced.A[0][col] or reduced.C[0][col] != -reduced.B[0][col]:
                raise SuperError(f"reduced big cell lost Pi-symmetry at column {col}")
        maps[(i, j)] = TransitionMap(src, tgt, assignment)
    notes = ("transitions read off standard-form reductions of the big cells",)
    return Atlas(charts.values(), maps, notes)


# -- comparisons and bookkeeping ----------------------------------------------


def atlas_equal(a: Atlas, b: Atlas) -> bool:
    """Exact equality of charts and every transition assignment."""
    if sorted(a.charts) != sorted(b.charts):
        raise SuperError("atlases have different chart index sets")
    for idx in a.charts:
        if a.charts[idx].table != b.charts[idx].table:
            raise SuperError(f"chart {idx} variable tables differ")
    if set(a.maps) != set(b.maps):
        raise SuperError("atlases store different overlap sets")
    return all(a.maps[key].assignment == b.maps[key].assignment for key in a.maps)


def sym_restricted_rank(k: int) -> tuple[int, int]:
    """Even|odd rank of the restricted k-th symmetric power of the 2|2 tangent.

    The decomposition Sym^k T + Sym^{k-1} T (x) F* + Sym^{k-2} T (x) Sym^2 F*
    with rank-2 even and rank-2 odd ingredients gives even (k+1) + (k-1) = 2k
    and odd k + k = 2k (summands with negative symmetric degree vanish).
    """
    if k < 1:
        raise ValueError(f"sym_restricted_rank needs k >= 1, got {k}")
    even = (k + 1) + (k - 1)
    odd = 2 * k
    return (even, odd)


# -- Berezinian normal form (per-overlap theorem form) -------------------------


def normal_form_signs(atlas: Atlas) -> dict[tuple[int, int], int]:
    """The +-1 taking each cyclic overlap's raw Berezinian to its normal form.

    The adapted frames of (i <- j) differ from the stored ones by constant
    coordinate changes, each multiplying the Berezinian by its own: a swap of
    the two evens (-1) on each side whose `normal_form_orders` order is not
    chart order, and the frame signs s_i, s_j on the first odd coordinates.
    """
    s = frame_signs(atlas)
    signs = {}
    for pair in CYCLIC:
        flips = sum(order != standard_chart(c).even for order, c in zip(normal_form_orders(pair), pair))
        signs[pair] = (-1) ** flips * s[pair[0]] * s[pair[1]]
    return signs


def normal_forms(atlas: Atlas, raw: dict[tuple[int, int], SuperElem]) -> dict[tuple[int, int], SuperElem]:
    """Each given raw Berezinian of a cyclic overlap in normal form: the raw
    value times its `normal_form_signs` entry, written over chart j's table."""
    signs = normal_form_signs(atlas)
    return {pair: value * signs[pair] for pair, value in raw.items()}


def berezinian_normal_form(atlas: Atlas, pair: tuple[int, int]) -> SuperElem:
    """Berezinian of the overlap map in the theorem arrangement (`normal_forms`)."""
    if pair not in CYCLIC:
        raise SuperError(f"normal form defined for the cyclic overlaps, got {pair}")
    return normal_forms(atlas, {pair: berezinian_raw(atlas, pair)})[pair]


def berezinian_raw(atlas: Atlas, pair: tuple[int, int]) -> SuperElem:
    """`transition_berezinian` of the stored map under the global z1,z2,t1,t2 ordering."""
    return transition_berezinian(atlas.map(*pair))
