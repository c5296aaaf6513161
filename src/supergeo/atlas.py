"""Charts, transition maps, and atlases for 2|2 coordinate geometry.

A chart is its ordered variable table; a transition map (target <- source)
stores one algebra element per target coordinate, written over the source
variables.  Composition is substitution, and the Jacobian uses left
derivatives with rows ordered by target coordinates (evens first) and columns
by source coordinates in the same way.  Readings on chart 0 go through
`Atlas.walk`, which substitutes the stored cyclic maps forward and never
inverts one, and the loop of a `MatrixCocycle` through one ordered `cycle_product`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .superalg import (
    SuperElem,
    SuperError,
    VarTable,
    deriv_even,
    deriv_odd_left,
    format_elem,
    substitute,
    truncate_J,
)
from .supermat import SuperMatrix, _mm, berezinian


def standard_chart(i: int) -> VarTable:
    """Chart i of the 2|2 atlas, which is its variable table: evens z1i, z2i and odds t1i, t2i."""
    return _standard_chart(i)


@cache  # one table per index, so elements of chart i share one VarTable object
def _standard_chart(i: int) -> VarTable:
    return VarTable(even=(f"z1{i}", f"z2{i}"), odd=(f"t1{i}", f"t2{i}"))


# -- the cover of P^2 ----------------------------------------------------------
#
# Chart i is X_i != 0, and its m-th even coordinate z{m}{i} (m = 1, 2) is
# X_c/X_i with c the m-th index other than i.  Every other fact about the cover
# (pivots, reduced transitions, the corrected coordinate, normal-form orders)
# is derived from that rule below.  The cover is fixed, so the helpers that
# build its elements are memoized per chart index or overlap, filled on first
# use; the public functions hand out fresh dicts.

CYCLIC = ((0, 1), (1, 2), (2, 0))
CHARTS = tuple(i for i, _ in CYCLIC)  # the chart indices, in the order the cycle visits them

# The homogeneous coordinates X0, X1, X2 of P^2, as Laurent variables.
HOM = VarTable(even=tuple(f"X{c}" for c in CHARTS), odd=())


def affine_indices(i: int) -> tuple[int, ...]:
    """The indices c of chart i's even coordinates X_c/X_i, in chart order."""
    return tuple(c for c in CHARTS if c != i)


# AFFINE[(i, name)] = c for the even coordinate name = X_c/X_i of chart i.
AFFINE = {
    (i, name): c
    for i in CHARTS
    for name, c in zip(standard_chart(i).even, affine_indices(i))
}
_NAME = {(i, c): name for (i, name), c in AFFINE.items()}


def pivot(pair: tuple[int, int]) -> str:
    """X_i/X_j on chart j: the coordinate overlap (i <- j) divides by."""
    i, j = pair
    return _NAME[(j, i)]


def pivot_power(pair: tuple[int, int], n: int) -> SuperElem:
    """pivot^n over chart j, built as a single Laurent term."""
    table = standard_chart(pair[1])
    exps = [0] * len(table.even)
    exps[table.even.index(pivot(pair))] = n
    return SuperElem(table, {(tuple(exps), 0): Fraction(1)})


def reduced_transition(pair: tuple[int, int]) -> dict[str, SuperElem]:
    """Chart i's even coordinates over chart j: X_c/X_i = (X_c/X_j)/(X_i/X_j)."""
    return dict(_reduced_transition(pair))


@cache
def _reduced_transition(pair: tuple[int, int]) -> dict[str, SuperElem]:
    i, j = pair
    table = standard_chart(j)
    inv_pivot = pivot_power(pair, -1)
    return {
        _NAME[(i, c)]: inv_pivot if c == j else SuperElem.var(table, _NAME[(j, c)]) * inv_pivot
        for c in affine_indices(i)
    }


def correction(pair: tuple[int, int]) -> tuple[str, SuperElem]:
    """The coordinate X_k/X_i (k the third index) that carries the deformation
    term of overlap (i <- j), and its bilinear t1j*t2j/pivot^2 over chart j."""
    return _correction(pair)


@cache
def _correction(pair: tuple[int, int]) -> tuple[str, SuperElem]:
    i, j = pair
    table = standard_chart(j)
    t1, t2 = (SuperElem.var(table, n) for n in table.odd)
    return normal_form_orders(pair)[0][1], t1 * t2 * pivot_power(pair, -2)


def normal_form_orders(pair: tuple[int, int]) -> tuple[tuple[str, str], tuple[str, str]]:
    """Even orders of the per-overlap theorem: target (1/pivot, corrected) and
    source (pivot, X_k/X_j)."""
    i, j = pair
    (k,) = (c for c in affine_indices(i) if c != j)  # the third index
    return (_NAME[(i, j)], _NAME[(i, k)]), (pivot(pair), _NAME[(j, k)])


class TransitionMap:
    """Coordinate change target <- source, one element per target coordinate."""

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source: VarTable, target: VarTable, assignment: dict[str, SuperElem]):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        want = set(target.names)
        got = set(self.assignment)
        if want != got:
            raise SuperError(f"assignment keys {sorted(got)} != target coordinates {sorted(want)}")
        for name, elem in self.assignment.items():
            if elem.table != source:
                raise SuperError(f"assignment for {name!r} not over the source table")
            if name in target.even and not elem.is_even():
                raise SuperError(f"even coordinate {name!r} assigned non-even element")
            if name in target.odd and not elem.is_odd():
                raise SuperError(f"odd coordinate {name!r} assigned non-odd element")

    def __eq__(self, other):
        if not isinstance(other, TransitionMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __repr__(self):
        rows = [f"{k} = {format_elem(v)}" for k, v in sorted(self.assignment.items())]
        return "TransitionMap(" + "; ".join(rows) + ")"


def jacobian(f: TransitionMap) -> SuperMatrix:
    """Left-derivative Jacobian of f over the source chart.

    Rows: target coordinates, evens then odds; columns: source coordinates in
    the same order.  Blocks land as A = d(even)/d(even), B = d(even)/d(odd),
    C = d(odd)/d(even), D = d(odd)/d(odd).
    """
    src, tgt = f.source, f.target
    A = [[deriv_even(f.assignment[tn], sn) for sn in src.even] for tn in tgt.even]
    B = [[deriv_odd_left(f.assignment[tn], sn) for sn in src.odd] for tn in tgt.even]
    C = [[deriv_even(f.assignment[tn], sn) for sn in src.even] for tn in tgt.odd]
    D = [[deriv_odd_left(f.assignment[tn], sn) for sn in src.odd] for tn in tgt.odd]
    return SuperMatrix(src, A, B, C, D)


def transition_berezinian(f: TransitionMap) -> SuperElem:
    """Ber of f's Jacobian transposed: det(A + B D^-1 C) / det(D).

    The left-derivative chain rule puts J(g) to the left of J(f) o g, so it is
    the transposes that multiply, J(f o g)^T = J(g)^T (J(f)^T o g), and their
    Berezinians obey Ber(f o g) = (Ber(f) o g) * Ber(g): the values on the
    cyclic overlaps form a cocycle.  Moving the odd entries of B D^-1 C past
    each other to transpose it negates it, hence the plus sign.
    """
    x = jacobian(f)
    return berezinian(SuperMatrix(x.table, x.A, x.B, [[-e for e in row] for row in x.C], x.D))


# -- atlases -----------------------------------------------------------------


class Atlas:
    """The three CYCLIC transition maps, keyed by (target, source) chart
    indices: the key is the one record of the two charts a map joins."""

    __slots__ = ("maps", "notes")

    def __init__(self, maps, notes: tuple[str, ...] = ()):
        self.maps: dict[tuple[int, int], TransitionMap] = dict(maps)
        self.notes = tuple(notes)
        if set(self.maps) != set(CYCLIC):
            raise SuperError(f"atlas must hold exactly the overlaps {CYCLIC}")
        for (i, j), f in self.maps.items():
            if not (f.target == standard_chart(i) and f.source == standard_chart(j)):
                raise SuperError(f"map stored at {(i, j)} does not join chart {i} <- chart {j}")

    def map(self, i: int, j: int) -> TransitionMap:
        """The stored i <- j map."""
        try:
            return self.maps[(i, j)]
        except KeyError:
            raise SuperError(f"no transition map {i}<-{j} in atlas") from None

    def walk(self) -> dict[int, dict[str, SuperElem]]:
        """Every chart's coordinates over chart 0: `chart0_walk` of the stored cyclic maps."""
        return chart0_walk({pair: self.map(*pair).assignment for pair in CYCLIC})


class LoopReport:
    """Result of composing the three cyclic maps back to the start chart."""

    __slots__ = ("ok", "residuals")

    def __init__(self, ok: bool, residuals: dict[str, SuperElem]):
        self.ok = ok
        self.residuals = residuals

    def nonzero(self) -> dict[str, str]:
        return {k: format_elem(v) for k, v in self.residuals.items() if not v.is_zero()}


def chart0_walk(
    assignments: dict[tuple[int, int], dict[str, SuperElem]],
) -> dict[int, dict[str, SuperElem]]:
    """Every chart's coordinates over chart 0, walking the cycle forward.

    `assignments[(i, j)]` holds chart i's coordinates over chart j for the
    three CYCLIC overlaps.  Substituting forward gives chart 2 over chart 0 as
    (2<-0), chart 1 as (1<-2)(2<-0), and chart 0 as (0<-1)(1<-2)(2<-0): the
    loop, which is the identity exactly when the cover glues.  Data written
    over chart k is read on chart 0 by substituting `walk[k]`; no map is
    inverted.
    """
    walk: dict[int, dict[str, SuperElem]] = {}
    for i, j in reversed(CYCLIC):
        step = assignments[(i, j)]
        if j in walk:  # chart j is already read over chart 0
            step = {n: substitute(e, walk[j]) for n, e in step.items()}
        walk[i] = dict(step)
    return walk


@cache  # the cover is fixed: one walk of its reduced transitions per process, only read
def _reduced_walk() -> dict[int, dict[str, SuperElem]]:
    return chart0_walk({pair: _reduced_transition(pair) for pair in CYCLIC})


class MatrixCocycle:
    """The transitions of a locally free sheaf on the cover: per CYCLIC overlap
    an r x r grid (r >= 1) of even elements, grid (i<-j) over chart j's table."""

    __slots__ = ("matrices", "size")

    def __init__(self, matrices: dict[tuple[int, int], list]):
        self.matrices = matrices
        if set(matrices) != set(CYCLIC):
            raise SuperError(f"matrix cocycle must cover exactly the overlaps {CYCLIC}")
        self.size = r = len(matrices[CYCLIC[0]]) or 1  # an empty first grid is not 1x1
        for pair in CYCLIC:
            grid = matrices[pair]
            if len(grid) != r or any(len(row) != r for row in grid):
                raise SuperError(f"overlap {pair}: matrix is not {r}x{r}")
            table = standard_chart(pair[1])
            for entry in (e for row in grid for e in row):
                if entry.table != table:
                    raise SuperError(f"overlap {pair}: matrix entry not written over chart {pair[1]}")
                if not entry.is_even():
                    raise SuperError(f"overlap {pair}: odd-parity matrix entry")


def cycle_product(walk: dict[int, dict[str, SuperElem]], mc: MatrixCocycle) -> list:
    """The product (0<-1)(1<-2)(2<-0) of the grids of mc read on chart 0: grid
    (i<-j) is read through `walk[j]`, but chart 0's own as it stands
    (`walk[0]` is the loop)."""
    product = None
    for i, j in CYCLIC:
        grid = mc.matrices[(i, j)]
        grid = grid if j == 0 else [[substitute(e, walk[j]) for e in row] for row in grid]
        product = grid if product is None else _mm(product, grid)
    return product


def check_cocycle_loop(atlas: Atlas) -> LoopReport:
    """Walk (0<-1)(1<-2)(2<-0) round to chart 0 and report per-coordinate residuals."""
    loop = atlas.walk()[0]
    table = standard_chart(0)
    residuals = {name: loop[name] - SuperElem.var(table, name) for name in table.names}
    return LoopReport(ok=all(v.is_zero() for v in residuals.values()), residuals=residuals)


class CalabiYauReport:
    """Whether every transition Berezinian is a nonzero constant, and the Berezinians."""

    __slots__ = ("ok", "berezinians")

    def __init__(self, ok: bool, berezinians: dict[tuple[int, int], SuperElem]):
        self.ok = ok
        self.berezinians = berezinians

    def values(self) -> dict[tuple[int, int], Fraction]:
        return {k: v.constant_value() for k, v in self.berezinians.items()}


def is_calabi_yau(atlas: Atlas) -> CalabiYauReport:
    """All transition Berezinians must be nonzero constants."""
    bers = {pair: transition_berezinian(atlas.map(*pair)) for pair in CYCLIC}
    return CalabiYauReport(ok=all(b.is_constant() and not b.is_zero() for b in bers.values()), berezinians=bers)


def even_remainder_derivation(f: TransitionMap) -> dict[str, SuperElem]:
    """J-degree >= 2 remainders of the even assignments, keyed by target name.

    These are the coefficients of the obstruction cochain: the target-chart
    derivation  sum_l remainder_l d/d(even_l)  with coefficients over the
    source chart.
    """
    out = {}
    for name in f.target.even:
        elem = f.assignment[name]
        out[name] = elem - truncate_J(elem, 2)
    return out
