"""Block supermatrices over the Laurent-Grassmann algebra.

A SuperMatrix is [[A, B], [C, D]] with even blocks A (p x r), D (q x s) and
odd blocks B (p x s), C (q x r): entry parities follow row/column parities.
Everything is exact; inverses exist whenever the relevant even determinants
are units (single-term body), which is checked by invert_unit itself.  Even
determinants and inverses are taken of 1x1 and 2x2 blocks only: the 2|2
Jacobians and the 1|1 big-cell minors the atlases use.
"""

from __future__ import annotations

from .superalg import SuperElem, SuperError, VarTable, invert_unit

Grid = list  # list of rows of SuperElem


def _grid_shape(grid) -> tuple[int, int]:
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    for row in grid:
        if len(row) != cols:
            raise SuperError("ragged matrix block")
    return rows, cols


def _mm(x: Grid, y: Grid) -> Grid:
    rx, cx = _grid_shape(x)
    ry, cy = _grid_shape(y)
    if cx != ry:
        raise SuperError(f"block shapes do not compose: {rx}x{cx} * {ry}x{cy}")
    out = []
    for row in x:
        out_row = []
        for j in range(cy):
            acc = row[0] * y[0][j]
            for k in range(1, cx):
                acc = acc + row[k] * y[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def _madd(x: Grid, y: Grid) -> Grid:
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _msub(x: Grid, y: Grid) -> Grid:
    return [[a - b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _mneg(x: Grid) -> Grid:
    return [[-a for a in row] for row in x]


def det_even(grid: Grid) -> SuperElem:
    """Determinant of a 1x1 or 2x2 grid of even elements (a 2x2 grid is ad - bc).

    These are the only sizes the atlases take: the even blocks of 2|2
    Jacobians and the 1|1 pivot minors of the big cells.  Even elements
    commute with everything, so this is ordinary commutative algebra.
    """
    n, m = _grid_shape(grid)
    if n != m:
        raise SuperError(f"determinant of non-square {n}x{m} block")
    if n not in (1, 2):
        raise SuperError(f"determinant of a {n}x{n} block: only 1x1 and 2x2 are supported")
    for row in grid:
        for entry in row:
            if not entry.is_even():
                raise SuperError("det_even entry is not even")
    if n == 1:
        return grid[0][0]
    (a, b), (c, d) = grid
    return a * d - b * c


def _inv_even(grid: Grid, det_inv: SuperElem | None = None) -> Grid:
    """Inverse of a 1x1 or 2x2 even block via the adjugate; det must be a unit.

    `det_inv`, when given, is the inverse of det(grid), already computed.
    """
    if det_inv is None:
        det_inv = invert_unit(det_even(grid))
    if len(grid) == 1:
        return [[det_inv]]
    (a, b), (c, d) = grid
    return [[d * det_inv, -b * det_inv], [-c * det_inv, a * det_inv]]


class SuperMatrix:
    """Exact block supermatrix [[A, B], [C, D]].

    Every block is given with its full shape, and every entry is checked for
    its block's parity and table when the matrix is built.
    """

    __slots__ = ("table", "A", "B", "C", "D", "p", "q", "r", "s")

    def __init__(self, table: VarTable, A: Grid, B: Grid, C: Grid, D: Grid):
        self.table = table
        self.A, self.B, self.C, self.D = A, B, C, D
        self.p, self.r = _grid_shape(A)
        self.q, self.s = _grid_shape(D)
        if _grid_shape(B) != (self.p, self.s):
            raise SuperError("B block shape mismatch")
        if _grid_shape(C) != (self.q, self.r):
            raise SuperError("C block shape mismatch")
        self._check_parity()

    def _check_parity(self):
        for block, even in ((self.A, True), (self.D, True), (self.B, False), (self.C, False)):
            for row in block:
                for entry in row:
                    if entry.table != self.table:
                        raise SuperError("matrix entry over a foreign table")
                    ok = entry.is_even() if even else entry.is_odd()
                    if not ok:
                        raise SuperError(
                            f"entry parity violates block structure: {entry}"
                        )

    def grid(self) -> Grid:
        top = [ra + rb for ra, rb in zip(self.A, self.B)]
        bot = [rc + rd for rc, rd in zip(self.C, self.D)]
        return top + bot

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (
            self.table == other.table
            and (self.p, self.q, self.r, self.s) == (other.p, other.q, other.r, other.s)
            and self.grid() == other.grid()
        )

    def __repr__(self):
        rows = ["[" + ", ".join(str(e) for e in row) + "]" for row in self.grid()]
        return "SuperMatrix(\n  " + "\n  ".join(rows) + "\n)"


def matmul(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    if x.table != y.table:
        raise SuperError("matmul over different tables")
    if (x.r, x.s) != (y.p, y.q):
        raise SuperError(
            f"grading mismatch: {x.p}|{x.q} x {x.r}|{x.s} times {y.p}|{y.q} x {y.r}|{y.s}"
        )
    t = x.table
    A = _madd(_mm(x.A, y.A), _mm(x.B, y.C))
    B = _madd(_mm(x.A, y.B), _mm(x.B, y.D))
    C = _madd(_mm(x.C, y.A), _mm(x.D, y.C))
    D = _madd(_mm(x.C, y.B), _mm(x.D, y.D))
    return SuperMatrix(t, A, B, C, D)


def _require_square(x: SuperMatrix):
    if x.p != x.r or x.q != x.s:
        raise SuperError(f"operation needs square grading, got {x.p}|{x.q} x {x.r}|{x.s}")


def inverse(x: SuperMatrix) -> SuperMatrix:
    """Exact inverse via the block UDL factorization.

    Needs det(D) and det(A - B D^{-1} C) to be units.  The result satisfies
    matmul(x, inverse(x)) == identity exactly (tested, not re-checked here).
    """
    _require_square(x)
    t = x.table
    Dinv = _inv_even(x.D)
    BDinv = _mm(x.B, Dinv)
    S = _msub(x.A, _mm(BDinv, x.C))
    Sinv = _inv_even(S)
    DinvCSinv = _mm(_mm(Dinv, x.C), Sinv)
    A = Sinv
    B = _mneg(_mm(Sinv, BDinv))
    C = _mneg(DinvCSinv)
    D = _madd(Dinv, _mm(DinvCSinv, BDinv))
    return SuperMatrix(t, A, B, C, D)


def berezinian(x: SuperMatrix) -> SuperElem:
    """Ber X = det(A - B D^{-1} C) * det(D)^{-1}; needs det(D) a unit.

    det(D) and its inverse are computed once and D^{-1} reuses them.
    """
    _require_square(x)
    det_d_inv = invert_unit(det_even(x.D))
    Dinv = _inv_even(x.D, det_d_inv)
    S = _msub(x.A, _mm(_mm(x.B, Dinv), x.C))
    return det_even(S) * det_d_inv


def standard_form(z: SuperMatrix, pivot: int) -> SuperMatrix:
    """Left-reduce a 1|1-row big-cell matrix by the inverse of a square minor.

    `pivot` = i picks even column i and odd column i.  The 1|1 minor they cut
    out must be invertible; the result is inverse(minor) * z, whose selected
    columns become the identity.
    """
    if z.p != 1 or z.q != 1:
        raise SuperError("pivot minor is not square against the row grading")
    A, B, C, D = ([[row[pivot]] for row in block] for block in (z.A, z.B, z.C, z.D))
    minor = SuperMatrix(z.table, A, B, C, D)
    return matmul(inverse(minor), z)
