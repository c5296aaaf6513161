"""Block supermatrices over the Laurent-Grassmann algebra.

A SuperMatrix is [[A, B], [C, D]] with even blocks A (p x r), D (q x s) and
odd blocks B (p x s), C (q x r): entry parities follow row/column parities.
Everything is exact; inverses exist whenever the relevant even determinants
are units (single-term body), which is checked by invert_unit itself.
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


def _zeros(table: VarTable, rows: int, cols: int) -> Grid:
    return [[SuperElem.zero(table) for _ in range(cols)] for _ in range(rows)]


def _mm(x: Grid, y: Grid, table: VarTable) -> Grid:
    rx, cx = _grid_shape(x)
    ry, cy = _grid_shape(y)
    if cx != ry:
        raise SuperError(f"block shapes do not compose: {rx}x{cx} * {ry}x{cy}")
    if cx == 0:
        return _zeros(table, rx, cy)
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


def det_even(grid: Grid, table: VarTable | None = None) -> SuperElem:
    """Determinant of a square grid of even elements (Laplace expansion; a 2x2
    grid is ad - bc).

    Even elements commute with everything, so this is ordinary commutative
    linear algebra carried out exactly in the algebra.
    """
    n, m = _grid_shape(grid)
    if n != m:
        raise SuperError(f"determinant of non-square {n}x{m} block")
    if n == 0:
        if table is None:
            raise SuperError("empty determinant needs an explicit table")
        return SuperElem.one(table)
    table = grid[0][0].table
    for row in grid:
        for entry in row:
            if not entry.is_even():
                raise SuperError("det_even entry is not even")
    if n == 1:
        return grid[0][0]
    if n == 2:
        (a, b), (c, d) = grid
        return a * d - b * c
    out = SuperElem.zero(table)
    for j in range(n):
        if grid[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in grid[1:]]
        cof = grid[0][j] * det_even(minor)
        out = out + (cof if j % 2 == 0 else -cof)
    return out


def _inv_even(grid: Grid, table: VarTable, det_inv: SuperElem | None = None) -> Grid:
    """Inverse of a square even block via the adjugate; det must be a unit.

    `det_inv`, when given, is the inverse of det(grid), already computed.
    """
    n, _ = _grid_shape(grid)
    if n == 0:
        return []
    if det_inv is None:
        det_inv = invert_unit(det_even(grid, table))
    if n == 1:
        return [[det_inv]]
    if n == 2:
        (a, b), (c, d) = grid
        return [[d * det_inv, -b * det_inv], [-c * det_inv, a * det_inv]]
    out = _zeros(table, n, n)
    for i in range(n):
        for j in range(n):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(grid) if k != j]
            cof = det_even(minor, table)
            if (i + j) % 2 == 1:
                cof = -cof
            out[i][j] = cof * det_inv
    return out


class SuperMatrix:
    """Exact block supermatrix [[A, B], [C, D]]."""

    __slots__ = ("table", "A", "B", "C", "D", "p", "q", "r", "s")

    def __init__(self, table: VarTable, A: Grid, B: Grid, C: Grid, D: Grid, check: bool = True):
        self.table = table
        self.A, self.B, self.C, self.D = A, B, C, D
        self.p, self.r = _grid_shape(A)
        self.q, self.s = _grid_shape(D)
        pb, sb = _grid_shape(B) if B else (self.p, self.s)
        qc, rc = _grid_shape(C) if C else (self.q, self.r)
        if B and (pb, sb) != (self.p, self.s):
            raise SuperError("B block shape mismatch")
        if C and (qc, rc) != (self.q, self.r):
            raise SuperError("C block shape mismatch")
        if not B:
            self.B = _zeros(table, self.p, self.s)
        if not C:
            self.C = _zeros(table, self.q, self.r)
        if check:
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
    A = _madd(_mm(x.A, y.A, t), _mm(x.B, y.C, t))
    B = _madd(_mm(x.A, y.B, t), _mm(x.B, y.D, t))
    C = _madd(_mm(x.C, y.A, t), _mm(x.D, y.C, t))
    D = _madd(_mm(x.C, y.B, t), _mm(x.D, y.D, t))
    return SuperMatrix(t, A, B, C, D, check=False)


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
    Dinv = _inv_even(x.D, t)
    BDinv = _mm(x.B, Dinv, t)
    S = _msub(x.A, _mm(BDinv, x.C, t))
    Sinv = _inv_even(S, t)
    DinvCSinv = _mm(_mm(Dinv, x.C, t), Sinv, t)
    A = Sinv
    B = _mneg(_mm(Sinv, BDinv, t))
    C = _mneg(DinvCSinv)
    D = _madd(Dinv, _mm(DinvCSinv, BDinv, t))
    return SuperMatrix(t, A, B, C, D, check=False)


def berezinian(x: SuperMatrix) -> SuperElem:
    """Ber X = det(A - B D^{-1} C) * det(D)^{-1}; needs det(D) a unit.

    det(D) and its inverse are computed once and D^{-1} reuses them.
    """
    _require_square(x)
    t = x.table
    det_d_inv = invert_unit(det_even(x.D, t))
    Dinv = _inv_even(x.D, t, det_d_inv)
    S = _msub(x.A, _mm(_mm(x.B, Dinv, t), x.C, t))
    return det_even(S, t) * det_d_inv


def standard_form(z: SuperMatrix, pivot: int) -> SuperMatrix:
    """Left-reduce a 1|1-row big-cell matrix by the inverse of a square minor.

    `pivot` = i picks even column i and odd column i.  The 1|1 minor they cut
    out must be invertible; the result is inverse(minor) * z, whose selected
    columns become the identity.
    """
    if z.p != 1 or z.q != 1:
        raise SuperError("pivot minor is not square against the row grading")
    A, B, C, D = ([[row[pivot]] for row in block] for block in (z.A, z.B, z.C, z.D))
    minor = SuperMatrix(z.table, A, B, C, D, check=False)
    return matmul(inverse(minor), z)
