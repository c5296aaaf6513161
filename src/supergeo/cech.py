"""Cech cohomology of line bundles on projective space, plus the two
connecting-map computations on the 2|2 atlases.

Line-bundle dimensions come from the standard monomial counts; H^n classes
are represented on the basis of totally negative Laurent monomials in the
homogeneous coordinates X0..Xn.  The two delta maps (even Picard group and
obstruction) are computed literally: lift, multiply/sum on the overlaps of
the 3-chart cover, and read the class off the triple overlap.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod
from operator import sub

from . import families
from .superalg import SuperElem, SuperError, format_elem, int_digit_limit, printable, substitute
from .atlas import (
    AFFINE,
    CYCLIC,
    HOM,
    Atlas,
    MatrixCocycle,
    TransitionMap,
    affine_indices,
    cycle_product,
    even_remainder_derivation,
    pivot_power,
)


# Most monomials basis_top builds; C(-k-1, n) grows like |k|^n.  It also
# builds at most 3 * MAX_BASIS exponents, n + 1 per monomial.
MAX_BASIS = 10**5


def _comb(N: int, m: int) -> int:
    """comb(N, m) for 0 <= m <= N, refusing at once a value too long to print.

    With j = min(m, N - m), C(N, m) >= (N/j)^j >= 2^(j * floor(log2(N // j))),
    and a number of 4 * limit bits or more is at least 16^limit, so it has
    more than limit = int_digit_limit() digits.
    """
    j = min(m, N - m)
    limit = int_digit_limit()
    if j > 0 and j * ((N // j).bit_length() - 1) >= 4 * limit:
        raise ValueError(f"the result has more than {limit} digits")
    return comb(N, m)


def h_line(n: int, k: int, q: int) -> int:
    """dim H^q(P^n, O(k)): monomial count at q = 0, its dual at q = n, else 0."""
    if n < 1 or q < 0 or q > n:
        raise ValueError(f"h_line: bad degree q={q} for P^{n}")
    if q == 0:
        return _comb(n + k, n) if k >= 0 else 0
    if q == n:
        return _comb(-k - 1, n) if k <= -n - 1 else 0
    return 0


def euler_char(n: int, k: int) -> int:
    """chi(O(k)) = product_{i=1..n} (k+i) / n!, valid for every integer k."""
    return prod(range(k + 1, k + n + 1)) // factorial(n)


def serre_dual_params(n: int, k: int, q: int) -> tuple[int, int, int]:
    """(n, k', q') with h^q(O(k)) = h^{q'}(O(k')); k' = -k-n-1, q' = n-q."""
    return (n, -k - n - 1, n - q)


def basis_top(n: int, k: int) -> list[tuple[int, ...]]:
    """Monomial basis of H^n(P^n, O(k)): degree-k exponents, all <= -1.

    Refuses a basis of more than MAX_BASIS monomials, or of more than
    3 * MAX_BASIS exponents, before building it.
    """
    total = -k - (n + 1)
    if total < 0:
        return []
    count = comb(-k - 1, n)
    if count > MAX_BASIS:
        shown = count if printable(count) else "too many"
        raise ValueError(f"H^{n}(P^{n}, O({k})) has {shown} basis monomials, above the bound {MAX_BASIS}")
    if count * (n + 1) > 3 * MAX_BASIS:
        raise ValueError(
            f"H^{n}(P^{n}, O({k})) has {count} basis monomials of {n + 1} exponents each, "
            f"above the bound {3 * MAX_BASIS} exponents"
        )
    # stars and bars: n bars among total + n slots, and the exponent of X_i is
    # -1 minus the number of stars between bars i - 1 and i (bar -1 and bar
    # total + n are the ends); linear in the output, however large n is
    end = total + n
    return sorted(tuple(map(sub, (-1, *bars), (*bars, end))) for bars in combinations(range(end), n))


def monomial_str(exps: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        parts.append(f"X{i}" if e == 1 else f"X{i}^{e}")
    return "*".join(parts) if parts else "1"


def bott(n: int, p: int, k: int, q: int) -> int:
    """dim H^q(P^n, Omega^p(k)) by the Bott formula."""
    if not (0 <= p <= n) or not (0 <= q <= n):
        raise ValueError(f"bott: need 0 <= p,q <= n, got p={p}, q={q}, n={n}")
    if q == p and k == 0:
        return 1
    if q == 0 and k > p:
        return _comb(k + n - p, k) * _comb(k - 1, p)
    if q == n and k < p - n:
        return _comb(-k + p, -k) * _comb(-k - 1, n - p)
    return 0


def h1_tangent(n: int, k: int) -> int:
    """dim H^1(P^n, T(k)), computed from the Euler sequence.

    For n = 2 this is the kernel rank of the multiplication map
    H^2(O(k)) -> H^2(O(k+1))^3 on the totally negative monomial bases
    (H^1 of line bundles vanishes on P^2, so the kernel is the whole group).
    """
    if n < 1:
        raise ValueError("h1_tangent needs n >= 1")
    if n == 1:
        return h_line(1, k + 2, 1)
    if n > 2:
        return 0
    # X_i sends a basis monomial m to m + e_i, or to 0 when m_i = -1, and
    # distinct m to distinct images: the map is monomial, so its kernel is
    # spanned by the m that all three X_i kill, those with every exponent -1.
    return sum(1 for m in basis_top(2, k) if min(m) == -1)


def h1_tangent_bott(n: int, k: int) -> int:
    """Independent route: Serre duality into the Bott formula.

    H^1(T(k)) is dual to H^{n-1}(Omega^1(-k-n-1)); for n = 2 that is
    bott(2, 1, -k-3, 1).
    """
    if n < 1:
        raise ValueError("h1_tangent_bott needs n >= 1")
    if n == 1:
        return h_line(1, -k - 4, 0)
    if n > 2:
        return 0
    return bott(2, 1, -k - 3, 1)


class CohClass:
    """An H^2(P^2, O(-3)) class on the totally-negative monomial basis."""

    __slots__ = ("coeffs",)
    n, k, q = 2, -3, 2

    def __init__(self, coeffs: dict[tuple[int, ...], Fraction]):
        self.coeffs = {m: Fraction(c) for m, c in coeffs.items() if c}

    def __eq__(self, other):
        if other.__class__ is not CohClass:
            return NotImplemented
        return self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_dict(self) -> dict[str, str]:
        return {monomial_str(m): str(c) for m, c in sorted(self.coeffs.items())}

    def __repr__(self):
        if self.is_zero():
            body = "0"
        else:
            body = " + ".join(f"{c}*[{monomial_str(m)}]" for m, c in sorted(self.coeffs.items()))
        return f"CohClass(H^{self.q}(O({self.k})) on P^{self.n}: {body})"


def _homogenize(section: SuperElem, j: int, frame_sign: int) -> SuperElem:
    """Read a chart-j section g*t1j*t2j as the Laurent form over HOM.

    With z_mj = X_c/X_j and t1j*t2j = frame_sign * X_j^-3, the chart-j form of
    Sym^2 F = K_{P^2}, the section becomes frame_sign * g(X_c/X_j) * X_j^-3.
    """
    full_mask = (1 << len(section.table.odd)) - 1
    if any(mask != full_mask for _, mask in section.terms):
        raise SuperError(
            f"section is not a pure J-degree-2 multiple of the odd frame: {format_elem(section)}"
        )
    g = SuperElem(section.table, {(exps, 0): c for (exps, _), c in section.terms.items()})
    x = [SuperElem.var(HOM, name) for name in HOM.even]
    images = {name: x[c] / x[j] for name, c in zip(section.table.even, affine_indices(j))}
    return substitute(g, images) * x[j] ** -3 * frame_sign


def _top_class(form: SuperElem) -> CohClass:
    """The class in H^2(O(-3)) of a Laurent form over HOM: its totally negative part."""
    return CohClass({exps: c for (exps, _), c in form.terms.items() if max(exps) <= -1})


# -- connecting maps on the 2|2 atlases ---------------------------------------


def default_picard_lift() -> MatrixCocycle:
    """The degree-1 lift whose reductions are the O(1) cocycle X_i/X_j: on
    overlap (i <- j) the pivot over chart j, z11 for (0<-1), z22 for (1<-2),
    z20 for (2<-0)."""
    return MatrixCocycle({pair: [[pivot_power(pair, 1)]] for pair in CYCLIC})


def picard_delta(atlas: Atlas, lifts: MatrixCocycle | None = None) -> CohClass:
    """Connecting map of the even-units exponential: lift, multiply, read off.

    `lifts` is a 1x1 `MatrixCocycle` of invertible functions (default: the
    O(1) lift).  Its `cycle_product` along the atlas walk must be 1 mod J (the
    reductions form a cocycle); the J-degree-2 remainder is the class in H^2(O(-3)).
    """
    if lifts is None:
        lifts = default_picard_lift()
    frame_signs = families.frame_signs(atlas)
    if lifts.size != 1:
        raise SuperError(f"Picard lifts must be 1x1, got {lifts.size}x{lifts.size}")
    for pair in CYCLIC:
        ((lift,),) = lifts.matrices[pair]
        if len(lift.body().terms) != 1:
            raise SuperError(f"lift on {pair} is not invertible (body not a single term)")

    ((product,),) = cycle_product(atlas.walk(), lifts)
    remainder = product - SuperElem.one(product.table)
    if not remainder.body().is_zero():
        raise SuperError(
            f"lift reductions do not form a cocycle; product is {format_elem(product.body())} mod J"
        )
    return _top_class(_homogenize(remainder, 0, frame_signs[0]))


def obstruction_delta(atlas: Atlas) -> CohClass:
    """Connecting map sending the even-deformation cochain to H^2(O(-3)).

    Reads the J-degree-2 remainders of the even assignments as a 1-cochain of
    vector fields, lifts each d/dz_{mi} to the homogeneous field X_i d/dX_c
    (with coefficients homogenized through the frame identification
    t1j*t2j = s_j / X_j^3), sums over the cyclic overlaps, and factors the
    total as f * (Euler field).  The class of f is the result.
    """
    frame_signs = families.frame_signs(atlas)
    x = [SuperElem.var(HOM, name) for name in HOM.even]
    # components[c]: the homogeneous coefficient of d/dX_c
    components = [SuperElem.zero(HOM) for _ in x]
    for i, j in CYCLIC:
        for name, coeff in even_remainder_derivation(atlas.map(i, j)).items():
            if not coeff.is_zero():
                c = AFFINE[(i, name)]
                components[c] = components[c] + x[i] * _homogenize(coeff, j, frame_signs[j])
    # f * (Euler field) = sum_c f X_c d/dX_c: every component divided by its X_c is f
    f = [comp / x[c] for c, comp in enumerate(components)]
    if any(fc != f[0] for fc in f):
        raise SuperError("obstruction lift is not a multiple of the Euler field")
    return _top_class(f[0])


def omega_cocycle_sum(atlas: Atlas) -> dict[str, SuperElem]:
    """The three deformation derivations summed on chart 0, zero for a true
    cocycle: the J-degree-2 part of the loop, and zero on the odd coordinates.
    Walking (0<-1)(1<-2)(2<-0) adds each overlap's J-degree-2 remainder, pushed
    to chart 0 by the chain rule, to the even coordinates; a product of two
    remainders lies in J^4 = 0, and an odd coordinate gains nothing."""
    chart = atlas.charts[0]
    total = even_remainder_derivation(TransitionMap(chart, chart, atlas.walk()[0]))
    return total | {name: SuperElem.zero(chart.table) for name in chart.odd}
