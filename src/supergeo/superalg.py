"""Exact supercommutative Laurent-Grassmann algebra.

Elements live in Q[z1^{+-1},...,zp^{+-1}] (x) Lambda[t1,...,tq]: finite sums of
terms  c * z^e * t_S  with c an exact rational, e an integer exponent vector
(negative exponents allowed) and S a strictly increasing subset of the odd
variables.  Multiplication uses the Koszul sign rule t_i t_j = -t_j t_i, and
every element is kept in canonical form: a dict mapping (exponents, odd-mask)
to a nonzero integer numerator, over one shared denominator den >= 1 with
gcd(den, every numerator) = 1, as FLINT's fmpq_poly keeps a polynomial.  So
every coefficient product in the kernel is an int product, and equal elements
have equal dicts and denominators.  `SuperElem.terms` reads the coefficients
as Fractions, built one at a time when a value is read.  With q odd variables
the ideal J generated by them satisfies J^{q+1} = 0, which makes every
computation here finite and exact.

No floats are used anywhere.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add as _add_exps


class SuperError(ValueError):
    """Base class for algebra errors."""


class TableMismatch(SuperError):
    """Operands belong to different variable tables."""


class NotAUnit(SuperError):
    """invert_unit was applied to an element whose body is not a single term."""


class ParseError(SuperError):
    """Malformed expression text."""


class VarTable:
    """Ordered even and odd variable names of one coordinate system.

    The order is significant: it fixes exponent-vector positions, the odd-mask
    bit positions, and later the row/column order of Jacobians.  Tables are
    immutable values: equal and hash-equal when their names agree.  Chart i of
    the cover is its table, `atlas.standard_chart(i)`.
    """

    __slots__ = ("even", "odd")

    def __init__(self, even: tuple[str, ...], odd: tuple[str, ...]):
        names = list(even) + list(odd)
        if len(set(names)) != len(names):
            raise SuperError(f"duplicate variable names in table: {names}")
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd", odd)

    def __reduce__(self):  # copy and pickle rebuild a table through __init__
        return VarTable, (self.even, self.odd)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of VarTable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of VarTable")

    def __eq__(self, other):
        if self is other:  # elements of one chart share one table object
            return True
        if other.__class__ is not VarTable:
            return NotImplemented
        return self.even == other.even and self.odd == other.odd

    def __hash__(self):
        return hash((self.even, self.odd))

    @property
    def names(self) -> tuple[str, ...]:
        return self.even + self.odd


Key = tuple[tuple[int, ...], int]  # (even exponents, odd bitmask)


@lru_cache(maxsize=None)  # at most 3^q disjoint mask pairs for q odd variables
def _mask_sign(s: int, t: int) -> int:
    """Koszul sign for merging sorted odd blocks t_s * t_t (disjoint masks).

    Counts inversions: each generator of t moves left past the generators of s
    that have a larger index.
    """
    sign = 1
    m = t
    while m:
        low = m & -m
        i = low.bit_length() - 1
        if (s >> (i + 1)).bit_count() & 1:
            sign = -sign
        m ^= low
    return sign


def _mask_names(mask: int, table: VarTable) -> list[str]:
    return [table.odd[i] for i in range(len(table.odd)) if mask >> i & 1]


class _Terms(Mapping):
    """Read-only view of an element's coefficients: key -> nonzero Fraction.

    Its keys and length are the numerator dict's own; a Fraction is built
    only when a value is read.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict[Key, int], den: int):
        self._num = num
        self._den = den

    def __getitem__(self, key: Key) -> Fraction:
        return Fraction(self._num[key], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __repr__(self):
        return repr(dict(self.items()))


class SuperElem:
    """A canonical-form element of the Laurent-Grassmann algebra: integer
    numerators `_num` over one denominator `_den` (see the module docstring)."""

    __slots__ = ("table", "_num", "_den")

    def __init__(self, table: VarTable, terms: Mapping[Key, Fraction] | None = None):
        coeffs = {}
        if terms:
            for key, c in terms.items():
                if c:
                    coeffs[key] = c if type(c) is Fraction else Fraction(c)
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.table = table
        self._num = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        self._den = den

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "SuperElem":
        return _adopt(table, {}, 1)

    @classmethod
    def const(cls, table: VarTable, c) -> "SuperElem":
        if type(c) is not int and type(c) is not Fraction:
            c = Fraction(c)
        if not c:
            return _adopt(table, {}, 1)
        key = ((0,) * len(table.even), 0)
        if type(c) is int:
            return _adopt(table, {key: c}, 1)
        return _adopt(table, {key: c.numerator}, c.denominator)

    @classmethod
    def one(cls, table: VarTable) -> "SuperElem":
        return cls.const(table, 1)

    @classmethod
    def var(cls, table: VarTable, name: str) -> "SuperElem":
        if name in table.even:
            e = [0] * len(table.even)
            e[table.even.index(name)] = 1
            return _adopt(table, {(tuple(e), 0): 1}, 1)
        if name in table.odd:
            return _adopt(table, {((0,) * len(table.even), 1 << table.odd.index(name)): 1}, 1)
        raise SuperError(f"unknown variable {name!r} for table {table.names}")

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Key, Fraction]:
        """The coefficients as a read-only Mapping: key -> nonzero Fraction."""
        return _Terms(self._num, self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_even(self) -> bool:
        return all((mask.bit_count() & 1) == 0 for _, mask in self._num)

    def is_odd(self) -> bool:
        return all((mask.bit_count() & 1) == 1 for _, mask in self._num)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) and mask == 0 for exps, mask in self._num)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise SuperError(f"not a constant: {format_elem(self)}")
        return Fraction(next(iter(self._num.values())), self._den)

    def body(self) -> "SuperElem":
        """The J-degree-0 part (no odd factors)."""
        return _reduce(self.table, {k: c for k, c in self._num.items() if k[1] == 0}, self._den)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "SuperElem") -> None:
        if self.table is not other.table and self.table != other.table:
            raise TableMismatch(f"{self.table.names} vs {other.table.names}")

    def __add__(self, other):
        other = _coerce(self.table, other)
        self._check(other)
        if not other._num:  # elements are immutable values: x + 0 may be x itself
            return self
        if not self._num:
            return other
        num = dict(self._num)
        den = _add_into(num, self._den, other._num, other._den)
        return _reduce(self.table, num, den)

    __radd__ = __add__

    def __neg__(self):
        return _adopt(self.table, {k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-_coerce(self.table, other))

    def __rsub__(self, other):
        return _coerce(self.table, other) + (-self)

    def __mul__(self, other):
        other = _coerce(self.table, other)
        self._check(other)
        if not self._num or not other._num:
            return _adopt(self.table, {}, 1)
        num: dict[Key, int] = {}
        for (e1, m1), c1 in self._num.items():
            for (e2, m2), c2 in other._num.items():
                if m1 & m2:
                    continue  # repeated odd variable squares to zero
                key = (tuple(map(_add_exps, e1, e2)), m1 | m2)
                c = c1 * c2
                negate = m1 and m2 and _mask_sign(m1, m2) < 0
                old = num.get(key)
                if old is None:
                    num[key] = -c if negate else c
                    continue
                s = old - c if negate else old + c
                if s:
                    num[key] = s
                else:
                    del num[key]
        return _reduce(self.table, num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(self.table, other)
        return self * invert_unit(other)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise SuperError("exponents must be integers")
        base = self
        if n < 0:
            base, n = invert_unit(self), -n
        if n == 0:
            return SuperElem.one(self.table)
        if len(base._num) == 1:
            ((exps, mask), c), = base._num.items()
            if mask and n > 1:
                return SuperElem.zero(self.table)  # a repeated odd factor
            # one term: gcd(c, den) = 1, so gcd(c^n, den^n) = 1 too
            return _adopt(self.table, {(tuple(e * n for e in exps), mask): c**n}, base._den**n)
        out = None
        while True:  # binary powering: square base, multiply in the set bits of n
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, SuperElem):
            if isinstance(other, (int, Fraction)):
                other = SuperElem.const(self.table, other)
            else:
                return NotImplemented
        return self.table == other.table and self._den == other._den and self._num == other._num

    def __hash__(self):
        if self.is_constant():  # equal to its Fraction value, so hash like it
            return hash(self.constant_value())
        return hash((self.table, self._den, tuple(sorted(self._num.items()))))

    def __repr__(self):
        return f"SuperElem({format_elem(self)!r})"

    def __str__(self):
        return format_elem(self)


def _adopt(table: VarTable, num: dict[Key, int], den: int) -> SuperElem:
    """Wrap an already-canonical numerator dict and denominator as is.

    The internal constructor: no copy, no zero filter, no gcd.  Callers hand
    over a fresh dict they no longer touch, with nonzero int values, den >= 1
    and gcd(den, every value) = 1.
    """
    out = object.__new__(SuperElem)
    out.table = table
    out._num = num
    out._den = den
    return out


def _reduce(table: VarTable, num: dict[Key, int], den: int) -> SuperElem:
    """Adopt num/den after dividing out gcd(den, every numerator).

    `num` holds nonzero ints and is a fresh dict the caller no longer touches.
    A subset of a canonical dict, or a product or sum of two, can share a
    factor with den: (z/2 + t1).body() has numerator 1 over 2, but
    d/dt1 (z/2 + t1) has numerator 2 over 2.
    """
    if den != 1:
        g = gcd(den, *num.values())  # den itself when num is empty: zero is 0/1
        if g != 1:
            for k in num:
                num[k] //= g
            den //= g
    return _adopt(table, num, den)


def _add_into(acc: dict[Key, int], den: int, num: Mapping[Key, int], num_den: int) -> int:
    """acc/den += num/num_den in place, dropping keys that cancel; return the
    new denominator of acc, lcm(den, num_den), with no gcd taken.

    A sum built this way takes time linear in its terms, where a chain of `+`
    copies it each step.  Each rescaling of acc at least doubles its
    denominator, so it happens at most log2(final den) times.
    """
    scale = 1
    if num_den != den:
        common = lcm(den, num_den)
        if common != den:
            up = common // den
            for k in acc:
                acc[k] *= up
            den = common
        scale = common // num_den
    for k, c in num.items():
        if scale != 1:
            c *= scale
        old = acc.get(k)
        if old is None:
            acc[k] = c
            continue
        s = old + c
        if s:
            acc[k] = s
        else:
            del acc[k]
    return den


def _coerce(table: VarTable, x) -> SuperElem:
    if isinstance(x, SuperElem):
        return x
    if isinstance(x, (int, Fraction)):
        return SuperElem.const(table, x)
    raise SuperError(f"cannot interpret {x!r} as an algebra element")


# -- free-function API ---------------------------------------------------


def invert_unit(a: SuperElem) -> SuperElem:
    """Exact inverse of a unit.

    Requires the body (J-degree-0 part) to be a single nonzero Laurent term u.
    Then a = u + n with n nilpotent, and
        a^{-1} = sum_j u^{-1} (-n u^{-1})^j,
    a finite sum because J^{q+1} = 0.  Without a nilpotent part it is u^{-1}.
    """
    body = [(k, c) for k, c in a._num.items() if k[1] == 0]
    if len(body) != 1:
        raise NotAUnit(f"body is not a single Laurent term: {format_elem(a)}")
    (exps, _), c = body[0]
    g = gcd(c, a._den)  # u = c/den; 1/u = (den/g) / (c/g), sign on the numerator
    u_num, u_den = (a._den // g, c // g) if c > 0 else (-a._den // g, -c // g)
    u_inv = _adopt(a.table, {(tuple(-e for e in exps), 0): u_num}, u_den)
    if len(a._num) == 1:
        return u_inv
    n = _reduce(a.table, {k: c for k, c in a._num.items() if k[1]}, a._den)
    step = -(n * u_inv)
    out = power = u_inv
    for _ in range(len(a.table.odd)):
        power = power * step
        if power.is_zero():
            break
        out = out + power
    return out


def substitute(a: SuperElem, images: Mapping[str, SuperElem]) -> SuperElem:
    """Apply the algebra homomorphism sending each variable to its image.

    Every variable that occurs in `a` must have an image; all images must live
    over one common table, even variables must get even images (with unit body
    whenever a negative power has to be resolved) and odd variables odd images.
    Products of odd images are taken in the source order, so Koszul signs come
    out of the multiplication itself.
    """
    if not images:
        raise SuperError("empty substitution")
    target = next(iter(images.values())).table
    for name, img in images.items():
        if img.table != target:
            raise TableMismatch(f"image of {name!r} lives over a different table")
        if name in a.table.even:
            if not img.is_even():
                raise SuperError(f"even variable {name!r} mapped to non-even element")
        elif name in a.table.odd:
            if not img.is_odd():
                raise SuperError(f"odd variable {name!r} mapped to non-odd element")
        else:
            raise SuperError(f"image given for {name!r}, not a variable of the source table")

    pow_cache: dict[tuple[str, int], SuperElem] = {}

    def image_power(name: str, e: int) -> SuperElem:
        got = pow_cache.get((name, e))
        if got is None:
            try:
                got = pow_cache[(name, e)] = images[name] ** e
            except NotAUnit as exc:  # only a negative power inverts
                raise SuperError(f"negative power of {name!r} needs a unit-body image") from exc
        return got

    # the image of each numerator's term, summed over den; a's own den divides last
    out: dict[Key, int] = {}
    den = 1
    for (exps, mask), c in a._num.items():
        term = SuperElem.const(target, c)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            name = a.table.even[i]
            if name not in images:
                raise SuperError(f"no image for variable {name!r}")
            term = term * image_power(name, e)
            if term.is_zero():
                break
        if term.is_zero():
            continue
        for name in _mask_names(mask, a.table):
            if name not in images:
                raise SuperError(f"no image for variable {name!r}")
            term = term * images[name]
            if term.is_zero():
                break
        den = _add_into(out, den, term._num, term._den)
    return _reduce(target, out, den * a._den)


def deriv_even(a: SuperElem, name: str) -> SuperElem:
    """d/dz for an even variable (odd factors are inert constants).

    Distinct terms keep distinct keys, so nothing merges or cancels.
    """
    i = a.table.even.index(name)
    num: dict[Key, int] = {}
    for (exps, mask), c in a._num.items():
        e = exps[i]
        if e == 0:
            continue
        new = list(exps)
        new[i] = e - 1
        num[(tuple(new), mask)] = c * e
    return _reduce(a.table, num, a._den)


def deriv_odd_left(a: SuperElem, name: str) -> SuperElem:
    """Left derivative d/dt: strip t from the front, paying a sign per hop.

    For t at position p of the increasing product t_S the sign is (-1)^p, so
    the leading factor differentiates with sign +1.  Distinct terms keep
    distinct keys, so nothing merges or cancels.
    """
    i = a.table.odd.index(name)
    bit = 1 << i
    num: dict[Key, int] = {}
    for (exps, mask), c in a._num.items():
        if not mask & bit:
            continue
        num[(exps, mask ^ bit)] = -c if (mask & (bit - 1)).bit_count() & 1 else c
    return _reduce(a.table, num, a._den)


def truncate_J(a: SuperElem, k: int) -> SuperElem:
    """Drop every term with J-degree (number of odd factors) >= k."""
    return _reduce(a.table, {key: c for key, c in a._num.items() if key[1].bit_count() < k}, a._den)


# -- parsing and formatting --------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := INT | IDENT ('^' signed-int)? | '(' expr ')' | '-' factor
#
# The unary minus is an extension so that formatted output (which may lead
# with a negative coefficient) always re-parses; parse(format(x)) == x.

_TOKEN_CHARS = set("+-*/^()")

# Largest |exponent| the parser accepts.  Powers of variables are cheap
# (exponent arithmetic), but a bound constant such as 3/2 grows by digits.
MAX_EXPONENT = 10**6

# Most open parentheses and unary minuses the parser nests; each costs a few
# Python frames, so this keeps parse well inside the recursion limit.
MAX_DEPTH = 100


def int_digit_limit() -> int:
    """Most digits an integer may print with: the process's limit, else Python's default."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def printable(*values: int | Fraction) -> bool:
    """Whether every value has at most int_digit_limit() digits in numerator and denominator."""
    limit = int_digit_limit()
    for value in values:
        n = max(abs(value.numerator), value.denominator)
        if n.bit_length() > 3 * limit and n >= 10**limit:  # 10**limit has more bits than that
            return False
    return True


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII digits only: str.isdigit() also holds for "²" and "٣"
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, table: VarTable, bindings: Mapping[str, Fraction]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.table = table
        self.bindings = bindings
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r} at position {tok[2]}")
        return tok

    def parse_expr(self) -> SuperElem:
        first = self.parse_term()
        out, den = dict(first._num), first._den
        while self.peek()[0] in "+-":
            op = self.next()[0]
            rhs = self.parse_term()
            den = _add_into(out, den, (rhs if op == "+" else -rhs)._num, rhs._den)
        return _reduce(self.table, out, den)

    def parse_term(self) -> SuperElem:
        out = self.parse_factor()
        while self.peek()[0] in "*/":
            op = self.next()[0]
            rhs = self.parse_factor()
            if op == "*":
                out = out * rhs
            else:
                try:
                    out = out / rhs
                except NotAUnit as exc:
                    raise ParseError(f"division by a non-unit: {exc}") from exc
        return out

    def parse_factor(self) -> SuperElem:
        kind, value, pos = self.peek()
        if kind in ("-", "("):
            self.next()
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_DEPTH} at position {pos}")
            if kind == "-":
                inner = -self.parse_factor()
            else:
                inner = self.parse_expr()
                self.expect(")")
            self.depth -= 1
            return inner
        if kind == "int":
            self.next()
            limit = int_digit_limit()
            if len(value) > limit:  # checked before int() refuses it
                raise ParseError(f"integer literal exceeds {limit} digits at position {pos}")
            return SuperElem.const(self.table, int(value))
        if kind == "ident":
            self.next()
            if value in self.table.even or value in self.table.odd:
                base = SuperElem.var(self.table, value)
            elif value in self.bindings:
                base = SuperElem.const(self.table, self.bindings[value])
            else:
                raise ParseError(f"unknown identifier {value!r} at position {pos}")
            if self.peek()[0] == "^":
                self.next()
                sign = 1
                if self.peek()[0] == "-":
                    self.next()
                    sign = -1
                tok = self.expect("int")
                digits = tok[1].lstrip("0") or "0"
                # lengths first: int() of a long digit string is slow, or refused
                if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                    raise ParseError(
                        f"exponent {tok[1]} exceeds the bound {MAX_EXPONENT} at position {tok[2]}"
                    )
                exp = sign * int(digits)
                try:
                    base = base ** exp
                except NotAUnit as exc:
                    raise ParseError(f"negative power of non-unit at position {pos}") from exc
            return base
        raise ParseError(f"unexpected token {value!r} at position {pos}")


def parse(text: str, table: VarTable, bindings: Mapping[str, Fraction] | None = None) -> SuperElem:
    """Parse expression text over the given variable table.

    `bindings` may supply rational constants for extra identifiers (used for
    the deformation parameter in atlas construction).
    """
    parser = _Parser(text, table, dict(bindings or {}))
    out = parser.parse_expr()
    parser.expect("end")
    if not printable(*out.terms.values()):
        raise ParseError(f"a coefficient exceeds {int_digit_limit()} digits in its numerator or denominator")
    return out


def format_elem(a: SuperElem) -> str:
    """Deterministic canonical text; parse(format(a)) == a."""
    if not a.terms:
        return "0"
    pieces = []
    for (exps, mask), c in sorted(a.terms.items()):
        factors = []
        for name, e in zip(a.table.even, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        factors.extend(_mask_names(mask, a.table))
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag))  # "p" or "p/q", exact
        body = "*".join(factors)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
