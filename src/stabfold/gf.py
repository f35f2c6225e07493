"""Exact arithmetic in GF(p) and GF(p^m): every cochain of the package has
its coefficients in one such field.

An element is one int, its index: the sum c_i p^i of its coordinates
(c_0, ..., c_{m-1}) in the power basis of the field's modulus, so in GF(p)
the residue.  Scalars are immutable and carry a reference to their field, so
values from different fields never mix silently.  Fields have at most 2^16
elements (``field_create`` refuses larger ones), and each gets log, exp and
Zech tables to the base of its smallest primitive element, through which all
arithmetic runs: g^a + g^b = g^(a + Z(b - a)) with the Zech table Z.  Only
``_raw_mul``, which builds the tables, multiplies coordinates.  The modulus
of GF(p^m) is the first monic irreducible polynomial of degree m in base-p
order, found by trial division by every monic polynomial of degree
1 .. m // 2; ``is_prime`` is a deterministic Miller-Rabin test, so a prime
near 2^64 is settled at once.

Sparse linear algebra does not use scalars.  Each field carries a ``Coding``
(``Field.coding``) that maps a nonzero element g^k to its discrete log k, an
int in [0, q - 1), and does the one row operation of the echelon engine in
``homology`` on these codes: products add logs and sums go through the Zech
table.  Callers encode rows where they enter the engine and decode entries
where results leave it; nothing outside this module reads a code.
"""

from __future__ import annotations

import math
from typing import Iterator

_TABLE_LIMIT = 1 << 16


# the first 12 primes: as Miller-Rabin bases they decide every n below
# 318,665,857,834,031,151,167,461 > 3.1 * 10^23 (Sorenson and Webster,
# Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_WITNESS_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; n at or above _WITNESS_LIMIT is refused."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if n >= _WITNESS_LIMIT:
        raise ValueError(f"is_prime decides n below {_WITNESS_LIMIT:,} only")
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r d with d odd
    d = (n - 1) >> r
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here stay below ~10^8)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FieldError(ValueError):
    pass


class FieldScalar:
    """Element of GF(p^m): ``v`` is the index sum c_i p^i of its coordinates
    (c_0, ..., c_{m-1}) in the power basis of the field's modulus polynomial,
    so in GF(p) it is the residue itself."""

    __slots__ = ("field", "v")

    def __init__(self, field: "Field", v: int):
        self.field = field
        self.v = v

    def __eq__(self, other):
        return (
            isinstance(other, FieldScalar)
            and self.field is other.field
            and self.v == other.v
        )

    def __hash__(self):
        return hash((id(self.field), self.v))

    def __bool__(self):
        return self.v != 0

    def __add__(self, other):
        # g^a + g^b = g^(a + Z(b - a)), as in Coding.step
        a, b = self.v, other.v
        if not a:
            return other
        if not b:
            return self
        f = self.field
        log = f._log
        z = f._zech[log[b] - log[a]]
        return f.zero if z is None else FieldScalar(f, f._exp[log[a] + z - len(f._exp)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        # -1 = g^h, and g^(a + h) = g^(a - h) as 2h = q - 1 (h = 0 when p = 2)
        f = self.field
        return FieldScalar(f, f._exp[f._log[self.v] - f.coding.half]) if self.v else self

    def __mul__(self, other):
        return self.field.mul(self, other)

    def __pow__(self, e: int):
        return self.field.pow(self, e)

    def inverse(self) -> "FieldScalar":
        return self.field.inv(self)

    def coordinates(self) -> tuple[int, ...]:
        return _digits(self.v, self.field.p, self.field.m)

    def __repr__(self):
        f = self.field
        return f"{f!r}:{self.v if f.m == 1 else list(self.coordinates())}"


def _digits(k: int, p: int, m: int) -> tuple[int, ...]:
    """The m base-p digits of k, least significant first."""
    return tuple([k // p**i % p for i in range(m)])


def _index(digits, p: int) -> int:
    """The int whose base-p digits, least significant first, are the
    given integers reduced mod p: the inverse of ``_digits``."""
    k = 0
    for c in reversed(digits):
        k = k * p + int(c) % p
    return k


class Field:
    """GF(p^m) with a deterministic modulus polynomial.

    The modulus is the lexicographically smallest monic irreducible polynomial
    of degree m over GF(p), where polynomials are ordered by reading the
    non-leading coefficients (c_{m-1}, ..., c_1, c_0) as a base-p integer.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus  # (c_0, ..., c_{m-1}) of y^m + c_{m-1}y^{m-1} + ... + c_0
        self.cardinality = p**m
        self.zero = FieldScalar(self, 0)
        self.one = FieldScalar(self, 1)
        self._primitive: FieldScalar | None = None
        self._build_tables()
        self.coding = Coding(self)

    # -- construction helpers -------------------------------------------------

    def scalar(self, x) -> FieldScalar:
        """Coerce an integer, coordinate sequence, or scalar into this field."""
        if isinstance(x, FieldScalar):
            if x.field is not self:
                raise FieldError("scalar from a different field")
            return x
        if isinstance(x, int):
            return FieldScalar(self, x % self.p)
        if len(x) != self.m:
            raise FieldError(f"expected {self.m} coordinates, got {len(x)}")
        return FieldScalar(self, _index(x, self.p))

    def elements(self) -> Iterator[FieldScalar]:
        """All field elements in counting order (coordinates base p, c_0 fastest)."""
        return (FieldScalar(self, v) for v in range(self.cardinality))

    # -- raw arithmetic, which builds the tables --------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """The index of the product of the elements of indices a and b: their
        coordinate polynomials multiplied modulo the modulus."""
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        bs = _digits(b, p, m)
        for i, ai in enumerate(_digits(a, p, m)):
            if ai:
                for j, bj in enumerate(bs):
                    prod[i + j] += ai * bj
        # reduce modulo y^m + c_{m-1}y^{m-1} + ... + c_0
        mod = self.modulus
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(m):
                    prod[k - m + i] -= c * mod[i]
        return _index(prod[:m], p)

    def _raw_pow(self, a: int, e: int) -> int:
        res = 1
        while e:
            if e & 1:
                res = self._raw_mul(res, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return res

    def _build_tables(self):
        g = self.primitive_element().v
        exp = [0] * (self.cardinality - 1)
        log: list[int | None] = [None] * self.cardinality
        acc = 1
        for i in range(len(exp)):
            exp[i] = acc
            log[acc] = i
            acc = self._raw_mul(acc, g)
        # Zech logarithms: zech[k] = log(1 + g^k), None where 1 + g^k = 0;
        # adding 1 raises the coordinate c_0 only
        p = self.p
        zech = [log[e - e % p + (e + 1) % p] for e in exp]
        self._exp, self._log, self._zech = exp, log, zech

    # -- table arithmetic ----------------------------------------------------------
    # exp has q - 1 entries, so exp[k - (q - 1)] = exp[k] for k in [0, 2(q - 1))

    def mul(self, a: FieldScalar, b: FieldScalar) -> FieldScalar:
        if not a or not b:
            return self.zero
        log = self._log
        return FieldScalar(self, self._exp[log[a.v] + log[b.v] - len(self._exp)])

    def inv(self, a: FieldScalar) -> FieldScalar:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return FieldScalar(self, self._exp[-self._log[a.v]])

    def pow(self, a: FieldScalar, e: int) -> FieldScalar:
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return self.one if e == 0 else self.zero
        return FieldScalar(self, self._exp[self._log[a.v] * e % len(self._exp)])

    # -- multiplicative structure ----------------------------------------------

    def primitive_element(self) -> FieldScalar:
        """Smallest generator of the multiplicative group, in counting order."""
        if self._primitive is None:
            q1 = self.cardinality - 1
            qs = list(factorize(q1))
            for a in range(1, self.cardinality):
                if all(self._raw_pow(a, q1 // q) != 1 for q in qs):
                    self._primitive = FieldScalar(self, a)
                    break
            else:  # pragma: no cover - never reached, the group is cyclic
                raise FieldError("no primitive element found")
        return self._primitive

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


# -- codes for sparse linear algebra --------------------------------------------


class Coding:
    """Codes of the nonzero elements of one field: g^k, g the field's
    primitive element, is its log k in [0, q - 1).  A sparse row is a dict
    column -> code.  ``encode``/``decode`` map a single nonzero element,
    ``encode_row``/``decode_row`` a row; ``step(row, c, prow)`` is the
    engine's row step (row -= c * prow in place, dropping the entries that
    cancel) and ``normalize(row, c)`` a new row equal to row / c.

    Products add logs mod q - 1; -1 = g^h with h = (q - 1)/2, or h = 0 when
    p = 2; g^a + g^b = g^(a + Z(b - a)) with the field's Zech table Z, whose
    only empty entry is Z(h), where the sum is zero.
    """

    one = 0

    def __init__(self, field: Field):
        self.field = field
        self.q1 = field.cardinality - 1
        self.half = 0 if field.p == 2 else self.q1 // 2
        self.log, self.exp, self.zech = field._log, field._exp, field._zech

    def encode(self, x: FieldScalar) -> int:
        return self.log[x.v]

    def decode(self, c: int) -> FieldScalar:
        return FieldScalar(self.field, self.exp[c])

    def encode_row(self, row: dict) -> dict:
        """Codes of the nonzero entries of a row of scalars."""
        encode = self.encode
        return {k: encode(v) for k, v in row.items() if v}

    def decode_row(self, row: dict) -> dict:
        decode = self.decode
        return {k: decode(c) for k, c in row.items()}

    def step(self, row: dict, c: int, prow: dict) -> None:
        q1, zech = self.q1, self.zech
        nc = c + self.half  # log of -c
        get = row.get
        for col, v in prow.items():
            b = (nc + v) % q1  # log of -c * v
            a = get(col)
            if a is None:
                row[col] = b
                continue
            # b - a lies in (-q1, q1): a negative index wraps to b - a + q1
            z = zech[b - a]
            if z is None:
                del row[col]
            else:
                row[col] = (a + z) % q1

    def normalize(self, row: dict, c: int) -> dict:
        q1 = self.q1
        return {col: (v - c) % q1 for col, v in row.items()}


# -- modulus search ------------------------------------------------------------


def _poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Is the monic y^m + sum coeffs[i] y^i over GF(p) irreducible?  By trial
    division: a reducible one has a monic factor of degree 1 .. m // 2, and
    each of those leaves a nonzero remainder."""
    m = len(coeffs)
    for d in range(1, m // 2 + 1):
        for k in range(p**d):
            g = _digits(k, p, d)  # y^d + sum g[i] y^i
            r = list(coeffs) + [1]
            for top in range(m, d - 1, -1):
                if c := r[top]:
                    for i in range(d):
                        r[top - d + i] = (r[top - d + i] - c * g[i]) % p
            if not any(r[:d]):
                return False
    return True


def _modulus(p: int, m: int) -> tuple[int, ...]:
    """The first monic irreducible polynomial of degree m over GF(p) in
    base-p order (one always exists): y itself, (0,), for m = 1."""
    candidates = (_digits(k, p, m) for k in range(p**m))
    return next(c for c in candidates if _poly_is_irreducible(c, p))


_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def field_create(p: int, m: int = 1) -> Field:
    """The field GF(p^m) with deterministic modulus; identical inputs share one object."""
    if m < 1:
        raise FieldError("extension degree must be >= 1")
    # p >= 2, so m > 16 is above the limit: p**m is never formed for a large m
    if m > 16 or p**m > _TABLE_LIMIT:
        raise FieldError(f"a field of {p}^{m} elements is above the limit of "
                         f"2^16 = {_TABLE_LIMIT:,} elements, which bounds its log tables")
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    key = (p, m)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, m, _modulus(p, m))
    return _FIELD_CACHE[key]


# -- roots ----------------------------------------------------------------------


def nth_roots(field: Field, a: FieldScalar, n: int) -> set[FieldScalar]:
    """All x in the field with x^n = a, for nonzero a.

    Solved through the cyclic group structure: x = g^k works iff
    k*n = dlog(a) mod (q-1), so there are either 0 or gcd(n, q-1) roots.
    """
    a = field.scalar(a)
    if not a:
        raise FieldError("nth_roots requires a nonzero target")
    q1 = field.cardinality - 1
    g = field.primitive_element()
    dlog = field._log[a.v]
    d = math.gcd(n, q1)
    if dlog % d != 0:
        return set()
    # one solution of k*n = dlog mod q1, then the full coset
    n_red = (n // d) % (q1 // d)
    k0 = (dlog // d) * pow(n_red, -1, q1 // d) % (q1 // d)
    return {field.pow(g, k0 + j * (q1 // d)) for j in range(d)}


def primitive_root_of_unity(field: Field, n: int) -> FieldScalar:
    """The element g^((q-1)/n) of exact order n, g the smallest primitive element."""
    q1 = field.cardinality - 1
    if n < 1 or q1 % n != 0:
        raise FieldError(
            f"root not present; extend the field (need {n} | {q1})"
        )
    return field.pow(field.primitive_element(), q1 // n)
