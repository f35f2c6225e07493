"""Reference computations that check the package against independent code.

`dense_rank_oracle` is textbook dense row echelon on `FieldScalar` entries;
it works over every GF(p^m) but shares the field arithmetic of `gf.py`.
`sympy_rank` hands the residues (`scalar.v`) to sympy's `DomainMatrix` over
GF(p), so it shares no code with the package; it covers prime fields only.
`gl_ce_differential` derives the gl_n differential from the bracket of matrix
units, without the package's generator pair table or wedge signs.
`leibniz_d_oracle` expands d of a monomial from the generator formula over
(i, j) pairs, with `wedge_sign_oracle`'s signs and no pair table, and
`closure_oracle` scans a member list for d-targets outside it with it.
`flipped_sign_table` plants a sign fault for the checks to catch,
`flipped_along_j` one that keeps σ and breaks d∘d = 0,
`below_dropped_terms` a term table whose Leibniz signs skip the generators
below g, and `extra_term_table` a term that breaks the duality certificate.
`full_kernel_representatives` is no independent code but the earlier way of
taking a block's classes, kept as a reference for the present one, with the
earlier kernel, `kernel_basis`, read off a reduced echelon form.
`transpose` turns the package's rows, one per source, into the rows of the
same matrix by target, as the oracles above read it.
`wedge_sign_oracle` takes wedge signs by bubble sort of slot lists, and
`sigma_shift_oracle` the signs of the cyclic shift σ with it, and
`tau_oracle` those of every element σ^a and σ^a τ of the dihedral group,
against the row tables of `exterior.sigma_power` and `splits.dihedral`.
`cup` is the cup product of two classes of a `homology.Cohomology`,
`Monodromy` the diagonal operator T(b) = omega^(D alpha(b)) b of a
connection, whose fixed monomials the package lists (`KummerConnection.fixed_masks`) without building T, and
`element_order` the multiplicative order it checks omega by;
`reduced_internal_degree`, `angle_bracket`, `sigma_apply`, `one_cochain`,
`euler_characteristics_match`, `poly_degree` and `poly_evaluate` are small
helpers that only the tests call.  `Poly` is a dense polynomial over a field,
and `Bundle` the family over F_p[x] (eps = x): d with `Poly` coefficients,
built from `ravenel.bundle_digits`, for the checks of d∘d = 0 and the graded
Leibniz rule over F_p[x]; the package itself has field-scalar cochains only.  So are `compose_transports`, the torsor
product of two transports, and `circledast`, the tensor-sum product of the
paper's eigenvalue lemma on dense matrices.
`u_property_check` and `idempotent_exponent` are the paper's U-property tools
on dense matrices (minimal polynomial, diagonalizability, idempotent
iterates); the package builds kernel models from generator eigenvalues and
does not need them, nor the polynomial division, gcd and radical
(`poly_divmod`, `poly_gcd`, `poly_radical`, `poly_powmod`) they rest on.
"""

from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from stabfold.exterior import (
    Cochain,
    add_term,
    generator_mask,
    normalize_j,
    parse_monomial,
    slot,
    slots_of,
    wedge,
)
from stabfold.gf import Field, FieldScalar
from stabfold.homology import insert_row, reduce_against, rref
from stabfold.kummer import Transport
from stabfold.ravenel import bundle_digits, kronecker_term_table
from stabfold.retract import Derivation


def dense_rank_oracle(rows, ncols, field) -> int:
    """Textbook row echelon over a dense matrix."""
    mat = []
    for r in rows:
        row = [field.zero] * ncols
        for c, v in r.items():
            row[c] = v
        mat.append(row)
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col].inverse()
        prow = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col] * inv
                row = mat[i]
                for c in range(col, ncols):
                    if prow[c]:
                        row[c] = row[c] - factor * prow[c]
        rank += 1
        if rank == len(mat):
            break
    return rank


def sympy_rank(rows, ncols, field) -> int:
    """Rank by sympy's DomainMatrix over GF(p), fed with plain residues."""
    if field.m != 1:
        raise ValueError("the sympy oracle covers prime fields only")
    dom = GF(field.p)
    entries = {
        i: {c: dom(v.v) for c, v in r.items()} for i, r in enumerate(rows) if r
    }
    return DomainMatrix(entries, (len(rows), ncols), dom).rank()


def gl_ce_differential(n: int) -> dict[int, dict[int, int]]:
    """d of every generator of the Chevalley-Eilenberg complex of gl_n, from
    the bracket of matrix units alone, as {slot: {monomial mask: integer}}.

    Slot (i-1)n + (j-1) holds h[i,j], read as the dual xi_ab of the matrix unit
    E_ab with a = j-1 and b = a+i mod n.  With [E_ab, E_cd] = δ_bc E_ad -
    δ_da E_cb, d xi = sum over slots x < y of xi([e_x, e_y]) e^x e^y.
    """
    unit = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            unit[(i - 1) * n + (j - 1)] = (j - 1, (j - 1 + i) % n)
    slot_of = {ab: s for s, ab in unit.items()}
    out: dict[int, dict[int, int]] = {s: {} for s in unit}
    for x in range(n * n):
        a, b = unit[x]
        for y in range(x + 1, n * n):
            c, d = unit[y]
            pair = (1 << x) | (1 << y)
            for ab, coeff in (((a, d), int(b == c)), ((c, b), -int(d == a))):
                if coeff:
                    dxi = out[slot_of[ab]]
                    dxi[pair] = dxi.get(pair, 0) + coeff
    return {s: {m: c for m, c in dxi.items() if c} for s, dxi in out.items()}


def wedge_sign_oracle(a_slots: list[int], b_slots: list[int]) -> int | None:
    """Independent sign computation by explicit bubble sort of slot lists."""
    seq = list(a_slots) + list(b_slots)
    if len(set(seq)) != len(seq):
        return None
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def leibniz_d_oracle(n: int, mask: int) -> dict[int, tuple[int, int]]:
    """d of a monomial over Z[eps] as {target mask: (c0, c1)}, d = c0 + eps c1,
    from the generator formula of the ``ravenel`` docstring,

        d(h[i,j]) = sum_{l=1}^{i-1} h[l,j] h[i-l,j+l]
                  + eps * sum_{l=i}^{n} h[l,j] h[i-l+n,j+l],

    and the graded Leibniz rule written out word by word: the t-th generator
    of the ascending word is replaced by each pair (sign (-1)^(t-1)), and the
    word sorted by ``wedge_sign_oracle``'s bubble sort.  Uses neither the
    package's pair table nor its wedge.  Targets whose terms cancel are
    dropped."""
    def slot_of(i, j):
        return (i - 1) * n + (j - 1) % n

    gens = [(b // n + 1, b % n + 1) for b in range(n * n) if mask >> b & 1]
    out: dict[int, list[int]] = {}
    for t, (i, j) in enumerate(gens):
        for ell in range(1, n + 1):
            k, i2 = (0, i - ell) if ell < i else (1, i - ell + n)
            word = [slot_of(*g) for g in gens]
            word[t:t + 1] = [slot_of(ell, j), slot_of(i2, j + ell)]
            sign = wedge_sign_oracle(word, [])
            if sign is not None:
                c = out.setdefault(sum(1 << b for b in word), [0, 0])
                c[k] += (-1) ** t * sign
    return {tgt: (c0, c1) for tgt, (c0, c1) in out.items() if c0 or c1}


def closure_oracle(cx, members) -> list[tuple[int, int]]:
    """Every (member, target) with a nonzero term of d(member) at a target
    outside ``members``, ascending: the closure scan of a sub-DGA, with d
    read through ``leibniz_d_oracle`` at the complex's epsilon.  Shares no
    code with ``ravenel.integer_d`` or ``exterior.split_join``."""
    field, eps = cx.field, cx.descriptor.epsilon
    members = set(members)
    return [(mask, tgt) for mask in sorted(members)
            for tgt, (c0, c1) in sorted(leibniz_d_oracle(cx.n, mask).items())
            if tgt not in members and field.scalar(c0) + eps * field.scalar(c1)]


def reduced_weights(n: int, p: int) -> tuple[list[int], int]:
    """Per-slot reduced degrees p^j (p^i - 1)/(p - 1) and modulus (p^n - 1)/(p - 1)."""
    mod = (p**n - 1) // (p - 1)
    w = [0] * (n * n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            w[(i - 1) * n + (j - 1)] = (p**j * (p**i - 1) // (p - 1)) % mod
    return w, mod


def reduced_internal_degree(mask: int, n: int, p: int) -> int:
    w, mod = reduced_weights(n, p)
    return sum(w[b] for b in range(n * n) if mask >> b & 1) % mod


def angle_bracket(mask: int, n: int) -> tuple[int, ...]:
    """Integer n-tuple indexed by residues (0 = n, 1, ..., n-1): each generator
    h[i,j] contributes -1 at residue j and +1 at residue i+j."""
    t = [0] * n
    for i, j in slots_of(mask, n):
        t[j % n] -= 1
        t[(i + j) % n] += 1
    return tuple(t)


def sigma_shift_oracle(mask: int, n: int) -> tuple[int, int]:
    """(sign, mask) of h[i,j] -> h[i,j+1] on a monomial, by bubble sort of the
    shifted slot list: the sort-based shift the package used before its row
    tables."""
    shifted = [slot(i, j + 1, n) for i, j in slots_of(mask, n)]
    sign = wedge_sign_oracle(shifted, [])
    return sign, sum(1 << b for b in shifted)


def tau_oracle(mask: int, n: int, a: int = 0, reflect: bool = True) -> tuple[int, int]:
    """(sign, mask) of the dihedral element σ^a τ: h[i,j] -> h[i,a-i-j], or
    without ``reflect`` of σ^a: h[i,j] -> h[i,j+a], on a monomial: the image
    slots of its generators in canonical order, sorted by
    ``wedge_sign_oracle``'s bubble sort.  Reads the bits and writes the slots
    itself, sharing no code with the table actions ``exterior.sigma_power``
    and ``splits.dihedral``."""
    gens = [(b // n + 1, b % n + 1) for b in range(n * n) if mask >> b & 1]
    image = [(i - 1) * n + ((a - i - j if reflect else j + a) - 1) % n for i, j in gens]
    return wedge_sign_oracle(image, []), sum(1 << b for b in image)


def sigma_apply(cx, z: Cochain, semilinear: bool = False) -> Cochain:
    """The cyclic shift h[i,j] -> h[i,j+1] on a cochain; the semilinear variant
    twists coefficients by the designated order-n Frobenius power."""
    field = cx.field
    if semilinear:
        if field.m % cx.n != 0:
            raise ValueError(
                "semilinear shift needs an order-n Frobenius power; "
                f"extension degree {field.m} is not a multiple of n={cx.n}"
            )
        q = field.p ** (field.m // cx.n)

        def twist(c):
            return field.pow(c, q)
    else:
        twist = lambda c: c

    out: dict[int, object] = {}
    for mask, c in z.terms.items():
        sign, shifted = sigma_shift_oracle(mask, cx.n)
        cc = twist(c)
        add_term(out, shifted, -cc if sign < 0 else cc)
    return Cochain(cx.n, out)


def cup(coh, a: tuple[int, int, int], b: tuple[int, int, int]) -> dict:
    """Cup product of two basis classes of a ``homology.Cohomology``, as class
    coordinates."""
    return coh.reduce_cocycle(coh.representative(a).wedge(coh.representative(b)))


def element_order(field: Field, a: FieldScalar) -> int:
    """Multiplicative order of a nonzero element, by repeated multiplication."""
    if not a:
        raise ValueError("zero has no multiplicative order")
    k, x = 1, a
    while x != field.one:
        k, x = k + 1, x * a
    return k


class Monodromy:
    """The diagonal operator T(b) = omega^(D*alpha(b)) b of a
    ``kummer.KummerConnection`` on any fiber, including the singular one."""

    def __init__(self, conn, field: Field, omega: FieldScalar):
        self.conn = conn
        self.field = field
        self.omega = omega
        if element_order(field, omega) != conn.denominator:
            raise ValueError(
                f"monodromy needs a root of unity of exact order {conn.denominator}"
            )

    def exponent(self, mask: int) -> int:
        a = self.conn.monomial_parameter(mask)
        return int(a * self.conn.denominator)

    def eigenvalue(self, mask: int) -> FieldScalar:
        return self.field.pow(self.omega, self.exponent(mask))

    def apply(self, z: Cochain) -> Cochain:
        return Cochain(z.n, {m: c * self.eigenvalue(m) for m, c in z.terms.items()})


def monodromy(conn, field: Field, omega) -> Monodromy:
    return Monodromy(conn, field, field.scalar(omega))


def one_cochain(cx, text: str) -> Cochain:
    """The signed monomial text as a cochain of cx with coefficient one."""
    sign, mask = parse_monomial(text, cx.n)
    one = cx.field.one
    return Cochain(cx.n, {mask: one if sign > 0 else -one})


def euler_characteristics_match(table) -> bool:
    """Per internal class of a ``BettiTable``: alternating sums of cochain
    dims and of Betti numbers agree."""
    for u in {u for (_s, u) in table.block_dims}:
        chain = sum((-1) ** s * d for (s, uu), d in table.block_dims.items() if uu == u)
        coh = sum((-1) ** s * b for (s, uu), b in table.entries.items() if uu == u)
        if chain != coh:
            return False
    return True


# -- polynomials, and the family over F_p[x] ------------------------------------------


class Poly:
    """Dense univariate polynomial over a Field; the variable is semantic only."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, field: Field, c) -> "Poly":
        return cls(field, [field.scalar(c)])

    @classmethod
    def x_power(cls, field: Field, e: int, c=1) -> "Poly":
        return cls(field, [field.zero] * e + [field.scalar(c)])

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldScalar):
            return Poly(self.field, [c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Poly(self.field, [])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            cv = c.v if self.field.m == 1 else list(c.coordinates())
            parts.append(f"{cv}" if i == 0 else (f"{cv}*x^{i}" if i > 1 else f"{cv}*x"))
        return " + ".join(parts)


class Bundle:
    """The height-n family over F_p[x], eps = x, for p the field's
    characteristic: d of a monomial as {target: c0 + c1 x}, the digits of
    ``ravenel.bundle_digits``, and d of a cochain with ``Poly`` coefficients."""

    def __init__(self, n: int, field: Field):
        self.n = n
        self.field = field
        self.one = Poly.const(field, 1)
        self._terms = kronecker_term_table(n)

    def d_monomial(self, mask: int) -> dict[int, Poly]:
        scalar = self.field.scalar
        return {tgt: Poly(self.field, (scalar(c0), scalar(c1)))
                for tgt, (c0, c1) in bundle_digits(self._terms, mask, self.field.p)}

    def d_cochain(self, z: Cochain) -> Cochain:
        out: dict[int, Poly] = {}
        for mask, c in z.terms.items():
            for tgt, dc in self.d_monomial(mask).items():
                add_term(out, tgt, dc * c)
        return Cochain(self.n, out)


def poly_degree(f: Poly) -> int:
    return len(f.coeffs) - 1  # -1 for the zero polynomial


def poly_evaluate(f: Poly, e: FieldScalar) -> FieldScalar:
    """Horner evaluation; a ring homomorphism Poly -> field for fixed e."""
    acc = f.field.zero
    for c in reversed(f.coeffs):
        acc = acc * e + c
    return acc


def flipped_sign_table(table, gslot=0, k=0):
    """A copy of a generator pair table with the sign of one term negated."""
    out = {s: list(terms) for s, terms in table.items()}
    pmask, presign, e = out[gslot][k]
    out[gslot][k] = (pmask, -presign, e)
    return out


def flipped_along_j(table, n, i, k):
    """A copy of a generator pair table with the sign of the k-th term of
    d(h[i,j]) negated for every j.  The terms are listed in the same order
    for every j, so σ still commutes with d; τ maps the term
    h[l,j] h[i-l,j+l] of d(h[i,j]) to the term h[i-l,j'] h[l,j'+i-l] of
    d(h[i,j']), j' = -i-j, which keeps its sign unless l = i - l, so d no
    longer anticommutes with τ."""
    out = {s: list(terms) for s, terms in table.items()}
    for j in range(1, n + 1):
        terms = out[slot(i, j, n)]
        pmask, presign, e = terms[k]
        terms[k] = (pmask, -presign, e)
    return out


def below_dropped_terms(terms):
    """A copy of a ``ravenel.term_table`` whose sign masks lack the part for
    the generators below g, low - 1: d(g) no longer passes them."""
    return [[(other, sign_mask ^ ((1 << g) - 1), c, pmask)
             for other, sign_mask, c, pmask in slot_terms]
            for g, slot_terms in enumerate(terms)]


def extra_term_table(table, n, i, c):
    """A copy of a generator pair table whose d(h[i,j]) has the extra eps-free
    term h[i,j] h[n,j+c] for every j.  h[n,*] has internal class 0 and first
    subscript n, so each block and the first-subscript sum mod n are kept, and
    the terms are shifted along with j, so σ still commutes with d; but d of
    the degree n^2 - 1 monomial without h[n,j+c] now reaches the top one."""
    out = {s: list(terms) for s, terms in table.items()}
    for j in range(1, n + 1):
        sign, mask = wedge(generator_mask(i, j, n),
                           generator_mask(n, normalize_j(j + c, n), n))
        out[slot(i, j, n)].append((mask, sign, 0))
    return out


def circledast(d1, d2, field: Field):
    """(D1, D2) -> D1 (x) I + I (x) D2 on the tensor square, in the basis
    (v_1 (x) w_1, v_1 (x) w_2, ..., v_m (x) w_n) ordered row-major."""
    n1, n2 = len(d1), len(d2)
    out = [[field.zero] * (n1 * n2) for _ in range(n1 * n2)]
    for i in range(n1):
        for j in range(n2):
            r = i * n2 + j
            for k in range(n1):
                if d1[i][k]:
                    out[r][k * n2 + j] = out[r][k * n2 + j] + d1[i][k]
            for l in range(n2):
                if d2[j][l]:
                    out[r][i * n2 + l] = out[r][i * n2 + l] + d2[j][l]
    return out


def compose_transports(first, then):
    """``then`` after ``first``: a transport from first.eps to then.delta,
    scaling each x_j by both transports' x_j."""
    if first.delta != then.eps:
        raise ValueError("transports do not compose: fibers mismatch")
    xs = [a * b for a, b in zip(first.xs, then.xs)]
    zeta = first.zeta * then.zeta if first.zeta is not None else None
    return Transport(first.n, first.field, first.eps, then.delta, zeta, xs, first.mode)


def transpose(rows, width):
    """The coded rows of a matrix, rows[j] over columns 0 .. width - 1, read
    by column: (one row per column i, holding (j, c) for each entry c of
    rows[j] at i, and the number of rows).  ``transpose(*block_matrix(...))``
    is d on a block as one row per target, indexed by the sources."""
    out = [{} for _ in range(width)]
    for j, row in enumerate(rows):
        for i, c in row.items():
            out[i][j] = c
    return out, len(rows)


def kernel_basis(rows, ncols, field):
    """Kernel basis of coded rows acting on column vectors, one coded vector
    per non-pivot column of their reduced echelon form."""
    coding = field.coding
    rr, pivots = rref(rows, field)
    pivot_set = set(pivots)
    basis = []
    for k in range(ncols):
        if k in pivot_set:
            continue
        vec = {k: coding.one}
        for p, row in zip(pivots, rr):
            v = row.get(k)
            if v is not None:
                vec[p] = coding.encode(-coding.decode(v))
        basis.append(vec)
    return basis


def full_kernel_representatives(d_out, d_in, ncols, field):
    """A block's class representatives the long way: the full kernel of the
    coded rows d_out, one per target, each vector reduced against the reduced echelon form of
    the coboundary columns of d_in, and the reduced echelon form of what
    survives; returns (rows, pivots)."""
    cob: dict[int, dict] = {}
    for i, row in enumerate(d_in):
        for j, c in row.items():
            cob.setdefault(j, {})[i] = c
    cob_rows, cob_pivots = rref(list(cob.values()), field)
    reduced = [reduce_against(v, cob_rows, cob_pivots, field)
               for v in kernel_basis(d_out, ncols, field)]
    return rref([r for r in reduced if r], field)


# -- the U-property tools ------------------------------------------------------------


def derivation_matrix(D: Derivation, s: int):
    """Dense matrix of a degree-preserving derivation on the degree-s basis."""
    if D.degree_shift != 0:
        raise ValueError("a matrix needs a degree-preserving derivation")
    cx = D.cx
    field = cx.field
    basis = cx.basis(s)
    index = {m: i for i, m in enumerate(basis)}
    cols = []
    for mask in basis:
        img = D.apply(Cochain(cx.n, {mask: field.one}))
        col = [field.zero] * len(basis)
        for m2, c in img.terms.items():
            col[index[m2]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]


def mat_mul(a, b, field):
    n = len(a)
    out = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            c = a[i][k]
            if c:
                for j in range(n):
                    if b[k][j]:
                        out[i][j] = out[i][j] + c * b[k][j]
    return out


def mat_vec(a, v, field):
    return [sum((a[i][j] * v[j] for j in range(len(v)) if v[j]), field.zero)
            for i in range(len(v))]


def poly_monic(f: Poly) -> Poly:
    if not f:
        return f
    inv = f.coeffs[-1].inverse()
    return Poly(f.field, [c * inv for c in f.coeffs])


def poly_derivative(f: Poly) -> Poly:
    field = f.field
    return Poly(field, [field.scalar(i) * c for i, c in enumerate(f.coeffs) if i > 0])


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    field = a.field
    rem = list(a.coeffs)
    db = poly_degree(b)
    inv_lead = b.coeffs[-1].inverse()
    quot = [field.zero] * max(0, len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if c:
            q = c * inv_lead
            quot[k - db] = q
            for i, bc in enumerate(b.coeffs):
                rem[k - db + i] = rem[k - db + i] - q * bc
    return Poly(field, quot), Poly(field, rem[:db])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_radical(f: Poly) -> Poly:
    """Squarefree part: same roots, multiplicity one.  Handles the
    characteristic-p degenerate case f = g(x^p), whose derivative vanishes,
    by taking p-th roots of coefficients (the field is perfect)."""
    field = f.field
    p, m = field.p, field.m
    while f:
        fp = poly_derivative(f)
        if fp:
            return poly_monic(poly_divmod(f, poly_gcd(f, fp))[0])
        # f = g(x^p); over a perfect field the roots of f and g biject
        root_exp = p ** (m - 1)  # c -> c^(p^(m-1)) is the p-th root
        coeffs = [field.pow(f.coeffs[i], root_exp) if f.coeffs[i] else field.zero
                  for i in range(0, len(f.coeffs), p)]
        f = Poly(field, coeffs)
    return f


def poly_powmod(base: Poly, e: int, mod: Poly) -> Poly:
    result = Poly.const(base.field, 1)
    base = poly_divmod(base, mod)[1]
    while e:
        if e & 1:
            result = poly_divmod(result * base, mod)[1]
        base = poly_divmod(base * base, mod)[1]
        e >>= 1
    return result


def minimal_polynomial(mat, field: Field) -> Poly:
    """Minimal polynomial of a square matrix: lcm of the local minimal
    polynomials of the standard basis vectors, tracked through an echelon.

    Krylov vector k enters the echelon augmented with column n + k, so the
    first vector whose coordinates reduce to zero leaves the coefficients of
    its local minimal polynomial in columns n, ..., n + k.
    """
    n = len(mat)
    coding = field.coding
    result = Poly.const(field, 1)
    for start in range(n):
        ech: dict[int, dict] = {}
        v = [field.zero] * n
        v[start] = field.one
        for k in range(n + 1):
            row = coding.encode_row(dict(enumerate(v)))
            row[n + k] = coding.one
            piv = insert_row(row, ech, field)
            if piv >= n:
                coeffs = coding.decode_row(ech[piv])
                local = Poly(field, [coeffs.get(n + j, field.zero)
                                     for j in range(k + 1)])
                g = poly_gcd(local, result)
                result = poly_divmod(local * result, g)[0] if g else local
                break
            v = mat_vec(mat, v, field)
    return poly_monic(result)


def poly_roots_in_field(f: Poly, field: Field):
    return [e for e in field.elements() if not poly_evaluate(f, e)]


def is_diagonalizable(mat, field: Field):
    """Diagonalizable over the field iff the minimal polynomial divides
    y^q - y, i.e. is squarefree and split; returns (verdict, minimal poly)."""
    mp = minimal_polynomial(mat, field)
    yq = poly_powmod(Poly.x_power(field, 1), field.cardinality, mp)
    y = poly_divmod(Poly.x_power(field, 1), mp)[1]
    return yq == y, mp


def _field_of(cx_or_field) -> Field:
    return cx_or_field if isinstance(cx_or_field, Field) else cx_or_field.field


def u_property_check(cx_or_field, D) -> dict:
    """Diagonalizability and eigenvalue report for a degree-preserving
    derivation (checked on the degree-1 action) or a raw square matrix.

    Over a finite field every nonzero element is a root of unity, so the
    eigenvalue-membership half of the property holds automatically once the
    minimal polynomial splits.
    """
    if isinstance(D, Derivation):
        field, mat = D.cx.field, derivation_matrix(D, 1)
    else:
        field, mat = _field_of(cx_or_field), D
    diag, mp = is_diagonalizable(mat, field)
    return {
        "diagonalizable": diag,
        "eigenvalues": set(poly_roots_in_field(mp, field)),
        "all_in_k_u": True,
        "minimal_polynomial": mp,
    }


def idempotent_exponent(cx_or_field, D, max_steps: int = 100000) -> int:
    """Smallest t >= 1 with D^(2t) = D^t (such a D^t is then automatically
    diagonalizable, its minimal polynomial dividing y^2 - y)."""
    if isinstance(D, Derivation):
        field = D.cx.field
        mats = [derivation_matrix(D, s) for s in range(1, D.cx.top_degree + 1)
                if D.cx.basis(s)]
    else:
        field, mats = _field_of(cx_or_field), [D]
    powers = [list(map(list, m)) for m in mats]  # D^t
    squares = [mat_mul(m, m, field) for m in mats]  # D^(2t)
    for t in range(1, max_steps + 1):
        if all(p == s for p, s in zip(powers, squares)):
            return t
        powers = [mat_mul(p, m, field) for p, m in zip(powers, mats)]
        squares = [mat_mul(mat_mul(s, m, field), m, field)
                   for s, m in zip(squares, mats)]
    raise RuntimeError(f"no idempotent iterate found within {max_steps} steps")
