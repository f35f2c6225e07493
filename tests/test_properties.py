"""Property tests of the rules the generator-level certificates rest on.

``retract.kernel_masks`` reads D = dh + hd off its values on the generators,
which is sound because d and every h obey the graded Leibniz rule; the
subcomplex and filtration certificates read d off the pair table, whose
terms carry ``exterior.wedge`` signs; and all of it runs on GF(p^m)
arithmetic, tabled or not.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabfold.exterior import Cochain, wedge, wedge_sign_oracle
from stabfold.gf import Poly, field_create
from stabfold.ravenel import BUNDLE, build_deformed
from stabfold.retract import extend_functional

N, P = 3, 7
SLOTS = N * N
F7 = field_create(P)
COMPLEXES = {eps: build_deformed(N, P, F7, eps) for eps in (0, 1, BUNDLE)}

FAST = settings(max_examples=40, deadline=None)


def monomials(degree):
    return st.sets(st.integers(0, SLOTS - 1), min_size=degree,
                   max_size=degree).map(lambda slots: sum(1 << b for b in slots))


@st.composite
def cochain_pairs(draw, bundle=False):
    """(k, a, b): a homogeneous of degree k, b of mixed degrees, with up to
    three terms each; coefficients in F_7, or in F_7[x] of degree <= 1."""
    residues = st.integers(0, P - 1)
    if bundle:
        coeffs = st.tuples(residues, residues).map(
            lambda c: Poly(F7, [F7.scalar(c[0]), F7.scalar(c[1])]))
    else:
        coeffs = residues.map(F7.scalar)
    k = draw(st.integers(0, 4))
    a = draw(st.dictionaries(monomials(k), coeffs, max_size=3))
    b = draw(st.dictionaries(st.integers(0, 4).flatmap(monomials), coeffs,
                             max_size=3))
    return k, Cochain(N, a), Cochain(N, b)


def leibniz_holds(op, k, a, b, one) -> bool:
    """op(ab) = op(a) b + (-1)^k a op(b) for a homogeneous of degree k and
    an odd op (d raises degree by one, h lowers it by one)."""
    rhs = op(a).wedge(b, one)
    a_opb = a.wedge(op(b), one)
    rhs = rhs - a_opb if k % 2 else rhs + a_opb
    return op(a.wedge(b, one)) == rhs


@pytest.mark.parametrize("eps", [0, 1])
@FAST
@given(data=cochain_pairs())
def test_d_is_a_graded_derivation_on_cochains(eps, data):
    cx = COMPLEXES[eps]
    assert leibniz_holds(cx.d_cochain, *data, cx.ring_one)


@FAST
@given(data=cochain_pairs(bundle=True))
def test_bundle_d_is_a_graded_derivation_on_cochains(data):
    cx = COMPLEXES[BUNDLE]
    assert leibniz_holds(cx.d_cochain, *data, cx.ring_one)


@FAST
@given(values=st.lists(st.integers(0, P - 1), min_size=SLOTS, max_size=SLOTS),
       data=cochain_pairs())
def test_every_extended_functional_is_a_graded_derivation(values, data):
    cx = COMPLEXES[1]
    h = extend_functional(cx, dict(enumerate(values)))
    assert leibniz_holds(h.apply, *data, cx.ring_one)


@settings(max_examples=200, deadline=None)
@given(a=st.sets(st.integers(0, 24), max_size=8),
       b=st.sets(st.integers(0, 24), max_size=8))
def test_wedge_sign_matches_the_bubble_sort_oracle(a, b):
    # on the 25 slots of n = 5
    sa, sb = sorted(a), sorted(b)
    ma, mb = sum(1 << s for s in sa), sum(1 << s for s in sb)
    expected = wedge_sign_oracle(sa, sb)
    got = wedge(ma, mb)
    assert got == (None if expected is None else (expected, ma | mb))


# GF(13^2) and GF(2^3) get log tables; GF(2^17) is above the table limit
FIELDS = [field_create(13, 2), field_create(2, 3), field_create(2, 17)]


def elements(field):
    return st.lists(st.integers(0, field.p - 1), min_size=field.m,
                    max_size=field.m).map(field.scalar)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@FAST
@given(data=st.data())
def test_field_axioms(field, data):
    a, b, c = (data.draw(elements(field)) for _ in range(3))
    zero, one = field.zero, field.one
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)
    if a:
        assert a * a.inverse() == one
    # every element is a root of y^q - y
    assert field.pow(a, field.cardinality) == a
