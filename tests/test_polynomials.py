"""Polynomial layer tests: division, interval enclosures and rendering,
each against a hand-derived value or a pointwise law.  Division is checked
with the product of fraction_reference.py, which shares no code with the
package."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ksalgebra.polynomials import (
    interval_eval,
    padd,
    pdivmod,
    peval,
    poly,
    render,
)

import fraction_reference as ref

F = Fraction


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
)
def test_divmod_reconstructs(fc, gc):
    f, g = poly(fc), poly(gc)
    if not g:
        return
    q, r = pdivmod(f, g)
    assert padd(ref.pmul(q, g), r) == f
    assert len(r) < len(g)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.integers(-3, 3),
    st.integers(1, 4),
)
def test_interval_eval_encloses_point_values(fc, num, den):
    f = poly(fc)
    lo, hi = F(num, den) - F(1, 3), F(num, den) + F(1, 2)
    vlo, vhi = interval_eval(f, lo, hi)
    for x in (lo, hi, (lo + hi) / 2, F(num, den)):
        assert vlo <= peval(f, x) <= vhi


def test_render_readable():
    assert render(poly([-2, 0, 1])) == "X^2 - 2"
    assert render(poly([0, F(1, 2)]), "a") == "1/2*a"
    assert render(poly([])) == "0"


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        pdivmod(poly([1, 1]), poly([]))
