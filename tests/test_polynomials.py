"""Polynomial layer tests: remainders, interval enclosures and rendering,
each against a hand-derived value or a pointwise law.  Remainders are
checked with the product of fraction_reference.py, which shares no code
with the package."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ksalgebra.polynomials import (
    interval_eval,
    padd,
    peval,
    pmod,
    poly,
    render,
)

import fraction_reference as ref

F = Fraction


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.lists(st.integers(-9, 9), max_size=4),
)
def test_divmod_reconstructs(qc, gc, rc):
    # f = q g + r with deg r < deg g has remainder r
    q, g = poly(qc), poly(gc)
    if not g:
        return
    r = poly(rc[: len(g) - 1])
    assert pmod(padd(ref.pmul(q, g), r), g) == r


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.integers(-3, 3),
    st.integers(1, 4),
)
def test_interval_eval_encloses_point_values(fc, num, den):
    # [num/den - 1/3, num/den + 1/2] as ints over q = 6 den: the enclosure
    # is over q^deg f
    f, q = poly(fc), 6 * den
    lo, hi = 6 * num - 2 * den, 6 * num + 3 * den
    vlo, vhi = interval_eval(fc, lo, hi, q)
    assert all(type(v) is int for v in (vlo, vhi))
    scale = q ** max(len(f) - 1, 0)
    for x in (F(lo, q), F(hi, q), F(lo + hi, 2 * q), F(num, den)):
        assert vlo <= scale * peval(f, x) <= vhi


def test_render_readable():
    assert render(poly([-2, 0, 1])) == "X^2 - 2"
    assert render(poly([0, F(1, 2)]), "a") == "1/2*a"
    assert render(poly([])) == "0"


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        pmod(poly([1, 1]), poly([]))
