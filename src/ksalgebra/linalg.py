"""Exact row echelon on integer vectors, in the field's kernel.

A vector is a dict of index -> integer vector (d ints, as accumulate and
reduce read them), and its scale is irrelevant to a span, so elimination
never divides.  csa.invariants takes each fixed field E^H from it over Q.
"""

from math import gcd

from .exactfield import FieldDescriptor


def echelon_reduce(field: FieldDescriptor, rows: dict, v: dict) -> dict:
    """v reduced against echelon rows (each keyed by its smallest index,
    with support at or above it) at every index that leads a row: zero
    ({}) exactly when v is in their span, otherwise a vector with no entry
    at such an index, scaled to small integers.  Eliminating index k forms
    p v - c r, with p and c the coefficients of the row r and of v there."""
    accumulate, reduce_ = field.accumulate, field.reduce
    k = -1
    while True:
        k = min((s for s in v if s > k and s in rows), default=None)
        if k is None:
            break
        r = rows[k]
        sums: dict = {}
        accumulate(sums, r[k], v.items())
        accumulate(sums, tuple([-x for x in v[k]]), r.items())
        v = {s: x for s, x in ((s, reduce_(acc)) for s, acc in sums.items()) if any(x)}
    if len(v) == 1:
        return {k: (1,) + (0,) * (field.degree - 1) for k in v}
    g = gcd(*(x for c in v.values() for x in c))
    return {s: tuple([x // g for x in c]) for s, c in v.items()} if g > 1 else v
