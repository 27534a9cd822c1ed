"""Exact reduced row echelon form of integer vectors, fraction-free: a
vector's scale is irrelevant to a span, so elimination divides only by a
row's gcd, once, at the end.  csa.invariants takes each fixed field E^H
from it over Q.
"""

from math import gcd, lcm


def echelon_reduce(vectors) -> tuple[list[int], list[list[int]], int]:
    """The RREF of the span of the int vectors as (pivots, rows, scale):
    rows[i] over scale is the RREF row with its leading 1 at pivots[i],
    ascending.  Each row, made primitive, has a pivot entry c_i > 0 and is
    c_i times its RREF row; scale is the lcm of the c_i.  Eliminating v at
    the pivot p of a row r forms r[p] v - v[p] r."""
    rows: dict = {}  # pivot: a row with a positive entry there and 0 at every other pivot
    for v in vectors:
        for p, r in rows.items():
            if x := v[p]:
                v = [r[p] * a - x * b for a, b in zip(v, r)]
        if any(v):
            p = next(p for p, x in enumerate(v) if x)
            v = v if v[p] > 0 else [-x for x in v]
            rows = {q: [v[p] * a - r[p] * b for a, b in zip(r, v)] if r[p] else r for q, r in rows.items()}
            rows[p] = v
    primitive = {p: [x // gcd(*r) for x in r] for p, r in sorted(rows.items())}
    scale = lcm(*(r[p] for p, r in primitive.items()))
    return list(primitive), [[x * (scale // r[p]) for x in r] for p, r in primitive.items()], scale
