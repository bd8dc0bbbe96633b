"""Difference bound matrices over a fixed set of clocks.

A zone over clocks c_1..c_n is stored as an (n+1) x (n+1) matrix whose entry
(i, j) bounds c_i - c_j; index 0 is the constant-zero clock.  Entries are kept
in an encoded int64 form so the hot path can run on numpy arrays:

    enc(v, weak)   = 2*v + 1      (c_i - c_j <= v)
    enc(v, strict) = 2*v          (c_i - c_j <  v)
    INF_ENC                        (no bound)

The encoding is order-preserving, and bound addition is plain integer
arithmetic: a + b - ((a | b) & 1) adds the values and keeps the weak bit only
when both bounds are weak, and the complement of a bound is LE_ZERO - e.  On
matrices a sum with an INF_ENC operand may wrap around int64 (INF + INF);
such entries are masked back to INF_ENC, and no Python object is allocated.
Canonical form is the all-pairs shortest-path tightening.  Every operation
here maps canonical zones to canonical zones; constrain_one does it with one
incremental pass and reports an empty zone when the new bound closes a
negative cycle, and constrain_upper applies any number of upper bounds on
single clocks in one such pass.  Inclusion is therefore a plain entrywise
comparison.
"""

from __future__ import annotations

import numpy as np

INF_ENC = 1 << 62
LE_ZERO = 1  # enc(0, weak)


def enc(value: int, strict: bool = False) -> int:
    return (value << 1) | (0 if strict else 1)


def enc_add(a: int, b: int) -> int:
    if a >= INF_ENC or b >= INF_ENC:
        return INF_ENC
    return a + b - ((a | b) & 1)


def enc_neg(e: int) -> int:
    """Complement bound: points violating (c_i - c_j ~ v) satisfy this on (j, i).

    not(x <= v) is -x < -v and not(x < v) is -x <= -v; both are LE_ZERO - e.
    """
    return LE_ZERO - e


def _mat_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """enc_add entry by entry, over broadcast operands."""
    s = a + b
    s -= (a | b) & 1
    s[np.maximum(a, b) >= INF_ENC] = INF_ENC  # also every wrapped INF + INF
    return s


def new_zero(m: int) -> np.ndarray:
    """Zone where all m clocks equal 0 (canonical)."""
    return np.full((m, m), LE_ZERO, dtype=np.int64)


def constrain_one(mat: np.ndarray, i: int, j: int, bound: int) -> bool:
    """Intersect a canonical zone with c_i - c_j ~ bound, keeping it canonical.

    Returns False (zone empty) without touching the matrix when the new
    constraint closes a negative cycle.
    """
    if bound >= mat[i, j]:
        return True
    if enc_add(bound, int(mat[j, i])) < LE_ZERO:
        return False
    mat[i, j] = bound
    # one incremental tightening pass: paths p -> i -> j -> q
    row = _mat_add(np.full(mat.shape[0], bound, dtype=np.int64), mat[j, :])
    mat[:] = np.minimum(mat, _mat_add(mat[:, i : i + 1], row[None, :]))
    return True


def constrain_upper(mat: np.ndarray, clocks: list[int], bounds: list[int]) -> bool:
    """Intersect a canonical zone with c_i <= u_i for every clock i in
    `clocks`, u_i encoded in `bounds`, keeping it canonical; the same bytes
    as one constrain_one call per bound, in one pass.

    Each bound is an edge into clock 0, and a shortest path needs at most one
    of them (two would enclose a cycle through 0, which is non-negative unless
    the zone is empty).  So the tightened column 0 is the old one or a path
    into some bounded clock, every other entry may route through that column,
    and the zone is empty exactly when the column's entry for clock 0 drops
    below zero; then it returns False without touching the matrix.
    """
    if not clocks:
        return True
    cols = np.asarray(clocks, dtype=np.intp)
    ups = np.asarray(bounds, dtype=np.int64)
    col0 = np.minimum(mat[:, 0], _mat_add(mat[:, cols], ups[None, :]).min(axis=1))
    if col0[0] < LE_ZERO:
        return False
    np.minimum(mat, _mat_add(col0[:, None], mat[0:1, :]), out=mat)
    return True


def elapse(mat: np.ndarray) -> None:
    """Let time flow: drop every upper bound on individual clocks."""
    mat[1:, 0] = INF_ENC


def relayout(mat: np.ndarray, srcs: list[int]) -> np.ndarray:
    """Project/permute/extend a canonical zone onto a new clock layout.

    srcs[p] is the old index feeding new index p, or 0 for a freshly created
    clock; borrowing row/column 0 makes the new clock exactly zero, which is
    the reset-on-creation semantics the engines rely on.
    """
    idx = np.asarray(srcs, dtype=np.intp)
    # two takes build the same fresh array as mat[np.ix_(idx, idx)].copy()
    # in a fraction of its time on the small matrices the engine uses
    return mat.take(idx, axis=0).take(idx, axis=1)


def zone_includes(a: np.ndarray, b: np.ndarray) -> bool:
    """True when canonical zone a contains canonical zone b."""
    return bool((a >= b).all())


def clock_window(mat: np.ndarray, c: int) -> tuple[int, int | None]:
    """[lo, hi] tick window of clock c; hi is None when unbounded above."""
    lo = -(int(mat[0, c]) >> 1)
    up = int(mat[c, 0])
    hi = None if up >= INF_ENC else (up >> 1)
    return lo, hi
