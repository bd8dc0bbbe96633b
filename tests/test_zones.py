"""Zone kernel checked against an integer-point oracle.

The randomized cases build every zone the way the formal engine does: one
`constrain_one` call per bound, starting from the unconstrained zone, with
weak (non-strict) integer bounds only.  Such a zone, when non-empty, is an
integral polytope (shortest-path potentials are integral), so enumerating a
bounded integer grid is an exact reference for emptiness, inclusion and
per-clock bounds.
"""

import numpy as np

from taskdse.reachability import _family_hull, _hull_is_union
from taskdse.rng import SplitMix64
from taskdse.zones import (
    INF_ENC,
    LE_ZERO,
    clock_window,
    constrain_one,
    constrain_upper,
    elapse,
    enc,
    enc_add,
    enc_neg,
    new_zero,
    relayout,
    zone_includes,
)


def unconstrained(n: int) -> np.ndarray:
    """Canonical zone of every non-negative valuation of n clocks."""
    mat = np.full((n + 1, n + 1), INF_ENC, dtype=np.int64)
    np.fill_diagonal(mat, LE_ZERO)
    mat[0, :] = LE_ZERO  # clocks are non-negative
    return mat


def test_encoding_orders_strictness():
    assert enc(3, strict=True) < enc(3, strict=False) < enc(4, strict=True)
    assert LE_ZERO == enc(0, strict=False)
    assert enc_add(enc(2), enc(3, strict=True)) == enc(5, strict=True)
    assert enc_add(INF_ENC, enc(1)) == INF_ENC
    # not (x < 5) is -x <= -5; not (x <= 5) is -x < -5
    assert enc_neg(enc(5, strict=True)) == enc(-5)
    assert enc_neg(enc(5)) == enc(-5, strict=True)


def test_zero_zone_and_unconstrained():
    z = new_zero(3)
    assert clock_window(z, 1) == clock_window(z, 2) == (0, 0)
    u = unconstrained(2)
    assert clock_window(u, 1) == (0, None)
    assert zone_includes(u, z)
    assert not zone_includes(z, u)


def test_negative_cycle_is_empty():
    # x - 0 <= 1 and 0 - x <= -2 cannot both hold
    z = unconstrained(1)
    assert constrain_one(z, 1, 0, enc(1))
    before = z.copy()
    assert not constrain_one(z, 0, 1, enc(-2))
    assert (z == before).all()  # the emptying bound leaves the matrix alone


def test_includes_reflexive_and_monotone():
    d = new_zero(3)
    elapse(d)
    assert constrain_one(d, 1, 0, enc(5))
    assert zone_includes(d, d)
    tighter = d.copy()
    assert constrain_one(tighter, 2, 0, enc(3))
    assert zone_includes(d, tighter)
    assert not zone_includes(tighter, d)


def test_up_removes_upper_bounds_keeps_differences():
    d = new_zero(3)
    elapse(d)
    # both clocks advanced together: x - y stays 0
    assert d[1, 2] == LE_ZERO
    assert d[2, 1] == LE_ZERO
    assert clock_window(d, 1) == (0, None)


def test_reset_pins_one_clock():
    d = new_zero(3)
    elapse(d)
    assert constrain_one(d, 1, 0, enc(4))
    r = relayout(d, [0, 1, 0])  # clock 2 reads source 0: reset to zero
    assert clock_window(r, 2) == (0, 0)
    assert clock_window(r, 1) == (0, 4)


# --- randomized oracle ------------------------------------------------------


def random_weak_zone(rng: SplitMix64, n: int, bound: int = 10, scale: int = 1):
    """Random zone over n clocks from weak integer bounds <= `bound` * `scale`.

    Every bound is a multiple of `scale`.  Returns (matrix, constraints): the
    constraints are (i, j, encoded bound) triples, and the matrix is None when
    one `constrain_one` call found the zone empty.
    """
    cons = []
    for i in range(1, n + 1):
        cons.append((i, 0, enc(scale * int(rng.next_u64() % (bound + 1)))))  # x_i <= c
        if rng.next_u64() % 2:
            cons.append((0, i, enc(-scale * int(rng.next_u64() % (bound + 1)))))  # x_i >= c
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.next_u64() % 3 == 0:
                cons.append((i, j, enc(scale * (int(rng.next_u64() % (2 * bound + 1)) - bound))))
    mat = unconstrained(n)
    for i, j, e in cons:
        if not constrain_one(mat, i, j, e):
            return None, cons
    return mat, cons


def matrix_constraints(mat: np.ndarray) -> list:
    """The finite off-diagonal entries of a zone as (i, j, encoded) triples."""
    m = mat.shape[0]
    return [(i, j, int(mat[i, j])) for i in range(m) for j in range(m)
            if i != j and mat[i, j] < INF_ENC]


def grid_points(n: int, bound: int = 10) -> np.ndarray:
    axes = [np.arange(bound + 1)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def satisfies(cons, pts: np.ndarray) -> np.ndarray:
    """Boolean mask of grid points meeting every (i, j, encoded) bound."""
    full = np.hstack([np.zeros((len(pts), 1), dtype=pts.dtype), pts])
    ok = np.ones(len(pts), dtype=bool)
    for i, j, e in cons:
        diff = full[:, i] - full[:, j]
        ok &= (diff <= e >> 1) if e & 1 else (diff < e >> 1)
    return ok


def test_randomized_against_integer_point_oracle():
    rng = SplitMix64(0xD1CE)
    resets = 0
    for case in range(120):
        n = 1 + int(rng.next_u64() % 3)
        pts = grid_points(n)
        a, cons_a = random_weak_zone(rng, n)
        b, cons_b = random_weak_zone(rng, n)
        in_a, in_b = satisfies(cons_a, pts), satisfies(cons_b, pts)

        assert (a is None) == (not in_a.any()), f"case {case}: emptiness"
        if a is not None and b is not None:
            assert zone_includes(a, b) == bool((~in_b | in_a).all()), f"case {case}: inclusion"
        if a is not None:
            assert (satisfies(matrix_constraints(a), pts) == in_a).all(), f"case {case}: closure"
            for c in range(1, n + 1):
                col = pts[in_a, c - 1]
                assert clock_window(a, c) == (int(col.min()), int(col.max())), f"case {case}: clock {c}"
            # resetting clock c (reading it from source 0, as the engine
            # does) keeps the other coordinates and pins c to 0
            c = 1 + case % n
            r = relayout(a, [0 if k == c else k for k in range(n + 1)])
            others = [k for k in range(n) if k != c - 1]
            kept = {tuple(p) for p in pts[in_a][:, others]}
            want = (pts[:, c - 1] == 0) & np.array([tuple(p) in kept for p in pts[:, others]])
            assert (satisfies(matrix_constraints(r), pts) == want).all(), f"case {case}: reset"
            resets += 1
    assert resets > 0


def test_hull_is_union_against_integer_point_oracle():
    # Bounds are multiples of n + 1.  A point of the hull outside both zones
    # violates one bound of each strictly; a cycle of at most n + 1 bounds
    # with positive slack then has slack >= n + 1, enough for all its strict
    # bounds at once, so such a point exists on the integer grid whenever one
    # exists in dense time.
    rng = SplitMix64(0x4A11)
    outcomes = set()
    for case in range(400):
        n = 1 + int(rng.next_u64() % 3)
        scale = n + 1
        a, cons_a = random_weak_zone(rng, n, scale=scale)
        b, cons_b = random_weak_zone(rng, n, scale=scale)
        if a is None or b is None:
            continue
        pts = grid_points(n, 10 * scale)
        h = np.maximum(a, b)
        union = satisfies(cons_a, pts) | satisfies(cons_b, pts)
        exact = bool((satisfies(matrix_constraints(h), pts) == union).all())
        assert _hull_is_union(h, a, b) == exact, f"case {case}"
        outcomes.add(exact)
    assert outcomes == {True, False}


def test_upper_bounds_before_the_delay_change_nothing():
    # The formal engine applies each location's invariants, all of them upper
    # bounds on single clocks, only after the delay: (Z & I)^ & I == Z^ & I.
    rng = SplitMix64(0xE1A5)
    seen = set()
    for case in range(300):
        n = 1 + int(rng.next_u64() % 4)
        z, _cons = random_weak_zone(rng, n)
        if z is None:
            continue
        caps = [(c, enc(int(rng.next_u64() % 12))) for c in range(1, n + 1)
                if rng.next_u64() % 3]

        def after_delay(mat, before: bool):
            mat = mat.copy()
            if before and not all(constrain_one(mat, c, 0, e) for c, e in caps):
                return None
            elapse(mat)
            if not all(constrain_one(mat, c, 0, e) for c, e in caps):
                return None
            return mat

        twice, once = after_delay(z, True), after_delay(z, False)
        assert (twice is None) == (once is None), f"case {case}: emptiness"
        if once is not None:
            assert (twice == once).all(), f"case {case}"
        seen.add(once is None)
    assert seen == {True, False}


def test_upper_bounds_in_one_pass_equal_one_call_per_bound():
    # constrain_upper must give the bytes of sequential constrain_one calls
    # (canonical zones are unique) and the same emptiness, with repeated
    # clocks, bounds looser than the zone's and elapsed zones among the cases
    rng = SplitMix64(0xB47C)
    seen = set()
    for case in range(400):
        n = 1 + int(rng.next_u64() % 5)
        z, _cons = random_weak_zone(rng, n)
        if z is None:
            continue
        if rng.next_u64() % 2:
            elapse(z)
        k = int(rng.next_u64() % (n + 2))
        clocks = [1 + int(rng.next_u64() % n) for _ in range(k)]
        bounds = [enc(int(rng.next_u64() % 14) - 2) for _ in range(k)]
        one_by_one, batched = z.copy(), z.copy()
        ok = all(constrain_one(one_by_one, c, 0, e) for c, e in zip(clocks, bounds))
        assert constrain_upper(batched, clocks, bounds) == ok, f"case {case}: emptiness"
        if ok:
            assert batched.tobytes() == one_by_one.tobytes(), f"case {case}"
        else:
            assert (batched == z).all(), f"case {case}: an empty result leaves the zone"
        seen.add(ok)
    assert seen == {True, False}


def test_relayout_is_a_projection_with_fresh_clocks_at_zero():
    # new clock p copies old clock srcs[p]; src 0 creates a clock at 0
    rng = SplitMix64(0x9E1A)
    for case in range(150):
        n = 1 + int(rng.next_u64() % 3)
        a, cons = random_weak_zone(rng, n)
        if a is None:
            continue
        m = 1 + int(rng.next_u64() % 4)
        srcs = [0] + [int(rng.next_u64() % (n + 1)) for _ in range(m)]
        pts = grid_points(n)
        full = np.hstack([np.zeros((len(pts), 1), dtype=pts.dtype), pts])
        image = {tuple(p) for p in full[satisfies(cons, pts)][:, srcs[1:]]}
        new_pts = grid_points(m)
        want = np.array([tuple(p) in image for p in new_pts])
        got = satisfies(matrix_constraints(relayout(a, srcs)), new_pts)
        assert (got == want).all(), f"case {case}: srcs {srcs}"


def completion_family(rng: SplitMix64, m: int, n: int, scale: int = 1):
    """Members r = 1..m of a box cut by x_r <= x_j for every family clock j.

    The member where clock r is smallest is the zone in which task r ended
    last.  Family clocks 1..m share one window, multiples of `scale`; clocks
    m+1..n get their own upper bounds.  Returns (members, box constraints).
    """
    lo, hi = scale * int(rng.next_u64() % 5), scale * (5 + int(rng.next_u64() % 6))
    cons = [(c, 0, enc(hi)) for c in range(1, m + 1)]
    cons += [(0, c, enc(-lo)) for c in range(1, m + 1)]
    cons += [(c, 0, enc(scale * int(rng.next_u64() % 11))) for c in range(m + 1, n + 1)]
    box = unconstrained(n)
    for i, j, e in cons:
        assert constrain_one(box, i, j, e)
    members = []
    for r in range(1, m + 1):
        z = box.copy()
        for j in range(1, m + 1):
            if j != r:
                assert constrain_one(z, r, j, enc(0))
        members.append(z)
    return members, cons


def union_mask(zones, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(pts), dtype=bool)
    for z in zones:
        out |= satisfies(matrix_constraints(z), pts)
    return out


def test_family_hull_merges_built_completion_families():
    rng = SplitMix64(0xFA41)
    for case in range(60):
        m = 2 + case % 3
        n = m + int(rng.next_u64() % 2)  # maybe one unrelated clock
        members, cons = completion_family(rng, m, n)
        h, idxs = _family_hull(members)
        assert idxs == list(range(m)), f"case {case}"
        pts = grid_points(n)
        union = union_mask(members, pts)
        assert (satisfies(matrix_constraints(h), pts) == union).all(), f"case {case}"
        assert (union == satisfies(cons, pts)).all(), f"case {case}: members miss the box"


def test_family_hull_of_random_zones_adds_no_points():
    # Zone sets are random zones, or part of a completion family with some
    # members cut by one more bound between two family clocks.  Bounds are multiples of n + 1, as in
    # the pairwise hull test above, so any point a hull adds over its
    # members' union shows on the grid.
    rng = SplitMix64(0xFA42)
    outcomes = set()
    for case in range(300):
        n = 1 + int(rng.next_u64() % 3)
        scale = n + 1
        zones = []
        if n == 1 or case % 2:
            for _ in range(2 + int(rng.next_u64() % 3)):
                z, _cons = random_weak_zone(rng, n, scale=scale)
                if z is not None:
                    zones.append(z)
        else:
            m = 2 + int(rng.next_u64() % (n - 1))
            members, _cons = completion_family(rng, m, n, scale)
            for z in members:
                cut = rng.next_u64() % 4  # 0: leave the member out, 1: cut it
                i, j = 1 + int(rng.next_u64() % m), 1 + int(rng.next_u64() % m)
                if cut == 0 or (cut == 1 and i != j and not constrain_one(
                        z, i, j, enc(scale * int(rng.next_u64() % 6)))):
                    continue
                zones.append(z)
        if len(zones) < 2:
            continue
        got = _family_hull(zones)
        outcomes.add(got is None)
        if got is None:
            continue
        h, idxs = got
        pts = grid_points(n, 10 * scale)
        union = union_mask([zones[i] for i in idxs], pts)
        assert (satisfies(matrix_constraints(h), pts) == union).all(), f"case {case}"
    assert outcomes == {True, False}
