"""Differential tests: the bilinear core against textbook reference code.

The references below are the plain algorithms the core replaced: affine
double-and-add, a separate line evaluation and point update per Miller
step, and the final exponentiation as one power by (p^2 - 1)/q.  They
live here only, as the oracle.  On curves small enough to enumerate, the
core must agree with them on every point, including the identity, the
2-torsion point (0, 0) and points outside the order-q subgroup.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idak.bilinear import (
    GElem,
    GTElem,
    INFINITY,
    _checked_pairing,
    fixed_base_exp,
    hash_to_group,
    in_subgroup,
    instance_generate,
    pairing,
    point_add,
    random_scalar,
    scalar_exp,
)

# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def ref_add(p, a, b):
    if a.is_identity():
        return b
    if b.is_identity():
        return a
    if a.x == b.x:
        if (a.y + b.y) % p == 0:
            return INFINITY
        lam = (3 * a.x * a.x + 1) * pow(2 * a.y, -1, p) % p
    else:
        lam = (b.y - a.y) * pow(b.x - a.x, -1, p) % p
    x3 = (lam * lam - a.x - b.x) % p
    y3 = (lam * (a.x - x3) - a.y) % p
    return GElem(x3, y3)


def ref_scalar_exp(params, point, n):
    if n < 0:
        point = GElem(point.x, (-point.y) % params.p) if not point.is_identity() else INFINITY
        n = -n
    result = INFINITY
    acc = point
    while n:
        if n & 1:
            result = ref_add(params.p, result, acc)
        n >>= 1
        if n:
            acc = ref_add(params.p, acc, acc)
    return result


def ref_fp2_mul(p, a1, b1, a2, b2):
    return (a1 * a2 - b1 * b2) % p, (a1 * b2 + a2 * b1) % p


def ref_fp2_pow(p, a, b, e):
    ra, rb = 1, 0
    while e:
        if e & 1:
            ra, rb = ref_fp2_mul(p, ra, rb, a, b)
        e >>= 1
        if e:
            a, b = ref_fp2_mul(p, a, b, a, b)
    return ra, rb


def ref_line_value(p, a, b, xq, yq):
    """Line through a and b at (-xq, i*yq); vertical lines count as 1."""
    if a.is_identity() or b.is_identity():
        return 1, 0
    if a.x == b.x:
        if a is not b and (a.y + b.y) % p == 0:
            return 1, 0
        if a.y == 0:
            return 1, 0
        lam = (3 * a.x * a.x + 1) * pow(2 * a.y, -1, p) % p
    else:
        lam = (b.y - a.y) * pow(b.x - a.x, -1, p) % p
    return (lam * (xq + a.x) - a.y) % p, yq


def ref_pairing(params, left, right, events=None):
    """Unfused Miller loop and generic final power; `events` collects the
    loop's edge cases: T at the identity, and the add step meeting T = P."""
    p, q = params.p, params.q
    if left.is_identity() or right.is_identity():
        return GTElem(1, 0, p)
    xq, yq = right.x, right.y
    fa, fb = 1, 0
    t = left
    for bit in bin(q)[3:]:
        if events is not None and t.is_identity():
            events.add("T is the identity")
        la, lb = ref_line_value(p, t, t, xq, yq)
        fa, fb = ref_fp2_mul(p, fa, fb, fa, fb)
        fa, fb = ref_fp2_mul(p, fa, fb, la, lb)
        t = ref_add(p, t, t)
        if bit == "1":
            if events is not None and t == left:
                events.add("add step meets T = P")
            la, lb = ref_line_value(p, t, left, xq, yq)
            fa, fb = ref_fp2_mul(p, fa, fb, la, lb)
            t = ref_add(p, t, left)
    fa, fb = ref_fp2_pow(p, fa, fb, (p * p - 1) // q)
    return GTElem(fa, fb, p)


# ---------------------------------------------------------------------------
# curves small enough to enumerate
# ---------------------------------------------------------------------------

# Curves by (k_bits, seed).  p = 19, 83, 43, 103, 151 take every pair of
# points.  p = 347, 443, 631, 547 take every left point against a spread
# of right points: the Miller loop's path depends on the left point only.
FULL_CURVES = [(3, 1), (3, 0), (4, 0), (4, 1), (5, 1)]
WIDE_CURVES = [(5, 0), (6, 1), (7, 3), (8, 1)]
# Every curve has (0, 0), whose double is the identity.  On p = 347 some
# off-subgroup point also brings T back to P before an add step.
EDGE_CASES = {(5, 0): {"T is the identity", "add step meets T = P"}}


def all_points(params):
    p = params.p
    roots = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    points = [INFINITY]
    for x in range(p):
        points += [GElem(x, y) for y in roots.get((x * x * x + x) % p, [])]
    assert len(points) == p + 1
    return points


@functools.cache
def curve(k_bits, seed):
    params = instance_generate(k_bits, seed)
    return params, all_points(params)


def scalars(params):
    """Negative, zero, q, multiples of q, and values above p + 1."""
    p, q = params.p, params.q
    return st.one_of(
        st.integers(-3 * (p + 1), 3 * (p + 1)),
        st.sampled_from([0, q, -q, p + 1, p + 2]),
        st.integers(-40, 40).map(lambda m: m * q),
        st.integers(p + 2, 1 << 80),
        st.integers(-(1 << 80), -1),
    )


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES)
def test_pairing_and_add_match_reference_on_every_pair(k_bits, seed):
    params, points = curve(k_bits, seed)
    torsion2 = GElem(0, 0)
    events = set()
    zero_results = 0
    for left in points:
        for right in points:
            expected = ref_pairing(params, left, right, events)
            assert pairing(params, left, right) == expected, (left, right)
            assert point_add(params, left, right) == ref_add(params.p, left, right)
            if expected == GTElem(0, 0, params.p):
                assert right == torsion2
                zero_results += 1
    # (0, 0) is on every curve, and some left point must zero its Miller value
    assert torsion2 in points
    assert zero_results > 0
    assert "T is the identity" in events


@pytest.mark.parametrize("k_bits,seed", WIDE_CURVES)
def test_pairing_matches_reference_for_every_left(k_bits, seed):
    params, points = curve(k_bits, seed)
    rng = random.Random(k_bits)
    rights = [INFINITY, GElem(0, 0)] + rng.sample(points, 6)
    events = set()
    for left in points:
        for right in rights:
            expected = ref_pairing(params, left, right, events)
            assert pairing(params, left, right) == expected, (left, right)
    for left in rng.sample(points, 4):
        for right in points:
            assert pairing(params, left, right) == ref_pairing(params, left, right)
    assert events == EDGE_CASES.get((k_bits, seed), {"T is the identity"})


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES + WIDE_CURVES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scalar_exp_matches_reference_on_every_point(k_bits, seed, data):
    params, points = curve(k_bits, seed)
    n = data.draw(scalars(params))
    for point in points:
        assert scalar_exp(params, point, n) == ref_scalar_exp(params, point, n), (point, n)


def window_scalars(params):
    """0, 1, q - 1, q, 2^|q| - 1, the window table's whole range, negatives
    and values from 2^|q| up, which go to scalar_exp."""
    q = params.q
    top = 1 << q.bit_length()
    return st.one_of(
        st.sampled_from([0, 1, q - 1, q, top - 1, top, -1, -q]),
        st.integers(0, top - 1),
        st.integers(top, 1 << 80),
        st.integers(-(1 << 80), -1),
    )


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES + WIDE_CURVES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fixed_base_exp_matches_scalar_exp_on_every_point(k_bits, seed, data):
    # every point, not only the subgroup: the window table must also be
    # right for the identity, (0, 0) and points whose higher rows hold the
    # identity
    params, points = curve(k_bits, seed)
    n = data.draw(window_scalars(params))
    for point in points:
        assert fixed_base_exp(params, point, n) == scalar_exp(params, point, n), (point, n)


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES)
def test_checked_pairing_flags_the_left_subgroup_on_every_pair(k_bits, seed):
    params, points = curve(k_bits, seed)
    flagged = set()
    for left in points:
        in_group = in_subgroup(params, left)
        flagged.add(in_group)
        for right in points:
            value, flag = _checked_pairing(params, left, right)
            assert flag == in_group, (left, right)
            assert value == pairing(params, left, right), (left, right)
    assert flagged == {True, False}


# ---------------------------------------------------------------------------
# protocol-sized curves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k_bits,pairs", [(16, 12), (32, 8), (128, 3)])
def test_random_subgroup_pairs_match_reference(k_bits, pairs):
    params = instance_generate(k_bits, f"differential-{k_bits}")
    rng = random.Random(k_bits)
    gen = hash_to_group(params, "differential")
    for _ in range(pairs):
        a = scalar_exp(params, gen, random_scalar(params, rng))
        b = scalar_exp(params, gen, random_scalar(params, rng))
        assert pairing(params, a, b) == ref_pairing(params, a, b)
        for n in (random_scalar(params, rng), -random_scalar(params, rng),
                  params.q, 3 * params.q + 1, rng.getrandbits(2 * k_bits + 8)):
            assert scalar_exp(params, a, n) == ref_scalar_exp(params, a, n)


@pytest.mark.parametrize("k_bits", [16, 32, 128])
def test_fixed_base_exp_and_checked_pairing_at_protocol_sizes(k_bits):
    params = instance_generate(k_bits, f"differential-{k_bits}")
    rng = random.Random(k_bits)
    gen = hash_to_group(params, "differential")
    q = params.q
    top = 1 << q.bit_length()
    for _ in range(3):
        a = scalar_exp(params, gen, random_scalar(params, rng))
        b = scalar_exp(params, gen, random_scalar(params, rng))
        for n in (0, 1, q - 1, q, top - 1, top, -q, random_scalar(params, rng),
                  rng.getrandbits(k_bits // 2), rng.getrandbits(2 * k_bits + 8)):
            assert fixed_base_exp(params, a, n) == ref_scalar_exp(params, a, n), n
        assert _checked_pairing(params, a, b) == (ref_pairing(params, a, b), True)
        # adding the 2-torsion point puts the left point outside the subgroup
        outside = point_add(params, a, GElem(0, 0))
        assert _checked_pairing(params, outside, b) == (pairing(params, outside, b), False)
