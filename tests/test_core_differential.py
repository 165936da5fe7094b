"""Differential tests: the bilinear core against textbook reference code.

The references below are the plain algorithms the core replaced: affine
double-and-add, a separate line evaluation and point update per Miller
step, and the final exponentiation as one power by (p^2 - 1)/q.  They
live here only, as the oracle.  On curves small enough to enumerate, the
core must agree with them on every point, including the identity, the
2-torsion point (0, 0) and points outside the order-q subgroup, with one
exception: the pairing answers only for a left point in the subgroup, and
refuses every other.
"""

import functools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from idak.bilinear import (
    GElem,
    GTElem,
    INFINITY,
    _checked_pairing,
    _fixed_base_add,
    _fixed_pairing,
    _line_table,
    _naf_digits,
    fixed_base_exp,
    gt_exp,
    hash_to_group,
    instance_generate,
    pairing,
    point_add,
    random_scalar,
    scalar_exp,
)
from idak.errors import MalformedElementError

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


def ref_fp2_inv(p, a, b):
    d = pow(a * a + b * b, -1, p)
    return a * d % p, -b * d % p


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


def ref_pairing(params, left, right):
    """Binary Miller loop, unfused, and the generic final power."""
    p, q = params.p, params.q
    if left.is_identity() or right.is_identity():
        return GTElem(1, 0, p)
    xq, yq = right.x, right.y
    fa, fb = 1, 0
    t = left
    for bit in bin(q)[3:]:
        la, lb = ref_line_value(p, t, t, xq, yq)
        fa, fb = ref_fp2_mul(p, fa, fb, fa, fb)
        fa, fb = ref_fp2_mul(p, fa, fb, la, lb)
        t = ref_add(p, t, t)
        if bit == "1":
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

IDENTITY = "T is the identity before the last digit"
TANGENT = "an add step meets T = the point it adds"
# The degenerate states outside left points meet on each curve's NAF
# chain.  Every curve has (0, 0), whose double is the identity; on the
# p = 83 and p = 347 curves an add step also meets the point it adds,
# where the loop takes the tangent.
DEGENERATE_STATES = {(3, 0): {IDENTITY, TANGENT}, (5, 0): {IDENTITY, TANGENT}}


def naf_chain_states(params, left):
    """The degenerate states of left's NAF chain, walked with the
    reference group law."""
    p = params.p
    minus = INFINITY if left.is_identity() else GElem(left.x, -left.y % p)
    states = set()
    t = left
    for digit in _naf_digits(params.q):
        if t.is_identity():
            states.add(IDENTITY)
        t = ref_add(p, t, t)
        if digit:
            added = left if digit > 0 else minus
            if t == added and not t.is_identity():
                states.add(TANGENT)
            t = ref_add(p, t, added)
    return states


def in_group(params, point):
    return ref_scalar_exp(params, point, params.q).is_identity()


def assert_pairing_matches_reference_or_refuses(params, left, right):
    if in_group(params, left):
        assert pairing(params, left, right) == ref_pairing(params, left, right), (left, right)
    else:
        with pytest.raises(MalformedElementError):
            pairing(params, left, right)


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
    # every right point, the identity and (0, 0) included
    params, points = curve(k_bits, seed)
    for left in points:
        for right in points:
            assert_pairing_matches_reference_or_refuses(params, left, right)
            assert point_add(params, left, right) == ref_add(params.p, left, right)


def rights_for(k_bits, seed):
    """Every point of a FULL curve; the identity, (0, 0) and a random
    spread on a WIDE one."""
    params, points = curve(k_bits, seed)
    if (k_bits, seed) in FULL_CURVES:
        return points
    return [INFINITY, GElem(0, 0)] + random.Random(k_bits).sample(points, 6)


@pytest.mark.parametrize("k_bits,seed", WIDE_CURVES)
def test_pairing_matches_reference_for_every_left(k_bits, seed):
    params, points = curve(k_bits, seed)
    for left in points:
        for right in rights_for(k_bits, seed):
            assert_pairing_matches_reference_or_refuses(params, left, right)
    subgroup = [left for left in points if in_group(params, left)]
    for left in random.Random(k_bits).sample(subgroup, 4):
        for right in points:
            assert pairing(params, left, right) == ref_pairing(params, left, right)


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


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES + WIDE_CURVES)
def test_checked_pairing_flags_the_left_subgroup_on_every_pair(k_bits, seed):
    # None exactly for a left point outside the subgroup, also where its
    # chain meets a degenerate state
    params, points = curve(k_bits, seed)
    states = set()
    for left in points:
        outside = not in_group(params, left)
        if outside:
            states |= naf_chain_states(params, left)
        for right in rights_for(k_bits, seed):
            assert (_checked_pairing(params, left, right) is None) == outside, (left, right)
    assert states == DEGENERATE_STATES.get((k_bits, seed), {IDENTITY})


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES)
def test_fixed_pairing_matches_checked_pairing_on_every_pair(k_bits, seed):
    # every received and every fixed point: the identity, (0, 0) and points
    # outside the subgroup on either side included
    params, points = curve(k_bits, seed)
    for fixed in points:
        # a line table exists exactly for the subgroup's points but the identity
        has_table = _line_table(params, fixed) is not None
        assert has_table == (in_group(params, fixed) and not fixed.is_identity()), fixed
        for received in points:
            assert (_fixed_pairing(params, received, fixed)
                    == _checked_pairing(params, received, fixed)), (received, fixed)


def norm_one_elements(p):
    """Every a + b*i of F_{p^2} with a^2 + b^2 = 1: the group of order
    p + 1 that holds GT."""
    elements = []
    for a in range(p):
        rhs = (1 - a * a) % p
        b = pow(rhs, (p + 1) // 4, p)
        if b * b % p == rhs:
            elements += [(a, b)] if b == 0 else [(a, b), (a, p - b)]
    assert len(elements) == p + 1
    return elements


def ladder_exponents(params, rng):
    """0, 1, -1, q - 1, q, 3q + 1 and random negative values."""
    q = params.q
    return [0, 1, -1, q - 1, q, 3 * q + 1, -rng.randrange(1, q),
            -rng.randrange(q, 1 << 2 * params.p.bit_length())]


def assert_ladder_matches_reference(params, a, b, n):
    p = params.p
    expected = ref_fp2_pow(p, a, b, n) if n >= 0 else ref_fp2_inv(p, *ref_fp2_pow(p, a, b, -n))
    assert gt_exp(GTElem(a, b, p), n) == GTElem(*expected, p), (a, b, n)


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES)
def test_gt_exp_ladder_matches_reference_on_every_element(k_bits, seed):
    # every element of norm 1, so every element of GT and the other
    # elements of the norm-1 group of order p + 1, 1 and -1 among them
    params, _ = curve(k_bits, seed)
    rng = random.Random(k_bits)
    in_gt = 0
    for a, b in norm_one_elements(params.p):
        in_gt += ref_fp2_pow(params.p, a, b, params.q) == (1, 0)
        for n in ladder_exponents(params, rng):
            assert_ladder_matches_reference(params, a, b, n)
    assert in_gt == params.q


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


# A window walk recodes its exponent into signed 6-bit digits, and a digit
# of 33 to 63 carries 1 into the next.  Below 2^|q| a carry reaches row
# ceil(|q| / 6), past every digit of n, only when 6 divides |q|: at k = 24
# the table's fifth row is there for that carry alone.  At k = 23 the top
# digit is at most 31 + 1 = 32, which the walk adds as +32; taken as -32
# with a carry, 2^23 - 1 would need a row the table does not have.
@pytest.mark.parametrize("k_bits", [16, 23, 24, 32, 128])
def test_fixed_base_exp_and_checked_pairing_at_protocol_sizes(k_bits):
    params = instance_generate(k_bits, f"differential-{k_bits}")
    rng = random.Random(k_bits)
    gen = hash_to_group(params, "differential")
    q = params.q
    top = 1 << q.bit_length()
    # 1 in every full 6-bit digit below 2^|q|
    ones = sum(1 << 6 * i for i in range(q.bit_length() // 6))
    for _ in range(3):
        a = scalar_exp(params, gen, random_scalar(params, rng))
        b = scalar_exp(params, gen, random_scalar(params, rng))
        for n in (0, 1, q - 1, q, top - 1, top, -q, 32 * ones, 63 * ones,
                  random_scalar(params, rng), rng.getrandbits(k_bits // 2),
                  rng.getrandbits(2 * k_bits + 8)):
            assert fixed_base_exp(params, a, n) == ref_scalar_exp(params, a, n), n
            # a walk that starts at -[n]a cancels to the identity
            minus = ref_scalar_exp(params, a, -n)
            assert _fixed_base_add(params, a, n, minus) == INFINITY, n
        assert _checked_pairing(params, a, b) == ref_pairing(params, a, b)
        # adding the 2-torsion point puts the left point outside the subgroup
        outside = point_add(params, a, GElem(0, 0))
        assert _checked_pairing(params, outside, b) is None


@pytest.mark.parametrize("k_bits", [16, 23, 24, 32, 128])
def test_fixed_pairing_and_gt_exp_ladder_at_protocol_sizes(k_bits):
    params, gen = protocol_curve(k_bits)
    rng = random.Random(k_bits)
    members = [scalar_exp(params, gen, random_scalar(params, rng)) for _ in range(3)]
    outside = point_add(params, members[0], GElem(0, 0))
    lifted = lift(params, rng.randrange(params.p), True)
    points = members + [INFINITY, GElem(0, 0), outside, lifted]
    for fixed in points:
        for received in points:
            assert (_fixed_pairing(params, received, fixed)
                    == _checked_pairing(params, received, fixed)), (received, fixed)
    assert _fixed_pairing(params, members[1], members[2]) == ref_pairing(
        params, members[1], members[2])
    for left, right in zip(members, members[1:] + members[:1]):
        z = pairing(params, left, right)
        for n in ladder_exponents(params, rng):
            assert_ladder_matches_reference(params, z.a, z.b, n)


@functools.cache
def curve_and_generator(k_bits, seed):
    params = instance_generate(k_bits, seed)
    return params, hash_to_group(params, "differential")


def protocol_curve(k_bits):
    return curve_and_generator(k_bits, f"differential-{k_bits}")


def lift(params, x, negate):
    """The point of E(F_p) at the first x' >= x (mod p) whose x'^3 + x' is
    a square, with y negated if asked."""
    p = params.p
    while True:
        rhs = (x * x * x + x) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p == rhs:
            return GElem(x, -y % p if negate else y)
        x = (x + 1) % p


def curve_points(params):
    """Points of E(F_p) of any order but 1: the first x from a drawn one
    whose x^3 + x is a square, with a drawn sign for y."""
    return st.tuples(st.integers(0, params.p - 1), st.booleans()).map(
        lambda drawn: lift(params, *drawn))


@pytest.mark.parametrize("k_bits", [16, 32, 128])
@settings(deadline=None)  # the example count comes from the hypothesis profile
@given(data=st.data())
def test_checked_pairing_answers_for_a_subgroup_left_and_refuses_any_other(k_bits, data):
    params, gen = protocol_curve(k_bits)
    q = params.q
    left = scalar_exp(params, gen, data.draw(st.integers(1, q - 1), label="a"))
    right = data.draw(st.one_of(
        st.integers(1, q - 1).map(lambda b: scalar_exp(params, gen, b)),
        curve_points(params),
        st.just(GElem(0, 0)),
        st.just(INFINITY),
    ), label="right")
    assert _checked_pairing(params, left, right) == ref_pairing(params, left, right)
    # [q]R has order dividing h, so g^a + [q]R is outside the subgroup
    # exactly when [q]R is not the identity
    torsion = scalar_exp(params, data.draw(curve_points(params), label="R"), q)
    assume(not torsion.is_identity())
    assert _checked_pairing(params, point_add(params, left, torsion), right) is None


# scalar_exp against the reference: curves small enough to enumerate and
# the protocol sizes, with points in and outside the subgroup, (0, 0) and
# the identity, and exponents in [-4p, 4p].  A point is (kind, u) and an
# exponent is (anchor, offset, negate) or an int u, so that explicit
# examples can name them on every curve.
SCALAR_EXP_CURVES = FULL_CURVES + [(k, f"differential-{k}") for k in (16, 32, 128, 512)]
POINT_KINDS = ("identity", "(0, 0)", "subgroup", "outside", "any")
WIDE = 1 << 600  # past 8p + 1 on every curve


def _all_ones(params):
    return (1 << params.p.bit_length()) - 1


ANCHORS = {
    "0": lambda params: 0,
    "q": lambda params: params.q,
    "2^|q|": lambda params: 1 << params.q.bit_length(),
    "4p": lambda params: 4 * params.p,
    # a run of ones, whose NAF carries past its top bit, and one broken by
    # a single zero, which the carry crosses
    "ones": _all_ones,
    "ones with a zero": lambda params: _all_ones(params) ^ 1 << params.p.bit_length() // 2,
}


def point_of(params, gen, kind, u):
    if kind == "identity":
        return INFINITY
    if kind == "(0, 0)":
        return GElem(0, 0)
    member = fixed_base_exp(params, gen, 1 + u % (params.q - 1))
    if kind == "subgroup":
        return member
    if kind == "outside":  # q is odd, so adding the point of order 2 leaves the subgroup
        return point_add(params, member, GElem(0, 0))
    return lift(params, u % params.p, u & 1)  # a curve point of any order


def exponent_of(params, exponent):
    p = params.p
    if isinstance(exponent, int):
        return exponent % (8 * p + 1) - 4 * p
    anchor, offset, negate = exponent
    n = ANCHORS[anchor](params) + offset
    return -n if negate else n


@pytest.mark.parametrize("k_bits,seed", SCALAR_EXP_CURVES)
@settings(deadline=None)  # the example count comes from the hypothesis profile
@given(
    kind=st.sampled_from(POINT_KINDS),
    u=st.integers(0, WIDE),
    exponent=st.one_of(
        st.tuples(st.sampled_from(sorted(ANCHORS)), st.integers(-2, 2), st.booleans()),
        st.integers(0, WIDE),
    ),
)
@example(kind="subgroup", u=1, exponent=("0", 0, False))
@example(kind="subgroup", u=1, exponent=("0", 1, False))
@example(kind="subgroup", u=1, exponent=("0", 1, True))
@example(kind="subgroup", u=1, exponent=("q", -1, False))
@example(kind="subgroup", u=1, exponent=("q", 0, False))
@example(kind="subgroup", u=1, exponent=("q", 1, False))
@example(kind="outside", u=1, exponent=("q", 0, False))
@example(kind="outside", u=1, exponent=("q", 1, True))
@example(kind="subgroup", u=1, exponent=("2^|q|", -1, False))
@example(kind="subgroup", u=2, exponent=("ones", 0, False))
@example(kind="any", u=2, exponent=("ones", 0, True))
@example(kind="subgroup", u=3, exponent=("ones with a zero", 0, False))
@example(kind="(0, 0)", u=0, exponent=("ones", 0, False))
@example(kind="identity", u=0, exponent=("q", 1, False))
def test_scalar_exp_walks_the_naf_to_the_reference_value(k_bits, seed, kind, u, exponent):
    params, gen = curve_and_generator(k_bits, seed)
    point = point_of(params, gen, kind, u)
    n = exponent_of(params, exponent)
    assert scalar_exp(params, point, n) == ref_scalar_exp(params, point, n), (point, n)
