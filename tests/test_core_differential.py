"""Differential tests: the bilinear core against textbook reference code.

The references, in tests/reference.py, are the plain algorithms the core
replaced: affine double-and-add, a separate line evaluation and point
update per Miller step, the final exponentiation as one power by
(p^2 - 1)/q, and the [q]-walk in place of the subgroup check's Tate
pairing of order h.  On curves small enough to enumerate, the
core must agree with them on every point, including the identity, the
2-torsion point (0, 0) and points outside the order-q subgroup, with one
exception: the pairing answers only for a left point in the subgroup, and
refuses every other.
"""

import functools
import hashlib
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from idak import bilinear
from idak.bilinear import (
    GElem,
    GroupParams,
    GTElem,
    INFINITY,
    _checked_pairing,
    _cofactor_chain,
    _cofactor_lines,
    _cofactor_point,
    _cofactor_trace,
    _final_exponentiation,
    _fixed_base_add,
    _fixed_pairing,
    _fp2_affine_add,
    _in_group,
    _line_table,
    fixed_base_exp,
    gt_exp,
    hash_to_group,
    in_subgroup,
    instance_generate,
    pairing,
    point_add,
    random_scalar,
    scalar_exp,
)
from idak.errors import MalformedElementError, ParameterSearchError

import reference as ref

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
# where the loop doubles T and multiplies in no line.
DEGENERATE_STATES = {(3, 0): {IDENTITY, TANGENT}, (5, 0): {IDENTITY, TANGENT}}


def naf_chain_states(params, left):
    """The degenerate states of left's NAF chain."""
    minus = ref.negate(params.p, left)
    states = set()
    for digit, t, doubled in ref.naf_chain(params, left):
        if t.is_identity():
            states.add(IDENTITY)
        if digit and doubled == (left if digit > 0 else minus) and not doubled.is_identity():
            states.add(TANGENT)
    return states


def assert_pairing_matches_reference_or_refuses(params, left, right):
    if ref.in_group(params, left):
        assert pairing(params, left, right) == ref.pairing(params, left, right), (left, right)
    else:
        with pytest.raises(MalformedElementError):
            pairing(params, left, right)


@functools.cache
def curve(k_bits, seed):
    params = instance_generate(k_bits, seed)
    points = ref.curve_points(params.p)
    assert len(points) == params.p + 1
    return params, points


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
            assert point_add(params, left, right) == ref.add(params.p, left, right)


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
    subgroup = [left for left in points if ref.in_group(params, left)]
    for left in random.Random(k_bits).sample(subgroup, 4):
        for right in points:
            assert pairing(params, left, right) == ref.pairing(params, left, right)


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES + WIDE_CURVES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scalar_exp_matches_reference_on_every_point(k_bits, seed, data):
    params, points = curve(k_bits, seed)
    n = data.draw(scalars(params))
    for point in points:
        assert scalar_exp(params, point, n) == ref.multiply(params, point, n), (point, n)


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
        outside = not ref.in_group(params, left)
        if outside:
            states |= naf_chain_states(params, left)
        for right in rights_for(k_bits, seed):
            assert (_checked_pairing(params, left, right) is None) == outside, (left, right)
    assert states == DEGENERATE_STATES.get((k_bits, seed), {IDENTITY})


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES)
def test_fixed_pairing_matches_checked_pairing_on_every_pair(k_bits, seed):
    # every fixed point, the identity, (0, 0) and points outside the
    # subgroup included, and every received point of the subgroup, which
    # is all that _fixed_pairing takes: its callers check received
    params, points = curve(k_bits, seed)
    members = [point for point in points if ref.in_group(params, point)]
    for fixed in points:
        # a line table exists exactly for the subgroup's points but the identity
        has_table = _line_table(params, fixed) is not None
        assert has_table == (ref.in_group(params, fixed) and not fixed.is_identity()), fixed
        for received in members:
            assert (_fixed_pairing(params, received, fixed, 1)
                    == _checked_pairing(params, received, fixed)), (received, fixed)


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES)
def test_fixed_pairing_raised_to_n_matches_gt_exp_on_every_pair(k_bits, seed):
    # the power rides the final exponentiation, on the line table's path
    # and on the fallback of a fixed point without a table (the identity)
    params, points = curve(k_bits, seed)
    q = params.q
    members = [point for point in points if ref.in_group(params, point)]
    rng = random.Random(k_bits)
    for fixed in members:
        for received in members:
            plain = _fixed_pairing(params, received, fixed, 1)
            for n in (1, 2, q - 1, rng.randrange(1, q)):
                assert (_fixed_pairing(params, received, fixed, n)
                        == gt_exp(plain, n)), (received, fixed, n)


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
    expected = ref.fp2_pow(p, a, b, n) if n >= 0 else ref.fp2_inv(p, *ref.fp2_pow(p, a, b, -n))
    assert gt_exp(GTElem(a, b, p), n) == GTElem(*expected, p), (a, b, n)


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES)
def test_gt_exp_ladder_matches_reference_on_every_element(k_bits, seed):
    # every element of norm 1, so every element of GT and the other
    # elements of the norm-1 group of order p + 1, 1 and -1 among them
    params, _ = curve(k_bits, seed)
    rng = random.Random(k_bits)
    in_gt = 0
    for a, b in norm_one_elements(params.p):
        in_gt += ref.fp2_pow(params.p, a, b, params.q) == (1, 0)
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
        assert pairing(params, a, b) == ref.pairing(params, a, b)
        for n in (random_scalar(params, rng), -random_scalar(params, rng),
                  params.q, 3 * params.q + 1, rng.getrandbits(2 * k_bits + 8)):
            assert scalar_exp(params, a, n) == ref.multiply(params, a, n)


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
            assert fixed_base_exp(params, a, n) == ref.multiply(params, a, n), n
            # a walk that starts at -[n]a cancels to the identity
            minus = ref.multiply(params, a, -n)
            assert _fixed_base_add(params, a, n, minus) == INFINITY, n
        assert _checked_pairing(params, a, b) == ref.pairing(params, a, b)
        # adding the 2-torsion point puts the left point outside the subgroup
        outside = point_add(params, a, GElem(0, 0))
        assert _checked_pairing(params, outside, b) is None


@pytest.mark.parametrize("k_bits", [16, 23, 24, 32, 128])
def test_fixed_pairing_and_gt_exp_ladder_at_protocol_sizes(k_bits):
    params, gen = protocol_curve(k_bits)
    rng = random.Random(k_bits)
    members = [scalar_exp(params, gen, random_scalar(params, rng)) for _ in range(3)]
    outside = point_add(params, members[0], GElem(0, 0))
    lifted = ref.lift(params, rng.randrange(params.p), True)
    points = members + [INFINITY, GElem(0, 0), outside, lifted]
    raise_rng = random.Random(f"raise-{k_bits}")  # rng's later draws stay as they were
    for fixed in points:
        for received in members + [INFINITY]:  # its callers check received
            plain = _checked_pairing(params, received, fixed)
            assert _fixed_pairing(params, received, fixed, 1) == plain, (received, fixed)
            if plain is not None:
                for n in (1, 2, params.q - 1, raise_rng.randrange(1, params.q)):
                    assert (_fixed_pairing(params, received, fixed, n)
                            == gt_exp(plain, n)), (received, fixed, n)
    assert _fixed_pairing(params, members[1], members[2], 1) == ref.pairing(
        params, members[1], members[2])
    for left, right in zip(members, members[1:] + members[:1]):
        z = pairing(params, left, right)
        for n in ladder_exponents(params, rng):
            assert_ladder_matches_reference(params, z.a, z.b, n)


@pytest.mark.parametrize("k_bits", [16, 32, 128])
def test_final_exponentiation_matches_the_generic_power(k_bits):
    # f^(p-1) is 1 for an f in F_p^* and -1 for an f in i*F_p^*, whose
    # powers by h stay in F_p, which no pairing reaches
    params, _ = protocol_curve(k_bits)
    p = params.p
    rng = random.Random(k_bits)
    fs = [(rng.randrange(1, p), rng.randrange(1, p)) for _ in range(4)]
    fs += [(1, 0), (p - 1, 0), (rng.randrange(1, p), 0), (0, rng.randrange(1, p))]
    exponent = (p * p - 1) // params.q
    for fa, fb in fs:
        expected = ref.fp2_pow(p, fa, fb, exponent)
        assert _final_exponentiation(params, fa, fb, 1) == GTElem(*expected, p), (fa, fb)
        # the Lucas ladder over h * n, on which a raised _fixed_pairing ends
        for n in (0, 1, 2, params.q - 1, rng.randrange(1, params.q)):
            expected = ref.fp2_pow(p, fa, fb, exponent * n)
            assert _final_exponentiation(params, fa, fb, n) == GTElem(*expected, p), (fa, fb, n)


@functools.cache
def curve_and_generator(k_bits, seed):
    params = instance_generate(k_bits, seed)
    return params, hash_to_group(params, "differential")


def protocol_curve(k_bits):
    return curve_and_generator(k_bits, f"differential-{k_bits}")


def curve_points(params):
    """Points of E(F_p) of any order but 1: the first x from a drawn one
    whose x^3 + x is a square, with a drawn sign for y."""
    return st.tuples(st.integers(0, params.p - 1), st.booleans()).map(
        lambda drawn: ref.lift(params, *drawn))


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
    assert _checked_pairing(params, left, right) == ref.pairing(params, left, right)
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
    return ref.lift(params, u % params.p, u & 1)  # a curve point of any order


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
    assert scalar_exp(params, point, n) == ref.multiply(params, point, n), (point, n)


# ---------------------------------------------------------------------------
# the subgroup check: a Tate pairing of order h against the [q]-walk
# ---------------------------------------------------------------------------


def prime_factors(n):
    return [r for r in range(2, n + 1) if n % r == 0 and all(r % d for d in range(2, r))]


def generator_mod_subgroup(params):
    """A rational point whose class generates E(F_p)/G: [q]P has order h."""
    h = params.h
    for x in range(params.p):
        point = ref.lift(params, x, False)
        torsion = scalar_exp(params, point, params.q)
        if all(not scalar_exp(params, torsion, h // r).is_identity() for r in prime_factors(h)):
            return point
    raise AssertionError("E(F_p)/G has no generator")


CHECK_CURVES = FULL_CURVES + WIDE_CURVES
PROTOCOL_CURVES = [(k, f"differential-{k}") for k in (16, 23, 24, 32, 128)]


@pytest.mark.parametrize("k_bits,seed", CHECK_CURVES)
def test_in_group_matches_the_q_walk_on_every_point(k_bits, seed):
    params, points = curve(k_bits, seed)
    for point in points:
        expected = ref.in_group(params, point)
        assert in_subgroup(params, point) == expected, point
        if not point.is_identity():
            assert _in_group(params, point) == expected, point


@pytest.mark.parametrize("k_bits", [16, 23, 24, 32, 128])
def test_in_subgroup_matches_the_q_walk_at_protocol_sizes(k_bits):
    params, gen = protocol_curve(k_bits)
    p, q = params.p, params.q
    rng = random.Random(k_bits)
    members = [scalar_exp(params, gen, random_scalar(params, rng)) for _ in range(4)]
    # [q]R of a rational R has an order dividing h; a G point plus one that
    # is not the identity lies outside G
    torsion = [scalar_exp(params, ref.lift(params, rng.randrange(p), False), q) for _ in range(8)]
    torsion = [t for t in torsion if not t.is_identity()]
    assert torsion
    outside = [GElem(0, 0)]
    outside += [point_add(params, m, GElem(0, 0)) for m in members]
    outside += [point_add(params, m, t) for m, t in zip(members * 2, torsion)]
    lifted = [ref.lift(params, rng.randrange(p), rng.random() < 0.5) for _ in range(16)]
    for point in members + [INFINITY]:
        assert in_subgroup(params, point) and ref.in_group(params, point), point
    for point in outside:
        assert not in_subgroup(params, point) and not ref.in_group(params, point), point
    for point in lifted:
        assert in_subgroup(params, point) == ref.in_group(params, point), point
    m = members[0]
    for off in (GElem(m.x, (m.y + 1) % p), GElem(0, 1), GElem(m.x, m.y + p), GElem(-m.x, m.y)):
        assert not bilinear.is_on_curve(params, off)
        assert not in_subgroup(params, off), off


@settings(deadline=None)  # the example count comes from the hypothesis profile
@given(k_bits=st.integers(8, 24), seed=st.integers(0, 1 << 32), data=st.data())
@example(k_bits=9, seed=30, data=None)  # h = 60 = 2^2 * 3 * 5
@example(k_bits=11, seed=55, data=None)  # h = 84 = 2^2 * 3 * 7
def test_in_subgroup_matches_the_q_walk_on_drawn_curves(k_bits, seed, data):
    params = instance_generate(k_bits, seed)
    gen = hash_to_group(params, "differential")
    if data is None:  # an explicit example: fixed draws
        a, drawn = 1, ref.lift(params, 1, False)
    else:
        a = data.draw(st.integers(1, params.q - 1), label="a")
        drawn = data.draw(curve_points(params), label="R")
    member = scalar_exp(params, gen, a)
    torsion = scalar_exp(params, drawn, params.q)
    for point in (member, drawn, GElem(0, 0), point_add(params, member, torsion),
                  point_add(params, member, GElem(0, 0))):
        assert in_subgroup(params, point) == ref.in_group(params, point), point


def assert_the_character_has_order_h(params, lines):
    # t(P) = u^q for u = f_{h,U}(P)^(p-1), whose real part the trace gives;
    # at a point whose class generates E(F_p)/G, t must have order h
    p, q, h = params.p, params.q, params.h
    point = generator_mod_subgroup(params)
    v1 = _cofactor_trace(p, lines, point.x, point.y)
    a = v1 * pow(2, -1, p) % p
    b = pow(1 - a * a, (p + 1) // 4, p)  # u or conj(u): either has t's order
    assert (a * a + b * b) % p == 1
    t = ref.fp2_pow(p, a, b, q)
    assert ref.fp2_pow(p, *t, h) == (1, 0)
    for r in prime_factors(h):
        assert ref.fp2_pow(p, *t, h // r) != (1, 0), r


@pytest.mark.parametrize("k_bits,seed", CHECK_CURVES + PROTOCOL_CURVES)
def test_the_cached_character_has_order_h(k_bits, seed):
    params = instance_generate(k_bits, seed)
    assert_the_character_has_order_h(params, _cofactor_lines(params))


def test_a_test_point_where_a_line_vanishes_is_passed_over(monkeypatch):
    # the kept U's lines vanish at no rational point, so a trace that
    # answers None for every point tried on them stands in for one that
    # does: the search must pass over those points, and then over that U,
    # and keep the next U whose character has order h
    params, _ = protocol_curve(16)
    kept = _cofactor_lines.__wrapped__(params)
    real_trace = bilinear._cofactor_trace

    def vanishing_on_the_kept_lines(p, lines, x, y):
        return None if lines == kept else real_trace(p, lines, x, y)

    monkeypatch.setattr(bilinear, "_cofactor_trace", vanishing_on_the_kept_lines)
    other = _cofactor_lines.__wrapped__(params)
    assert other != kept
    assert_the_character_has_order_h(params, other)


def test_a_search_that_finds_no_u_raises_its_typed_error(monkeypatch):
    # every counter's R refused: the search stops at its bound, and does
    # not hand _in_group an empty chain, whose trace would accept every point
    params, _ = protocol_curve(16)
    monkeypatch.setattr(bilinear, "_cofactor_point", lambda params, counter: None)
    message = ("^no point of order h for the subgroup check within "
               f"{bilinear.HASH_COUNTER_BOUND} counters$")
    with pytest.raises(ParameterSearchError, match=message):
        _cofactor_lines.__wrapped__(params)


def test_the_chain_refuses_a_u_whose_multiples_leave_its_path():
    # rational points lifted to F_{p^2}: U of order h = 12 = 0b1100 gives a
    # chain; U of order h/2 reaches (h/4)U, of order 2, before the last
    # doubling; U of order 3 meets T = 2U = -U at the first add step; and a
    # U of order q, which is not [q]R for any R, never reaches the identity
    params, g = protocol_curve(16)
    p, q, h = params.p, params.q, params.h
    assert h == 12

    def chain(point):
        return _cofactor_chain(p, h, (point.x, 0), (point.y, 0))

    torsion = scalar_exp(params, generator_mod_subgroup(params), q)
    assert chain(torsion) is not None
    assert chain(scalar_exp(params, torsion, 2)) is None
    assert chain(scalar_exp(params, torsion, h // 3)) is None
    assert chain(g) is None


def test_the_same_params_give_the_same_lines():
    params, _ = protocol_curve(32)
    lines = _cofactor_lines(params)
    _cofactor_lines.cache_clear()
    again = _cofactor_lines(GroupParams(params.p, params.q, params.h))
    assert again == lines and again is not lines


def test_a_line_of_the_chain_that_vanishes_at_the_point_answers_false(monkeypatch):
    # the kept U has no rational multiple but O, so no line of its chain
    # vanishes at a rational point.  A rational U of order h stands in for
    # it: its character is 1 on E(F_p), so the points of its chain are
    # refused by their vanishing lines alone: U by the first tangent, 2U
    # by the vertical at it, and (h/2)U = (0, 0) by the last tangent
    params, _ = protocol_curve(16)
    p, h = params.p, params.h
    u = scalar_exp(params, generator_mod_subgroup(params), params.q)
    lines = _cofactor_chain(p, h, (u.x, 0), (u.y, 0))
    assert lines is not None
    monkeypatch.setattr(bilinear, "_cofactor_lines", lambda params: lines)
    assert scalar_exp(params, u, h // 2) == GElem(0, 0)
    for m in (1, 2, h // 2):
        assert not _in_group(params, scalar_exp(params, u, m)), m
    assert _in_group(params, hash_to_group(params, "differential"))


# ---------------------------------------------------------------------------
# U = [q]R and the affine law over F_{p^2}, against a textbook walk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k_bits,seed", CHECK_CURVES)
def test_fp_sqrt_roots_exactly_the_nonzero_squares(k_bits, seed):
    # every residue class, also as a negative and an unreduced value, as
    # _fp2_sqrt passes them; the root is the a^((p+1)/4) the hashed points
    # were always built from
    p = instance_generate(k_bits, seed).p
    squares = {x * x % p for x in range(1, p)}
    for a in range(p):
        for value in (a, a - p, a + 2 * p):
            root = bilinear._fp_sqrt(p, value)
            if a in squares:
                assert root == pow(a, (p + 1) // 4, p) and root * root % p == a, value
            else:
                assert root is None, value


@pytest.mark.parametrize(
    "k_bits,seed", sorted(CHECK_CURVES, key=lambda curve: instance_generate(*curve).p)[:2])
def test_fp2_sqrt_roots_exactly_the_squares(k_bits, seed):
    # every a + b*i of the two smallest fields, against the squares of all
    # of F_{p^2}: a square with b != 0 always gets a root, and b = 0 none
    p = instance_generate(k_bits, seed).p
    squares = {ref.fp2_mul(p, c, d, c, d) for c in range(p) for d in range(p)}
    for a in range(p):
        assert bilinear._fp2_sqrt(p, a, 0) is None, a
        for b in range(1, p):
            root = bilinear._fp2_sqrt(p, a, b)
            if (a, b) in squares:
                assert root is not None and ref.fp2_mul(p, *root, *root) == (a, b), (a, b)
            else:
                assert root is None, (a, b)


def hashed_point(params, counter):
    """The point R of E(F_{p^2}) that _cofactor_point hashes from counter,
    or None where its x is a square in F_{p^2} or x^3 + x has no root."""
    p = params.p
    digest = hashlib.sha512(bilinear._TAG_COFACTOR_POINT + counter.to_bytes(2, "big")).digest()
    x = (int.from_bytes(digest[:32], "big") % p, int.from_bytes(digest[32:], "big") % p)
    if pow(x[0] * x[0] + x[1] * x[1], (p - 1) // 2, p) != p - 1:  # x is 0 or a square
        return None
    xx = ref.fp2_mul(p, *x, *x)
    y = bilinear._fp2_sqrt(p, *ref.fp2_mul(p, *x, xx[0] + 1, xx[1]))
    if y is None:
        return None
    assert ref.fp2_on_curve(p, (x, y))
    return x, y


COFACTOR_POINT_CURVES = CHECK_CURVES + [(k, f"differential-{k}") for k in (32, 128)]


@pytest.mark.parametrize("k_bits,seed", COFACTOR_POINT_CURVES)
def test_cofactor_point_is_q_times_the_hashed_point(k_bits, seed):
    # every counter below 64 whose R passes the filter gives U = [q]R, by
    # a binary walk over F_{p^2} that shares nothing with the Frobenius
    # split, and U has an order dividing h
    params = instance_generate(k_bits, seed)
    p = params.p
    kept = 0
    for counter in range(64):
        r = hashed_point(params, counter)
        u = _cofactor_point(params, counter)
        if r is None:
            assert u is None, counter
            continue
        kept += 1
        assert u == ref.fp2_multiply(p, r, params.q), counter
        assert ref.fp2_multiply(p, u, params.h) is None, counter
    assert kept


def fp2_points(params):
    """The first hashed points R of _cofactor_point's search."""
    points = [hashed_point(params, counter) for counter in range(64)]
    return [r for r in points if r is not None][:4]


def two_torsion(p):
    """(0, 0), (i, 0) and (-i, 0): the points of order 2 over F_{p^2}."""
    return [((0, 0), (0, 0)), ((0, 1), (0, 0)), ((0, p - 1), (0, 0))]


@pytest.mark.parametrize("k_bits", [16, 32])
def test_fp2_affine_add_matches_the_textbook_law(k_bits):
    # every ordered pair, and each point with its negative, of the
    # identity, the points of order 2, hashed points and random multiples
    # of them, so the cases cover s = t, t = -s and a 2-torsion operand
    params, _ = protocol_curve(k_bits)
    p = params.p
    rng = random.Random(k_bits)
    bases = fp2_points(params)
    points = [None, *two_torsion(p), *bases]
    points += [ref.fp2_multiply(p, r, rng.randrange(2, p)) for r in bases]
    for s in points:
        for t in points + [ref.fp2_negate(p, s)]:
            lam, total = _fp2_affine_add(p, s, t)
            assert (lam, total) == ref.fp2_add(p, s, t), (s, t)
            assert ref.fp2_on_curve(p, total), (s, t)
    s = bases[0]
    assert _fp2_affine_add(p, None, s) == _fp2_affine_add(p, s, None) == (None, s)
    assert _fp2_affine_add(p, s, ref.fp2_negate(p, s)) == (None, None)
    assert _fp2_affine_add(p, s, s)[0] is not None
    for torsion in two_torsion(p):
        assert ref.fp2_on_curve(p, torsion)
        assert _fp2_affine_add(p, torsion, torsion) == (None, None), torsion
