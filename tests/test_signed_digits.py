"""The signed digits of the Miller loop.

The loop walks the non-adjacent form (NAF) of q, so a -1 digit adds -P.
These tests check the recoding itself, and that the edge cases a -1 digit
brings to the loop occur on the enumerable curves.  A vertical line where
T = P, which every subgroup point meets at a -1 last digit, gives the
value of the binary reference loop in tests/reference.py; a tangent
where T = -P, which only points outside the subgroup meet, is refused.
"""

import random

import pytest

from idak import bilinear
from idak.bilinear import INFINITY, GElem, _checked_pairing, instance_generate

import reference as ref

TANGENT = "-1 digit meets T = -P"
VERTICAL = "-1 digit meets T = P"

# The events of naf_chain_events on each curve that has any.  A -1 last digit
# gives every subgroup point the vertical: T = [q + 1]P = P there.
NAF_EDGE_CASES = {
    (3, 0): {TANGENT, VERTICAL},
    (4, 0): {VERTICAL},
    (5, 1): {VERTICAL},
    (5, 0): {TANGENT},
    (7, 3): {VERTICAL},
}


# every q instance_generate can draw at k = 3..16 (any prime of exactly k
# bits), and the q of the benchmark's curves
GENERATED_QS = [q for q in sorted(bilinear._primes_below(1 << 16)) if q >= 4]
BENCH_QS = [instance_generate(k, f"idak-bench-k{k}").q for k in (16, 32, 64, 128)]


def test_naf_digits_recode_q():
    for q in GENERATED_QS + BENCH_QS:
        digits = bilinear._naf_digits(q)
        signed = (1,) + digits
        assert list(signed) == ref.naf(q), q  # a NAF is unique
        assert sum(d << i for i, d in enumerate(reversed(signed))) == q, q
        assert set(digits) <= {-1, 0, 1}, q
        assert all(a == 0 or b == 0 for a, b in zip(signed, signed[1:])), q
        # the NAF has the fewest nonzero digits of any signed binary form
        assert sum(map(abs, signed)) <= bin(q).count("1"), q


def naf_chain_events(params, left):
    """The edge cases a -1 digit meets on left's NAF chain."""
    minus = ref.negate(params.p, left)
    events = set()
    for digit, _, doubled in ref.naf_chain(params, left):
        if digit < 0 and not doubled.is_identity():
            if doubled == minus:
                events.add(TANGENT)
            if doubled == left:
                events.add(VERTICAL)
    return events


# the enumerable curves of test_core_differential by (k_bits, seed): every
# right point where p < 256, and a spread of them on the four wider curves
@pytest.mark.parametrize("k_bits,seed", [(3, 1), (3, 0), (4, 0), (4, 1), (5, 1),
                                         (5, 0), (6, 1), (7, 3), (8, 1)])
def test_minus_one_digit_edge_cases_match_the_binary_reference(k_bits, seed):
    params = instance_generate(k_bits, seed)
    points = ref.curve_points(params.p)
    rights = points if params.p < 256 else (
        [INFINITY, GElem(0, 0)] + random.Random(k_bits).sample(points, 6))
    events, subgroup_events = set(), set()
    for left in points:
        met = naf_chain_events(params, left)
        events |= met
        member = ref.in_group(params, left)
        if member:
            subgroup_events |= met
        if met:
            for right in rights:
                expected = ref.pairing(params, left, right) if member else None
                assert _checked_pairing(params, left, right) == expected, (left, right)
    assert events == NAF_EDGE_CASES.get((k_bits, seed), set())
    # a subgroup point meets only the vertical, and only at a -1 last digit
    last_is_minus = bilinear._naf_digits(params.q)[-1] < 0
    assert subgroup_events == ({VERTICAL} if last_is_minus else set())


def test_both_minus_one_digit_edge_cases_occur():
    assert set().union(*NAF_EDGE_CASES.values()) == {TANGENT, VERTICAL}
