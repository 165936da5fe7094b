"""The signed digits of the Miller loop.

The loop walks the non-adjacent form (NAF) of q, so a -1 digit adds -P.
These tests check the recoding itself, and that the edge cases a -1 digit
brings to the loop occur on the enumerable curves.  A vertical line where
T = P, which every subgroup point meets at a -1 last digit, gives the
value of the binary reference loop in test_core_differential; a tangent
where T = -P, which only points outside the subgroup meet, is refused.
"""

import pytest

from idak import bilinear
from idak.bilinear import INFINITY, GElem, _checked_pairing, instance_generate
from test_core_differential import (
    FULL_CURVES,
    WIDE_CURVES,
    curve,
    in_group,
    ref_add,
    ref_pairing,
    rights_for,
)

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
        assert sum(d << i for i, d in enumerate(reversed(signed))) == q, q
        assert set(digits) <= {-1, 0, 1}, q
        assert all(a == 0 or b == 0 for a, b in zip(signed, signed[1:])), q
        # the NAF has the fewest nonzero digits of any signed binary form
        assert sum(map(abs, signed)) <= bin(q).count("1"), q


def naf_chain_events(params, left):
    """The edge cases a -1 digit meets on left's NAF chain, walked with
    the reference group law."""
    p = params.p
    minus = INFINITY if left.is_identity() else GElem(left.x, -left.y % p)
    events = set()
    t = left
    for digit in bilinear._naf_digits(params.q):
        t = ref_add(p, t, t)
        if digit < 0 and not t.is_identity():
            if t == minus:
                events.add(TANGENT)
            if t == left:
                events.add(VERTICAL)
        if digit:
            t = ref_add(p, t, left if digit > 0 else minus)
    assert t == bilinear.scalar_exp(params, left, params.q)  # T ends at [q]left
    return events


@pytest.mark.parametrize("k_bits,seed", FULL_CURVES + WIDE_CURVES)
def test_minus_one_digit_edge_cases_match_the_binary_reference(k_bits, seed):
    params, points = curve(k_bits, seed)
    events, subgroup_events = set(), set()
    for left in points:
        met = naf_chain_events(params, left)
        events |= met
        member = in_group(params, left)
        if member:
            subgroup_events |= met
        if met:
            for right in rights_for(k_bits, seed):
                expected = ref_pairing(params, left, right) if member else None
                assert _checked_pairing(params, left, right) == expected, (left, right)
    assert events == NAF_EDGE_CASES.get((k_bits, seed), set())
    # a subgroup point meets only the vertical, and only at a -1 last digit
    last_is_minus = bilinear._naf_digits(params.q)[-1] < 0
    assert subgroup_events == ({VERTICAL} if last_is_minus else set())


def test_both_minus_one_digit_edge_cases_occur():
    assert set().union(*NAF_EDGE_CASES.values()) == {TANGENT, VERTICAL}
