"""Self-reduction tests: blinding, correction, voting, mock oracle."""

import collections
import functools
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idak import selfreduction
from idak.bilinear import (
    OPS,
    GElem,
    GTElem,
    encode_point,
    gt_exp,
    gt_inv,
    gt_mul,
    hash_to_group,
    instance_generate,
    pairing,
    point_add,
    scalar_exp,
)
from idak.errors import MalformedElementError
from idak.selfreduction import (
    CbdhInstance,
    MockCbdhOracle,
    amplify,
    correct,
    make_instance,
    randomize,
    solve_dlog,
    validate_instance,
)

import reference as ref

GP = instance_generate(4, "0")  # p=43, q=11
GEN = hash_to_group(GP, "reduction-generator")

# Curves for the table-driven paths: q=5 puts the identity inside g's
# window table, and 10 bits leave the top window partly empty.
CURVES = [
    (params, hash_to_group(params, "reduction-generator"))
    for params in (
        instance_generate(3, "0"),  # q=5
        GP,
        instance_generate(10, "tables"),  # q=787
        instance_generate(16, "tables"),  # q=48809
    )
]


def truth_for(params, inst):
    x, y, z = (ref.dlog(params, inst.g, point) for point in inst[1:])
    base = pairing(params, inst.g, inst.g)
    return gt_exp(base, x * y * z % params.q)


# ---------------------------------------------------------------------------
# instances and blinding
# ---------------------------------------------------------------------------


def test_make_instance_answer_is_consistent():
    rng = random.Random(7)
    for _ in range(10):
        inst, claimed = make_instance(GP, GEN, rng)
        assert claimed == truth_for(GP, inst)


def test_make_instance_exponents_nonzero():
    rng = random.Random(1)
    for _ in range(50):
        inst, _ = make_instance(GP, GEN, rng)
        assert not inst.x_point.is_identity()
        assert not inst.y_point.is_identity()
        assert not inst.z_point.is_identity()


def test_validate_instance_rejects_bad_points():
    with pytest.raises(ValueError):
        validate_instance(GP, CbdhInstance(GElem(None, None), GEN, GEN, GEN))
    with pytest.raises(ValueError):
        validate_instance(GP, CbdhInstance(GEN, GElem(1, 1), GEN, GEN))
    # order-2 point (y == 0) lies on the curve but outside the subgroup
    rogue = GElem(0, 0)
    with pytest.raises(ValueError):
        validate_instance(GP, CbdhInstance(GEN, rogue, GEN, GEN))


def test_validate_instance_allows_identity_components():
    validate_instance(GP, CbdhInstance(GEN, GElem(None, None), GEN, GEN))


def test_randomize_shifts_exponents():
    rng = random.Random(11)
    inst, _ = make_instance(GP, GEN, rng)
    x, y, z = (ref.dlog(GP, GEN, point) for point in inst[1:])
    for _ in range(20):
        blinded, (a, b, c) = randomize(GP, inst, rng)
        assert blinded.x_point == point_add(GP, inst.x_point, scalar_exp(GP, GEN, a))
        assert ref.dlog(GP, GEN, blinded.x_point) == (x + a) % GP.q
        assert ref.dlog(GP, GEN, blinded.y_point) == (y + b) % GP.q
        assert ref.dlog(GP, GEN, blinded.z_point) == (z + c) % GP.q


def test_randomize_hides_the_query():
    # blinded exponents should be uniform regardless of the instance
    rng = random.Random(3)
    inst, _ = make_instance(GP, GEN, rng)
    counts = [0] * GP.q
    draws = 2200
    for _ in range(draws):
        blinded, _ = randomize(GP, inst, rng)
        counts[ref.dlog(GP, GEN, blinded.x_point)] += 1
    for count in counts:
        assert abs(count / draws - 1 / GP.q) < 0.03


# ---------------------------------------------------------------------------
# correction
# ---------------------------------------------------------------------------


def test_zero_blinding_is_a_noop():
    rng = random.Random(5)
    inst, truth = make_instance(GP, GEN, rng)
    assert correct(GP, truth, inst, (0, 0, 0)) == truth


def test_correct_recovers_truth_from_honest_answer():
    rng = random.Random(9)
    for _ in range(25):
        inst, truth = make_instance(GP, GEN, rng)
        blinded, shift = randomize(GP, inst, rng)
        honest = truth_for(GP, blinded)
        assert correct(GP, honest, inst, shift) == truth


def test_correct_maps_wrong_answers_to_wrong_results():
    # unblinding is a bijection on GT, so a wrong answer stays wrong
    rng = random.Random(13)
    inst, truth = make_instance(GP, GEN, rng)
    base = pairing(GP, GEN, GEN)
    for _ in range(60):
        blinded, shift = randomize(GP, inst, rng)
        honest = truth_for(GP, blinded)
        wrong = gt_exp(base, rng.randrange(GP.q))
        if wrong == honest:
            continue
        assert correct(GP, wrong, inst, shift) != truth


# ---------------------------------------------------------------------------
# voting
# ---------------------------------------------------------------------------


def test_amplify_with_perfect_oracle_single_round():
    rng = random.Random(17)
    inst, truth = make_instance(GP, GEN, rng)
    oracle = MockCbdhOracle(GP, GEN, 1.0, random.Random(0))
    assert amplify(GP, oracle, inst, 1, rng) == truth
    assert oracle.queries == 1


def test_amplify_is_deterministic_given_seeds():
    inst, _ = make_instance(GP, GEN, random.Random(19))
    first = amplify(
        GP, MockCbdhOracle(GP, GEN, 0.4, random.Random(1)), inst, 31, random.Random(2)
    )
    second = amplify(
        GP, MockCbdhOracle(GP, GEN, 0.4, random.Random(1)), inst, 31, random.Random(2)
    )
    assert first == second


def test_amplify_rescues_a_noisy_oracle():
    rng = random.Random(23)
    wins = {1: 0, 201: 0}
    trials = 30
    for trial in range(trials):
        inst, truth = make_instance(GP, GEN, rng)
        for rounds in wins:
            oracle = MockCbdhOracle(GP, GEN, 0.3, random.Random(trial * 1000 + rounds))
            if amplify(GP, oracle, inst, rounds, rng) == truth:
                wins[rounds] += 1
    assert wins[201] == trials  # voting washes the noise out
    assert wins[1] < trials  # a single query cannot


def test_amplify_has_no_power_against_a_useless_oracle():
    # delta=0 leaves only chance collisions, about 1/q per trial
    rng = random.Random(29)
    trials, hits = 60, 0
    for trial in range(trials):
        inst, truth = make_instance(GP, GEN, rng)
        oracle = MockCbdhOracle(GP, GEN, 0.0, random.Random(trial))
        if amplify(GP, oracle, inst, 51, rng) == truth:
            hits += 1
    assert hits / trials < 0.5


def test_amplify_rejects_nonpositive_rounds():
    inst, _ = make_instance(GP, GEN, random.Random(31))
    oracle = MockCbdhOracle(GP, GEN, 1.0, random.Random(0))
    with pytest.raises(ValueError):
        amplify(GP, oracle, inst, 0, random.Random(0))


# ---------------------------------------------------------------------------
# mock oracle internals
# ---------------------------------------------------------------------------


def test_solve_dlog_on_larger_subgroup():
    params = instance_generate(16, "dlog")
    base = hash_to_group(params, "dlog-base")
    rng = random.Random(37)
    for _ in range(5):
        k = rng.randrange(params.q)
        assert solve_dlog(params, base, scalar_exp(params, base, k)) == k


def test_solve_dlog_rejects_foreign_points():
    two_torsion = GElem(0, 0)  # order 2, not a power of GEN
    # the second one's pairing with GEN is e(GEN, GEN): it is refused for
    # the point, not for its trace
    for rogue in (two_torsion, point_add(GP, GEN, two_torsion)):
        with pytest.raises(ValueError):
            solve_dlog(GP, GEN, rogue)


# ---------------------------------------------------------------------------
# discrete log against brute force
# ---------------------------------------------------------------------------


def giant_width(params):
    """The residues one giant step covers: 2m + 1 for m = isqrt(q - 1) + 1."""
    return 2 * (math.isqrt(params.q - 1) + 1) + 1


Q7 = instance_generate(3, 0)  # q=7 makes the stride z^7 the identity, V_7 = 2
SMALL_CURVES = [(params, g) for params, g in CURVES if params.q <= 787] + [
    (Q7, hash_to_group(Q7, "reduction-generator"))
]


def test_solve_dlog_matches_brute_force():
    # every exponent on each small curve, k=0 being the identity target;
    # at q=5 and q=7, 2m+1 > q, so [j]g and [-j]g for j <= m share an x
    for params, g in SMALL_CURVES:
        for k, target in enumerate(ref.multiples(params, g)):
            assert solve_dlog(params, g, target) == k


@pytest.mark.parametrize("params,g", CURVES[2:])
def test_trace_walk_recovers_the_giant_step_edges(params, g, monkeypatch):
    # k = iW + r for the stride W = 2m + 1: r = 0, the seams r = +-m and
    # one step past them, which the next giant step hits as -+m, and
    # q - W.  One ladder at iW + j decides each sign, and both occur
    q, width = params.q, giant_width(params)
    m = width // 2
    traces = selfreduction._trace_table(params, g)
    ladder, tried = selfreduction._ladder_pow, []

    def counting_ladder(p, a, b, n):
        tried.append(n)
        return ladder(p, a, b, n)

    monkeypatch.setattr(selfreduction, "_ladder_pow", counting_ladder)
    plus = set()
    for k in {0, q - width} | {(i * width + r) % q
                                for i in (1, 2) for r in (0, m, -m, m + 1, -m - 1)}:
        tried.clear()
        assert selfreduction._trace_dlog(params, traces, scalar_exp(params, g, k)) == k
        assert len(tried) == 1
        plus.add(tried == [k])
    assert plus == {True, False}


BIG_PARAMS, BIG_G = CURVES[3]  # q=48809
BIG_WIDTH = giant_width(BIG_PARAMS)
# giant-step centres i(2m+1) (the identity at i=0), the seams i(2m+1) + m
# between them, their negatives, and one either side of each
BIG_EDGES = sorted(
    {(sign * (i * BIG_WIDTH + offset) + d) % BIG_PARAMS.q
     for i in range(3) for offset in (0, BIG_WIDTH // 2) for sign in (1, -1) for d in (-1, 0, 1)}
)


@functools.cache
def big_multiples():
    return ref.multiples(BIG_PARAMS, BIG_G)


@settings(max_examples=80, deadline=None)
@given(k=st.one_of(st.integers(0, BIG_PARAMS.q - 1), st.sampled_from(BIG_EDGES)))
def test_solve_dlog_matches_brute_force_at_q48809(k):
    assert solve_dlog(BIG_PARAMS, BIG_G, big_multiples()[k]) == k


def test_baby_table_rejects_a_base_outside_the_subgroup():
    two_torsion = GElem(0, 0)
    rng = random.Random(0)
    for bad in (GElem(None, None), two_torsion, point_add(GP, GEN, two_torsion)):
        with pytest.raises(ValueError):
            solve_dlog(GP, bad, GEN)
        with pytest.raises(ValueError):
            MockCbdhOracle(GP, bad, 0.5, rng)


def test_mock_oracle_refuses_a_q_above_its_table_bound():
    params = instance_generate(selfreduction.MAX_K_BITS + 1, "too-big")
    assert params.q.bit_length() == selfreduction.MAX_K_BITS + 1
    g = hash_to_group(params, "reduction-generator")
    with pytest.raises(ValueError, match="at most 32 bits"):
        MockCbdhOracle(params, g, 1.0, random.Random(0))
    with pytest.raises(ValueError, match="at most 32 bits"):
        solve_dlog(params, g, g)


def test_mock_oracle_and_solve_dlog_at_the_table_bound():
    # q of MAX_K_BITS bits, the largest table: about 2^16 traces
    params = instance_generate(selfreduction.MAX_K_BITS, "at-the-bound")
    q = params.q
    assert q.bit_length() == selfreduction.MAX_K_BITS
    g = hash_to_group(params, "reduction-generator")
    mock = MockCbdhOracle(params, g, 1.0, random.Random(0))
    base = pairing(params, g, g)
    rng = random.Random("at-the-bound")
    for _ in range(3):
        x, y, z = (rng.randrange(q) for _ in range(3))
        inst = CbdhInstance(g, *(scalar_exp(params, g, e) for e in (x, y, z)))
        blinded, (a, b, c) = randomize(params, inst, rng)
        answer = (x + a) * (y + b) * (z + c) % q
        assert mock(blinded) == gt_exp(base, answer)
        k = rng.randrange(q)
        assert solve_dlog(params, g, scalar_exp(params, g, k)) == k


@pytest.mark.parametrize("first_wrong", [True, False])
def test_amplify_breaks_a_tie_for_the_first_seen_candidate(first_wrong):
    inst, truth = make_instance(GP, GEN, random.Random(3))
    honest = MockCbdhOracle(GP, GEN, 1.0, random.Random(0))
    skew = pairing(GP, GEN, GEN)
    wrong = gt_mul(truth, skew)
    # correct() multiplies the answer by a factor of the shift alone, so
    # a skewed honest answer unblinds to the skewed truth: two votes each
    skewed = iter([first_wrong, not first_wrong, not first_wrong, first_wrong])

    def oracle(blinded):
        answer = honest(blinded)
        return gt_mul(answer, skew) if next(skewed) else answer

    winner = amplify(GP, oracle, inst, 4, random.Random(4))
    assert winner == (wrong if first_wrong else truth)


def test_oracle_delta_validation():
    with pytest.raises(ValueError):
        MockCbdhOracle(GP, GEN, 1.5, random.Random(0))
    with pytest.raises(ValueError):
        MockCbdhOracle(GP, GEN, -0.1, random.Random(0))


def test_oracle_accuracy_tracks_delta():
    rng = random.Random(41)
    oracle = MockCbdhOracle(GP, GEN, 0.7, random.Random(6))
    trials, hits = 400, 0
    for _ in range(trials):
        inst, _ = make_instance(GP, GEN, rng)
        blinded, _ = randomize(GP, inst, rng)
        if oracle(blinded) == truth_for(GP, blinded):
            hits += 1
    # wrong answers still collide with the truth 1/q of the time
    expected = 0.7 + 0.3 / GP.q
    assert abs(hits / trials - expected) < 0.06
    assert oracle.queries == trials


@functools.cache
def brute_logs(curve):
    """{[k]g: k} for every k in [0, q) of CURVES[curve], by repeated addition."""
    params, g = CURVES[curve]
    return {point: k for k, point in enumerate(ref.multiples(params, g))}


class ReferenceMock:
    """MockCbdhOracle's draws, answered by brute force and full gt_exp:
    a correct answer is e(x, y)^z for z looked up in brute_logs, and a
    wrong one e(g, g)^r, paired afresh."""

    def __init__(self, curve, delta, rng):
        self.params, self.g = CURVES[curve]
        self.logs, self.delta, self.rng = brute_logs(curve), delta, rng

    def __call__(self, inst):
        params = self.params
        if self.rng.random() < self.delta:
            z = self.logs[inst.z_point]
            return gt_exp(pairing(params, inst.x_point, inst.y_point), z)
        return gt_exp(pairing(params, self.g, self.g), self.rng.randrange(params.q))


@pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("curve", range(len(CURVES)))
def test_mock_oracle_matches_a_reference_answer_for_answer(curve, delta):
    params, g = CURVES[curve]
    mock = MockCbdhOracle(params, g, delta, random.Random(f"mock:{delta}"))
    reference = ReferenceMock(curve, delta, random.Random(f"mock:{delta}"))
    rng = random.Random(curve)
    inst, _ = make_instance(params, g, rng)
    for _ in range(200):
        blinded, _ = randomize(params, inst, rng)
        assert mock(blinded) == reference(blinded)
        assert mock.rng.getstate() == reference.rng.getstate()
    assert mock.queries == 200


# ---------------------------------------------------------------------------
# per-instance tables against direct evaluation
# ---------------------------------------------------------------------------


def reference_randomize(params, inst, rng):
    """Blinding by one scalar_exp and one point_add per point."""
    validate_instance(params, inst)
    q = params.q
    a, b, c = shift = (rng.randrange(q), rng.randrange(q), rng.randrange(q))
    blinded = CbdhInstance(
        inst.g,
        point_add(params, inst.x_point, scalar_exp(params, inst.g, a)),
        point_add(params, inst.y_point, scalar_exp(params, inst.g, b)),
        point_add(params, inst.z_point, scalar_exp(params, inst.g, c)),
    )
    return blinded, shift


def reference_correct(params, w, inst, shift):
    """Unblinding by seven pairings, seven gt_exp and six gt_mul."""
    q = params.q
    g, xp, yp, zp = inst
    a, b, c = shift
    surplus = gt_exp(pairing(params, xp, yp), c)
    surplus = gt_mul(surplus, gt_exp(pairing(params, xp, zp), b))
    surplus = gt_mul(surplus, gt_exp(pairing(params, yp, zp), a))
    surplus = gt_mul(surplus, gt_exp(pairing(params, xp, g), b * c % q))
    surplus = gt_mul(surplus, gt_exp(pairing(params, yp, g), a * c % q))
    surplus = gt_mul(surplus, gt_exp(pairing(params, zp, g), a * b % q))
    surplus = gt_mul(surplus, gt_exp(pairing(params, g, g), a * b * c % q))
    return gt_mul(w, gt_inv(surplus))


def reference_votes(params, oracle, inst, rounds, rng):
    """amplify's per-round loop on the reference blinding and unblinding,
    with every round's three shifts drawn from rng before the first query."""
    queries = [reference_randomize(params, inst, rng) for _ in range(rounds)]
    votes = collections.Counter()
    for blinded, shift in queries:
        votes[reference_correct(params, oracle(blinded), inst, shift)] += 1
    return votes


def exponent(q):
    """Exponents in [0, q), with 0 and q-1 drawn often."""
    return st.one_of(st.just(0), st.just(q - 1), st.integers(0, q - 1))


# a q of 24 bits: correct's packed index then spans three bytes of each
# exponent, where the q of every CURVES curve fits in two
Q24 = instance_generate(24, "tables")
WIDE_CURVE = (Q24, hash_to_group(Q24, "reduction-generator"))


@settings(deadline=None)  # the example count comes from the hypothesis profile
@given(data=st.data())
def test_correct_matches_reference(data):
    params, g = data.draw(st.sampled_from(CURVES + [WIDE_CURVE]))
    q = params.q
    # a zero exponent makes that component the identity
    x, y, z, r = (data.draw(exponent(q)) for _ in range(4))
    inst = CbdhInstance(
        g, scalar_exp(params, g, x), scalar_exp(params, g, y), scalar_exp(params, g, z)
    )
    # shifts outside [0, q) are accepted as their residues
    shifts = st.one_of(exponent(q), st.integers(-3 * q, 3 * q))
    shift = (data.draw(shifts), data.draw(shifts), data.draw(shifts))
    w = gt_exp(pairing(params, g, g), r)
    assert correct(params, w, inst, shift) == reference_correct(params, w, inst, shift)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_randomize_matches_reference(data):
    params, g = data.draw(st.sampled_from(CURVES))
    q = params.q
    x, y, z = (data.draw(exponent(q)) for _ in range(3))
    inst = CbdhInstance(
        g, scalar_exp(params, g, x), scalar_exp(params, g, y), scalar_exp(params, g, z)
    )
    seed = data.draw(st.integers(0, 2**32))
    pairings = OPS["pairing"]
    blinded = randomize(params, inst, random.Random(seed))
    assert OPS["pairing"] == pairings  # randomize reads g's window table alone
    assert blinded == reference_randomize(params, inst, random.Random(seed))


@pytest.mark.parametrize("curve", range(len(CURVES)))
def test_amplify_matches_reference_votes(curve, monkeypatch):
    params, g = CURVES[curve]
    real_unblind = selfreduction._unblind
    seen = []

    def recording_unblind(*args):
        candidate = real_unblind(*args)
        seen.append(GTElem(*candidate, params.p))
        return candidate

    # every round's candidate passes through _unblind, as an (a, b) pair
    monkeypatch.setattr(selfreduction, "_unblind", recording_unblind)
    for seed in range(3):
        inst, _ = make_instance(params, g, random.Random(f"inst:{seed}"))
        seen.clear()
        winner = amplify(
            params, MockCbdhOracle(params, g, 0.4, random.Random(seed)), inst, 25,
            random.Random(seed),
        )
        votes = reference_votes(
            params, MockCbdhOracle(params, g, 0.4, random.Random(seed)), inst, 25,
            random.Random(seed),
        )
        assert collections.Counter(seen) == votes
        assert winner == max(votes, key=votes.get)  # first maximum, as in amplify


def test_mock_wrong_answers_match_gt_exp_at_q24():
    params, g = WIDE_CURVE
    base = pairing(params, g, g)
    mock = MockCbdhOracle(params, g, 0.0, random.Random("wide"))
    rng = random.Random("wide")
    inst, _ = make_instance(params, g, random.Random(24))
    for _ in range(200):
        rng.random()  # the delta draw
        assert mock(inst) == gt_exp(base, rng.randrange(params.q))
        assert mock.rng.getstate() == rng.getstate()


def test_tables_follow_the_instance():
    rng = random.Random(43)
    cases = []
    for params, g in (CURVES[1], CURVES[1], CURVES[2]):
        inst, truth = make_instance(params, g, rng)
        cases.append((params, inst, truth))
    for _ in range(3):
        blinded = [randomize(params, inst, rng) for params, inst, _ in cases]
        for (params, inst, truth), (query, shift) in zip(cases, blinded):
            assert correct(params, truth_for(params, query), inst, shift) == truth


def test_amplify_validates_once_per_instance(monkeypatch):
    calls = []

    def counting_validate(params, inst):
        calls.append(inst)
        validate_instance(params, inst)

    monkeypatch.setattr(selfreduction, "validate_instance", counting_validate)
    inst, truth = make_instance(GP, GEN, random.Random(47))
    oracle = MockCbdhOracle(GP, GEN, 1.0, random.Random(0))
    assert amplify(GP, oracle, inst, 31, random.Random(1)) == truth
    assert calls == [inst]


def test_amplify_rejects_invalid_instance_before_any_query():
    rogue = CbdhInstance(GEN, GElem(0, 0), GEN, GEN)
    oracle = MockCbdhOracle(GP, GEN, 1.0, random.Random(0))
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        amplify(GP, oracle, rogue, 5, rng)
    assert oracle.queries == 0
    assert rng.getstate() == state  # no shift is drawn for a rejected instance


def test_an_oracle_that_draws_from_amplifys_rng_cannot_move_the_shifts():
    params, g = CURVES[2]
    inst, _ = make_instance(params, g, random.Random(61))
    rng = random.Random(67)
    runs = []
    for consumes in (True, False):
        mock = MockCbdhOracle(params, g, 0.4, random.Random(71))
        queries = []

        def oracle(blinded):
            queries.append(blinded)
            if consumes:
                rng.randrange(params.q)
            return mock(blinded)

        rng.seed(73)
        runs.append((amplify(params, oracle, inst, 25, rng), queries))
    (first, seen_by_first), (second, seen_by_second) = runs
    assert seen_by_first == seen_by_second
    assert first == second


def test_an_answer_over_another_field_is_refused_before_it_votes():
    inst, truth = make_instance(GP, GEN, random.Random(59))
    other, other_g = CURVES[2]
    foreign = pairing(other, other_g, other_g)
    assert foreign.p != GP.p
    with pytest.raises(MalformedElementError, match="different fields"):
        correct(GP, foreign, inst, (1, 2, 3))
    # two honest answers, then one over another field: amplify stops at
    # that answer and returns no winner
    honest = MockCbdhOracle(GP, GEN, 1.0, random.Random(0))
    answers = []

    def oracle(blinded):
        answers.append(honest(blinded) if len(answers) < 2 else foreign)
        return answers[-1]

    with pytest.raises(MalformedElementError, match="different fields"):
        amplify(GP, oracle, inst, 5, random.Random(1))
    assert len(answers) == 3


def test_invalid_instance_is_rejected_on_every_call():
    good, truth = make_instance(GP, GEN, random.Random(53))
    for bad in (
        CbdhInstance(GEN, GElem(0, 0), GEN, GEN),
        CbdhInstance(GEN, GEN, GElem(1, 1), GEN),
        CbdhInstance(GElem(None, None), GEN, GEN, GEN),
    ):
        for _ in range(2):
            with pytest.raises(ValueError):
                randomize(GP, bad, random.Random(0))
            with pytest.raises(ValueError):
                correct(GP, truth, bad, (1, 2, 3))
        # a valid instance in between leaves the rejection in place
        randomize(GP, good, random.Random(0))
        with pytest.raises(ValueError):
            correct(GP, truth, bad, (1, 2, 3))


def test_solve_dlog_rejects_off_curve_points():
    with pytest.raises(MalformedElementError):
        solve_dlog(GP, GEN, GElem(1, 1))
    with pytest.raises(MalformedElementError):
        solve_dlog(GP, GElem(1, 1), GEN)


# ---------------------------------------------------------------------------
# a deterministic oracle, right on a fixed share of all instances
# ---------------------------------------------------------------------------


class HashSetOracle:
    """Right exactly on the instances whose SHA-256 of the four encoded
    points, read as a 64-bit int from its first 8 bytes, falls below
    delta * 2^64; the same wrong element e(g, g) on every other one.

    Unlike MockCbdhOracle it has no coin: each instance gets one answer,
    so without blinding amplify would ask the same question every round.
    A right answer is e(x, y)^z, z by MockCbdhOracle's discrete log over
    the traces of GT.  A subclass changes the wrong answer (wrong)."""

    def __init__(self, params, g, delta):
        self.params, self.bound = params, int(delta * 2**64)
        self.traces = selfreduction._trace_table(params, g)
        self.base = pairing(params, g, g)

    def __call__(self, inst):
        encoded = b"".join(encode_point(self.params, point) for point in inst)
        if int.from_bytes(hashlib.sha256(encoded).digest()[:8], "big") >= self.bound:
            return self.wrong(inst)
        return self.right(inst)

    def right(self, inst):
        z = selfreduction._trace_dlog(self.params, self.traces, inst.z_point)
        return gt_exp(pairing(self.params, inst.x_point, inst.y_point), z)

    def wrong(self, inst):
        return self.base


class IdentityOffShareOracle(HashSetOracle):
    """HashSetOracle's share, and 1, the identity of GT, off it."""

    def wrong(self, inst):
        return GTElem(1, 0, self.params.p)


class DoubledXOracle(HashSetOracle):
    """HashSetOracle's share, and off it the right answer for the instance
    with its x point doubled: e(g, g)^(2xyz), the truth squared."""

    def wrong(self, inst):
        return self.right(inst._replace(x_point=point_add(self.params, inst.x_point, inst.x_point)))


def solved_and_right(oracle_type, seed, instances):
    """How many of the drawn instances amplify solves at k = 16, delta =
    0.3, n = 201 with an oracle_type oracle, and on how many the oracle
    alone is right."""
    params, g = CURVES[3]
    oracle = oracle_type(params, g, 0.3)
    rng = random.Random(seed)
    solved = right_unblinded = 0
    for _ in range(instances):
        inst, truth = make_instance(params, g, rng)
        right_unblinded += oracle(inst) == truth
        solved += amplify(params, oracle, inst, 201, rng) == truth
    return solved, right_unblinded


def test_amplify_solves_every_instance_for_an_oracle_right_on_a_fixed_share():
    # k = 16, delta = 0.3, n = 201: blinding spreads each instance over
    # uniform queries, so about 60 of 201 rounds vote for the truth while
    # the fixed wrong answer unblinds to a different candidate each round
    solved, right_unblinded = solved_and_right(HashSetOracle, "hash-set", 40)
    assert solved == 40
    # the oracle alone is right on a share of the instances, not on all
    assert 0 < right_unblinded < 40


@pytest.mark.parametrize("oracle_type", [IdentityOffShareOracle, DoubledXOracle])
def test_amplify_solves_every_instance_for_a_wrong_answer_tied_to_the_query(oracle_type):
    # additive blinding: the oracle answers 1 or the truth squared for the
    # blinded query, and unblinding by the query's own cross terms sends
    # either to a candidate that depends on the shifts, so the wrong votes
    # scatter.  Blinding by [a]X, [b]Y, [c]Z and unblinding by the power
    # 1/abc would map 1 to 1 and the blinded truth squared to the truth
    # squared, and that wrong answer would win every vote below delta = 1/2
    solved, right_unblinded = solved_and_right(oracle_type, oracle_type.__name__, 20)
    assert solved == 20
    assert 0 < right_unblinded < 20
