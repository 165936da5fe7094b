"""Key agreement tests against exponent-arithmetic and dlog oracles."""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idak import bilinear, protocol
from idak.bilinear import (
    GElem,
    INFINITY,
    GroupParams,
    decode_group_params,
    encode_group_params,
    gt_exp,
    hash_to_group,
    in_subgroup,
    pairing,
    point_add,
    scalar_exp,
)
from idak.errors import (
    DegenerateExponentError,
    IdakError,
    InvalidEphemeralError,
    InvalidFlowError,
    InvalidIdentityError,
)
from idak.protocol import (
    DeriveStrategy,
    FlowMessage,
    GENERATOR_ID,
    OpCounts,
    PiVariant,
    STRATEGIES,
    SystemParams,
    decode_flow,
    derive,
    encode_flow,
    extract,
    initiate,
    master_compromise_compute,
    parse_strategy,
    pfs_respond,
    pfs_session_key,
    pfs_verify_extra,
    pi_value,
    session_key,
    setup,
    validate_flow_point,
    xor_half_value,
)

PARAMS, MSK = setup(4, "0")
GP = PARAMS.group
ALICE = extract(PARAMS, MSK, "alice")
BOB = extract(PARAMS, MSK, "bob")


def dlog(params, base, target):
    """Brute-force discrete log over the tiny subgroup."""
    acc = INFINITY
    for exp in range(params.q):
        if acc == target:
            return exp
        acc = point_add(params, acc, base)
    raise AssertionError("dlog not found")


def run_session(params, key_a, key_b, rng, strategy=DeriveStrategy(1, False)):
    """One honest exchange, retried with fresh ephemerals if degenerate."""
    while True:
        try:
            x, msg_a = initiate(params, key_a, rng)
            y, msg_b = initiate(params, key_b, rng)
            sk_a, _ = derive(
                params, key_a, x, msg_a, key_b.identity, msg_b, "initiator", strategy
            )
            sk_b, _ = derive(
                params, key_b, y, msg_b, key_a.identity, msg_a, "responder", strategy
            )
            return x, msg_a, y, msg_b, sk_a, sk_b
        except DegenerateExponentError:
            continue


# ---------------------------------------------------------------------------
# setup and extract
# ---------------------------------------------------------------------------


def test_setup_deterministic():
    p1, m1 = setup(4, "0")
    p2, m2 = setup(4, "0")
    assert p1 == p2 and m1 == m2
    assert type(m1) is int and 1 <= m1 < p1.group.q
    assert in_subgroup(p1.group, p1.g) and not p1.g.is_identity()


def test_setup_seeds_differ():
    p1, m1 = setup(4, "0")
    p2, m2 = setup(4, "other-seed")
    assert (p1.group, m1) != (p2.group, m2)


def test_system_params_store_the_group_and_pi_variant_and_derive_g():
    assert [f.name for f in dataclasses.fields(SystemParams)] == ["group", "pi_variant"]
    assert SystemParams(GP).pi_variant is PiVariant.HASH_HALF
    for variant in PiVariant:
        assert SystemParams(GP, variant).g == hash_to_group(GP, GENERATOR_ID)
        # how a caller switches the variant of parameters it was handed
        assert dataclasses.replace(PARAMS, pi_variant=variant).g == PARAMS.g


def test_extract_matches_repeated_addition():
    # d_id must be alpha-fold addition of g_id
    acc = INFINITY
    for _ in range(MSK):
        acc = point_add(GP, acc, ALICE.g_id)
    assert acc == ALICE.d_id


def test_extract_pairing_identity():
    # e(d_id, g) = e(g_id, g)^alpha
    lhs = pairing(GP, ALICE.d_id, PARAMS.g)
    rhs = gt_exp(pairing(GP, ALICE.g_id, PARAMS.g), MSK)
    assert lhs == rhs


def test_extract_deterministic_and_distinct():
    assert extract(PARAMS, MSK, "alice") == ALICE
    assert ALICE.d_id != BOB.d_id
    assert ALICE.identity == b"alice"


def test_extract_rejects_bad_master():
    with pytest.raises(InvalidEphemeralError):
        extract(PARAMS, 0, "alice")
    with pytest.raises(InvalidEphemeralError):
        extract(PARAMS, GP.q, "alice")


# ---------------------------------------------------------------------------
# pi variants
# ---------------------------------------------------------------------------


def test_xor_half_worked_example():
    # 0b101101 xor 0b110010 = 0b011111; keeping 3 of 6 bits gives 0b111
    assert xor_half_value(0b101101, 0b110010, 6) == 0b111
    assert xor_half_value(0b101101, 0b110010, 6) == 7


def test_xor_half_zero_maps_to_one():
    assert xor_half_value(5, 5, 6) == 1
    assert xor_half_value(0b1000, 0b0000, 6) == 1  # 8 mod 8 == 0


def test_pi_consistency_with_bare_helper():
    params, _ = setup(4, "0", pi_variant=PiVariant.XOR_HALF)
    assert pi_value(params, ALICE.g_id, BOB.g_id) == xor_half_value(
        ALICE.g_id.x, BOB.g_id.x, GP.p.bit_length()
    )


def test_hash_half_range():
    params, msk = setup(8, "range", pi_variant=PiVariant.HASH_HALF)
    bound = 1 << ((params.group.q.bit_length() + 1) // 2)
    rng = random.Random(77)
    key = extract(params, msk, "u")
    for _ in range(1000):
        _, m1 = initiate(params, key, rng)
        _, m2 = initiate(params, key, rng)
        value = pi_value(params, m1.r, m2.r)
        assert 1 <= value < bound


def test_first_only_ignores_second_argument():
    params, _ = setup(4, "0", pi_variant=PiVariant.FIRST_ONLY)
    assert pi_value(params, ALICE.g_id, BOB.g_id) == pi_value(
        params, ALICE.g_id, ALICE.g_id
    )


def test_pi_order_sensitivity():
    # over the ordered pairs of distinct points among g^1..g^40 at k = 16,
    # how often pi(a, b) != pi(b, a): hash-half and first-only hash an
    # ordered input into 8 bits, so only a few pairs collide, and xor-half
    # is symmetric by construction
    params, _ = setup(16, "pi-order")
    points = [scalar_exp(params.group, params.g, i) for i in range(1, 41)]
    pairs = [(a, b) for a in points for b in points if a != b]
    assert len(pairs) == 1560
    differs = {}
    for variant in PiVariant:
        variant_params = SystemParams(params.group, variant)
        differs[variant] = sum(
            pi_value(variant_params, a, b) != pi_value(variant_params, b, a) for a, b in pairs
        )
    assert differs == {
        PiVariant.HASH_HALF: 1558,
        PiVariant.FIRST_ONLY: 1552,
        PiVariant.XOR_HALF: 0,
    }
    assert pi_value(PARAMS, ALICE.g_id, BOB.g_id) == pi_value(
        PARAMS, ALICE.g_id, BOB.g_id
    )


def test_a_pi_beyond_the_window_table_still_blends_exactly():
    # p = 52 * 11 - 1 = 571 passes decode_group_params, and its xor-half pi
    # has 5 bits, one more than q's 4, the most a window walk takes
    group = decode_group_params(encode_group_params(GroupParams(571, 11, 52)))
    params = SystemParams(group, PiVariant.XOR_HALF)
    g = hash_to_group(group, "alice")
    points = [scalar_exp(group, g, i) for i in range(1, group.q)]
    beyond = 0
    for r in points:
        for other in points:
            s = pi_value(params, r, other)
            beyond += s >= 16
            assert protocol._blend(params, g, r, other) == point_add(
                group, scalar_exp(group, g, s), r), (r, other)
    assert beyond


def test_pi_rejects_identity():
    with pytest.raises(InvalidFlowError):
        pi_value(PARAMS, INFINITY, BOB.g_id)


# ---------------------------------------------------------------------------
# initiate and derive
# ---------------------------------------------------------------------------


def test_initiate_flow_dlog():
    rng = random.Random(9)
    x, msg = initiate(PARAMS, ALICE, rng)
    assert in_subgroup(GP, msg.r)
    assert dlog(GP, ALICE.g_id, msg.r) == x % GP.q


def test_initiate_deterministic_under_seed():
    a = initiate(PARAMS, ALICE, random.Random(4))
    b = initiate(PARAMS, ALICE, random.Random(4))
    assert a == b


@pytest.mark.parametrize("strategy", STRATEGIES, ids=DeriveStrategy.label)
@pytest.mark.parametrize("pi", PiVariant, ids=lambda pi: pi.value)
def test_derive_matches_exponent_arithmetic_oracle(pi, strategy):
    params, msk = setup(4, "0", pi_variant=pi)
    alice = extract(params, msk, "alice")
    bob = extract(params, msk, "bob")
    group = params.group
    rng = random.Random(1234)
    for _ in range(20):
        x, msg_a, y, msg_b, sk_a, sk_b = run_session(params, alice, bob, rng, strategy)
        # s_A = pi(R_A, R_B) and s_B = pi(R_B, R_A), as in the paper
        s_a = pi_value(params, msg_a.r, msg_b.r)
        s_b = pi_value(params, msg_b.r, msg_a.r)
        exponent = (x + s_a) * (y + s_b) * msk % group.q
        expected = gt_exp(pairing(group, alice.g_id, bob.g_id), exponent)
        assert sk_a.value == sk_b.value == expected


def test_all_strategies_bit_identical():
    rng = random.Random(55)
    for pi in PiVariant:
        params, msk = setup(4, "0", pi_variant=pi)
        a = extract(params, msk, "alice")
        b = extract(params, msk, "bob")
        x, msg_a, y, msg_b, base_sk, _ = run_session(params, a, b, rng)
        for strategy in STRATEGIES:
            sk_a, _ = derive(params, a, x, msg_a, "bob", msg_b, "initiator", strategy)
            sk_b, _ = derive(params, b, y, msg_b, "alice", msg_a, "responder", strategy)
            assert sk_a == sk_b == base_sk


def test_operation_cost_table(monkeypatch):
    # expected online costs per strategy: (pairings, exp_G, mul_G, exp_GT)
    expected = {
        "c1-nopre": OpCounts(pairings=1, exp_g=2.5, mul_g=1, exp_gt=0),
        "c2-nopre": OpCounts(pairings=1, exp_g=1.5, mul_g=1, exp_gt=1),
        "c1-pre": OpCounts(pairings=1, exp_g=1.0, mul_g=2, exp_gt=0),
        "c2-pre": OpCounts(pairings=1, exp_g=0.5, mul_g=1, exp_gt=1),
    }

    def both_sides(params, key_a, key_b, session, strategy):
        x, msg_a, y, msg_b, _, _ = session
        _, counts_a = derive(
            params, key_a, x, msg_a, key_b.identity, msg_b, "initiator", strategy
        )
        _, counts_b = derive(
            params, key_b, y, msg_b, key_a.identity, msg_a, "responder", strategy
        )
        return counts_a, counts_b

    session = run_session(PARAMS, ALICE, BOB, random.Random(3))
    for strategy in STRATEGIES:
        row = expected[strategy.label()]
        assert both_sides(PARAMS, ALICE, BOB, session, strategy) == (row, row), strategy

    # a primitive that derive runs twice shows twice, in every strategy
    # that runs it: the counts come from where the work runs
    doubled = {
        "_checked_pairing": {
            "c1-nopre": OpCounts(2, 2.5, 1, 0), "c2-nopre": OpCounts(1, 1.5, 1, 1),
            "c1-pre": OpCounts(2, 1.0, 2, 0), "c2-pre": OpCounts(1, 0.5, 1, 1),
        },
        # choice 2 pairs through d_id's line table
        "_fixed_pairing": {
            "c1-nopre": OpCounts(1, 2.5, 1, 0), "c2-nopre": OpCounts(2, 1.5, 1, 1),
            "c1-pre": OpCounts(1, 1.0, 2, 0), "c2-pre": OpCounts(2, 0.5, 1, 1),
        },
        "gt_exp": {
            "c1-nopre": OpCounts(1, 2.5, 1, 0), "c2-nopre": OpCounts(1, 1.5, 1, 2),
            "c1-pre": OpCounts(1, 1.0, 2, 0), "c2-pre": OpCounts(1, 0.5, 1, 2),
        },
        # the blend, and c1-pre's online walk from its offline part
        "_fixed_base_add": {
            "c1-nopre": OpCounts(1, 3.0, 2, 0), "c2-nopre": OpCounts(1, 2.0, 2, 1),
            "c1-pre": OpCounts(1, 2.0, 4, 0), "c2-pre": OpCounts(1, 1.0, 2, 1),
        },
    }
    for name, rows in doubled.items():
        with monkeypatch.context() as patch:
            original = getattr(protocol, name)
            patch.setattr(protocol, name, lambda *args: (original(*args), original(*args))[1])
            for strategy in STRATEGIES:
                row = rows[strategy.label()]
                assert both_sides(PARAMS, ALICE, BOB, session, strategy) == (row, row), name

    # the counts do not depend on the drawn values, the size, the pi
    # variant, the role or whether the caches are cold; and every walk
    # that derive starts at a point, counted as 0.5 exponentiation and 1
    # multiplication, is given a pi output
    walks = []
    fixed_base_add = bilinear._fixed_base_add

    def spy(group, point, n, start):
        walks.append((n, start))
        return fixed_base_add(group, point, n, start)

    monkeypatch.setattr(bilinear, "_fixed_base_add", spy)
    monkeypatch.setattr(protocol, "_fixed_base_add", spy)
    for k_bits in (4, 8, 16):
        for pi in PiVariant:
            params, msk = setup(k_bits, "costs", pi_variant=pi)
            alice, bob = extract(params, msk, "alice"), extract(params, msk, "bob")
            rng = random.Random(f"costs-{k_bits}-{pi.value}")
            for _ in range(10):
                session = run_session(params, alice, bob, rng)
                _, msg_a, _, msg_b, _, _ = session
                pis = {pi_value(params, msg_a.r, msg_b.r), pi_value(params, msg_b.r, msg_a.r)}
                for strategy in STRATEGIES:
                    row = expected[strategy.label()]
                    for cold in (True, False):
                        if cold:
                            bilinear._window_table.cache_clear()
                            bilinear._line_table.cache_clear()
                            bilinear._hash_to_group.cache_clear()
                        walks.clear()
                        observed = both_sides(params, alice, bob, session, strategy)
                        assert observed == (row, row), (k_bits, pi, strategy, cold)
                        started = {n for n, start in walks if not start.is_identity()}
                        assert started and started <= pis, (k_bits, pi, strategy)


def test_derive_rejects_bad_inputs():
    rng = random.Random(6)
    x, msg_a, y, msg_b, _, _ = run_session(PARAMS, ALICE, BOB, rng)
    with pytest.raises(InvalidEphemeralError):
        derive(PARAMS, ALICE, 0, msg_a, "bob", msg_b, "initiator")
    with pytest.raises(InvalidEphemeralError):
        derive(PARAMS, ALICE, GP.q, msg_a, "bob", msg_b, "initiator")
    with pytest.raises(InvalidFlowError):
        derive(PARAMS, ALICE, x, msg_a, "bob", FlowMessage(INFINITY), "initiator")
    with pytest.raises(ValueError):
        derive(PARAMS, ALICE, x, msg_a, "bob", msg_b, "observer")
    with pytest.raises(ValueError):
        derive(PARAMS, ALICE, x, msg_a, "bob", msg_b, "initiator", DeriveStrategy(3, False))


def test_derive_rejects_out_of_subgroup_flow():
    # find a curve point outside the q-subgroup
    for x in range(GP.p):
        t = (x * x * x + x) % GP.p
        if t == 0 or pow(t, (GP.p - 1) // 2, GP.p) != 1:
            continue
        y = pow(t, (GP.p + 1) // 4, GP.p)
        rogue = GElem(x, y)
        if not scalar_exp(GP, rogue, GP.q).is_identity():
            break
    else:
        pytest.fail("no rogue point found")
    with pytest.raises(InvalidFlowError):
        validate_flow_point(PARAMS, rogue)
    rng = random.Random(8)
    x, msg_a = initiate(PARAMS, ALICE, rng)
    with pytest.raises(InvalidFlowError):
        derive(PARAMS, ALICE, x, msg_a, "bob", FlowMessage(rogue), "initiator")


def test_degenerate_exponent_rejected():
    # engineer x + s_init = 0 mod q by searching ephemerals on tiny params
    rng = random.Random(0)
    hits = 0
    for _ in range(400):
        x, msg_a = initiate(PARAMS, ALICE, rng)
        y, msg_b = initiate(PARAMS, BOB, rng)
        s_init = pi_value(PARAMS, msg_a.r, msg_b.r)
        if (x + s_init) % GP.q == 0:
            hits += 1
            with pytest.raises(DegenerateExponentError):
                derive(PARAMS, ALICE, x, msg_a, "bob", msg_b, "initiator")
            # the responder sees the same degeneracy as an identity blend
            with pytest.raises(DegenerateExponentError):
                derive(PARAMS, BOB, y, msg_b, "alice", msg_a, "responder")
    assert hits > 0, "tiny group should hit the degenerate case"


# Rejection of received points.  The subgroup check of a received point is
# the pairing it takes part in, so the tests below pin that every schedule
# still rejects a point outside the subgroup with the same message, and that
# derive and pfs_verify_extra report the first fault in the order their
# checks run.  At k = 16 a combined exponent vanishes once in tens of
# thousands of draws, so only the engineered cases below reach one.

P16, MSK16 = setup(16, "rejection")
G16 = P16.group
ALICE16 = extract(P16, MSK16, "alice")
BOB16 = extract(P16, MSK16, "bob")
OUTSIDE = "flow point is outside the order-q subgroup"


def rogue_point(group):
    """The first curve point by x outside the order-q subgroup."""
    for x in range(group.p):
        t = (x * x * x + x) % group.p
        if t and pow(t, (group.p - 1) // 2, group.p) == 1:
            point = GElem(x, pow(t, (group.p + 1) // 4, group.p))
            if not in_subgroup(group, point):
                return point
    raise AssertionError("no point outside the subgroup")


ROGUE16 = rogue_point(G16)
OFF_CURVE16 = GElem(ROGUE16.x, (ROGUE16.y + 1) % G16.p)


@pytest.mark.parametrize("role", ["initiator", "responder"])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.label())
def test_every_schedule_rejects_a_point_outside_the_subgroup(strategy, role):
    x, msg = initiate(P16, ALICE16, random.Random(31))
    with pytest.raises(InvalidFlowError, match=f"^{OUTSIDE}$"):
        derive(P16, ALICE16, x, msg, "bob", FlowMessage(ROGUE16), role, strategy)
    # the identity and off-curve points keep their own, earlier messages
    with pytest.raises(InvalidFlowError, match="^flow point is the identity$"):
        derive(P16, ALICE16, x, msg, "bob", FlowMessage(INFINITY), role, strategy)
    with pytest.raises(InvalidFlowError, match="^flow point is not on the curve$"):
        derive(P16, ALICE16, x, msg, "bob", FlowMessage(OFF_CURVE16), role, strategy)


def _vanishing_x(own_r, peer_r):
    """The own ephemeral whose combined exponent x + s_own is 0 mod q; in
    either role s_own = pi(own flow, peer flow)."""
    return -pi_value(P16, own_r, peer_r) % G16.q


@pytest.mark.parametrize("role", ["initiator", "responder"])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.label())
def test_a_point_outside_the_subgroup_outranks_later_faults(strategy, role):
    # a vanishing own exponent is found after the pairing, which is the
    # received point's subgroup check: a zero c1 exponent walks the own
    # point to the identity, and the pairing then checks the blend itself
    rng = random.Random(32)
    _, msg = initiate(P16, ALICE16, rng)
    _, honest = initiate(P16, BOB16, rng)
    with pytest.raises(DegenerateExponentError, match="^own combined exponent vanished mod q$"):
        derive(P16, ALICE16, _vanishing_x(msg.r, honest.r), msg, "bob", honest, role,
               strategy)
    with pytest.raises(InvalidFlowError, match=f"^{OUTSIDE}$"):
        derive(P16, ALICE16, _vanishing_x(msg.r, ROGUE16), msg, "bob", FlowMessage(ROGUE16),
               role, strategy)


# The points a fault set draws from, named by the message that refuses each
# as a received point ("flow point is ...").
RNG16 = random.Random(34)
X16, MSG16 = initiate(P16, ALICE16, RNG16)
Y16, HONEST16 = initiate(P16, BOB16, RNG16)
BAD16 = {
    "not on the curve": OFF_CURVE16,
    "the identity": INFINITY,
    "outside the order-q subgroup": ROGUE16,
}
NO_IDENTITY = "an identity is text or bytes, 1 to 65535 bytes long"
C1, C2 = STRATEGIES[0], STRATEGIES[2]


def _raises_exactly(expected, call):
    """Run call: it returns when expected is None, else raises exactly
    expected's (type, message)."""
    if expected is None:
        return call()
    error, message = expected
    with pytest.raises(IdakError) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)


def _first_derive_fault(received, own_flow, peer_id, vanishing):
    """derive's error for a fault set: its first fault in check order."""
    if received in ("not on the curve", "the identity"):
        return InvalidFlowError, f"flow point is {received}"
    if own_flow != "honest":
        return InvalidFlowError, "own flow point is invalid"
    if not peer_id:
        return InvalidIdentityError, NO_IDENTITY
    if received != "honest":
        return InvalidFlowError, f"flow point is {received}"
    if vanishing:
        return DegenerateExponentError, "own combined exponent vanished mod q"
    return None


@settings(deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    role=st.sampled_from(["initiator", "responder"]),
    received=st.sampled_from(["honest", *BAD16]),
    own_flow=st.sampled_from(["honest", "not on the curve", "the identity"]),
    peer_id=st.sampled_from(["bob", ""]),
    vanishing=st.booleans(),
)
# double faults where a fault in the caller's own arguments is found before
# the pairing that is the received point's subgroup check
@example(strategy=C1, role="initiator", received="outside the order-q subgroup",
         own_flow="not on the curve", peer_id="bob", vanishing=False)
@example(strategy=C2, role="responder", received="outside the order-q subgroup",
         own_flow="honest", peer_id="", vanishing=False)
@example(strategy=C1, role="responder", received="honest", own_flow="honest", peer_id="",
         vanishing=True)
# an outside point whose pi also zeroes the own exponent: the c1 own point
# walks to the identity, and the pairing then checks the blend explicitly
@example(strategy=C1, role="initiator", received="outside the order-q subgroup",
         own_flow="honest", peer_id="bob", vanishing=True)
def test_derive_reports_its_first_fault_in_check_order(
    strategy, role, received, own_flow, peer_id, vanishing
):
    own_r = MSG16.r if own_flow == "honest" else BAD16[own_flow]
    peer_r = HONEST16.r if received == "honest" else BAD16[received]
    # pi is undefined on the identity, so only a pair without it vanishes
    vanishing = vanishing and not (own_r.is_identity() or peer_r.is_identity())
    x = _vanishing_x(own_r, peer_r) if vanishing else X16
    expected = _first_derive_fault(received, own_flow, peer_id, vanishing)
    result = _raises_exactly(expected, lambda: derive(
        P16, ALICE16, x, FlowMessage(own_r), peer_id, FlowMessage(peer_r), role, strategy))
    if expected is None:
        # and what it returns is the secret the honest peer derives
        peer_sk, _ = derive(P16, BOB16, Y16, HONEST16, "alice", MSG16, role, strategy)
        assert result[0] == peer_sk


# ---------------------------------------------------------------------------
# session key derivation
# ---------------------------------------------------------------------------


def test_session_key_regression_pin():
    rng = random.Random(2024)
    x, msg_a = initiate(PARAMS, ALICE, rng)
    y, msg_b = initiate(PARAMS, BOB, rng)
    sk, _ = derive(PARAMS, ALICE, x, msg_a, "bob", msg_b, "initiator")
    key = session_key(PARAMS, sk, "alice", "bob", msg_a, msg_b)
    assert key.key.hex() == (
        "43cf4000bbd156eb71173ab10f713996e5c59bde3a483004579773bf5ce3cb36"
    )


def test_session_key_binds_identities_and_flows():
    rng = random.Random(31)
    x, msg_a, y, msg_b, sk_a, _ = run_session(PARAMS, ALICE, BOB, rng)
    base = session_key(PARAMS, sk_a, "alice", "bob", msg_a, msg_b)
    assert len(base.key) == 32
    assert session_key(PARAMS, sk_a, "alicia", "bob", msg_a, msg_b) != base
    assert session_key(PARAMS, sk_a, "alice", "bobby", msg_a, msg_b) != base
    assert session_key(PARAMS, sk_a, "bob", "alice", msg_a, msg_b) != base
    assert session_key(PARAMS, sk_a, "alice", "bob", msg_b, msg_a) != base


# ---------------------------------------------------------------------------
# forward-secrecy variant
# ---------------------------------------------------------------------------


def test_pfs_exchange_agrees():
    params, msk = setup(8, "pfs")
    a = extract(params, msk, "alice")
    b = extract(params, msk, "bob")
    rng = random.Random(12)
    x, msg_a = initiate(params, a, rng)
    y, msg_b, extra = pfs_respond(params, b, "alice", rng)
    assert in_subgroup(params.group, extra)
    assert pfs_verify_extra(params, a, "bob", msg_b, extra)
    sk_a, _ = derive(params, a, x, msg_a, "bob", msg_b, "initiator")
    sk_b, _ = derive(params, b, y, msg_b, "alice", msg_a, "responder")
    dh_a = scalar_exp(params.group, extra, x)
    dh_b = scalar_exp(params.group, msg_a.r, y)
    assert dh_a == dh_b
    assert pfs_session_key(params, sk_a, dh_a) == pfs_session_key(params, sk_b, dh_b)


def test_pfs_extra_uses_same_ephemeral():
    # dlog of extra base g_alice equals dlog of the flow base g_bob
    rng = random.Random(13)
    y, msg, extra = pfs_respond(PARAMS, BOB, "alice", rng)
    assert dlog(GP, BOB.g_id, msg.r) == y % GP.q
    assert dlog(GP, ALICE.g_id, extra) == y % GP.q


def test_pfs_verify_rejects_mismatched_extra():
    rng = random.Random(14)
    y, msg, extra = pfs_respond(PARAMS, BOB, "alice", rng)
    wrong = scalar_exp(GP, extra, 2)
    if wrong.is_identity() or wrong == extra:
        wrong = scalar_exp(GP, extra, 3)
    assert not pfs_verify_extra(PARAMS, ALICE, "bob", msg, wrong)


def test_pfs_verify_reports_a_bad_flow_point_before_a_bad_extra():
    _, msg, extra = pfs_respond(P16, BOB16, "alice", random.Random(33))
    assert pfs_verify_extra(P16, ALICE16, "bob", msg, extra)
    bad = {
        "not on the curve": OFF_CURVE16,
        "the identity": INFINITY,
        "outside the order-q subgroup": ROGUE16,
    }
    for r_fault, r_point in bad.items():
        for extra_point in [extra, *bad.values()]:
            with pytest.raises(InvalidFlowError, match=f"^flow point is {r_fault}$"):
                pfs_verify_extra(P16, ALICE16, "bob", FlowMessage(r_point), extra_point)
    for extra_fault, extra_point in bad.items():
        with pytest.raises(InvalidFlowError, match=f"^flow point is {extra_fault}$"):
            pfs_verify_extra(P16, ALICE16, "bob", msg, extra_point)
    # the peer identity is hashed for extra's pairing, which is extra's
    # subgroup check, so an empty one is reported first
    with pytest.raises(InvalidIdentityError):
        pfs_verify_extra(P16, ALICE16, "", msg, extra)
    with pytest.raises(InvalidIdentityError):
        pfs_verify_extra(P16, ALICE16, "", msg, ROGUE16)


_, PFS_MSG16, PFS_EXTRA16 = pfs_respond(P16, BOB16, "alice", random.Random(35))
# a subgroup point that is not g_alice^y fails only the final equality
PFS_POINTS16 = {**BAD16, "honest": PFS_EXTRA16, "mismatched": scalar_exp(G16, PFS_EXTRA16, 2)}


def _first_pfs_fault(r, extra, peer_id):
    """pfs_verify_extra's error for a fault set: its first fault in check
    order, R's form and subgroup before anything of extra's."""
    if r in BAD16:
        return InvalidFlowError, f"flow point is {r}"
    if extra in ("not on the curve", "the identity"):
        return InvalidFlowError, f"flow point is {extra}"
    if not peer_id:
        return InvalidIdentityError, NO_IDENTITY
    if extra in BAD16:
        return InvalidFlowError, f"flow point is {extra}"
    return None


@settings(deadline=None)
@given(
    r=st.sampled_from(["honest", *BAD16]),
    extra=st.sampled_from(sorted(PFS_POINTS16)),
    peer_id=st.sampled_from(["bob", ""]),
)
# an empty peer identity is found before the pairing that is extra's
# subgroup check
@example(r="honest", extra="outside the order-q subgroup", peer_id="")
def test_pfs_verify_extra_reports_its_first_fault_in_check_order(r, extra, peer_id):
    r_point = PFS_MSG16.r if r == "honest" else PFS_POINTS16[r]
    expected = _first_pfs_fault(r, extra, peer_id)
    verified = _raises_exactly(expected, lambda: pfs_verify_extra(
        P16, ALICE16, peer_id, FlowMessage(r_point), PFS_POINTS16[extra]))
    if expected is None:
        assert verified is (extra == "honest")


def test_pfs_key_differs_from_base_key():
    params, msk = setup(8, "pfs2")
    a = extract(params, msk, "alice")
    b = extract(params, msk, "bob")
    rng = random.Random(15)
    x, msg_a = initiate(params, a, rng)
    y, msg_b, extra = pfs_respond(params, b, "alice", rng)
    sk_a, _ = derive(params, a, x, msg_a, "bob", msg_b, "initiator")
    dh = scalar_exp(params.group, extra, x)
    assert pfs_session_key(params, sk_a, dh) != session_key(
        params, sk_a, "alice", "bob", msg_a, msg_b
    )
    with pytest.raises(InvalidFlowError, match="degenerate Diffie-Hellman point"):
        pfs_session_key(params, sk_a, INFINITY)


# ---------------------------------------------------------------------------
# master-key compromise
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pi", PiVariant, ids=lambda pi: pi.value)
def test_master_compromise_recovers_base_secret(pi):
    params, msk = setup(8, "mk", pi_variant=pi)
    a = extract(params, msk, "alice")
    b = extract(params, msk, "bob")
    rng = random.Random(16)
    for _ in range(25):
        x, msg_a, y, msg_b, sk_a, sk_b = run_session(params, a, b, rng)
        recovered = master_compromise_compute(
            params, msk, "alice", "bob", msg_a, msg_b
        )
        assert recovered == sk_a == sk_b


def test_master_compromise_wrong_alpha_misses():
    rng = random.Random(17)
    x, msg_a, y, msg_b, sk_a, _ = run_session(PARAMS, ALICE, BOB, rng)
    wrong = MSK % (GP.q - 1) + 1
    if wrong == MSK:
        wrong = wrong % (GP.q - 1) + 1
    recovered = master_compromise_compute(PARAMS, wrong, "alice", "bob", msg_a, msg_b)
    assert recovered != sk_a
    for alpha in (0, GP.q):
        with pytest.raises(InvalidEphemeralError, match="alpha out of range"):
            master_compromise_compute(PARAMS, alpha, "alice", "bob", msg_a, msg_b)


def test_master_compromise_cannot_reach_pfs_key():
    params, msk = setup(8, "mk2")
    a = extract(params, msk, "alice")
    b = extract(params, msk, "bob")
    rng = random.Random(18)
    x, msg_a = initiate(params, a, rng)
    y, msg_b, extra = pfs_respond(params, b, "alice", rng)
    sk_a, _ = derive(params, a, x, msg_a, "bob", msg_b, "initiator")
    real = pfs_session_key(params, sk_a, scalar_exp(params.group, extra, x))
    recovered = master_compromise_compute(params, msk, "alice", "bob", msg_a, msg_b)
    assert recovered == sk_a
    # every Diffie-Hellman guess available from transcript plus alpha misses
    group = params.group
    candidates = [msg_a.r, msg_b.r, extra]
    candidates += [scalar_exp(group, c, msk) for c in list(candidates)]
    assert all(pfs_session_key(params, recovered, c) != real for c in candidates)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def test_flow_wire_round_trip():
    rng = random.Random(19)
    x, msg = initiate(PARAMS, ALICE, rng)
    blob = encode_flow(PARAMS, "initiator", "alice", msg)
    assert decode_flow(PARAMS, blob) == ("initiator", b"alice", msg, None)
    y, msg_b, extra = pfs_respond(PARAMS, BOB, "alice", rng)
    blob_b = encode_flow(PARAMS, "responder", "bob", msg_b, extra)
    assert decode_flow(PARAMS, blob_b) == ("responder", b"bob", msg_b, extra)


def test_flow_wire_rejects_garbage():
    rng = random.Random(20)
    _, msg = initiate(PARAMS, ALICE, rng)
    blob = encode_flow(PARAMS, "initiator", "alice", msg)
    with pytest.raises(InvalidFlowError):
        decode_flow(PARAMS, b"")
    with pytest.raises(InvalidFlowError):
        decode_flow(PARAMS, b"\x02" + blob[1:])
    with pytest.raises(InvalidFlowError):
        decode_flow(PARAMS, blob[:-1])
    with pytest.raises(InvalidFlowError):
        decode_flow(PARAMS, blob + b"\x00")
    # a well-framed flow that names nobody
    with pytest.raises(InvalidFlowError, match="empty identity"):
        decode_flow(PARAMS, blob[:2] + b"\x00\x00" + blob[4 + len(b"alice") :])


def test_parse_strategy():
    assert parse_strategy("c1-nopre") == DeriveStrategy(1, False)
    assert parse_strategy("c2-pre") == DeriveStrategy(2, True)
    with pytest.raises(ValueError):
        parse_strategy("c3-pre")
