"""Key agreement tests against the reference IDAK of tests/reference.py."""

import dataclasses
import random
import weakref

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
    MalformedElementError,
)
from idak.protocol import (
    DeriveStrategy,
    FlowMessage,
    GENERATOR_ID,
    OpCounts,
    PiVariant,
    STRATEGIES,
    SessionKey,
    SharedSecret,
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
from idak.selfreduction import CbdhInstance

import reference as ref

PARAMS, MSK = setup(4, "0")
GP = PARAMS.group
ALICE = extract(PARAMS, MSK, "alice")
BOB = extract(PARAMS, MSK, "bob")


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


def test_value_types_are_immutable_records_equal_by_their_fields():
    g = PARAMS.g
    gt = pairing(GP, g, g)
    records = [
        (GP, ("p", "q", "h")),
        (g, ("x", "y")),
        (gt, ("a", "b", "p")),
        (FlowMessage(g), ("r",)),
        (SharedSecret(gt), ("value",)),
        (SessionKey(b"key"), ("key",)),
        (CbdhInstance(g, ALICE.g_id, BOB.g_id, ALICE.d_id),
         ("g", "x_point", "y_point", "z_point")),
        (OpCounts(1, 2.5, 1, 0), ("pairings", "exp_g", "mul_g", "exp_gt")),
        (DeriveStrategy(2, True), ("choice", "precomputed")),
    ]
    for value, names in records:
        cls = type(value)
        assert cls._fields == names
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        parts = [getattr(value, name) for name in names]
        twin = cls(*parts)
        assert twin == value and hash(twin) == hash(value)
        # error text embeds this form, as the off-curve refusal below does
        shown = ", ".join(f"{name}={part!r}" for name, part in zip(names, parts))
        assert repr(value) == f"{cls.__name__}({shown})"
    with pytest.raises(MalformedElementError) as refusal:
        point_add(GP, GElem(1, 1), g)
    assert str(refusal.value) == "point GElem(x=1, y=1) is not on the curve"
    # the records that stay dataclasses: SystemParams, switched by
    # dataclasses.replace; IdentityKey, as a loaded identity key may be weakly
    # referenced; and SessionOracle, which World mutates as its run goes on
    assert dataclasses.replace(PARAMS, pi_variant=PiVariant.XOR_HALF).group is GP
    assert weakref.ref(ALICE)() is ALICE


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
            # the blend g^s * R, one walk of g's window table from R
            assert bilinear._fixed_base_add(group, g, s, r) == point_add(
                group, scalar_exp(group, g, s), r), (r, other)
    assert beyond


def test_pi_rejects_identity():
    with pytest.raises(InvalidFlowError):
        pi_value(PARAMS, INFINITY, BOB.g_id)


P16_PI, _ = setup(16, "pi-pair")


@given(
    variant=st.sampled_from(PiVariant),
    first=st.integers(0, P16_PI.group.q - 1),
    second=st.integers(0, P16_PI.group.q - 1),
)
@example(variant=PiVariant.HASH_HALF, first=0, second=1)
@example(variant=PiVariant.XOR_HALF, first=1, second=0)
def test_pi_pair_is_pi_value_in_both_orders(variant, first, second):
    # derive's one call for s_own and s_peer, each flow encoded once; 0
    # stands for the identity, which both refuse
    params = SystemParams(P16_PI.group, variant)
    a, b = (scalar_exp(params.group, params.g, n) for n in (first, second))
    if a.is_identity() or b.is_identity():
        for pi in (protocol._pi_pair, pi_value):
            with pytest.raises(InvalidFlowError, match="pi is undefined on the identity"):
                pi(params, a, b)
        return
    assert protocol._pi_pair(params, a, b) == (pi_value(params, a, b), pi_value(params, b, a))


# ---------------------------------------------------------------------------
# initiate and derive
# ---------------------------------------------------------------------------


def test_initiate_deterministic_under_seed():
    a = initiate(PARAMS, ALICE, random.Random(4))
    b = initiate(PARAMS, ALICE, random.Random(4))
    assert a == b


@pytest.mark.parametrize("strategy", STRATEGIES, ids=DeriveStrategy.label)
@pytest.mark.parametrize("pi", PiVariant, ids=lambda pi: pi.value)
def test_derive_matches_exponent_arithmetic_oracle(pi, strategy):
    # every cell of the grid, each time: 20 sessions at k = 4, where q = 11
    # makes the reference session redraw a vanished exponent now and then
    params, msk = setup(4, "0", pi_variant=pi)
    alice = extract(params, msk, "alice")
    bob = extract(params, msk, "bob")
    rng = random.Random(1234)
    for _ in range(20):
        x, msg_a, y, msg_b, sk = ref.session(params, msk, "alice", "bob", rng)
        assert derive(params, alice, x, msg_a, "bob", msg_b, "initiator", strategy)[0] == sk
        assert derive(params, bob, y, msg_b, "alice", msg_a, "responder", strategy)[0] == sk


def test_operation_cost_table(monkeypatch):
    # expected online costs per strategy: (pairings, exp_G, mul_G, exp_GT)
    expected = {
        "c1-nopre": OpCounts(pairings=1, exp_g=2.5, mul_g=1, exp_gt=0),
        "c2-nopre": OpCounts(pairings=1, exp_g=1.5, mul_g=1, exp_gt=1),
        "c1-pre": OpCounts(pairings=1, exp_g=1.0, mul_g=2, exp_gt=0),
        "c2-pre": OpCounts(pairings=1, exp_g=0.5, mul_g=1, exp_gt=1),
    }

    def both_sides(params, key_a, key_b, session, strategy):
        x, msg_a, y, msg_b, _ = session
        _, counts_a = derive(
            params, key_a, x, msg_a, key_b.identity, msg_b, "initiator", strategy
        )
        _, counts_b = derive(
            params, key_b, y, msg_b, key_a.identity, msg_a, "responder", strategy
        )
        return counts_a, counts_b

    session = ref.session(PARAMS, MSK, "alice", "bob", random.Random(3))
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
        # choice 2 pairs through d_id's line table and raises the pairing
        # in its final exponentiation, so both count twice
        "_fixed_pairing": {
            "c1-nopre": OpCounts(1, 2.5, 1, 0), "c2-nopre": OpCounts(2, 1.5, 1, 2),
            "c1-pre": OpCounts(1, 1.0, 2, 0), "c2-pre": OpCounts(2, 0.5, 1, 2),
        },
        # so no strategy calls gt_exp
        "gt_exp": {
            "c1-nopre": OpCounts(1, 2.5, 1, 0), "c2-nopre": OpCounts(1, 1.5, 1, 1),
            "c1-pre": OpCounts(1, 1.0, 2, 0), "c2-pre": OpCounts(1, 0.5, 1, 1),
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
                session = ref.session(params, msk, "alice", "bob", rng)
                _, msg_a, _, msg_b, _ = session
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
    x, msg_a, _, msg_b, _ = ref.session(PARAMS, MSK, "alice", "bob", random.Random(6))
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
    rogue = ref.outside_point(GP)
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


ROGUE16 = ref.outside_point(G16)
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
# a single fault that only the received point's subgroup walk before the
# line-table pairing of choice 2 finds
@example(strategy=C2, role="initiator", received="outside the order-q subgroup",
         own_flow="honest", peer_id="bob", vanishing=False)
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
    _, msg_a, _, msg_b, sk_a = ref.session(PARAMS, MSK, "alice", "bob", random.Random(31))
    base = session_key(PARAMS, sk_a, "alice", "bob", msg_a, msg_b)
    assert len(base.key) == 32
    assert session_key(PARAMS, sk_a, "alicia", "bob", msg_a, msg_b) != base
    assert session_key(PARAMS, sk_a, "alice", "bobby", msg_a, msg_b) != base
    assert session_key(PARAMS, sk_a, "bob", "alice", msg_a, msg_b) != base
    assert session_key(PARAMS, sk_a, "alice", "bob", msg_b, msg_a) != base


# ---------------------------------------------------------------------------
# forward-secrecy variant
# ---------------------------------------------------------------------------


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
    x, msg_a, y, msg_b, sk = ref.session(params, msk, "alice", "bob", random.Random(15))
    dh = ref.multiply(params.group, ref.pfs_extra(params, "alice", y), x)
    assert pfs_session_key(params, sk, dh) != session_key(params, sk, "alice", "bob", msg_a, msg_b)
    with pytest.raises(InvalidFlowError, match="degenerate Diffie-Hellman point"):
        pfs_session_key(params, sk, INFINITY)


# ---------------------------------------------------------------------------
# one exchange against the reference IDAK, end to end
# ---------------------------------------------------------------------------

# hostile received flows, built from the honest one, by the message that
# refuses each ("flow point is ..."); R + (0, 0) has order 2q
HOSTILE = {
    "the identity": lambda group, r: INFINITY,
    "not on the curve": lambda group, r: GElem(0, 1),
    "outside the order-q subgroup": lambda group, r: ref.add(group.p, r, GElem(0, 0)),
}


@settings(deadline=None)  # the example count comes from the hypothesis profile
@given(
    k_bits=st.sampled_from([4, 8, 16, 24]),
    seed=st.integers(0, 2**32),
    pi=st.sampled_from(PiVariant),
    strategy=st.sampled_from(STRATEGIES),
    role=st.sampled_from(["initiator", "responder"]),
    pfs=st.booleans(),
    hostile=st.sampled_from(sorted(HOSTILE)),
)
# exchanges at q = 13 and q = 11 where the initiator's own exponent, then
# the responder's, vanishes
@example(k_bits=4, seed=6, pi=PiVariant.HASH_HALF, strategy=STRATEGIES[0], role="initiator",
         pfs=False, hostile="the identity")
@example(k_bits=4, seed=11, pi=PiVariant.XOR_HALF, strategy=STRATEGIES[3], role="responder",
         pfs=True, hostile="outside the order-q subgroup")
def test_an_exchange_matches_the_reference_byte_for_byte(
    k_bits, seed, pi, strategy, role, pfs, hostile
):
    # keys, flows, the secret and the session key of one side of an exchange
    # on a drawn group, and its --pfs extra point, check and key; derive
    # refuses a hostile received flow with the documented message, and the
    # honest one where the reference exponent vanishes
    params, alpha = setup(k_bits, seed, pi_variant=pi)
    group = params.group
    alice, bob = extract(params, alpha, "alice"), extract(params, alpha, "bob")
    assert (alice.g_id, alice.d_id) == ref.extract(group, alpha, "alice")
    assert (bob.g_id, bob.d_id) == ref.extract(group, alpha, "bob")
    rng = random.Random(seed)
    x, msg_a = initiate(params, alice, rng)
    if pfs:
        y, msg_b, extra = pfs_respond(params, bob, "alice", rng)
        assert extra == ref.pfs_extra(params, "alice", y)
    else:
        y, msg_b = initiate(params, bob, rng)
    assert (msg_a.r, msg_b.r) == (ref.multiply(group, alice.g_id, x),
                                  ref.multiply(group, bob.g_id, y))
    if role == "initiator":
        own, own_x, own_msg, peer_id, peer_msg = alice, x, msg_a, "bob", msg_b
    else:
        own, own_x, own_msg, peer_id, peer_msg = bob, y, msg_b, "alice", msg_a

    def own_derive(received):
        return derive(params, own, own_x, own_msg, peer_id, received, role, strategy)[0]

    bad = FlowMessage(HOSTILE[hostile](group, peer_msg.r))
    with pytest.raises(InvalidFlowError, match=f"^flow point is {hostile}$"):
        own_derive(bad)
    if pfs and role == "initiator":
        with pytest.raises(InvalidFlowError, match=f"^flow point is {hostile}$"):
            pfs_verify_extra(params, alice, "bob", bad, extra)
    if not ref.exponent(params, alpha, x, msg_a.r, y, msg_b.r):
        with pytest.raises(DegenerateExponentError):
            own_derive(peer_msg)
        return
    sk = own_derive(peer_msg)
    assert sk == ref.secret(params, alpha, "alice", "bob", x, msg_a.r, y, msg_b.r)
    assert (session_key(params, sk, "alice", "bob", msg_a, msg_b)
            == ref.session_key(params, sk, "alice", "bob", msg_a, msg_b))
    if pfs:
        if role == "initiator":
            mismatched = ref.multiply(group, extra, 2)
            for point in (extra, mismatched):
                assert (pfs_verify_extra(params, alice, "bob", msg_b, point)
                        == ref.pfs_check(params, "alice", "bob", msg_b, point)
                        == (point == extra))
            dh = scalar_exp(group, extra, x)
        else:
            dh = scalar_exp(group, msg_a.r, y)
        assert dh == ref.multiply(group, alice.g_id, x * y)
        assert pfs_session_key(params, sk, dh) == ref.pfs_key(params, sk, dh)


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
        x, msg_a, y, msg_b, sk = ref.session(params, msk, "alice", "bob", rng)
        assert derive(params, a, x, msg_a, "bob", msg_b, "initiator")[0] == sk
        assert derive(params, b, y, msg_b, "alice", msg_a, "responder")[0] == sk
        assert master_compromise_compute(params, msk, "alice", "bob", msg_a, msg_b) == sk


def test_master_compromise_wrong_alpha_misses():
    _, msg_a, _, msg_b, sk_a = ref.session(PARAMS, MSK, "alice", "bob", random.Random(17))
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
    x, msg_a, y, msg_b, sk = ref.session(params, msk, "alice", "bob", random.Random(18))
    extra = ref.pfs_extra(params, "alice", y)
    real = pfs_session_key(params, sk, scalar_exp(params.group, extra, x))
    recovered = master_compromise_compute(params, msk, "alice", "bob", msg_a, msg_b)
    assert recovered == sk
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
