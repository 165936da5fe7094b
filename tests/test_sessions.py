"""Session-oracle world tests: query semantics, matching, freshness."""

import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idak
from idak.bilinear import (
    INFINITY, GElem, decode_point, encode_point, fixed_base_exp, gt_exp, pairing,
)
from idak.errors import (
    DegenerateExponentError,
    IdakError,
    InvalidFlowError,
    MalformedElementError,
    NoKeyError,
    NoSuchPrincipalError,
    NotTestableError,
    ScenarioError,
    StaleOracleError,
    TestRefusedError,
)
from idak.protocol import (
    STRATEGIES, FlowMessage, IdentityKey, PiVariant, SharedSecret, derive, initiate,
    initiator_first, session_key, setup, validate_flow_point,
)
from idak.sessions import SessionOracle, World, make_world, run_scenario

import reference as ref

SCENARIO_DIR = Path(idak.__file__).parent / "scenarios"
README = Path(__file__).resolve().parents[1] / "README.md"


def make_basic_world(seed="w", mode="br", k_bits=16):
    return make_world(k_bits=k_bits, seed=seed, mode=mode, principals=["alice", "bob"])


def honest_pair(world, init_id="alice", resp_id="bob"):
    a = world.new_oracle(init_id, resp_id)
    b = world.new_oracle(resp_id, init_id)
    first = world.send(a, None)
    second = world.send(b, first)
    world.send(a, second)
    return a, b


# ---------------------------------------------------------------------------
# send / reveal semantics
# ---------------------------------------------------------------------------


def test_honest_exchange():
    world = make_basic_world()
    a, b = honest_pair(world)
    assert a.completed and b.completed
    assert a.role == "initiator" and b.role == "responder"
    assert a.key == b.key and a.key is not None
    assert world.matching(a, b) and world.matching(b, a)


def test_initiator_emits_then_absorbs():
    # completed is read off completed_at, and the conversation off binding,
    # neither stored beside them
    fields = {f.name for f in dataclasses.fields(SessionOracle)}
    assert "completed" not in fields and "transcript" not in fields
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    assert flow is not None and not a.completed and a.completed_at is None
    b = world.new_oracle("bob", "alice")
    reply = world.send(b, flow)
    assert b.completed and b.completed_at == world.clock
    assert world.send(a, reply) is None
    assert a.completed and a.completed_at == world.clock > b.completed_at


def test_a_world_is_given_its_rng():
    params, alpha = setup(16, "w")
    with pytest.raises(TypeError):
        World(params, alpha)
    with pytest.raises(TypeError):
        World(params, alpha, "br", random.Random(0))  # rng is keyword-only


def test_replayed_first_flow_gives_distinct_keys():
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    b1 = world.new_oracle("bob", "alice")
    b2 = world.new_oracle("bob", "alice")
    world.send(b1, flow)
    world.send(b2, flow)
    assert b1.completed and b2.completed
    assert b1.key != b2.key  # fresh responder ephemerals


def test_world_assigns_session_indices():
    world = make_basic_world()
    o1 = world.new_oracle("alice", "bob")
    o2 = world.new_oracle("alice", "bob")
    o3 = world.new_oracle("bob", "alice")
    assert (o1.index, o2.index, o3.index) == (1, 2, 1)


def test_stale_oracle_rejections():
    world = make_basic_world()
    a, b = honest_pair(world)
    flow = a.own_msg
    with pytest.raises(StaleOracleError):
        world.send(b, flow)  # second activation of a completed responder
    with pytest.raises(StaleOracleError):
        world.send(a, flow)
    c = world.new_oracle("alice", "bob")
    world.send(c, None)
    with pytest.raises(StaleOracleError):
        world.send(c, None)  # re-activating a waiting initiator


REJECTED_FLOWS = {
    "malformed": lambda group: b"\xde\xad\xbe\xef",
    "out-of-subgroup": lambda group: encode_point(group, ref.outside_point(group)),
    "identity": lambda group: b"\x00",
}


@pytest.mark.parametrize("flow", list(REJECTED_FLOWS))
@pytest.mark.parametrize("role", ["responder", "initiator"])
def test_rejected_flow_aborts_oracle_and_draws_nothing(role, flow):
    world = make_basic_world()
    if role == "responder":
        oracle = world.new_oracle("bob", "alice")
    else:
        oracle = world.new_oracle("alice", "bob")
        world.send(oracle, None)
    before = (oracle.role, oracle.ephemeral, oracle.own_msg)
    rng_state = world.rng.getstate()
    with pytest.raises(InvalidFlowError):
        world.send(oracle, REJECTED_FLOWS[flow](world.params.group))
    # the flow is checked before a responder draws y: a rejection consumes
    # no rng state, and a rejected responder never takes a role
    assert world.rng.getstate() == rng_state
    assert (oracle.role, oracle.ephemeral, oracle.own_msg) == before
    assert oracle.aborted and not oracle.completed and oracle.completed_at is None
    with pytest.raises(StaleOracleError):
        world.send(oracle, b"\x00")
    with pytest.raises(NoKeyError):
        world.reveal(oracle)


def test_reveal_semantics():
    world = make_basic_world()
    a, b = honest_pair(world)
    key = world.reveal(a)
    assert key == a.key and a.revealed
    incomplete = world.new_oracle("alice", "bob")
    world.send(incomplete, None)
    with pytest.raises(NoKeyError):
        world.reveal(incomplete)


# ---------------------------------------------------------------------------
# corrupt / extract
# ---------------------------------------------------------------------------


def test_corrupt_then_extract_identical():
    world = make_basic_world()
    corrupted = world.corrupt("alice")
    extracted = world.extract_query("alice")
    assert corrupted == extracted == world.principals[b"alice"].d_id


def test_a_principal_is_its_identity_bytes():
    world = make_world(k_bits=16, seed="x")
    a = world.new_oracle(b"alice", "bob")
    b = world.new_oracle("bob", "alice")
    world.send(a, world.send(b, world.send(a, None)))
    assert len(world.principals) == 2
    assert a.owner == b.peer == b"alice" and a.name() == "(alice,bob)#1"
    assert world.matching(a, b) and world.matching(b, a) and a.key == b.key
    assert world.new_oracle("alice", b"bob").index == 2
    world.corrupt("alice")
    assert not world.fresh(a) and not world.fresh(b)
    assert world.extract_query(bytearray(b"bob")) == world.principals[b"bob"].d_id
    assert world.extracted == {b"bob"}
    # a name that is not UTF-8 text is shown backslash-escaped
    assert world.new_oracle(b"\xffeve", "bob").name() == "(\\xffeve,bob)#1"


def test_corrupt_unknown_principal():
    world = make_basic_world()
    with pytest.raises(NoSuchPrincipalError):
        world.corrupt("mallory")


def test_extract_new_identity_consistent():
    world = make_basic_world()
    d1 = world.extract_query("charlie")
    d2 = world.extract_query("charlie")
    assert d1 == d2
    assert b"charlie" in world.extracted


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def test_matching_requires_completion():
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    world.send(a, None)
    b = world.new_oracle("bob", "alice")
    assert not world.matching(a, b)


def test_matching_rejects_same_role():
    world = make_basic_world()
    a1, b1 = honest_pair(world)
    a2, b2 = honest_pair(world)
    assert not world.matching(a1, a2)
    assert not world.matching(b1, b2)


def test_matching_rejects_substituted_flow():
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    b1 = world.new_oracle("bob", "alice")
    b2 = world.new_oracle("bob", "alice")
    reply1 = world.send(b1, flow)
    reply2 = world.send(b2, flow)
    world.send(a, reply2)
    # a shares a transcript with b2 only
    assert world.matching(a, b2)
    assert not world.matching(a, b1)
    assert a.key == b2.key and a.key != b1.key


def test_matching_rejects_identity_mismatch():
    world = make_basic_world()
    world.extract_query("eve")
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    uks = world.new_oracle("bob", "eve")
    reply = world.send(uks, flow)
    world.send(a, reply)
    assert a.completed and uks.completed
    assert not world.matching(a, uks)
    assert world.reveal(a) != world.reveal(uks)


# ---------------------------------------------------------------------------
# freshness and test
# ---------------------------------------------------------------------------


def test_fresh_requires_completion():
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    world.send(a, None)
    with pytest.raises(NotTestableError):
        world.fresh(a)


def test_fresh_gate_extract():
    world = make_basic_world()
    a, b = honest_pair(world)
    assert world.fresh(a)
    world.extract_query("bob")
    assert not world.fresh(a) and not world.fresh(b)
    with pytest.raises(TestRefusedError):
        world.test(a, 1)


def test_fresh_gate_corrupt_br():
    world = make_basic_world(mode="br")
    a, b = honest_pair(world)
    world.corrupt("alice")  # after completion, still poisons in br mode
    assert not world.fresh(a) and not world.fresh(b)


def test_fresh_gate_reveal_self_and_partner():
    world = make_basic_world()
    a, b = honest_pair(world)
    world.reveal(a)
    assert not world.fresh(a)
    assert not world.fresh(b)  # matching oracle revealed


def test_reveal_of_non_matching_oracle_keeps_fresh():
    world = make_basic_world()
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    b1 = world.new_oracle("bob", "alice")
    b2 = world.new_oracle("bob", "alice")
    reply1 = world.send(b1, flow)
    reply2 = world.send(b2, flow)
    world.send(a, reply2)
    world.reveal(b1)  # not matching a
    assert world.fresh(a)


def test_wpfs_corrupt_after_completion_keeps_fresh():
    world = make_basic_world(mode="wpfsbr")
    a, b = honest_pair(world)
    world.corrupt("alice")
    world.corrupt("bob")
    assert world.fresh(a) and world.fresh(b)
    assert world.test(a, 1) == a.key


def test_wpfs_corrupt_before_completion_poisons():
    world = make_basic_world(mode="wpfsbr")
    a = world.new_oracle("alice", "bob")
    flow = world.send(a, None)
    world.corrupt("alice")
    b = world.new_oracle("bob", "alice")
    reply = world.send(b, flow)
    world.send(a, reply)
    assert not world.fresh(a) and not world.fresh(b)


def _impersonate_then_corrupt(world, victim, claimed, as_initiator, rng):
    """The generic attack on two-message protocols: the adversary sends its
    own flow g_claimed^x to a new oracle of victim as claimed's, corrupts
    claimed after the oracle completes, and derives its key through the
    public API, with no discrete log.  The oracle, and the key."""
    params = world.params
    # a key with claimed's public point and no secret yet
    claimed_key = IdentityKey(claimed.encode(), world.principals[claimed.encode()].g_id, None)
    x, forged = initiate(params, claimed_key, rng)
    oracle = world.new_oracle(victim, claimed)
    if as_initiator:
        own = world.send(oracle, None)  # the victim opens, the adversary answers
        world.send(oracle, forged)
    else:
        own = world.send(oracle, forged)
    role = "responder" if as_initiator else "initiator"
    claimed_key = dataclasses.replace(claimed_key, d_id=world.corrupt(claimed))
    shared, _ = derive(params, claimed_key, x, forged, victim, own, role)
    binding = initiator_first(claimed, forged, victim, own, role)
    return oracle, session_key(params, shared, *binding)


@pytest.mark.parametrize("as_initiator", [False, True], ids=["responder", "initiator"])
def test_wpfs_corruption_after_an_active_attack_poisons(as_initiator):
    # weak PFS lifts the corruption ban after completion only where the
    # adversary was passive toward the oracle: here it sent the flow the
    # oracle received, so corrupting the claimed sender gives it the key,
    # and the test query must refuse
    for seed in range(8):
        world = make_basic_world(seed=f"active-{seed}", mode="wpfsbr")
        oracle, key = _impersonate_then_corrupt(
            world, "bob", "alice", as_initiator, random.Random(seed))
        assert oracle.completed and key == oracle.key, seed
        assert not world.fresh(oracle), seed
        with pytest.raises(TestRefusedError):
            world.test(oracle, seed % 2)


def test_wpfs_corruption_after_a_rerouted_flow_poisons():
    # the flow came from an oracle of the peer, but addressed to another
    # principal, so the adversary was not passive toward the receiver
    world = make_world(k_bits=16, seed="reroute", mode="wpfsbr",
                       principals=["alice", "bob", "carol"])
    flow = world.send(world.new_oracle("alice", "carol"), None)
    receiver = world.new_oracle("bob", "alice")
    world.send(receiver, flow)
    world.corrupt("alice")
    assert not world.fresh(receiver)


def test_freshness_is_monotone():
    # once lost, freshness never comes back under further queries
    world = make_basic_world()
    a, b = honest_pair(world)
    world.extract_query("alice")
    assert not world.fresh(a)
    honest_pair(world)
    world.corrupt("bob")
    world.reveal(b)
    assert not world.fresh(a)


def test_test_query_coins():
    world = make_basic_world()
    a, _ = honest_pair(world)
    real = world.test(a, 1)
    assert real == a.key
    world.rng.seed(1)
    fake = world.test(a, 0)
    assert fake != a.key and len(fake.key) == 32
    # deterministic under a seeded rng
    world.rng.seed(1)
    assert world.test(a, 0) == fake
    with pytest.raises(ValueError):
        world.test(a, 2)


def test_test_does_not_reveal():
    world = make_basic_world()
    a, _ = honest_pair(world)
    world.test(a, 1)
    world.test(a, 0)
    assert world.fresh(a)


def test_world_rejects_unknown_mode():
    with pytest.raises(ValueError):
        make_world(seed="x", mode="strong")


# reference partnering: BR matching as a comparison of ordered conversations,
# the test oracle for World's matching and fresh by binding.  The
# conversations come from the test's own record of every send, never from
# the World's state.


def record_sends(world):
    """Wrap world.send so that each send that returns is recorded, per
    oracle, as the pair (flow delivered, flow returned); the record, keyed
    by id(oracle), is returned."""
    sends, send = {}, world.send

    def recorded(oracle, flow):
        reply = send(oracle, flow)
        sends.setdefault(id(oracle), []).append((flow, reply))
        return reply

    world.send = recorded
    return sends


def reference_canonical(world, sends, oracle):
    """The oracle's conversation as the encodings of the flows it took and
    gave, in order.  An initiator gives x on activation and takes y; a
    responder takes x and gives y: both read (initiator flow, responder
    flow)."""
    return tuple(encode_point(world.params.group, msg.r)
                 for pair in sends.get(id(oracle), ()) for msg in pair if msg is not None)


def reference_matching(world, sends, first, second):
    if not (first.completed and second.completed):
        return False
    if first.role == second.role:
        return False
    if first.owner != second.peer or first.peer != second.owner:
        return False
    return reference_canonical(world, sends, first) == reference_canonical(world, sends, second)


def reference_passive(world, sends, oracle):
    """Whether some oracle of the peer, addressed to the owner in the other
    role, drew the flow that oracle received."""
    received = next(flow for flow, _ in sends[id(oracle)] if flow is not None)
    return any(
        other.owner == oracle.peer and other.peer == oracle.owner
        and other.role != oracle.role and other.own_msg == received
        for other in world.oracles
    )


def reference_fresh(world, sends, oracle):
    for identity in (oracle.owner, oracle.peer):
        if identity in world.extracted:
            return False
        when = world.corrupted_at.get(identity)
        if when is not None and (world.mode == "br" or when < oracle.completed_at
                                 or not reference_passive(world, sends, oracle)):
            return False
    if oracle.revealed:
        return False
    return not any(
        other is not oracle and other.revealed
        and reference_matching(world, sends, oracle, other)
        for other in world.oracles
    )


PEOPLE = ("alice", "bob", "carol")
STEPS = st.one_of(
    st.tuples(st.just("relay"), st.sampled_from(PEOPLE), st.sampled_from(PEOPLE)),
    st.tuples(st.just("open"), st.sampled_from(PEOPLE), st.sampled_from(PEOPLE)),
    # answer an open initiator from any responder, then maybe deliver
    st.tuples(st.just("answer"), st.integers(0, 7), st.sampled_from(PEOPLE),
              st.sampled_from(PEOPLE), st.booleans()),
    st.tuples(st.just("reveal"), st.integers(0, 31)),
    st.tuples(st.just("corrupt"), st.sampled_from(PEOPLE)),
    st.tuples(st.just("extract"), st.sampled_from(PEOPLE)),
)


@settings(max_examples=40, deadline=None)
# at k = 4 (q = 13) oracles often draw one point: 14 relays draw only 9
# distinct points, so every oracle that drew a point must count
@given(k_bits=st.sampled_from([16, 4]), mode=st.sampled_from(["br", "wpfsbr"]),
       steps=st.lists(STEPS, max_size=14))
# a revealed responder leaves its matching initiator not fresh, on every run
@example(k_bits=16, mode="br", steps=[("relay", "alice", "bob"), ("reveal", 1)])
# six relays at k = 4 draw a point twice, and a corruption after them
# keeps fresh only the oracles whose peer's oracle drew what they received
@example(k_bits=4, mode="wpfsbr", steps=[("relay", "alice", "bob")] * 6 + [("corrupt", "alice")])
def test_binding_partners_match_the_transcript_reference(k_bits, mode, steps):
    world = make_world(k_bits=k_bits, seed="partners", mode=mode, principals=PEOPLE)
    sends = record_sends(world)
    opened = []
    for step in steps:
        try:
            if step[0] == "relay":
                honest_pair(world, step[1], step[2])
            elif step[0] == "open":
                oracle = world.new_oracle(step[1], step[2])
                opened.append((oracle, world.send(oracle, None)))
            elif step[0] == "answer" and opened:
                initiator, flow = opened[step[1] % len(opened)]
                responder = world.new_oracle(step[2], step[3])
                reply = world.send(responder, flow)
                if step[4] and not (initiator.completed or initiator.aborted):
                    world.send(initiator, reply)
            elif step[0] == "reveal" and world.oracles:
                oracle = world.oracles[step[1] % len(world.oracles)]
                if oracle.completed:
                    world.reveal(oracle)
            elif step[0] == "corrupt":
                world.corrupt(step[1])
            elif step[0] == "extract":
                world.extract_query(step[1])
        except DegenerateExponentError:
            pass  # a vanishing exponent aborts one oracle, as documented
        for oracle in world.oracles:
            if oracle.completed:
                assert world.fresh(oracle) == reference_fresh(world, sends, oracle)
    for first in world.oracles:
        for second in world.oracles:
            assert world.matching(first, second) == reference_matching(
                world, sends, first, second)


# ---------------------------------------------------------------------------
# differential: a World that trusts the flows it emitted against one that
# checks every flow in full
# ---------------------------------------------------------------------------


class _ChecksEveryFlow(World):
    """A World that decodes every received flow and runs validate_flow_point
    on it, the points its own oracles drew included; fresh still reads the
    _drawn that its oracles fill.  emitted_checks counts the checks of
    drawn points."""

    emitted_checks = 0

    def _coerce_flow(self, flow):
        if isinstance(flow, (bytes, bytearray)):
            try:
                flow = FlowMessage(decode_point(self.params.group, bytes(flow)))
            except MalformedElementError as exc:
                raise InvalidFlowError(str(exc)) from exc
        self.emitted_checks += flow.r in self._drawn
        validate_flow_point(self.params, flow.r)
        return flow


DIFF_PARAMS, DIFF_MSK = setup(16, "differential")
DIFF_GROUP = DIFF_PARAMS.group
BASE_GT = pairing(DIFF_GROUP, DIFF_PARAMS.g, DIFF_PARAMS.g)
# every flow a World did not emit: REJECTED_FLOWS' bytes, the same faults
# as messages, and a valid subgroup point no oracle drew, in both forms
_ROGUE = ref.outside_point(DIFF_GROUP)
_FOREIGN = fixed_base_exp(DIFF_GROUP, DIFF_PARAMS.g, 12345)
FOREIGN_FLOWS = {
    **{name: make(DIFF_GROUP) for name, make in REJECTED_FLOWS.items()},
    "out-of-subgroup message": FlowMessage(_ROGUE),
    "identity message": FlowMessage(INFINITY),
    "off-curve message": FlowMessage(GElem(1, 1)),
    "foreign message": FlowMessage(_FOREIGN),
    "foreign bytes": encode_point(DIFF_GROUP, _FOREIGN),
}

PICK = st.integers(0, 15)
DIFF_STEPS = st.one_of(
    st.tuples(st.just("relay"), st.sampled_from(PEOPLE), st.sampled_from(PEOPLE)),
    st.tuples(st.just("open"), st.sampled_from(PEOPLE), st.sampled_from(PEOPLE)),
    # an emitted flow, as a message or as its bytes, to a new responder
    # (target None) or to any oracle: honest relays and reroutes alike
    st.tuples(st.just("deliver"), PICK, st.one_of(st.none(), PICK),
              st.sampled_from(PEOPLE), st.sampled_from(PEOPLE), st.booleans()),
    st.tuples(st.just("foreign"), st.sampled_from(sorted(FOREIGN_FLOWS)),
              st.one_of(st.none(), PICK), st.sampled_from(PEOPLE), st.sampled_from(PEOPLE)),
    st.tuples(st.just("reveal"), PICK),
    st.tuples(st.just("test"), PICK, st.sampled_from([0, 1])),
)


def _apply(world, step):
    """Run one step on world; its result, or None when it has no target."""
    oracles = world.oracles

    def target(pick, owner, peer):
        if pick is None:
            return world.new_oracle(owner, peer)
        return oracles[pick % len(oracles)] if oracles else None

    kind = step[0]
    if kind == "relay":
        return honest_pair(world, step[1], step[2])[0].key
    if kind == "open":
        return world.send(world.new_oracle(step[1], step[2]), None)
    if kind == "deliver":
        # an initiator emits its flow on activation, a responder as it completes
        emitted = [oracle.own_msg for oracle in oracles
                   if oracle.role == "initiator" or oracle.completed]
        oracle = target(step[2], step[3], step[4])
        if not emitted or oracle is None:
            return None
        msg = emitted[step[1] % len(emitted)]
        return world.send(oracle, encode_point(DIFF_GROUP, msg.r) if step[5] else msg)
    if kind == "foreign":
        oracle = target(step[2], step[3], step[4])
        return None if oracle is None else world.send(oracle, FOREIGN_FLOWS[step[1]])
    completed = [oracle for oracle in oracles if oracle.completed]
    if not completed:
        return None
    oracle = completed[step[1] % len(completed)]
    if kind == "reveal":
        return world.reveal(oracle)
    before = world.rng.getstate()
    key = world.test(oracle, step[2])
    if step[2] == 0:
        # the key of a uniform GT element drawn as e(g, g)^e, e from the rng
        draw = random.Random()
        draw.setstate(before)
        element = gt_exp(BASE_GT, draw.randrange(DIFF_GROUP.q))
        assert key == session_key(DIFF_PARAMS, SharedSecret(element), *oracle.binding)
    return key


def _outcome(world, step):
    try:
        result = ("ok", _apply(world, step))
    except IdakError as exc:
        result = ("error", type(exc))
    states = [(o.role, o.completed, o.aborted, o.key) for o in world.oracles]
    fresh = [world.fresh(o) for o in world.oracles if o.completed]
    return result, world.rng.getstate(), states, fresh


def _differential(seed, steps):
    """Run steps on a World and on a _ChecksEveryFlow, asserting equal
    outcomes after each step; return the _ChecksEveryFlow."""
    world = World(DIFF_PARAMS, DIFF_MSK, rng=random.Random(seed))
    reference = _ChecksEveryFlow(DIFF_PARAMS, DIFF_MSK, rng=random.Random(seed))
    for step in steps:
        assert _outcome(world, step) == _outcome(reference, step), step
    return reference


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.lists(DIFF_STEPS, max_size=24))
def test_a_world_that_trusts_its_emitted_flows_matches_one_that_checks_every_flow(seed, steps):
    _differential(seed, steps)


def test_the_reference_world_checks_the_flows_its_oracles_drew():
    # two relays deliver two drawn flows each, and a reroute one more
    steps = [("relay", "alice", "bob"), ("relay", "bob", "carol"),
             ("deliver", 0, None, "carol", "alice", True)]
    assert _differential(0, steps).emitted_checks == 5


def _derived_key(world, oracle, peer_msg, strategy):
    """oracle's session key, derived again from its ephemeral and flows."""
    shared, _ = derive(world.params, world.principals[oracle.owner], oracle.ephemeral,
                       oracle.own_msg, oracle.peer, peer_msg, oracle.role, strategy)
    return session_key(world.params, shared, *oracle.binding)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pi_variant=st.sampled_from(PiVariant),
       alice_first=st.lists(st.booleans(), min_size=1, max_size=3))
def test_a_world_relay_key_is_the_key_of_every_strategy(seed, pi_variant, alice_first):
    world = make_world(k_bits=16, seed=seed, pi_variant=pi_variant, principals=["alice", "bob"])
    for first in alice_first:
        try:
            a, b = honest_pair(world, *(("alice", "bob") if first else ("bob", "alice")))
        except DegenerateExponentError:
            continue  # a vanishing exponent aborts one oracle, as documented
        for strategy in STRATEGIES:
            assert _derived_key(world, a, b.own_msg, strategy) == a.key, strategy.label()
            assert _derived_key(world, b, a.own_msg, strategy) == b.key, strategy.label()
        assert a.key == b.key


# every point a World may receive, by kind; "emitted" stands for a flow
# another oracle of the world drew, and "malformed" is sent only as bytes
KEYING_POINTS = {
    "off-curve": GElem(1, 1),
    "identity": INFINITY,
    "order two": GElem(0, 0),
    "outside the subgroup": _ROGUE,
    "malformed": None,
    "foreign": _FOREIGN,
    "emitted": None,
}
KEYING_FLOWS = [(kind, form) for kind in KEYING_POINTS for form in ("bytes", "message")
                if (kind, form) != ("malformed", "message")]


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["br", "wpfsbr"]),
       as_initiator=st.booleans(), flow=st.sampled_from(KEYING_FLOWS),
       strategy=st.sampled_from(STRATEGIES))
def test_a_world_keys_only_points_of_the_subgroup(seed, mode, as_initiator, flow, strategy):
    # the world derives past derive's checks, so its boundary is the only
    # guard: a hostile flow aborts the oracle with no key and draws nothing,
    # and a valid one gives the key that the public derive gives
    world = World(DIFF_PARAMS, DIFF_MSK, mode=mode, rng=random.Random(seed))
    emitted = world.send(world.new_oracle("bob", "alice"), None).r
    oracle = world.new_oracle("alice", "bob")
    if as_initiator:
        world.send(oracle, None)
    kind, form = flow
    point = emitted if kind == "emitted" else KEYING_POINTS[kind]
    if kind == "malformed":
        sent = b"\xde\xad\xbe\xef"
    else:
        sent = encode_point(DIFF_GROUP, point) if form == "bytes" else FlowMessage(point)
    rng_state = world.rng.getstate()
    if kind not in ("foreign", "emitted"):
        with pytest.raises(InvalidFlowError):
            world.send(oracle, sent)
        assert oracle.aborted and oracle.key is None and not oracle.completed
        assert world.rng.getstate() == rng_state
        return

    def public_derive():
        return derive(world.params, world.principals[oracle.owner], oracle.ephemeral,
                      oracle.own_msg, oracle.peer, FlowMessage(point), oracle.role, strategy)

    try:
        world.send(oracle, sent)
    except DegenerateExponentError:
        with pytest.raises(DegenerateExponentError):
            public_derive()
        return
    shared, _ = public_derive()
    assert oracle.key == session_key(world.params, shared, *oracle.binding)


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------


def test_readme_scenario_example_passes():
    text = README.read_text()
    block = text[text.index('```\n{"config"') + 4 :]
    lines = block[: block.index("```")].splitlines()
    assert any(line.startswith('{"assert"') for line in lines)
    report = run_scenario(lines)
    assert report["ok"], report["failures"]


@pytest.mark.parametrize(
    "name",
    [
        "honest_run.jsonl",
        "rerouted_responder.jsonl",
        "freshness_gates.jsonl",
        "wpfs_corrupt_after.jsonl",
        "br_corrupt_after.jsonl",
        "uks_rejected.jsonl",
    ],
)
def test_bundled_scenarios(name):
    lines = (SCENARIO_DIR / name).read_text().splitlines()
    report = run_scenario(lines)
    assert report["ok"], report["failures"]


def test_scenario_replay_is_byte_identical():
    lines = (SCENARIO_DIR / "honest_run.jsonl").read_text().splitlines()
    first = json.dumps(run_scenario(lines), sort_keys=True)
    second = json.dumps(run_scenario(lines), sort_keys=True)
    assert first == second


def test_scenario_collects_failed_expectations():
    lines = [
        '{"config": {"k_bits": 16, "seed": "f"}}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null, "expect_error": "no-key"}',
        '{"assert": "completed", "oracle": "A", "expect": true}',
    ]
    report = run_scenario(lines)
    assert not report["ok"]
    assert len(report["failures"]) == 2


def test_scenario_rejects_bad_files():
    for script in [
        "not json",
        '{"q": "reveal", "oracle": "nope"}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": "@B.out"}',
        '{"note": "neither query nor assertion"}',
        "5",
        '["q"]',
        '{"config": 5}',
        '{"config": {"k_bits": 99999}}',
        '{"config": {"k_bits": "16"}}',
        '{"config": {"mode": "zz"}}',
        '{"config": {"pi": "zz"}}',
        '{"config": {"principals": ["alice", 5]}}',
        '{"q": "send"}',
        '{"q": "send", "oracle": "A", "i": ["x"], "j": "b", "x": null}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": 5}',
        '{"q": "corrupt", "i": null}',
        '{"q": "corrupt", "i": ""}',
        # an oracle A exists, so only the coin can be at fault
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"q": "test", "oracle": "A", "coin": true}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"q": "test", "oracle": "A", "coin": 2}',
        '{"q": "send", "oracle": "A", "i": "", "j": "b", "x": null}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "", "x": null}',
        '{"q": "extract", "id": ""}',
        # i and j name an oracle only on the send that creates it
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"q": "send", "oracle": "A", "i": "mallory", "j": "carol", "x": null}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"q": "send", "oracle": "A", "j": "b", "x": null}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"config": {"k_bits": 16}}',
        # no query has made the oracle an assertion-only prefix names
        '{"assert": "completed", "oracle": "A"}\n{"config": {"k_bits": 16}}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}\n'
        '{"q": "send", "oracle": "B", "i": "b", "j": "a", "x": "@A.in"}',
        '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": "zz"}',
        '{"assert": "fresh"}',
        '{"assert": "completed", "oracle": "A", "expect": "yes"}',
        "[" * 10**5,
    ]:
        with pytest.raises(ScenarioError):
            run_scenario(script.split("\n"))


SEND_A = '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": null}'


# each ScenarioError message once: the lines that set it up, the faulty
# line, and its message without the line prefix
@pytest.mark.parametrize("setup, faulty, message", [
    ([], "not json", "bad JSON: Expecting value: line 1 column 1 (char 0)"),
    ([], "5", "not a JSON object"),
    ([SEND_A], '{"config": {"k_bits": 16}}', "config after queries"),
    ([], '{"note": 1}', "neither query nor assertion"),
    (['{"config": {"mode": "zz"}}'], '{"q": "extract", "id": "a"}',
     "bad config: mode must be one of ('br', 'wpfsbr'), got 'zz'"),
    ([], '{"q": "send"}', "missing field 'oracle'"),
    ([], '{"assert": "completed", "oracle": "A", "expect": "yes"}',
     "field 'expect' has the wrong JSON type"),
    ([], '{"q": "corrupt", "i": ""}', "field 'i' names nobody"),
    ([], '{"config": 5}', "config is not a JSON object"),
    ([], '{"config": {"principals": ["alice", 5]}}', "principals must be strings"),
    ([], '{"q": "reveal", "oracle": "nope"}', "unknown oracle label 'nope'"),
    ([SEND_A], '{"q": "send", "oracle": "B", "i": "b", "j": "a", "x": "@A.in"}',
     "unsupported back-reference '@A.in'"),
    ([], '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": "@B.out"}',
     "back-reference to 'B', which no query has defined"),
    ([], '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": "zz"}',
     "flow is neither reference nor hex: 'zz'"),
    ([], '{"q": "send", "oracle": "A", "i": "a", "j": "b", "x": 5}', "bad flow value 5"),
    ([SEND_A], '{"q": "send", "oracle": "A", "j": "b", "x": null}',
     "i and j belong on 'A''s first send"),
    ([SEND_A], '{"q": "test", "oracle": "A", "coin": 2}', "coin must be 0 or 1"),
    ([], '{"q": "fly"}', "unknown query 'fly'"),
    ([], '{"assert": "flies"}', "unknown assertion 'flies'"),
])
def test_every_scenario_error_names_its_line(setup, faulty, message):
    # a blank line and a comment count as lines too
    lines = ["", "# the faulty line is the last", *setup, faulty]
    with pytest.raises(ScenarioError) as raised:
        run_scenario(lines)
    assert str(raised.value) == f"line {len(lines)}: {message}"
    # a bad JSON line keeps its decode error at the end of the chain of causes
    cause = raised.value
    while cause.__cause__ is not None:
        cause = cause.__cause__
    assert isinstance(cause, json.JSONDecodeError) == message.startswith("bad JSON")


def test_a_file_of_config_lines_alone_reports_the_world_they_configure():
    lines = [
        "# no query and no assertion: the world is built at the end of the file",
        '{"config": {"k_bits": 12, "seed": "only-config"}}',
        "",
        '{"config": {"mode": "wpfsbr"}}',
    ]
    group = make_world(k_bits=12, seed="only-config").params.group
    assert group.q.bit_length() == 12
    assert run_scenario(lines) == {
        "failures": [], "log": [], "queries": 0, "assertions": 0,
        "mode": "wpfsbr", "params": group._asdict(), "ok": True,
    }
    # the caller's values still win over the config lines
    assert run_scenario(lines, mode="br")["mode"] == "br"


def test_the_world_is_built_at_the_first_assertion():
    # before the assertion reads its oracle, so a bad config is its error
    with pytest.raises(ScenarioError, match="bad config"):
        run_scenario(['{"config": {"mode": "zz"}}', '{"assert": "completed", "oracle": "A"}'])


def test_an_error_without_a_scenario_name_is_named_by_its_class():
    report = run_scenario(['{"q": "extract", "id": "\\udcff"}'])
    assert report["log"][0]["error"] == "InvalidIdentityError"
    assert report["failures"][0]["reason"].startswith("unexpected error InvalidIdentityError: ")


EXPECT_SCRIPT = [
    {"config": {"k_bits": 16, "seed": "expect", "principals": ["alice", "bob"]}},
    {"q": "send", "oracle": "A1", "i": "alice", "j": "bob", "x": None},
    {"q": "send", "oracle": "B1", "i": "bob", "j": "alice", "x": "@A1.out"},
    {"q": "send", "oracle": "A1", "x": "@B1.out"},
    {"q": "test", "oracle": "A1", "coin": 1},
    {"q": "send", "oracle": "A2", "i": "alice", "j": "bob", "x": None},
]


@pytest.mark.parametrize("assertion, ok", [
    ({"assert": "keys-equal", "a": "A1", "b": "B1"}, True),
    ({"assert": "keys-equal", "a": "A1", "b": "B1", "expect": False}, False),
    ({"assert": "keys-differ", "a": "A1", "b": "B1", "expect": False}, True),
    ({"assert": "test-real-key", "oracle": "A1", "expect": False}, False),
    ({"assert": "test-random-key", "oracle": "A1", "expect": False}, True),
    ({"assert": "matching", "a": "A1", "b": "B1", "expect": False}, False),
    ({"assert": "completed", "oracle": "A2", "expect": False}, True),
    # nothing to compare fails whatever expect says: B1 answered no test, A2 holds no key
    ({"assert": "test-real-key", "oracle": "B1", "expect": False}, False),
    ({"assert": "test-random-key", "oracle": "B1", "expect": False}, False),
    ({"assert": "keys-equal", "a": "A2", "b": "B1", "expect": False}, False),
    ({"assert": "keys-differ", "a": "A2", "b": "B1", "expect": False}, False),
    ({"assert": "fresh", "oracle": "A2", "expect": False}, False),
], ids=lambda value: json.dumps(value) if isinstance(value, dict) else str(value))
def test_every_assertion_is_compared_with_expect(assertion, ok):
    report = run_scenario([json.dumps(line) for line in [*EXPECT_SCRIPT, assertion]])
    assert [record["ok"] for record in report["log"]] == [True] * 5 + [ok]
    assert report["ok"] == ok


NO_FLOW_SCRIPT = [
    {"config": {"k_bits": 16, "seed": "no-flow", "principals": ["alice", "bob"]}},
    {"q": "send", "oracle": "A1", "i": "alice", "j": "bob", "x": None},
    {"q": "send", "oracle": "B1", "i": "bob", "j": "alice", "x": "00",
     "expect_error": "invalid-flow"},
    {"q": "send", "oracle": "A1", "x": "@B1.out"},
    {"q": "send", "oracle": "B2", "i": "bob", "j": "alice", "x": "@A1.out"},
    {"q": "send", "oracle": "A1", "x": "@B2.out"},
    {"assert": "keys-equal", "a": "A1", "b": "B2"},
    {"assert": "keys-equal", "a": "A1", "b": "B1"},
    {"assert": "keys-differ", "a": "B1", "b": "A1"},
]


def test_back_reference_to_an_oracle_without_a_flow_fails_its_query():
    report = run_scenario([json.dumps(line) for line in NO_FLOW_SCRIPT])
    by_line = {record["line"]: record for record in report["log"]}
    assert by_line[4] == {"line": 4, "q": "send", "ok": False, "result": None, "error": "no-flow"}
    # the failed query was not sent, so A1 still completes with B2 on line 6
    assert by_line[6]["ok"] and by_line[7]["ok"]
    assert by_line[8]["error"] == by_line[9]["error"] == "no-key"
    assert [failure["line"] for failure in report["failures"]] == [4, 8, 9]
    assert "no-flow" in report["failures"][0]["reason"]


def test_no_flow_can_be_the_expected_error():
    script = json.loads(json.dumps(NO_FLOW_SCRIPT[:7]))
    script[3]["expect_error"] = "no-flow"
    assert run_scenario([json.dumps(line) for line in script])["ok"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)

FUZZED_SCRIPT = [
    {"config": {"k_bits": 16, "seed": "fuzz", "mode": "br", "pi": "hash-half",
                "principals": ["alice", "bob"]}},
    {"q": "send", "oracle": "A1", "i": "alice", "j": "bob", "x": None},
    {"q": "send", "oracle": "B1", "i": "bob", "j": "alice", "x": "@A1.out"},
    {"q": "send", "oracle": "A1", "x": "@B1.out"},
    {"q": "test", "oracle": "A1", "coin": 0},
    {"q": "reveal", "oracle": "B1", "expect_error": None},
    {"q": "corrupt", "i": "alice"},
    {"q": "extract", "id": "carol"},
    {"assert": "keys-equal", "a": "A1", "b": "B1"},
    {"assert": "fresh", "oracle": "A1", "expect": False},
    {"assert": "test-random-key", "oracle": "A1"},
]

# the JSON type each field must have
FIELD_TYPES = {
    "config": dict, "k_bits": int, "seed": (str, int), "mode": str, "pi": str, "principals": list,
    "q": str, "assert": str, "oracle": str, "i": str, "j": str, "id": str, "a": str,
    "b": str, "x": (str, type(None)), "coin": int, "expect_error": (str, type(None)),
    "expect": bool,
}


def _has_type(value, name):
    kind = FIELD_TYPES[name]
    if isinstance(value, bool) and kind is not bool:
        return False
    if name == "principals" and isinstance(value, list):
        return all(isinstance(item, str) for item in value)
    return isinstance(value, kind)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_scenario_fields_of_any_json_value_fail_only_as_scenario_errors(data, value):
    script = json.loads(json.dumps(FUZZED_SCRIPT))
    number = data.draw(st.integers(0, len(script) - 1))
    entry = script[number]
    if "config" in entry and data.draw(st.booleans()):
        entry = entry["config"]
    name = data.draw(st.sampled_from(sorted(entry)))
    entry[name] = value
    try:
        report = run_scenario([json.dumps(line) for line in script])
    except ScenarioError:
        return
    assert _has_type(value, name), f"{name}={value!r} ran as {report['failures']}"


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES, number=st.integers(0, len(FUZZED_SCRIPT)))
def test_scenario_lines_of_any_json_value_fail_only_as_scenario_errors(value, number):
    lines = [json.dumps(line) for line in FUZZED_SCRIPT]
    lines.insert(number, json.dumps(value))
    try:
        run_scenario(lines)
    except ScenarioError:
        return
    assert isinstance(value, dict)


def test_scenario_mode_flag_defaults():
    lines = [
        '{"q": "send", "oracle": "A1", "i": "alice", "j": "bob", "x": null}',
        '{"q": "send", "oracle": "B1", "i": "bob", "j": "alice", "x": "@A1.out"}',
        '{"q": "send", "oracle": "A1", "x": "@B1.out"}',
        '{"q": "corrupt", "i": "alice"}',
        '{"assert": "fresh", "oracle": "A1", "expect": false}',
    ]
    assert run_scenario(lines, seed="m", mode="br")["ok"]
    lines[-1] = '{"assert": "fresh", "oracle": "A1", "expect": true}'
    assert run_scenario(lines, seed="m", mode="wpfsbr")["ok"]
