"""Session-oracle world for driving the key agreement under attack.

The world owns the authority state and a set of principals.  An adversary
schedules everything: it activates oracles (send), steals session keys
(reveal), long-term keys (corrupt), or arbitrary identity keys (extract),
and finally asks one test query whose answer is either the real session
key or a key derived from a uniform GT element.  An oracle is a single
party's view of a single protocol run; matching oracles are the two ends
of one honest exchange.

Freshness is what makes a test query meaningful.  In "br" mode a corrupt
query on either endpoint identity poisons the oracle no matter when it
happened.  In "wpfsbr" mode a corruption before the oracle completed
poisons it, and so does one after, unless the flow the oracle received
was emitted by an oracle of its peer, addressed to its owner, in the
other role.  That is weak forward secrecy: the ban lifts after
completion only where the adversary was passive toward the oracle.  An
adversary that sends its own g_A^x to B as A's flow and corrupts A once
B completes computes B's key, an attack that beats every two-message
implicitly authenticated protocol (Krawczyk, HMQV, CRYPTO 2005).
Extract queries on either endpoint identity and reveal queries on the
oracle or on a matching oracle always poison it.

A scenario file (JSON lines) scripts one adversary schedule together
with embedded assertions, so attack transcripts can live as fixtures.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass

from .bilinear import GElem, GTElem, decode_point, encode_point, gt_exp, identity_bytes, pairing
from .errors import (
    DegenerateExponentError,
    IdakError,
    InvalidFlowError,
    MalformedElementError,
    NoFlowError,
    NoKeyError,
    NoSuchPrincipalError,
    NotTestableError,
    ScenarioError,
    StaleOracleError,
    TestRefusedError,
)
from .protocol import (
    DeriveStrategy,
    FlowMessage,
    IdentityKey,
    PiVariant,
    SessionKey,
    SharedSecret,
    SystemParams,
    _derive_trusted,
    extract,
    initiate,
    initiator_first,
    seeded_rng,
    session_key,
    setup,
    validate_flow_point,
)

MODES = ("br", "wpfsbr")

# c2-nopre: a relay pairs against its owner's cached d_id lines (see World)
_RELAY_STRATEGY = DeriveStrategy(2, False)


@dataclass
class SessionOracle:
    """One party's view of one protocol run: oracle (owner, peer, index),
    with owner and peer as identity bytes.

    own_msg is the flow the oracle drew.  An initiator emits it on
    activation, a responder as it completes; a responder that aborts has
    drawn it but emitted nothing.  binding, set at completion, is the
    oracle's conversation, which matching, fresh and the session key read.
    """

    owner: bytes
    peer: bytes
    index: int
    role: str | None = None
    ephemeral: int | None = None
    own_msg: FlowMessage | None = None
    key: SessionKey | None = None
    binding: tuple | None = None  # (init_id, resp_id, init_msg, resp_msg)
    completed_at: int | None = None
    revealed: bool = False
    aborted: bool = False

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    def name(self) -> str:
        owner, peer = (who.decode("utf-8", "backslashreplace") for who in (self.owner, self.peer))
        return f"({owner},{peer})#{self.index}"


class World:
    """Authority state, principals, oracles, and the adversary queries.

    A principal is its identity_bytes, so "alice" and b"alice" are one.
    Its key is extracted under the master secret alpha.  Every draw comes
    from rng, which the caller passes; make_world passes a seeded one.

    The world checks a received flow only where it enters, and then
    derives past derive's checks (protocol._derive_trusted).  Each flow its
    oracles draw, as initiator or responder, is g_id^x with 1 <= x < q: a
    subgroup point other than the identity, whose check could never fail,
    so the world keeps those points and never checks them.  Any other
    flow, as bytes or as a FlowMessage, passes validate_flow_point before a
    responder draws y (see _coerce_flow).  So every point that a relay
    derives on lies in the subgroup and is not the identity, and a check
    at each derive would only repeat the one at the boundary.

    _drawn maps each flow point the oracles drew to the oracles that drew
    it, in draw order: at small k two oracles can draw one point, so each
    point keeps a list.  fresh reads both partner rules from the drawers
    of the flow an oracle received: the peer's oracle that sent it, and
    any revealed matching oracle.

    A relay derives by choice 2 (c2-nopre, as initiate computes each
    oracle's flow).  The principals live as long as the world, so the
    Miller lines of each d_id are cached once, and a derive only evaluates
    them at the blend (bilinear._fixed_pairing) and raises the value to
    x + s inside the same final exponentiation, where c1-nopre walks
    d_id's window table and then runs a full Miller loop.  Every strategy
    derives the same key.  The points, GT elements and flows a relay
    builds and hashes are NamedTuples (see bilinear), built, hashed and
    compared in C.
    """

    def __init__(
        self,
        params: SystemParams,
        alpha: int,
        mode: str = "br",
        *,
        rng: random.Random,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.params = params
        self.alpha = alpha
        self.mode = mode
        self.rng = rng
        self.principals: dict[bytes, IdentityKey] = {}
        self.oracles: list[SessionOracle] = []
        self._last_index: dict[tuple[bytes, bytes], int] = {}
        self.corrupted_at: dict[bytes, int] = {}
        self.extracted: set[bytes] = set()
        self.clock = 0
        # every flow point this world's oracles drew, with its drawers in order
        self._drawn: dict[GElem, list[SessionOracle]] = {}

    # -- state management ---------------------------------------------------

    def add_principal(self, identity) -> IdentityKey:
        ident = identity_bytes(identity)
        if ident not in self.principals:
            self.principals[ident] = extract(self.params, self.alpha, ident)
        return self.principals[ident]

    def new_oracle(self, owner, peer) -> SessionOracle:
        """Fresh oracle for owner talking to peer; the world assigns the index."""
        owner = self.add_principal(owner).identity
        peer = self.add_principal(peer).identity
        index = self._last_index.get((owner, peer), 0) + 1
        self._last_index[owner, peer] = index
        oracle = SessionOracle(owner=owner, peer=peer, index=index)
        self.oracles.append(oracle)
        return oracle

    # -- adversary queries --------------------------------------------------

    def send(self, oracle: SessionOracle, flow) -> FlowMessage | None:
        """Deliver a flow (or None to activate an initiator).

        A responder completes on its first activation and emits its flow.
        An initiator emits its flow on activation and completes when the
        reply arrives, emitting nothing.  A bad flow, or a combined exponent
        that vanishes mod q, aborts the oracle.
        """
        self.clock += 1
        if oracle.aborted or oracle.completed:
            raise StaleOracleError(f"oracle {oracle.name()} is no longer active")
        own_key = self.principals[oracle.owner]
        if flow is None:
            if oracle.role is not None:
                raise StaleOracleError(f"oracle {oracle.name()} was already activated")
            oracle.role = "initiator"
            self._initiate(oracle, own_key)
            return oracle.own_msg

        try:
            msg_in = self._coerce_flow(flow)
            if oracle.role is None:
                oracle.role = "responder"
                self._initiate(oracle, own_key)
            shared = _derive_trusted(
                self.params, own_key, oracle.ephemeral, oracle.own_msg.r,
                self.principals[oracle.peer].g_id, msg_in.r, _RELAY_STRATEGY,
            )
        except (InvalidFlowError, DegenerateExponentError):
            oracle.aborted = True
            raise
        oracle.binding = initiator_first(
            oracle.owner, oracle.own_msg, oracle.peer, msg_in, oracle.role
        )
        oracle.key = session_key(self.params, shared, *oracle.binding)
        oracle.completed_at = self.clock
        # a responder answers as it completes; an initiator completes silently
        return oracle.own_msg if oracle.role == "responder" else None

    def reveal(self, oracle: SessionOracle) -> SessionKey:
        self.clock += 1
        if not oracle.completed:
            raise NoKeyError(f"oracle {oracle.name()} holds no session key")
        oracle.revealed = True
        return oracle.key

    def corrupt(self, identity):
        """Hand out a principal's long-term identity key."""
        self.clock += 1
        ident = identity_bytes(identity)
        if ident not in self.principals:
            raise NoSuchPrincipalError(f"unknown principal {identity!r}")
        self.corrupted_at.setdefault(ident, self.clock)
        return self.principals[ident].d_id

    def extract_query(self, identity):
        """Adversary-chosen identity key; poisons that identity for tests."""
        self.clock += 1
        ident = identity_bytes(identity)
        self.extracted.add(ident)
        return (self.principals.get(ident) or extract(self.params, self.alpha, ident)).d_id

    def matching(self, first: SessionOracle, second: SessionOracle) -> bool:
        """Both completed, complementary roles, and equal bindings: the same
        endpoints in the same roles and the same two flows in order."""
        return (
            first.completed
            and second.completed
            and first.role != second.role
            and first.binding == second.binding
        )

    def fresh(self, oracle: SessionOracle) -> bool:
        """Whether a test query on this oracle would be meaningful."""
        if not oracle.completed:
            raise NotTestableError(f"oracle {oracle.name()} has not completed")
        # the oracles that drew the flow this one received: every matching
        # oracle among them, as equal bindings hold each other's flows
        drawers = self._drawn.get(oracle.binding[3 if oracle.role == "initiator" else 2].r, ())
        for identity in (oracle.owner, oracle.peer):
            if identity in self.extracted:
                return False
            when = self.corrupted_at.get(identity)
            if when is not None:
                if self.mode == "br" or when < oracle.completed_at:
                    return False
                # wpfsbr, corrupted after completion: fresh only if the
                # adversary was passive toward this oracle
                if not any(
                    sender.owner == oracle.peer and sender.peer == oracle.owner
                    and sender.role != oracle.role for sender in drawers
                ):
                    return False
        if oracle.revealed:
            return False
        for other in drawers:
            if other.revealed and self.matching(oracle, other):
                return False
        return True

    def test(self, oracle: SessionOracle, coin: int):
        """Real key on coin=1, transcript-bound KDF of a uniform GT on coin=0."""
        self.clock += 1
        if coin not in (0, 1):
            raise ValueError(f"coin must be 0 or 1, got {coin!r}")
        if not self.fresh(oracle):
            raise TestRefusedError(f"oracle {oracle.name()} is not fresh")
        if coin == 1:
            return oracle.key
        exponent = self.rng.randrange(self.params.group.q)
        element = gt_exp(self._base_gt, exponent)
        return session_key(self.params, SharedSecret(element), *oracle.binding)

    # -- internals ----------------------------------------------------------

    @functools.cached_property
    def _base_gt(self) -> GTElem:
        """e(g, g), paired on the first coin-0 test and kept."""
        return pairing(self.params.group, self.params.g, self.params.g)

    def _initiate(self, oracle: SessionOracle, own_key: IdentityKey) -> None:
        """Draw the oracle's ephemeral and flow, and remember the flow."""
        oracle.ephemeral, oracle.own_msg = initiate(self.params, own_key, self.rng)
        self._drawn.setdefault(oracle.own_msg.r, []).append(oracle)

    def _coerce_flow(self, flow) -> FlowMessage:
        """Decode and check a received flow before the responder draws y:
        the world's trust boundary, the one check between a flow and the
        key derived from it.

        A point that this world's oracles drew passes unchecked: it is
        g_id^x with 1 <= x < q, so its check could never fail.  Any other
        point, as bytes or as a FlowMessage, passes validate_flow_point
        here, as nothing after it checks the point again.  Either way the
        flow comes back as it was trusted or decoded; every reader compares
        flows by value.  A rejected flow so draws nothing from self.rng,
        and every later draw, and every scenario replay, stays the same.
        """
        if isinstance(flow, (bytes, bytearray)):
            try:
                flow = FlowMessage(r=decode_point(self.params.group, bytes(flow)))
            except MalformedElementError as exc:
                raise InvalidFlowError(f"malformed flow point: {exc}") from exc
        if flow.r not in self._drawn:
            validate_flow_point(self.params, flow.r)
        return flow


def make_world(
    k_bits: int = 16,
    seed=None,
    mode: str = "br",
    pi_variant: PiVariant = PiVariant.HASH_HALF,
    principals=(),
) -> World:
    """Convenience constructor wiring setup() into a deterministic world."""
    params, alpha = setup(k_bits, seed, pi_variant)
    world = World(params, alpha, mode=mode, rng=seeded_rng("idak-world", seed))
    for identity in principals:
        world.add_principal(identity)
    return world


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------

_ERROR_NAMES = {
    InvalidFlowError: "invalid-flow",
    DegenerateExponentError: "degenerate-exponent",
    StaleOracleError: "stale-oracle",
    NoKeyError: "no-key",
    NoFlowError: "no-flow",
    NoSuchPrincipalError: "no-such-principal",
    NotTestableError: "not-testable",
    TestRefusedError: "test-refused",
}


def _error_name(exc: Exception) -> str:
    return _ERROR_NAMES.get(type(exc), type(exc).__name__)


def run_scenario(lines, k_bits: int | None = None, seed=None, mode: str | None = None) -> dict:
    """Execute a JSON-lines scenario and return a replayable report.

    Each line is a query {"q": ...}, an {"assert": ...}, or a config line
    {"config": ...}.  Any number of config lines may come before the first
    query or assertion, each merged over the ones before it; a config line
    after a query or assertion raises ScenarioError.  The world is built
    once, at the first query or assertion or at the end of a file that
    has neither, from the config read so far over the defaults (k_bits
    16, seed "scenario", mode "br").  k_bits, seed and mode, when not
    None, win over both the config lines and the defaults.  An integer
    seed, from either, stands for its decimal text, as `idak scenario
    --seed` gives it.  Flow arguments are null for an initiator
    activation, "@LABEL.out" for another oracle's emitted flow, or hex
    bytes of a point encoding.  A send names its oracle's "i" and "j" on
    the line that creates it and on no later one.  Queries may carry
    "expect_error", the error they must fail with, and assertions
    "expect" (default true), the outcome they must have.  Failures are
    collected, not raised, and these fail whatever "expect" says: a
    back-reference to an oracle that emitted no flow fails its query
    ("no-flow") without sending it, keys-equal or keys-differ on an
    oracle without a key fails ("no-key"), fresh on one that has not
    completed ("not-testable"), and test-real-key or test-random-key
    before a test query on its oracle answered.  A malformed line, a
    field of the wrong type, an empty name, and i or j on a later send
    raise ScenarioError.  Every ScenarioError starts "line N: ", N the
    line being handled, save a bad config in a file with no query or
    assertion, whose world is built after its last line.
    """
    given = {"k_bits": k_bits, "seed": seed, "mode": mode}
    overrides = {name: value for name, value in given.items() if value is not None}
    config, world, oracles, tested = {}, None, {}, {}
    report = {"failures": [], "log": [], "queries": 0, "assertions": 0}
    for number, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        try:
            try:
                entry = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                raise ScenarioError(f"bad JSON: {exc}") from exc
            if not isinstance(entry, dict):
                raise ScenarioError("not a JSON object")
            if "config" in entry:
                if world is not None:
                    raise ScenarioError("config after queries")
                config.update(_config(entry["config"]))
                continue
            if "q" not in entry and "assert" not in entry:
                raise ScenarioError("neither query nor assertion")
            world = world or _scenario_world({**config, **overrides})
            if "q" in entry:
                report["queries"] += 1
                _run_query(world, oracles, tested, entry, number, report)
            else:
                report["assertions"] += 1
                _run_assert(world, oracles, tested, entry, number, report)
        except ScenarioError as exc:
            # the one place a scenario error names its line
            raise ScenarioError(f"line {number}: {exc}") from exc
    # a file of config lines alone reports the world they configure
    world = world or _scenario_world({**config, **overrides})
    report["mode"] = world.mode
    report["params"] = world.params.group._asdict()
    report["ok"] = not report["failures"]
    return report


def _scenario_world(cfg: dict) -> World:
    """The World that a scenario's merged config describes."""
    try:
        return make_world(
            k_bits=cfg.get("k_bits", 16),
            seed=str(cfg.get("seed", "scenario")),
            mode=cfg.get("mode", "br"),
            pi_variant=PiVariant(cfg.get("pi", "hash-half")),
            principals=cfg.get("principals", ()),
        )
    except (ValueError, IdakError) as exc:
        raise ScenarioError(f"bad config: {exc}") from exc


_REQUIRED = object()

# the JSON type of each config key the world is built from
_CONFIG_TYPES = {"k_bits": int, "seed": (str, int), "mode": str, "pi": str, "principals": list}


def _field(entry: dict, name: str, kind, default=_REQUIRED):
    """entry[name] if it has the JSON type kind; default if it is absent."""
    if name not in entry:
        if default is _REQUIRED:
            raise ScenarioError(f"missing field {name!r}")
        return default
    value = entry[name]
    # JSON true and false are not numbers, though Python's bool is an int
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ScenarioError(f"field {name!r} has the wrong JSON type")
    return value


def _name(entry: dict, name: str) -> str:
    """The principal named by entry[name], which must be a non-empty string."""
    value = _field(entry, name, str)
    if not value:
        raise ScenarioError(f"field {name!r} names nobody")
    return value


def _config(config) -> dict:
    if not isinstance(config, dict):
        raise ScenarioError("config is not a JSON object")
    for name, kind in _CONFIG_TYPES.items():
        _field(config, name, kind, default=None)
    if not all(isinstance(name, str) for name in config.get("principals", ())):
        raise ScenarioError("principals must be strings")
    return config


def _oracle(oracles: dict, entry: dict, name: str) -> SessionOracle:
    """The oracle whose label entry[name] holds, which a query has created."""
    label = _field(entry, name, str)
    if label not in oracles:
        raise ScenarioError(f"unknown oracle label {label!r}")
    return oracles[label]


def _resolve_flow(oracles: dict, raw):
    if raw is None:
        return None
    if isinstance(raw, str) and raw.startswith("@"):
        label, _, field_name = raw[1:].partition(".")
        if field_name != "out":
            raise ScenarioError(f"unsupported back-reference {raw!r}")
        if label not in oracles:
            raise ScenarioError(f"back-reference to {label!r}, which no query has defined")
        oracle = oracles[label]
        # an initiator emits on activation, a responder as it completes
        if oracle.role == "initiator" or oracle.completed:
            return oracle.own_msg
        raise NoFlowError(f"oracle {label!r} has emitted no flow")
    if isinstance(raw, str):
        try:
            return bytes.fromhex(raw)
        except ValueError as exc:
            raise ScenarioError(f"flow is neither reference nor hex: {raw!r}") from exc
    raise ScenarioError(f"bad flow value {raw!r}")


def _run_query(world: World, oracles: dict, tested: dict, entry: dict, number: int, report: dict):
    expect_error = _field(entry, "expect_error", (str, type(None)), default=None)
    record = {"line": number, "q": entry["q"], "ok": True, "result": None}
    try:
        kind = entry["q"]
        if kind == "send":
            label = _field(entry, "oracle", str)
            if label not in oracles:
                oracles[label] = world.new_oracle(_name(entry, "i"), _name(entry, "j"))
            elif "i" in entry or "j" in entry:
                raise ScenarioError(f"i and j belong on {label!r}'s first send")
            out = world.send(oracles[label], _resolve_flow(oracles, entry.get("x")))
            if out is not None:
                record["result"] = encode_point(world.params.group, out.r).hex()
        elif kind == "reveal":
            record["result"] = world.reveal(_oracle(oracles, entry, "oracle")).key.hex()
        elif kind in ("corrupt", "extract"):
            name = _name(entry, "i" if kind == "corrupt" else "id")
            point = world.corrupt(name) if kind == "corrupt" else world.extract_query(name)
            record["result"] = encode_point(world.params.group, point).hex()
        elif kind == "test":
            label = _field(entry, "oracle", str)
            coin = _field(entry, "coin", int)
            if coin not in (0, 1):
                raise ScenarioError("coin must be 0 or 1")
            tested[label] = world.test(_oracle(oracles, entry, "oracle"), coin)
            record["result"] = tested[label].key.hex()
        else:
            raise ScenarioError(f"unknown query {kind!r}")
        if expect_error is not None:
            _fail(report, record, f"expected {expect_error}, query succeeded")
    except ScenarioError:
        raise
    except Exception as exc:  # noqa: BLE001 - adversary queries fail by contract
        name = _error_name(exc)
        record["error"] = name
        if expect_error != name:
            _fail(report, record, f"unexpected error {name}: {exc}")
    report["log"].append(record)


def _run_assert(world: World, oracles: dict, tested: dict, entry: dict, number: int, report: dict):
    kind = entry["assert"]
    record = {"line": number, "assert": kind, "ok": True}
    expect = _field(entry, "expect", bool, default=True)
    outcome = None  # None when there is nothing to compare, a failure whatever expect says
    try:
        if kind in ("keys-equal", "keys-differ"):
            key_a, key_b = (_oracle(oracles, entry, name).key for name in "ab")
            if key_a is None or key_b is None:
                raise NoKeyError("oracle without key")
            outcome = (key_a == key_b) == (kind == "keys-equal")
        elif kind == "matching":
            outcome = world.matching(*(_oracle(oracles, entry, name) for name in "ab"))
        elif kind == "fresh":
            outcome = world.fresh(_oracle(oracles, entry, "oracle"))
        elif kind == "completed":
            outcome = _oracle(oracles, entry, "oracle").completed
        elif kind in ("test-real-key", "test-random-key"):
            key = _oracle(oracles, entry, "oracle").key
            result = tested.get(entry["oracle"])
            # both need a test query that answered; None == None proves nothing
            outcome = None if result is None else (result == key) == (kind == "test-real-key")
        else:
            raise ScenarioError(f"unknown assertion {kind!r}")
    except ScenarioError:
        raise
    except Exception as exc:  # noqa: BLE001
        record["error"] = _error_name(exc)
    if outcome is None or outcome != expect:
        _fail(report, record, f"assertion {kind} failed")
    report["log"].append(record)


def _fail(report: dict, record: dict, reason: str):
    """Mark a query's or assertion's record failed and list it in the report."""
    record["ok"] = False
    report["failures"].append({"line": record["line"], "reason": reason})
