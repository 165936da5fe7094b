"""The four closed-loop workloads.

Each workload has one client whose next call waits for the previous one.
`build(seed)` makes the state the timed loop needs (that is what setup_s
times), `plan(state, seed, count)` makes the fixed operation sequence from
the seed, and `run(state, steps, loop)` executes it, timing every
operation through `loop` and checking every outcome.

The curve of each workload is fixed (it is part of the workload, like its
size); the seed drives identities, ephemerals, instances and schedules.
Every library call goes through the module attribute (`protocol.derive`,
not a name bound at import) so the tracer's wrappers see it.
"""

from __future__ import annotations

import dataclasses
import json
import random
import tempfile
import time
import traceback
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

from idak import bilinear, cli, protocol, selfreduction, sessions
from idak.errors import DegenerateExponentError, InvalidFlowError, TestRefusedError
from speed import SpeedMeter


def param_seed(k_bits):
    """Seed of the fixed curve a workload or probe uses at this size."""
    return f"idak-bench-k{k_bits}"


class Loop:
    """Times closed-loop operations and tallies checked outcomes."""

    def __init__(self, tracer=None):
        # (start, end) of every counted operation, end less the kernel
        # samples taken inside it
        self.intervals = []
        self.meter = SpeedMeter()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tracer = tracer

    def call(self, fn, *args, counted=True):
        """Run one operation and return (result, error).

        An exception is returned, not raised, so the caller's check decides
        whether it was the expected outcome.  Uncounted operations (scenario
        replays) take part in the run but not in its operation times.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        self.meter.sample_if_due()
        sampling = self.meter.spent
        start = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # noqa: BLE001 - judged by the caller's check
            result, error = None, exc
        if counted:
            self.intervals.append((start, time.perf_counter() - (self.meter.spent - sampling)))
        return result, error

    def nominal_times(self):
        """Seconds each counted operation takes at the reference kernel's speed."""
        self.meter.sample()
        return [(end - start) * self.meter.scale(start, end) for start, end in self.intervals]

    def check(self, ok, detail, error=None):
        if ok:
            return
        self.failed += 1
        if len(self.failures) < 10:
            if error is not None:
                detail += ": " + "".join(traceback.format_exception_only(error)).strip()
            self.failures.append(detail)


# ---------------------------------------------------------------------------
# sessions-k128: the paper's two-sided exchange at the largest roadmap size
# ---------------------------------------------------------------------------


class SessionsK128:
    op = "session"
    # operations per second at the baseline on a 2-core x86-64 machine;
    # sizes the fixed sequence (see run.py)
    rate = 34
    k_bits = 128
    pool = 6

    def build(self, seed):
        params, msk = protocol.setup(self.k_bits, param_seed(self.k_bits))
        keys = [protocol.extract(params, msk, f"user-{i:02d}") for i in range(self.pool)]
        return SimpleNamespace(
            params={v: dataclasses.replace(params, pi_variant=v) for v in protocol.PiVariant},
            keys=keys,
            rng=random.Random(f"sessions-ephemerals:{seed}"),
        )

    def plan(self, state, seed, count):
        rng = random.Random(f"sessions-plan:{seed}")
        variants = tuple(protocol.PiVariant)
        steps = []
        for i in range(count):
            a, b = rng.sample(range(self.pool), 2)
            # rotate through the 4 strategies x 3 pi variants
            strategy = protocol.STRATEGIES[i % 4]
            steps.append((a, b, strategy, variants[(i // 4) % 3]))
        return steps

    def run(self, state, steps, loop):
        for a, b, strategy, variant in steps:
            out, error = loop.call(
                _session, state.params[variant], state.keys[a], state.keys[b], strategy,
                state.rng,
            )
            ok = error is None and out[0] == out[1] and out[2] == out[3]
            loop.check(ok, f"session {strategy.label()}/{variant.value} disagrees", error)
        return {}


def _session(params, alice, bob, strategy, rng):
    """Both initiates, both derives and both session keys of one session."""
    while True:
        x, msg_a = protocol.initiate(params, alice, rng)
        y, msg_b = protocol.initiate(params, bob, rng)
        try:
            sk_a, _ = protocol.derive(
                params, alice, x, msg_a, bob.identity, msg_b, "initiator", strategy
            )
            sk_b, _ = protocol.derive(
                params, bob, y, msg_b, alice.identity, msg_a, "responder", strategy
            )
        except DegenerateExponentError:
            continue  # a vanished exponent: both sides draw fresh ephemerals
        key_a = protocol.session_key(params, sk_a, alice.identity, bob.identity, msg_a, msg_b)
        key_b = protocol.session_key(params, sk_b, alice.identity, bob.identity, msg_a, msg_b)
        return sk_a, sk_b, key_a, key_b


# ---------------------------------------------------------------------------
# amplify-k16: the CBDH self-reduction, the only selfreduction workload
# ---------------------------------------------------------------------------


class AmplifyK16:
    op = "instance"
    rate = 3.2
    k_bits = 16
    delta = 0.3
    rounds = 201

    def build(self, seed):
        group = bilinear.instance_generate(self.k_bits, param_seed(self.k_bits))
        g = bilinear.hash_to_group(group, protocol.GENERATOR_ID)
        oracle = selfreduction.MockCbdhOracle(
            group, g, self.delta, random.Random(f"amplify-oracle:{seed}")
        )
        return SimpleNamespace(
            group=group, g=g, oracle=oracle, rng=random.Random(f"amplify-instances:{seed}")
        )

    def plan(self, state, seed, count):
        # every instance is drawn from state.rng, itself made from the seed
        return range(count)

    def run(self, state, steps, loop):
        def oracle(inst):
            # Samples between 0.25 s instances alone left their normalised
            # times spreading about 5% from run to run; sampling at oracle
            # calls too tracks the machine's speed within an instance.
            loop.meter.sample_if_due()
            return state.oracle(inst)

        for _ in steps:
            out, error = loop.call(self._instance, state, oracle)
            loop.check(error is None and out[0] == out[1], "amplify winner is not the truth", error)
        return {}

    def _instance(self, state, oracle):
        inst, truth = selfreduction.make_instance(state.group, state.g, state.rng)
        winner = selfreduction.amplify(state.group, oracle, inst, self.rounds, state.rng)
        return winner, truth


# ---------------------------------------------------------------------------
# world-k16: a seeded adversary schedule against one growing World
# ---------------------------------------------------------------------------

HONEST = tuple(f"user-{i:02d}" for i in range(12))
EXPOSED = HONEST[8:]  # the only principals corrupt and extract ever target
HOSTILE_KINDS = ("off-curve", "identity", "outside-subgroup", "malformed")
# Steps per deck by kind; a relay is three queries.  The rule: half the steps
# are honest relays, since every other step needs a completed relay to act on;
# the other half is split evenly over the six other query kinds.
DECK = (("relay", 48), ("fresh", 8), ("test", 8), ("reveal", 8), ("corrupt", 8),
        ("extract", 8), ("hostile", 8))


class WorldK16:
    op = "query"
    rate = 1800
    k_bits = 16
    replays_per_scenario = 2

    def build(self, seed):
        params, msk = protocol.setup(self.k_bits, param_seed(self.k_bits))
        world = sessions.World(params, msk, mode="br", rng=random.Random(f"world:{seed}"))
        for identity in HONEST:
            world.add_principal(identity)
        return SimpleNamespace(world=world, replays={})

    def plan(self, state, seed, count):
        """Steps with their expected outcomes, from a shadow freshness model.

        Steps are dealt from decks holding DECK's kinds in fixed numbers,
        each deck shuffled by the seed, so every seed grows the world at the
        same pace.  In br mode a completed oracle is fresh unless an endpoint
        was corrupted or extracted, or it or its partner was revealed.
        """
        rng = random.Random(f"world-plan:{seed}")
        group = state.world.params.group
        scenarios = _bundled_scenarios()
        replays = [name for name in scenarios for _ in range(self.replays_per_scenario)]
        total_replays = len(replays)
        relays, poisoned, revealed = [], set(), set()
        steps, queries, outsiders, deck = [], 0, 0, ["relay"]
        while queries < count:
            # replays sit at evenly spaced points of the query sequence
            done = total_replays - len(replays)
            if replays and queries >= (done + 1) * count // (total_replays + 1):
                name = replays.pop(0)
                steps.append(("scenario", name, scenarios[name]))
                continue
            if not deck:
                deck = [kind for kind, copies in DECK for _ in range(copies)]
                rng.shuffle(deck)
            kind = deck.pop()
            if kind == "relay":
                a, b = rng.sample(HONEST, 2)
                relays.append((a, b))
                steps.append(("relay", a, b))
                queries += 3
                continue
            if kind in ("corrupt", "extract"):
                if kind == "extract" and rng.random() < 0.5:
                    outsiders += 1
                    identity = f"outsider-{outsiders}"
                else:
                    identity = rng.choice(EXPOSED)
                    poisoned.add(identity)
                steps.append((kind, identity))
                queries += 1
                continue
            r = rng.randrange(len(relays))
            a, b = relays[r]
            if kind == "hostile":
                hostile = rng.choice(HOSTILE_KINDS)
                as_initiator = rng.random() < 0.5
                steps.append(("hostile", hostile, a, b, as_initiator,
                              _hostile_flow(group, hostile, rng)))
                queries += 1 + as_initiator
                continue
            side = rng.randrange(2)
            fresh = not ({a, b} & poisoned) and r not in revealed
            if kind == "fresh":
                steps.append(("fresh", r, side, fresh))
            elif kind == "test":
                steps.append(("test", r, side, rng.randrange(2), fresh))
            else:
                steps.append(("reveal", r, side))
                revealed.add(r)
            queries += 1
        steps.extend(("scenario", name, scenarios[name]) for name in replays)
        return steps

    def run(self, state, steps, loop):
        world, relays = state.world, []
        for step in steps:
            kind = step[0]
            if kind == "relay":
                relays.append(self._relay(world, step[1], step[2], loop))
            elif kind == "scenario":
                self._replay(state, step[1], step[2], loop)
            elif kind == "hostile":
                self._hostile(world, *step[1:], loop)
            elif kind in ("corrupt", "extract"):
                query = world.corrupt if kind == "corrupt" else world.extract_query
                point, error = loop.call(query, step[1])
                ok = error is None and not point.is_identity()
                loop.check(ok, f"{kind} {step[1]} returned no key", error)
            else:
                pair = relays[step[1]]
                if pair is None:
                    loop.check(False, f"{kind} on relay {step[1]} that failed")
                    continue
                oracle, partner = pair[step[2]], pair[1 - step[2]]
                if kind == "reveal":
                    key, error = loop.call(world.reveal, oracle)
                    loop.check(error is None and key == partner.key, "reveal differs", error)
                elif kind == "fresh":
                    fresh, error = loop.call(world.fresh, oracle)
                    loop.check(error is None and fresh == step[3], "fresh disagrees", error)
                else:
                    self._test(world, oracle, step[3], step[4], loop)
        return {"oracles": len(world.oracles)}

    def _relay(self, world, a, b, loop):
        """Relay one honest exchange; a vanished exponent means a retry.

        At k = 16 a combined exponent vanishes mod q once in some tens of
        thousands of derivations.  The oracle that hit it aborts with
        DegenerateExponentError, which is the documented outcome, and the
        exchange runs again on fresh oracles.
        """
        while True:
            out, error = loop.call(_activate, world, a, b, None)
            if error is None:
                init, flow_a = out
                out, error = loop.call(_activate, world, b, a, flow_a)
            if error is None:
                resp, flow_b = out
                _, error = loop.call(world.send, init, flow_b)
            if not isinstance(error, DegenerateExponentError):
                break
        ok = error is None and init.completed and resp.completed
        ok = ok and init.key == resp.key and world.matching(init, resp)
        loop.check(ok, f"honest relay {a}->{b} failed", error)
        return (init, resp) if ok else None

    def _hostile(self, world, kind, a, b, as_initiator, flow, loop):
        if as_initiator:
            out, error = loop.call(_activate, world, a, b, None)
            if error is not None:
                loop.check(False, "initiator activation failed", error)
                return
            _, error = loop.call(world.send, out[0], flow)
        else:
            _, error = loop.call(_activate, world, b, a, flow)
        ok = isinstance(error, InvalidFlowError) and world.oracles[-1].aborted
        loop.check(ok, f"hostile {kind} flow was not rejected with InvalidFlowError", error)

    def _test(self, world, oracle, coin, fresh, loop):
        key, error = loop.call(world.test, oracle, coin)
        if not fresh:
            ok = isinstance(error, TestRefusedError)
        elif coin == 1:
            ok = error is None and key == oracle.key
        else:
            # the random-coin key comes from a uniform GT element, which is
            # the real one with probability 1/q, so only its form is checked
            ok = error is None and len(key.key) == len(oracle.key.key)
        loop.check(ok, f"test coin={coin} on {'fresh' if fresh else 'stale'} oracle", error)

    def _replay(self, state, name, lines, loop):
        report, error = loop.call(sessions.run_scenario, lines, counted=False)
        text = None if error else json.dumps(report, sort_keys=True)
        first = state.replays.setdefault(name, text)
        ok = error is None and report["ok"] and text == first
        loop.check(ok, f"scenario {name} replay not ok or not byte-identical", error)


def _activate(world, owner, peer, flow):
    """A query on a new oracle: the world creates it, then the flow arrives."""
    oracle = world.new_oracle(owner, peer)
    return oracle, world.send(oracle, flow)


def _bundled_scenarios():
    root = resources.files("idak") / "scenarios"
    return {name: (root / name).read_text().splitlines() for name in cli.bundled_scenarios()}


def _hostile_flow(group, kind, rng):
    """Point bytes that cross the trust boundary and must be rejected."""
    p, size = group.p, bilinear.coord_size(group)

    def encode(x, y):
        return b"\x04" + x.to_bytes(size, "big") + y.to_bytes(size, "big")

    if kind == "identity":
        return b"\x00"
    if kind == "malformed":
        body = rng.randbytes(2 * size)
        return rng.choice((b"\x04" + body[:-1], b"\x05" + body, b"\x04" + body + b"\x00"))
    while True:
        x, y = rng.randrange(p), rng.randrange(p)
        if kind == "off-curve":
            if (y * y - x * x * x - x) % p:
                return encode(x, y)
            continue
        t = (x * x * x + x) % p
        if t == 0 or pow(t, (p - 1) // 2, p) != 1:
            continue
        point = bilinear.GElem(x, pow(t, (p + 1) // 4, p))
        # on the curve but with a cofactor component
        if not bilinear.scalar_exp(group, point, group.q).is_identity():
            return encode(point.x, point.y)


# ---------------------------------------------------------------------------
# cli-k32: in-process `idak` exchanges through files
# ---------------------------------------------------------------------------


class CliK32:
    op = "exchange"
    rate = 60
    k_bits = 32
    pool = 4

    def __init__(self, work_dir):
        self.work_dir = work_dir

    def build(self, seed):
        root = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work_dir))
        _must(["setup", "--k-bits", str(self.k_bits), "--seed", param_seed(self.k_bits),
               "--out", str(root), "--quiet"])
        params, master = str(root / "params.key"), str(root / "master.key")
        keys = {}
        for i in range(self.pool):
            name = f"user-{i:02d}"
            keys[name] = str(root / f"{name}.key")
            _must(["extract", name, "--params", params, "--master", master,
                   "--out", keys[name], "--quiet"])
        return SimpleNamespace(root=root, params=params, keys=keys)

    def plan(self, state, seed, count):
        rng = random.Random(f"cli-plan:{seed}")
        names = sorted(state.keys)
        steps = []
        for i in range(count):
            a, b = rng.sample(names, 2)
            # alternate --pfs and rotate through the four strategies
            steps.append((a, b, protocol.STRATEGIES[i % 4].label(), (i // 4) % 2 == 1,
                          f"{seed}-{i}"))
        return steps

    def run(self, state, steps, loop):
        files = {n: str(state.root / n) for n in ("a.flow", "a.state", "b.flow")}
        key_a, key_b = state.root / "a.session", state.root / "b.session"
        for a, b, strategy, pfs, tag in steps:
            key_a.unlink(missing_ok=True)
            key_b.unlink(missing_ok=True)
            argv = self._exchange(state, files, str(key_a), str(key_b), a, b, strategy, pfs, tag)
            codes, error = loop.call(_run_all, argv)
            ok = error is None and codes == [0, 0, 0] and _same_bytes(key_a, key_b)
            loop.check(ok, f"exchange {strategy} pfs={pfs} exit codes {codes}", error)
        return {}

    @staticmethod
    def _exchange(state, files, key_a, key_b, a, b, strategy, pfs, tag):
        common = ["--params", state.params, "--quiet"]
        variant = ["--strategy", strategy] + (["--pfs"] if pfs else [])
        return (
            ["initiate", *common, "--key", state.keys[a], "--peer", b,
             "--flow-out", files["a.flow"], "--state-out", files["a.state"], "--seed", tag + "a"],
            ["respond", *common, *variant, "--key", state.keys[b], "--flow-in", files["a.flow"],
             "--flow-out", files["b.flow"], "--key-out", key_b, "--seed", tag + "b"],
            ["finalize", *common, *variant, "--key", state.keys[a], "--state", files["a.state"],
             "--flow-in", files["b.flow"], "--key-out", key_a],
        )


def _run_all(argvs):
    """Run CLI calls in order, stopping at the first nonzero exit."""
    codes = []
    for argv in argvs:
        codes.append(cli.main(argv))
        if codes[-1] != 0:
            break
    return codes


def _same_bytes(left, right):
    try:
        return left.read_bytes() == right.read_bytes()
    except OSError:
        return False


def _must(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"idak {argv[0]} exited {code} during set-up")


def make(name, work_dir):
    return {
        "sessions-k128": SessionsK128,
        "amplify-k16": AmplifyK16,
        "world-k16": WorldK16,
        "cli-k32": lambda: CliK32(work_dir),
    }[name]()

