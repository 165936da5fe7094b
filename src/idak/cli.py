"""Command-line front end: key management, a file-driven exchange, the
cost benchmark, the scenario runner, and the self-reduction demo.

Exit codes: 0 success, 1 data error, 2 usage error, 3 assertion failure.
"""

import argparse
import functools
import json
import os
import random
import stat
import statistics
import sys
import time
from importlib import resources
from pathlib import Path

from idak import keystore
from idak.bilinear import (
    _K_BITS_RANGE,
    encode_point,
    identity_bytes,
    instance_generate,
    scalar_exp,
)
from idak.errors import (
    DegenerateExponentError,
    IdakError,
    InvalidFlowError,
    InvalidIdentityError,
    ScenarioError,
)
from idak.protocol import (
    EXPECTED_COSTS,
    PiVariant,
    SystemParams,
    decode_flow,
    derive,
    encode_flow,
    extract,
    initiate,
    initiator_first,
    parse_strategy,
    pfs_respond,
    pfs_session_key,
    pfs_verify_extra,
    seeded_rng,
    session_key,
    setup,
)
from idak.selfreduction import MAX_K_BITS, MockCbdhOracle, amplify, make_instance
from idak.sessions import MODES, run_scenario

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_ASSERT = 3

BANNER = (
    "note: parameters this small are for protocol study only and offer no security"
)

PI_CHOICES = tuple(variant.value for variant in PiVariant)
STRATEGY_CHOICES = tuple(EXPECTED_COSTS)

# what a degenerate exponent leaves each deriving side to do
DEGENERATE_ADVICE = {
    "responder": "responder rejects this session",
    "initiator": "rerun initiate with a fresh seed",
}


class Refusal(IdakError):
    """Input the command refuses; main prints `error: LABEL: DETAIL`, exit 1."""

    def __init__(self, label, detail):
        super().__init__(f"{label}: {detail}")


def _in_range(kind, name, low, high=None):
    """An argparse type: text read by kind, refused outside [low, high]."""
    noun = "an integer" if kind is int else "a number"
    bounds = f"lie in [{low}, {high}]" if high is not None else f"be at least {low}"

    def parse(text):
        try:
            value = kind(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}") from exc
        # written so that nan, which fails every comparison, is refused
        if not (low <= value and (high is None or value <= high)):
            raise argparse.ArgumentTypeError(f"{name} must {bounds}")
        return value

    return parse


_k_bits = _in_range(int, "k_bits", *_K_BITS_RANGE)
_reduce_k_bits = _in_range(int, "k_bits", _K_BITS_RANGE[0], MAX_K_BITS)
_trials = _in_range(int, "trials", 1)
_n = _in_range(int, "n", 1)
_delta = _in_range(float, "delta", 0, 1)


def _identity(text):
    """An argparse type: a name that identity_bytes accepts, kept as text."""
    try:
        identity_bytes(text)
    except InvalidIdentityError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _emit(args, report):
    if not args.quiet:
        print(json.dumps(report, sort_keys=True))


def _system_params(args):
    return SystemParams(keystore.load_group(args.params), PiVariant(args.pi))


def _read_flow(args, params, role):
    """The peer's flow file decoded, refused unless its sender has this role."""
    try:
        with open(args.flow_in, "rb") as handle:
            data = keystore._read_bounded(handle, InvalidFlowError, "flow file")
        sender_role, *flow = decode_flow(params, data)
    except InvalidFlowError as exc:
        raise Refusal("invalid-flow", exc) from exc
    if sender_role != role:
        article = "an" if role == "initiator" else "a"
        raise Refusal("invalid-flow", f"expected {article} {role} flow")
    return flow


def _write_flow(path, data):
    """Write a flow file over whatever the path held, then cut it to length.

    Opening with O_TRUNC would empty a regular file first, and ext4 (with its
    default auto_da_alloc) starts writing such a file to disk at close; the
    next truncation then waits for that write.  Rewriting in place keeps the
    disk out of an exchange.  Other paths (a pipe, /dev/stdout) are only
    written.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as handle:
        handle.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            handle.truncate()


def _remove_state(path, read):
    """Unlink the state file that finalize consumed, so its ephemeral x
    is gone once the session key is saved.

    read is the path's lstat from before load_state.  A path that now
    names another file (a newer state, or the session key written over
    it) is left as it is.  One that is not a regular file, or an unlink
    that fails, gets a warning: the key file is valid all the same.
    """
    try:
        now = os.lstat(path)
        if (now.st_dev, now.st_ino) != (read.st_dev, read.st_ino):
            return
        if stat.S_ISREG(now.st_mode):
            os.unlink(path)
            return
        reason = f"{path!r} is not a regular file"
    except OSError as exc:
        reason = exc
    print(f"warning: state file not removed: {reason}", file=sys.stderr)


def _derive_key(args, params, own, role, secret, own_msg, peer_id, peer_msg, extra=None):
    """One side's session key and derive's counts, or a refusal.

    secret is this side's ephemeral exponent and extra the received extra
    point (finalize --pfs only), checked before derive runs.  With --pfs
    the key also hashes g_initiator^(x*y): the responder raises the
    initiator's flow point to y, the initiator raises extra to x.
    """
    try:
        # pfs_verify_extra and derive are the checks of the received points
        if extra is not None and not pfs_verify_extra(params, own, peer_id, peer_msg, extra):
            raise Refusal("invalid-flow", "extra point fails the pairing check")
        sk, counts = derive(
            params, own, secret, own_msg, peer_id, peer_msg, role, parse_strategy(args.strategy)
        )
    except DegenerateExponentError as exc:
        raise Refusal("degenerate-exponent", f"{exc}; {DEGENERATE_ADVICE[role]}") from exc
    except InvalidFlowError as exc:
        raise Refusal("rejected-point", exc) from exc
    if args.pfs:
        dh = scalar_exp(params.group, peer_msg.r if role == "responder" else extra, secret)
        return pfs_session_key(params, sk, dh), counts
    binding = initiator_first(own.identity, own_msg, peer_id, peer_msg, role)
    return session_key(params, sk, *binding), counts


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_setup(args):
    params, alpha = setup(args.k_bits, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params_path = out / "params.key"
    master_path = out / "master.key"
    keystore.save_group(params_path, params.group)
    keystore.save_master(master_path, params.group, alpha)
    if not args.quiet:
        print(BANNER, file=sys.stderr)
    group = params.group
    _emit(
        args,
        {
            "params": str(params_path),
            "master": str(master_path),
            **group._asdict(),
            "k_bits": group.k_bits,
        },
    )
    return EXIT_OK


def cmd_extract(args):
    params = _system_params(args)
    alpha = keystore.load_master(args.master, params.group)
    key = extract(params, alpha, args.identity)
    keystore.save_identity(args.out, params.group, key)
    public = encode_point(params.group, key.g_id).hex()
    _emit(args, {"identity": args.identity, "public": public, "file": args.out})
    return EXIT_OK


def cmd_verify_key(args):
    params = _system_params(args)
    alpha = keystore.load_master(args.master, params.group)
    key = keystore.load_identity(args.key_file, params.group)
    # load_identity has checked g_id = H(id) and d_id in G but the identity,
    # so e(d_id, g) = e(g_id, g^alpha) holds exactly when d_id = g_id^alpha
    ok = extract(params, alpha, key.identity) == key
    _emit(args, {"identity": key.identity.decode("utf-8", "replace"), "ok": ok})
    return EXIT_OK if ok else EXIT_DATA


def cmd_initiate(args):
    params = _system_params(args)
    own = keystore.load_identity(args.key, params.group)
    x, msg = initiate(params, own, seeded_rng("idak-cli-initiate", args.seed))
    _write_flow(args.flow_out, encode_flow(params, "initiator", own.identity, msg))
    keystore.save_state(args.state_out, params.group, args.peer, x, msg)
    _emit(args, {"flow": args.flow_out, "state": args.state_out})
    return EXIT_OK


def cmd_respond(args):
    params = _system_params(args)
    own = keystore.load_identity(args.key, params.group)
    peer_ident, peer_msg, peer_extra = _read_flow(args, params, "initiator")
    if peer_extra is not None:
        raise Refusal("invalid-flow", "initiator flows carry no extra point")
    rng = seeded_rng("idak-cli-respond", args.seed)
    if args.pfs:
        y, msg, extra = pfs_respond(params, own, peer_ident, rng)
    else:
        y, msg = initiate(params, own, rng)
        extra = None
    key, counts = _derive_key(args, params, own, "responder", y, msg, peer_ident, peer_msg)
    _write_flow(args.flow_out, encode_flow(params, "responder", own.identity, msg, extra))
    keystore.save_session(args.key_out, key)
    report = {"flow": args.flow_out, "key": args.key_out, "counts": counts._asdict()}
    _emit(args, report)
    return EXIT_OK


def cmd_finalize(args):
    params = _system_params(args)
    own = keystore.load_identity(args.key, params.group)
    read = os.lstat(args.state)
    peer_id, x, own_msg = keystore.load_state(args.state, params.group)
    sender_ident, peer_msg, extra = _read_flow(args, params, "responder")
    if sender_ident != peer_id:
        raise Refusal(
            "invalid-flow",
            f"flow names {sender_ident!r}, session was opened with {peer_id!r}",
        )
    if args.pfs and extra is None:
        raise Refusal("invalid-flow", "flow carries no extra point; responder ran without --pfs")
    if not args.pfs and extra is not None:
        raise Refusal("invalid-flow", "flow carries an extra point; rerun with --pfs")
    key, counts = _derive_key(args, params, own, "initiator", x, own_msg, peer_id, peer_msg, extra)
    keystore.save_session(args.key_out, key)
    _remove_state(args.state, read)
    _emit(args, {"key": args.key_out, "counts": counts._asdict()})
    return EXIT_OK


def cmd_bench(args):
    params = _system_params(args)
    rng = seeded_rng("idak-cli-bench", args.seed or "bench")
    alpha = 1 + rng.randrange(params.group.q - 1)
    alice = extract(params, alpha, "bench-initiator")
    bob = extract(params, alpha, "bench-responder")
    rows = []
    for label in EXPECTED_COSTS:
        strategy = parse_strategy(label)
        counts, times = None, []
        for _ in range(args.trials):
            while True:
                x, msg_a = initiate(params, alice, rng)
                y, msg_b = initiate(params, bob, rng)
                started = time.perf_counter()
                try:
                    _, counts = derive(
                        params, alice, x, msg_a, "bench-responder", msg_b,
                        "initiator", strategy,
                    )
                except DegenerateExponentError:
                    continue  # redraw both ephemerals
                times.append(time.perf_counter() - started)
                break
        rows.append((label, counts, statistics.median(times)))
    if not args.quiet:
        print("strategy\tpairings\texp_g\tmul_g\texp_gt\tmedian_ms")
        for label, observed, median in rows:
            print(label, *observed, f"{median * 1000:.3f}", sep="\t")
    mismatches = [row for row in rows if row[1] != EXPECTED_COSTS[row[0]]]
    for label, observed, _ in mismatches:
        print(
            f"error: cost mismatch for {label}: observed {tuple(observed)}, "
            f"expected {EXPECTED_COSTS[label]}",
            file=sys.stderr,
        )
    return EXIT_ASSERT if mismatches else EXIT_OK


def bundled_scenarios():
    root = resources.files("idak") / "scenarios"
    return sorted(entry.name for entry in root.iterdir() if entry.name.endswith(".jsonl"))


def _scenario_lines(name):
    source = Path(name)
    if not source.exists():
        stem = name if name.endswith(".jsonl") else f"{name}.jsonl"
        source = resources.files("idak") / "scenarios" / stem
        if not source.is_file():
            raise FileNotFoundError(f"no scenario file or bundled scenario named {name!r}")
    with source.open("rb") as handle:
        data = keystore._read_bounded(handle, ScenarioError, name)
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{name} is not UTF-8 text: {exc}") from exc


def cmd_scenario(args):
    if args.list:
        for name in bundled_scenarios():
            print(name)
        return EXIT_OK
    if args.file is None:
        print("error: usage: a scenario file is required unless --list is given", file=sys.stderr)
        return EXIT_USAGE
    lines = _scenario_lines(args.file)
    report = run_scenario(lines, k_bits=args.k_bits, seed=args.seed, mode=args.mode)
    _emit(args, report)
    if not report["ok"]:
        for failure in report["failures"]:
            print(
                f"error: scenario line {failure['line']}: {failure['reason']}",
                file=sys.stderr,
            )
        return EXIT_ASSERT
    return EXIT_OK


def cmd_reduce(args):
    group = instance_generate(args.k_bits, args.seed)
    g = SystemParams(group).g
    rng = seeded_rng("idak-cli-reduce", args.seed)
    oracle = MockCbdhOracle(group, g, args.delta, random.Random(rng.getrandbits(64)))
    successes = 0
    for _ in range(args.trials):
        inst, truth = make_instance(group, g, rng)
        if amplify(group, oracle, inst, args.n, rng) == truth:
            successes += 1
    _emit(
        args,
        {
            "delta": args.delta,
            "n": args.n,
            "trials": args.trials,
            "success_rate": successes / args.trials,
            "params": group._asdict(),
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argparse tree, built once per process and reused by every main call."""
    parser = argparse.ArgumentParser(
        prog="idak",
        description="identity-based authenticated key agreement over a toy pairing",
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress reports")

    with_params = argparse.ArgumentParser(add_help=False)
    with_params.add_argument("--params", required=True, help="parameters file")
    # only derive reads the variant; the other commands keep the default
    with_params.set_defaults(pi=PiVariant.HASH_HALF.value)

    with_pi = argparse.ArgumentParser(add_help=False)
    with_pi.add_argument(
        "--pi", choices=PI_CHOICES, default=PiVariant.HASH_HALF.value,
        help="flow-compression variant",
    )

    exchange = argparse.ArgumentParser(add_help=False)
    exchange.add_argument(
        "--strategy", choices=STRATEGY_CHOICES, default="c1-nopre",
        help="derivation strategy",
    )
    exchange.add_argument("--pfs", action="store_true", help="forward-secure variant")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", parents=[common], help="generate parameters and master key")
    p.add_argument("--k-bits", type=_k_bits, required=True, help="subgroup order size in bits")
    p.add_argument("--seed", default=None, help="deterministic generation seed")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("extract", parents=[common, with_params], help="issue an identity key")
    p.add_argument("identity", type=_identity, help="principal name")
    p.add_argument("--master", required=True, help="master key file")
    p.add_argument("--out", required=True, help="identity key file to write")

    p = sub.add_parser(
        "verify-key", parents=[common, with_params],
        help="check an identity key by issuing it again under the master key",
    )
    p.add_argument("key_file", help="identity key file")
    p.add_argument("--master", required=True, help="master key file")

    p = sub.add_parser("initiate", parents=[common, with_params], help="open a session")
    p.add_argument("--key", required=True, help="own identity key file")
    p.add_argument("--peer", type=_identity, required=True, help="responder identity")
    p.add_argument("--flow-out", required=True, help="flow file to write")
    p.add_argument("--state-out", required=True, help="pending-session file to write")
    p.add_argument("--seed", default=None, help="ephemeral seed")

    p = sub.add_parser(
        "respond", parents=[common, with_params, with_pi, exchange],
        help="answer a flow and derive the key",
    )
    p.add_argument("--key", required=True, help="own identity key file")
    p.add_argument("--flow-in", required=True, help="initiator flow file")
    p.add_argument("--flow-out", required=True, help="reply flow file to write")
    p.add_argument("--key-out", required=True, help="session key file to write")
    p.add_argument("--seed", default=None, help="ephemeral seed")

    p = sub.add_parser(
        "finalize", parents=[common, with_params, with_pi, exchange],
        help="absorb the reply, derive the key and remove the state file",
    )
    p.add_argument("--key", required=True, help="own identity key file")
    p.add_argument("--state", required=True, help="state file from initiate, removed on success")
    p.add_argument("--flow-in", required=True, help="responder flow file")
    p.add_argument("--key-out", required=True, help="session key file to write")

    p = sub.add_parser(
        "bench", parents=[common, with_params, with_pi],
        help="measure derivation cost per strategy",
    )
    p.add_argument("--trials", type=_trials, default=5, help="timed runs per strategy")
    p.add_argument("--seed", default=None, help="session seed")

    p = sub.add_parser("scenario", parents=[common], help="run a query script")
    p.add_argument("file", nargs="?", help="scenario file or bundled name")
    p.add_argument("--list", action="store_true", help="list bundled scenarios")
    # each of these wins over the file's config lines, which win over the default
    p.add_argument("--seed", default=None, help="world seed (default: scenario)")
    p.add_argument("--mode", choices=MODES, default=None, help="freshness mode (default: br)")
    p.add_argument("--k-bits", type=_k_bits, default=None, help="parameter size (default: 16)")

    p = sub.add_parser(
        "reduce", parents=[common],
        help="amplify a faulty oracle over blinded instances",
    )
    p.add_argument("--delta", type=_delta, default=1.0, help="oracle reliability")
    p.add_argument("--n", type=_n, default=1, help="blinded queries per instance")
    p.add_argument("--trials", type=_trials, default=10, help="instances to solve")
    p.add_argument(
        "--k-bits", type=_reduce_k_bits, default=16,
        help=f"parameter size, at most {MAX_K_BITS}: the mock oracle's table grows as 2^(k/2)",
    )
    p.add_argument("--seed", default="reduce", help="experiment seed")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a rebinding of cmd_NAME in this module runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ScenarioError as exc:
        print(f"error: scenario: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (IdakError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

