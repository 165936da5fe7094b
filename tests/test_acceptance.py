"""Acceptance gate: one test per shipping criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Budgeted criteria enforce their wall-clock limits with assertions.
"""

import dataclasses
import random
import time
from pathlib import Path

import idak
from idak.bilinear import (
    GTElem,
    gt_exp,
    hash_to_group,
    instance_generate,
    pairing,
    scalar_exp,
)
from idak.protocol import (
    STRATEGIES,
    PiVariant,
    derive,
    extract,
    master_compromise_compute,
    pfs_session_key,
    session_key,
    setup,
)
from idak.selfreduction import MockCbdhOracle, amplify, make_instance
from idak.sessions import run_scenario

import reference as ref

SCENARIO_DIR = Path(idak.__file__).parent / "scenarios"


def _verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_sessions_agree_everywhere():
    """1000 sessions on 32-bit params, every strategy and pi variant, each
    agreeing with the reference secret in closed form."""
    started = time.perf_counter()
    base_params, msk = setup(32, "acceptance-1")
    sessions_per_variant = 1000
    failures = 0
    total = 0
    for variant in PiVariant:
        params = dataclasses.replace(base_params, pi_variant=variant)
        alice = extract(params, msk, "acceptance-alice")
        bob = extract(params, msk, "acceptance-bob")
        rng = random.Random(f"acceptance-1:{variant.value}")
        for _ in range(sessions_per_variant):
            total += 1
            x, msg_a, y, msg_b, expected = ref.session(params, msk, alice.identity,
                                                       bob.identity, rng)
            secrets = {expected}
            for strategy in STRATEGIES:
                secrets.add(derive(params, alice, x, msg_a, bob.identity, msg_b,
                                   "initiator", strategy)[0])
                secrets.add(derive(params, bob, y, msg_b, alice.identity, msg_a,
                                   "responder", strategy)[0])
            keys = {session_key(params, sk, alice.identity, bob.identity, msg_a, msg_b)
                    for sk in secrets}
            if len(secrets) != 1 or len(keys) != 1:
                failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 60.0
    detail = (
        f"{total - failures}/{total} sessions agree across 4 strategies x 3 pi "
        f"variants in {elapsed:.1f}s (limit 60s)"
    )
    assert _verdict(1, ok, detail)


def test_criterion_2_strategy_cost_table():
    """Instrumented per-strategy operation counts match the cost table."""
    expected = {
        "c1-nopre": (1, 2.5, 1, 0),
        "c2-nopre": (1, 1.5, 1, 1),
        "c1-pre": (1, 1.0, 2, 0),
        "c2-pre": (1, 0.5, 1, 1),
    }
    params, msk = setup(16, "acceptance-2")
    alice = extract(params, msk, "acceptance-alice")
    bob = extract(params, msk, "acceptance-bob")
    rng = random.Random("acceptance-2")
    observed = {}
    for strategy in STRATEGIES:
        x, msg_a, _, msg_b, _ = ref.session(params, msk, alice.identity, bob.identity, rng)
        _, counts = derive(params, alice, x, msg_a, bob.identity, msg_b, "initiator", strategy)
        observed[strategy.label()] = (
            counts.pairings, counts.exp_g, counts.mul_g, counts.exp_gt,
        )
    ok = observed == expected
    detail = f"(pairings, exp_g, mul_g, exp_gt) per strategy = {observed}"
    assert _verdict(2, ok, detail)


def test_criterion_3_pairing_is_bilinear():
    """Bilinearity on 100 pairs, non-degeneracy and curve order on 20 sets."""
    params = instance_generate(16, "acceptance-3")
    g = hash_to_group(params, "acceptance-3-generator")
    base = pairing(params, g, g)
    rng = random.Random("acceptance-3")
    bilinear_ok = 0
    for _ in range(100):
        a = 1 + rng.randrange(params.q - 1)
        b = 1 + rng.randrange(params.q - 1)
        left = pairing(params, scalar_exp(params, g, a), scalar_exp(params, g, b))
        if left == gt_exp(base, a * b % params.q):
            bilinear_ok += 1
    degenerate = 0
    counted = 0
    miscounted = 0
    sizes = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    for index, k_bits in enumerate(sizes):
        group = instance_generate(k_bits, f"acceptance-3-{index}")
        gen = hash_to_group(group, "acceptance-3-generator")
        if pairing(group, gen, gen) == GTElem(1, 0, group.p):
            degenerate += 1
        if group.p < (1 << 16):
            counted += 1
            if len(ref.curve_points(group.p)) != group.p + 1:
                miscounted += 1
    ok = bilinear_ok == 100 and degenerate == 0 and miscounted == 0
    detail = (
        f"bilinearity {bilinear_ok}/100, non-degenerate pairing on 20/20 "
        f"parameter sets, curve order p+1 on {counted - miscounted}/{counted} "
        f"enumerable sets"
    )
    assert _verdict(3, ok, detail)


def test_criterion_4_self_reduction():
    """Perfect oracle 100/100; delta=0.3 with n=201 votes >= 95/100."""
    started = time.perf_counter()
    params = instance_generate(16, "acceptance-4")
    g = hash_to_group(params, "acceptance-4-generator")
    rng = random.Random("acceptance-4")
    perfect = MockCbdhOracle(params, g, 1.0, random.Random("acceptance-4-perfect"))
    perfect_hits = 0
    for _ in range(100):
        inst, truth = make_instance(params, g, rng)
        if amplify(params, perfect, inst, 1, rng) == truth:
            perfect_hits += 1
    noisy = MockCbdhOracle(params, g, 0.3, random.Random("acceptance-4-noisy"))
    noisy_hits = 0
    for _ in range(100):
        inst, truth = make_instance(params, g, rng)
        if amplify(params, noisy, inst, 201, rng) == truth:
            noisy_hits += 1
    elapsed = time.perf_counter() - started
    ok = perfect_hits == 100 and noisy_hits >= 95 and elapsed < 120.0
    detail = (
        f"perfect oracle {perfect_hits}/100, delta=0.3 n=201 vote "
        f"{noisy_hits}/100 (target 99, floor 95) in {elapsed:.1f}s (limit 120s)"
    )
    assert _verdict(4, ok, detail)


def test_criterion_5_authority_compromise_boundary():
    """Alpha recovers every base secret but never the hardened variant key."""
    params, msk = setup(16, "acceptance-5")
    alice = extract(params, msk, "acceptance-alice")
    bob = extract(params, msk, "acceptance-bob")
    rng = random.Random("acceptance-5")
    base_breaks = 0
    pfs_breaks = 0
    trials = 100
    for _ in range(trials):
        x, msg_a, y, msg_b, _ = ref.session(params, msk, alice.identity, bob.identity, rng)
        extra = ref.pfs_extra(params, alice.identity, y)
        sk, _ = derive(params, alice, x, msg_a, bob.identity, msg_b, "initiator")
        recovered = master_compromise_compute(
            params, msk, alice.identity, bob.identity, msg_a, msg_b
        )
        if recovered.value == sk.value:
            base_breaks += 1
        real_key = pfs_session_key(params, sk, scalar_exp(params.group, extra, x))
        candidates = {
            session_key(params, recovered, alice.identity, bob.identity, msg_a, msg_b)
        }
        for point in (msg_a.r, msg_b.r, extra):
            candidates.add(pfs_session_key(params, recovered, point))
            candidates.add(
                pfs_session_key(
                    params, recovered, scalar_exp(params.group, point, msk)
                )
            )
        if real_key in candidates:
            pfs_breaks += 1
    ok = base_breaks == trials and pfs_breaks == 0
    detail = (
        f"alpha rebuilt {base_breaks}/{trials} base secrets; hardened-variant "
        f"key matched a transcript+alpha candidate {pfs_breaks}/{trials} times"
    )
    assert _verdict(5, ok, detail)


def test_criterion_6_session_model_suite():
    """Every bundled adversary script passes its embedded assertions."""
    names = sorted(path.name for path in SCENARIO_DIR.glob("*.jsonl"))
    failing = []
    queries = 0
    for name in names:
        lines = (SCENARIO_DIR / name).read_text().splitlines()
        report = run_scenario(lines)
        queries += report["queries"]
        if not report["ok"]:
            failing.append(name)
    ok = not failing and len(names) == 6
    detail = (
        f"{len(names) - len(failing)}/{len(names)} scenarios pass "
        f"({queries} queries){'; failing: ' + ', '.join(failing) if failing else ''}"
    )
    assert _verdict(6, ok, detail)


def test_criterion_7_key_uniformity():
    """Monobit smoke test: every byte position near half ones over 10k keys."""
    params, msk = setup(16, "acceptance-7")
    alice = extract(params, msk, "acceptance-alice")
    bob = extract(params, msk, "acceptance-bob")
    rng = random.Random("acceptance-7")
    draws = 10_000
    ones = [0] * 32
    for _ in range(draws):
        _, msg_a, _, msg_b, sk = ref.session(params, msk, alice.identity, bob.identity, rng)
        key = session_key(params, sk, alice.identity, bob.identity, msg_a, msg_b)
        for position, byte in enumerate(key.key):
            ones[position] += bin(byte).count("1")
    fractions = [count / (8 * draws) for count in ones]
    worst = max(abs(fraction - 0.5) for fraction in fractions)
    ok = worst <= 0.05
    detail = (
        f"per-byte-position ones fraction within 0.5 +/- {worst:.4f} "
        f"over {draws} keys (tolerance 0.05)"
    )
    assert _verdict(7, ok, detail)
