"""Layer probes: each public primitive timed alone at k = 16, 32 and 128.

A probe isolates one primitive that the end-to-end workloads exercise, so a
change to that primitive shows here first; FEEDS names the workload and
end-to-end metric each probe should move.  Inputs are drawn from the seed
outside the timed call, and each probe reports the median over REPS calls
of nominal times (see speed.py).
"""

from __future__ import annotations

import random
import statistics
import time

from idak import bilinear, protocol, sessions
from idak.errors import DegenerateExponentError
from speed import SpeedMeter
from workloads import param_seed

KS = (16, 32, 128)
REPS = 21

FEEDS = {
    "pairing": "sessions-k128 ops_per_s, op_ms_*; amplify-k16 ops_per_s",
    "scalar_exp_full": "sessions-k128 ops_per_s, op_ms_* (initiate, c1-nopre derive)",
    "scalar_exp_half": "sessions-k128 ops_per_s, op_ms_* (pi-length blends)",
    "subgroup_check": "cli-k32 op_ms_*; world-k16 ops_per_s; amplify-k16 ops_per_s",
    "hash_to_group": "cli-k32 op_ms_*; world-k16 ops_per_s",
    "gt_exp": "sessions-k128 op_ms_* (c2 strategies); amplify-k16 ops_per_s",
    "pi_value": "sessions-k128 and world-k16 ops_per_s",
    "session_key": "sessions-k128 and world-k16 ops_per_s",
    "world_send": "world-k16 ops_per_s, op_ms_*",
}


def _median_us(meter, samples):
    """Median of (start, end) wall intervals, in nominal microseconds."""
    return statistics.median((end - start) * meter.scale(start, end) for start, end in samples) * 1e6


def _time_calls(meter, fn, inputs):
    fn(*inputs[0])  # warm-up, untimed
    samples = []
    for args in inputs:
        meter.sample_if_due()
        start = time.perf_counter()
        fn(*args)
        samples.append((start, time.perf_counter()))
    meter.sample()
    return _median_us(meter, samples)


def _world_send_us(meter, params, msk, rng):
    """Median time of an honest responder activation (derive and key).

    A send whose combined exponent vanishes (DegenerateExponentError, the
    documented outcome at small k) is not timed; the exchange runs again on
    fresh oracles.
    """
    world = sessions.World(params, msk, mode="br", rng=rng)
    samples = []
    while len(samples) < REPS + 1:
        init = world.new_oracle("probe-a", "probe-b")
        flow = world.send(init, None)
        resp = world.new_oracle("probe-b", "probe-a")
        meter.sample_if_due()
        start = time.perf_counter()
        try:
            world.send(resp, flow)
        except DegenerateExponentError:
            continue
        samples.append((start, time.perf_counter()))
    meter.sample()
    return _median_us(meter, samples[1:])  # the first send is a warm-up


def run(seed):
    """Return {"probe.<fn>.k<k>.us_p50": nominal microseconds} for every probe."""
    meter, results = SpeedMeter(), {}
    for k in KS:
        params, msk = protocol.setup(k, param_seed(k))
        group, g = params.group, params.g
        rng = random.Random(f"probe:{seed}:{k}")
        half_bits = (group.q.bit_length() + 1) // 2

        def point():
            return bilinear.scalar_exp(group, g, bilinear.random_scalar(group, rng))

        points = [(point(), point()) for _ in range(REPS)]
        full = [bilinear.random_scalar(group, rng) for _ in range(REPS)]
        half = [1 + rng.getrandbits(half_bits - 1) for _ in range(REPS)]
        base = bilinear.pairing(group, g, g)
        inputs = {
            "pairing": (bilinear.pairing, [(group, a, b) for a, b in points]),
            "scalar_exp_full": (
                bilinear.scalar_exp, [(group, a, n) for (a, _), n in zip(points, full)]),
            "scalar_exp_half": (
                bilinear.scalar_exp, [(group, a, n) for (a, _), n in zip(points, half)]),
            "subgroup_check": (bilinear.in_subgroup, [(group, a) for a, _ in points]),
            "hash_to_group": (
                bilinear.hash_to_group, [(group, f"probe-{seed}-{i}") for i in range(REPS)]),
            "gt_exp": (bilinear.gt_exp, [(base, n) for n in full]),
            "pi_value": (protocol.pi_value, [(params, a, b) for a, b in points]),
            "session_key": (protocol.session_key, [
                (params, protocol.SharedSecret(bilinear.gt_exp(base, n)), "probe-a", "probe-b",
                 protocol.FlowMessage(a), protocol.FlowMessage(b))
                for (a, b), n in zip(points, full)
            ]),
        }
        for name, (fn, args) in inputs.items():
            results[f"probe.{name}.k{k}.us_p50"] = _time_calls(meter, fn, args)
        world_rng = random.Random(f"probe-world:{seed}:{k}")
        results[f"probe.world_send.k{k}.us_p50"] = _world_send_us(meter, params, msk, world_rng)
    return results
