"""Per-layer metrics and the modeled-versus-traced cost table.

Both are computed from a traced pass (see tracer.py).  Times are nominal
(see speed.py) and self time is summed over the pass, so on a fixed
operation sequence it compares across commits.
"""

from __future__ import annotations

import collections
import statistics

from idak import cli, protocol
from probes import FEEDS, KS

STRATEGY_LABELS = tuple(strategy.label() for strategy in protocol.STRATEGIES)

_SPANNED = ("pairing", "scalar_exp", "subgroup_check", "hash_to_group", "gt_exp")

# (metric name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    *((f"bilinear.{fn}.{stat}", unit) for fn in _SPANNED
      for stat, unit in (("calls", "count"), ("self_ms", "ms"))),
    ("bilinear.scalar_exp.exp_bits", "bits"),
    ("bilinear.point_add.calls", "count"),
    ("bilinear.is_on_curve.calls", "count"),
    ("bilinear.decode_group_params.self_ms", "ms"),
    ("protocol.derive.calls", "count"),
    ("protocol.derive.self_ms", "ms"),
    ("protocol.derive.degenerate_retries", "count"),
    *((f"protocol.derive.{label}.ms_p50", "ms") for label in STRATEGY_LABELS),
    ("protocol.initiate.self_ms", "ms"),
    ("protocol.session_key.self_ms", "ms"),
    ("protocol.pfs.self_ms", "ms"),
    *((f"sessions.{fn}.self_ms", "ms") for fn in ("send", "new_oracle", "fresh", "test")),
    ("sessions.send.rejected", "count"),
    ("sessions.oracles", "count"),
    ("sessions.scenario.self_ms", "ms"),
    *((f"selfreduction.{fn}.self_ms", "ms") for fn in ("randomize", "correct", "oracle")),
    ("selfreduction.validate_instance.calls", "count"),
    ("selfreduction.vote_useful_ratio", "ratio"),
    ("keystore.load.calls", "count"),
    ("keystore.load.self_ms", "ms"),
    ("keystore.save.calls", "count"),
    ("keystore.save.self_ms", "ms"),
    ("keystore.bytes_written", "bytes"),
    *((f"cli.{fn}.self_ms", "ms") for fn in ("initiate", "respond", "finalize")),
    ("cli.nonzero_exits", "count"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    *((f"probe.{fn}.k{k}.us_p50", "us") for fn in FEEDS for k in KS),
)


def vote_counts(index):
    """(rounds that voted for the amplify winner, rounds) over the pass."""
    useful = rounds = 0
    for span in index.by_name("selfreduction.amplify"):
        for child in index.children[span[0]]:
            if child[1] == "selfreduction.correct":
                rounds += 1
                useful += child[6] is not None and child[6] == span[6]
    return useful, rounds


def per_layer(index, tracer, notes):
    """Every per-layer metric that comes from the traced pass, by name."""
    m = {}
    for fn in _SPANNED:
        m[f"bilinear.{fn}.calls"] = index.calls[f"bilinear.{fn}"]
        m[f"bilinear.{fn}.self_ms"] = index.self_ms(f"bilinear.{fn}")
    bits = [span[6][0] for span in index.by_name("bilinear.scalar_exp")]
    m["bilinear.scalar_exp.exp_bits"] = statistics.fmean(bits) if bits else 0.0
    m["bilinear.point_add.calls"] = tracer.counts["bilinear.point_add.calls"]
    m["bilinear.is_on_curve.calls"] = tracer.counts["bilinear.is_on_curve.calls"]
    m["bilinear.decode_group_params.self_ms"] = index.self_ms("bilinear.decode_group_params")

    derives = index.by_name("protocol.derive")
    m["protocol.derive.calls"] = len(derives)
    m["protocol.derive.self_ms"] = index.self_ms("protocol.derive")
    m["protocol.derive.degenerate_retries"] = sum(
        isinstance(span[6][1], protocol.DegenerateExponentError) for span in derives
    )
    durations = collections.defaultdict(list)
    for span in derives:
        durations[span[6][0]].append(index.duration_ms(span))
    for label in STRATEGY_LABELS:
        values = durations.get(label)
        m[f"protocol.derive.{label}.ms_p50"] = statistics.median(values) if values else 0.0
    for fn in ("initiate", "session_key", "pfs"):
        m[f"protocol.{fn}.self_ms"] = index.self_ms(f"protocol.{fn}")

    for fn in ("send", "new_oracle", "fresh", "test", "scenario"):
        m[f"sessions.{fn}.self_ms"] = index.self_ms(f"sessions.{fn}")
    m["sessions.send.rejected"] = sum(
        span[6] is not None for span in index.by_name("sessions.send")
    )
    m["sessions.oracles"] = notes.get("oracles", 0)

    for fn in ("randomize", "correct", "oracle"):
        m[f"selfreduction.{fn}.self_ms"] = index.self_ms(f"selfreduction.{fn}")
    m["selfreduction.validate_instance.calls"] = index.calls["selfreduction.validate_instance"]
    useful, rounds = vote_counts(index)
    m["selfreduction.vote_useful_ratio"] = useful / rounds if rounds else 0.0

    for fn in ("load", "save"):
        m[f"keystore.{fn}.calls"] = index.calls[f"keystore.{fn}"]
        m[f"keystore.{fn}.self_ms"] = index.self_ms(f"keystore.{fn}")
    m["keystore.bytes_written"] = tracer.counts["keystore.bytes_written"]
    for fn in ("initiate", "respond", "finalize"):
        m[f"cli.{fn}.self_ms"] = index.self_ms(f"cli.{fn}")
    m["cli.nonzero_exits"] = sum(span[6] != 0 for span in index.by_name("cli.main"))
    return m


def _traced_costs(index, tracer, span):
    """Primitive calls inside one derive span, by kind."""
    by_id = {span[0]: span}
    tally = collections.Counter()
    for child in index.descendants(span):
        by_id[child[0]] = child
    for child in by_id.values():
        tally["point_add"] += tracer.inner[child[0], "bilinear.point_add.calls"]
        name = child[1].partition(".")[2]
        if name != "scalar_exp":
            tally[name] += 1
        elif by_id.get(child[4], span)[1] != "bilinear.hash_to_group":  # not cofactor clearing
            bits, q_bits = child[6]
            tally["exp_half" if bits <= (q_bits + 1) // 2 else "exp_full"] += 1
    return (tally["pairing"], tally["exp_full"], tally["exp_half"], tally["point_add"],
            tally["gt_exp"], tally["subgroup_check"], tally["hash_to_group"])


def cost_table(index, tracer):
    """Rows of modeled OpCounts beside traced primitive calls, per strategy."""
    rows = []
    per_strategy = collections.defaultdict(list)
    for span in index.by_name("protocol.derive"):
        label, counts = span[6]
        if isinstance(counts, protocol.OpCounts):
            per_strategy[label].append(
                ((counts.pairings, counts.exp_g, counts.mul_g, counts.exp_gt),
                 _traced_costs(index, tracer, span))
            )
    for label in STRATEGY_LABELS:
        observed = per_strategy.get(label)
        if not observed:
            continue
        (modeled, traced), seen = collections.Counter(observed).most_common(1)[0]
        rows.append((label, seen, len(observed), modeled, cli.EXPECTED_COSTS[label], traced))
    return rows


def format_cost_table(rows):
    lines = [
        "cost table: derive's OpCounts (modeled) and cli.EXPECTED_COSTS beside the calls "
        "traced inside derive",
        "strategy  derives  modeled(pair,exp_g,mul_g,exp_gt)  expected"
        "  | pairing exp_full exp_half point_add gt_exp subgroup_check hash_to_group",
    ]
    for label, seen, total, modeled, expected, traced in rows:
        lines.append(
            f"{label:<9} {seen:>3}/{total:<4} {str(modeled):<33} {str(expected):<17} | "
            + " ".join(f"{value:>{width}}" for value, width in zip(
                traced, (7, 8, 8, 9, 6, 14, 13)))
        )
    lines.append(
        "exp_full/exp_half: scalar multiplications whose exponent is longer than, or at most, "
        "pi's half length; the flow's own g_id^x happens in initiate, outside derive"
    )
    return lines
