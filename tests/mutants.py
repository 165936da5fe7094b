"""The mutant ledger: faults in src/ that named tests must catch.

Each entry is (file, old, new, tests, breaks): replacing the one `old` in
src/<file> by `new` makes every test node in `tests` fail or error, and
`breaks` says what it breaks.  A known survivor carries a sixth field,
"survives: <reason>": its tests all pass under the mutant, and the reason
says why no test catches it.  `python tests/mutants.py`, run from the
repository root, applies each entry to its own copy of src/, runs its tests
there at the ci hypothesis profile and prints a line per entry.  It exits 1
if an entry survives or a known survivor is caught, so the ledger changes
when a test starts to catch one.  `python tests/mutants.py 4 19` runs only
entries 4 and 19, counted from 1; an index outside the ledger exits 2.
An entry whose tests run past ENTRY_TIMEOUT seconds is stopped, and each
of its tests is reported by name as hung, which counts as a kill: a
mutant that makes a test loop forever is caught, not left to hang the run.
tests/test_ci_mutants.py checks the ledger in tier-1.
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# seconds an entry's tests may run: the slowest entry takes well under a
# minute, so only a hung run reaches it
ENTRY_TIMEOUT = 120
BILINEAR = "idak/bilinear.py"
CORE = "tests/test_core_differential.py::"
SIZES = CORE + "test_fixed_base_exp_and_checked_pairing_at_protocol_sizes"
U_IS_QR = CORE + "test_cofactor_point_is_q_times_the_hashed_point"
COSTS = ("tests/test_protocol.py::test_operation_cost_table",
         "tests/test_acceptance.py::test_criterion_2_strategy_cost_table",
         "tests/test_cli.py::test_bench_prints_four_tsv_rows")  # idak bench exits 3
C1 = "    shared = _checked_pairing(group, blended_peer, own_point)\n"
C2 = "        shared = _fixed_pairing(group, blended_peer, own.d_id, own_exp)\n"
# respond's derive and its flow write, in that order
DERIVE, WRITE = (
    '    key, counts = _derive_key(args, params, own, "responder", y, msg, peer_ident, peer_msg)\n',
    '    _write_flow(args.flow_out, encode_flow(params, "responder", own.identity, msg, extra))\n')
# amplify's table fetch, which validates the instance, its draw of every
# round's shifts, and the loop over them
PREPARE, SHIFTS = ("    table, products = _prepared(params, inst)\n",
                   "    shifts = [(rng.randrange(q), rng.randrange(q), rng.randrange(q))"
                   " for _ in range(rounds)]\n")
ROUNDS = "    votes = {}\n    for a, b, c in shifts:\n"
# amplify's round by the additive blinding, and by a multiplicative one
ADDITIVE_ROUND = ("        candidate = _unblind(params, products,"
                  " oracle(_blind(p, table, inst, a, b, c)), a, b, c)\n")
MULTIPLICATIVE_ROUND = ("        a, b, c = a or 1, b or 1, c or 1\n"
                        "        w = oracle(CbdhInstance(inst.g, fixed_base_exp(params, inst.x_point, a),\n"
                        "                                fixed_base_exp(params, inst.y_point, b),\n"
                        "                                fixed_base_exp(params, inst.z_point, c)))\n"
                        "        candidate = gt_exp(w, pow(a * b * c, -1, q))[:2]\n")
BLIND = "    return CbdhInstance(\n        inst.g,\n"
# the trace walk's sign test, after a hit on j at giant step i
SIGN = "    return k if _ladder_pow(p, z.a, z.b, k) == d else (i * width - j) % q\n"
AMPLIFY = "tests/test_selfreduction.py::"
SESSIONS = "tests/test_sessions.py::"
CRITERION_6 = "tests/test_acceptance.py::test_criterion_6_session_model_suite"
KEYSTORE = "tests/test_keystore.py::"
IDENTITY = "tests/test_identity.py::test_every_use_refuses_what_the_rule_refuses"
IDENTITY_RULE = "not isinstance(ident, (bytes, bytearray)) or not 1 <= len(ident) <= 0xFFFF"
# World.send's derive, by the core and by the public derive
RELAY = ("            shared = _derive_trusted(\n"
         "                self.params, own_key, oracle.ephemeral, oracle.own_msg.r,\n"
         "                self.principals[oracle.peer].g_id, msg_in.r, _RELAY_STRATEGY,\n"
         "            )\n")
PUBLIC_RELAY = ("            from .protocol import derive\n"
                "            shared, _ = derive(\n"
                "                self.params, own_key, oracle.ephemeral, oracle.own_msg,\n"
                "                oracle.peer, msg_in, oracle.role, _RELAY_STRATEGY,\n"
                "            )\n")
# _coerce_flow's decoding of bytes
BYTES_ONLY = "        if isinstance(flow, (bytes, bytearray)):\n"
# fresh's wpfsbr rule: the flow came from the peer's oracle, in the other role
PASSIVE = ("                if not any(\n"
           "                    sender.owner == oracle.peer and sender.peer == oracle.owner\n"
           "                    and sender.role != oracle.role for sender in drawers\n"
           "                ):\n"
           "                    return False\n")
NOBODY = '    if not ident:\n        raise KeystoreError("identity payload names nobody")\n'
# the scenario runner's _fail, before which a mutant puts a public function with no caller
FAIL = "def _fail(report: dict, record: dict, reason: str):\n"

MUTANTS = (
    (BILINEAR, "(params.q.bit_length() + 1)", "params.q.bit_length()", (SIZES + "[24]",),
     "a window table of ceil(|q| / 6) rows, which a walk's carry overruns when 6 divides |q|"),
    (BILINEAR, "if d > half:", "if d >= half:", (SIZES + "[23]",),
     "a walk that subtracts 64 from a digit of 32 carries out of the last row at |q| = 23"),
    (BILINEAR, "is_probable_prime(q) and is_probable_prime(p)", "is_probable_prime(q)",
     ("tests/test_cli.py::test_a_pseudoprime_p_is_a_data_error",),
     "a params decoder that tests q alone accepts a strong base-2 pseudoprime p"),
    ("idak/protocol.py", "_require_in_subgroup(_in_group(group, peer_msg.r))", "pass",
     ("tests/test_protocol.py::test_derive_reports_its_first_fault_in_check_order",),
     "derive's choice 2 skips the received point's subgroup check and derives a key from "
     "outside it"),
    (BILINEAR, "for r in primes)", "for r in primes[:-1])",
     (CORE + "test_the_cached_character_has_order_h",),
     "a character-order test without h's largest prime r keeps a U of order h/r"),
    (BILINEAR, 'int.from_bytes(digest[32:], "big") % p', "0",
     (CORE + "test_in_group_matches_the_q_walk_on_every_point",),
     "U hashed from an x in F_p has no character of order h, so the search for U raises"),
    (BILINEAR, "(-ya % p, yb)", "(ya, -yb % p)", (U_IS_QR,),
     "U built from R + pi(R) in place of R - pi(R) walks a D off the curve"),
    (BILINEAR, "return _fp2_affine_add(p, _fp2_affine_add(p, kc, kd)[1], r)[1]",
     "return _fp2_affine_add(p, kc, kd)[1]", (U_IS_QR,),
     "a U that drops the last + R is [q - 1]R"),
    (BILINEAR, "return v1 is not None and", "return v1 is None or",
     (CORE + "test_a_line_of_the_chain_that_vanishes_at_the_point_answers_false",),
     "a check that answers True where a line of U's chain vanishes accepts the chain's points"),
    (BILINEAR, "b = -z.b if n < 0 else z.b", "b = -z.b if n > 0 else z.b",
     (CORE + "test_gt_exp_ladder_matches_reference_on_every_element",),
     "a GT ladder that raises the conjugate for positive n gives z^-n"),
    (BILINEAR, "X, Y, Z = _jac_add_affine(p, X, Y, Z, px, y)  # no line", "Z = 0  # no line",
     ("tests/test_signed_digits.py::test_minus_one_digit_edge_cases_match_the_binary_reference",),
     "a Miller chord with H = 0 sends T to the identity, so an outside left point meets it"),
    (BILINEAR, "return GTElem(z.a, -z.b % z.p, z.p)", "return z",
     ("tests/test_bilinear.py::test_gt_operations",), "a gt_inv that returns z is no inverse"),
    (BILINEAR, "-2 * fa * fb * n_inv % p", "2 * fa * fb * n_inv % p",
     (CORE + "test_final_exponentiation_matches_the_generic_power",),
     "a Frobenius quotient f^(1-p) inverts every final exponentiation"),
    (BILINEAR, "return pow(a, (p + 1) // 4, p) if _jacobi(a, p) == 1 else None",
     "return pow(a, (p + 1) // 4, p)", (CORE + "test_fp_sqrt_roots_exactly_the_nonzero_squares",),
     "an F_p square root without its residue test roots a non-residue"),
    ("idak/protocol.py", C1, C1 * 2, COSTS, "choice 1's derive pairs twice"),
    ("idak/protocol.py", C2, C2 * 2, COSTS, "choice 2's derive evaluates d_id's line table twice"),
    ("idak/keystore.py", "if d_id.is_identity() or not _in_subgroup_once(group, payload, d_id):",
     "if d_id.is_identity():",
     ("tests/test_keystore.py::test_identity_rejects_a_key_point_outside_the_subgroup",),
     "an identity file whose key point is outside the subgroup loads"),
    ("idak/sessions.py", "validate_flow_point(self.params, flow.r)", "pass",
     (SESSIONS + "test_rejected_flow_aborts_oracle_and_draws_nothing",
      SESSIONS + "test_a_world_keys_only_points_of_the_subgroup"),
     "a World derives a key from a flow point outside the subgroup, as nothing after its "
     "boundary checks the point"),
    ("idak/sessions.py", RELAY, PUBLIC_RELAY,
     ("tests/test_boundary.py::"
      "test_a_warm_world_relay_pairs_by_cached_lines_and_checks_only_foreign_flows",),
     "World.send calls the public derive, which checks the flows the world emitted or "
     "validated again"),
    ("idak/selfreduction.py", "return GTElem(*max(votes, key=votes.get), p)",
     "return GTElem(*max(reversed(votes), key=votes.get), p)",
     (AMPLIFY + "test_amplify_breaks_a_tie_for_the_first_seen_candidate",),
     "amplify lets the last-seen candidate win a tie"),
    ("idak/selfreduction.py", "    if w.p != p:\n", "    if False:\n",
     (AMPLIFY + "test_an_answer_over_another_field_is_refused_before_it_votes",),
     "_unblind takes an answer over another field and unblinds its coordinates mod p"),
    ("idak/selfreduction.py", BLIND, "    return inst\n" + BLIND,
     (AMPLIFY + "test_randomize_hides_the_query", AMPLIFY + "test_randomize_matches_reference"),
     "_blind ignores its shifts, so every query is the instance itself"),
    ("idak/selfreduction.py", PREPARE + SHIFTS, SHIFTS + PREPARE,
     (AMPLIFY + "test_amplify_rejects_invalid_instance_before_any_query",),
     "amplify draws its shifts from rng before it rejects an invalid instance"),
    ("idak/cli.py", "handle.truncate()", "pass",
     ("tests/test_cli.py::test_flow_out_over_a_longer_file_holds_only_the_new_flow",),
     "a flow written over a longer file keeps the old file's tail"),
    (BILINEAR, "if end > len(data):", "if False:",
     ("tests/test_bilinear.py::test_framed_field_and_point_readers",),
     "take_sized returns a cut field short instead of refusing it"),
    # six contracts that CI once checked through the idak console script
    ("idak/__main__.py", "sys.exit(main())", "sys.exit(0)",
     ("tests/test_cli.py::test_the_readme_walkthrough_runs_as_written_in_fresh_processes",),
     "the walkthrough step: python -m idak exits 0 without running its command"),
    ("idak/cli.py", 'return data.decode("utf-8").splitlines()',
     "return source.read_text().splitlines()",
     ("tests/test_cli.py::test_bundled_scenario_is_read_as_utf8_not_in_the_locale_encoding",),
     "the scenario step: a scenario file read in the locale's encoding, not as UTF-8"),
    ("idak/sessions.py", 'DegenerateExponentError: "degenerate-exponent",',
     'DegenerateExponentError: "degenerate",',
     ("tests/test_cli.py::test_scenario_at_three_bits_reports_its_failed_lines",),
     "the scenario step: the k = 3 report names its vanished exponent degenerate"),
    ("idak/sessions.py", "if outcome is None or outcome != expect:",
     "if outcome is None or not outcome:",
     ("tests/test_sessions.py::test_every_assertion_is_compared_with_expect",),
     "the expect step: an assertion judged without its expect, so expect false fails nothing"),
    ("idak/cli.py", '"--k-bits", type=_reduce_k_bits,', '"--k-bits", type=_k_bits,',
     tuple(f"tests/test_cli.py::test_out_of_range_numbers_are_usage_errors[reduce --k-bits {k}]"
           for k in (33, 64)),
     "the reduce step: a --k-bits past the mock oracle's table bound is not a usage error"),
    ("idak/cli.py", '"identity", type=_identity,', '"identity",',
     ("tests/test_cli.py::test_non_utf8_names_are_usage_errors_that_write_nothing",),
     "the non-UTF-8 step: extract takes a name it cannot encode and exits 1, not 2"),
    ("idak/cli.py", DERIVE + WRITE, WRITE + DERIVE,
     ("tests/test_cli.py::test_a_mutated_input_file_exits_0_or_1_and_writes_only_on_success",),
     "the hostile-file property: respond writes its flow before derive refuses the received one"),
    # the freshness, master-compromise and KDF-binding claims of the north star
    ("idak/sessions.py", 'if self.mode == "br" or when < oracle.completed_at:',
     "if when < oracle.completed_at:",
     (CRITERION_6, SESSIONS + "test_fresh_gate_corrupt_br",
      "tests/test_pinned_outputs.py::test_scenario_report_is_byte_identical"
      "[br_corrupt_after.jsonl-16-br]"),
     "fresh treats br like wpfsbr: a corruption after completion keeps a br oracle fresh"),
    ("idak/sessions.py", "if other.revealed and self.matching(oracle, other):", "if False:",
     (CRITERION_6, SESSIONS + "test_fresh_gate_reveal_self_and_partner",
      SESSIONS + "test_binding_partners_match_the_transcript_reference"),
     "fresh ignores a revealed matching oracle"),
    ("idak/sessions.py", "if identity in self.extracted:", "if False:",
     (CRITERION_6, SESSIONS + "test_fresh_gate_extract", SESSIONS + "test_freshness_is_monotone"),
     "fresh ignores an extracted owner or peer"),
    ("idak/protocol.py", "        + identity_bytes(id_b)\n", "",
     ("tests/test_protocol.py::test_session_key_binds_identities_and_flows",
      "tests/test_protocol.py::test_session_key_regression_pin"),
     "the session KDF does not bind the responder's identity"),
    ("idak/protocol.py", "gt_exp(pairing(group, blended_a, blended_b), alpha)",
     "gt_exp(pairing(group, blended_a, blended_b), 1)",
     ("tests/test_acceptance.py::test_criterion_5_authority_compromise_boundary",
      "tests/test_protocol.py::test_master_compromise_cannot_reach_pfs_key"),
     "master_compromise_compute raises the pairing to 1, not to alpha"),
    # three faults that CHANGES.md once described only in prose
    ("idak/protocol.py", "blended_peer, own.d_id, own_exp)", "blended_peer, own.d_id, own_x)",
     (SESSIONS + "test_a_world_relay_key_is_the_key_of_every_strategy",),
     "choice 2 raises its pairing to x alone, not to x + s, so its key differs from choice 1's"),
    ("idak/cli.py", "if stat.S_ISREG(os.fstat(fd).st_mode):", "if True:",
     ("tests/test_cli.py::test_flow_out_may_be_a_device",),
     "a flow written to a device is cut to length, which a device refuses"),
    (BILINEAR, "return _strong_probable_prime(n) and _strong_lucas_probable_prime(n)",
     "return _strong_probable_prime(n)",
     ("tests/test_bilinear.py::test_the_lucas_step_refuses_strong_base_2_pseudoprimes",),
     "a primality test without its Lucas step accepts strong base-2 pseudoprimes"),
    ("idak/sessions.py", BYTES_ONLY, "        if not isinstance(flow, (bytes, bytearray)):\n"
     "            return flow\n" + BYTES_ONLY,
     (SESSIONS + "test_a_world_keys_only_points_of_the_subgroup",
      "tests/test_boundary.py::test_every_boundary_refuses_an_off_curve_point[World.send]"),
     "a World validates only the flows it decodes from bytes, and keys a FlowMessage outside "
     "the subgroup"),
    # nine refusals that CHANGES.md's identity-rule entry once gave only as prose
    (BILINEAR, "is_probable_prime(q) and is_probable_prime(p)", "is_probable_prime(p)",
     ("tests/test_bilinear.py::test_params_decoding_rejects_a_composite_p_or_q[composite-q]",),
     "a params decoder that tests p alone accepts a composite q"),
    ("idak/keystore.py", NOBODY, "", (KEYSTORE + "test_identity_rejects_a_payload_naming_nobody",),
     "an identity file that names nobody fails in hashing, not with the keystore's refusal"),
    ("idak/cli.py",
     "if extra is not None and not pfs_verify_extra(params, own, peer_id, peer_msg, extra):",
     "if False:",
     ("tests/test_cli.py::test_finalize_pfs_refuses_an_extra_that_fails_the_pairing_check",),
     "finalize --pfs takes an extra point that fails the pairing check"),
    ("idak/cli.py", "if args.pfs and extra is None:", "if False:",
     ("tests/test_cli.py::test_finalize_pfs_refuses_a_flow_without_extra",),
     "finalize --pfs reads a flow without an extra point and dies in a traceback"),
    ("idak/cli.py", "return EXIT_ASSERT if mismatches else EXIT_OK", "return EXIT_OK",
     ("tests/test_cli.py::test_bench_exits_three_on_a_cost_mismatch",),
     "idak bench prints a cost mismatch and exits 0"),
    (BILINEAR, IDENTITY_RULE, "not 1 <= len(ident) <= 0xFFFF",
     tuple(f"{IDENTITY}[{kind}-identity_bytes]" for kind in ("int", "list")),
     "an identity need not be text or bytes: 3 fails in len and [97] stands for b'a'"),
    (BILINEAR, IDENTITY_RULE, "not isinstance(ident, (bytes, bytearray))",
     tuple(f"{IDENTITY}[{kind}-identity_bytes]" for kind in ("empty-str", "0x10000-bytes")),
     "an identity may be empty or overflow its 2-byte frame"),
    (BILINEAR, "if type(identity) is bytes and 1 <= len(identity) <= 0xFFFF:",
     "if type(identity) is bytes:",
     tuple(f"{IDENTITY}[{kind}-identity_bytes]" for kind in ("empty-bytes", "0x10000-bytes")),
     "identity_bytes' fast path for exact bytes takes an empty identity or one that overflows "
     "its 2-byte frame"),
    ("idak/sessions.py", 'seed=str(cfg.get("seed", "scenario")),',
     'seed=cfg.get("seed", "scenario"),',
     ("tests/test_cli.py::test_an_integer_seed_means_its_decimal_text",),
     "a scenario's integer seed builds another group than idak scenario --seed"),
    ("idak/keystore.py", "found = _HEADER_KINDS.get(header)",
     'found = header.startswith(HEADER_MAGIC) and header.rpartition("kind=")[2] or None',
     (KEYSTORE + "test_entry_rejects_malformed_files",),
     "read_entry takes any header that starts as its own, the last kind= token winning"),
    # known survivors
    ("idak/sessions.py", "when < oracle.completed_at", "when <= oracle.completed_at",
     (SESSIONS + "test_wpfs_corrupt_after_completion_keeps_fresh",
      SESSIONS + "test_wpfs_corrupt_before_completion_poisons"),
     "fresh lets a wpfsbr corruption in the tick of the completion poison the oracle",
     "survives: equivalent, as send and corrupt each advance World.clock, so a corruption "
     "never shares a tick with a completion"),
    ("idak/keystore.py", "seen = (group, hashlib.sha256(payload).digest())",
     "seen = hashlib.sha256(payload).digest()",
     (KEYSTORE + "test_an_identity_loaded_under_one_group_is_refused_under_another",
      KEYSTORE + "test_a_refused_payload_is_refused_on_every_load"),
     "a payload checked under one group skips its subgroup check under another",
     "survives: under another group the decode's own checks (on the curve, g_id = H(id)) "
     "refuse a key first; a search of the 19 valid groups with one-byte coordinates and "
     "20,000 identities found no key payload that two groups accept with d_id outside the "
     "second group's subgroup"),
    # choice 2's fused raise, and the wpfsbr rule for a corruption after completion
    ("idak/protocol.py", C2,
     "        shared = gt_exp(_fixed_pairing(group, blended_peer, own.d_id, 1), own_exp)\n",
     ("tests/test_boundary.py::"
      "test_a_warm_world_relay_raises_in_its_pairing_and_encodes_each_flow_once",),
     "choice 2 pairs, then raises by a separate gt_exp: the same keys from more work, "
     "and the separate gt_exp counts a second exp_gt"),
    ("idak/sessions.py", PASSIVE, "",
     (SESSIONS + "test_wpfs_corruption_after_an_active_attack_poisons",
      SESSIONS + "test_wpfs_corruption_after_a_rerouted_flow_poisons"),
     "wpfsbr keeps any oracle fresh after a corruption that followed its completion, so "
     "an adversary that sent the flow as the corrupted party wins the test query"),
    ("idak/cli.py", "ok = extract(params, alpha, key.identity) == key",
     "ok = extract(params, alpha, key.identity).g_id == key.g_id",
     ("tests/test_cli.py::test_verify_key_rejects_forgeries",
      "tests/test_cli.py::test_verify_key_answers_the_pairing_equation"),
     "verify-key compares only the hashed identity, which load_identity has already "
     "checked, so it accepts a forged d_id"),
    # amplify's shifts: drawn before the first query, and never all zero
    ("idak/selfreduction.py", SHIFTS + ROUNDS,
     "    votes = {}\n    for _ in range(rounds):\n"
     "        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)\n",
     (AMPLIFY + "test_an_oracle_that_draws_from_amplifys_rng_cannot_move_the_shifts",),
     "amplify draws each round's shifts between oracle calls, so an oracle that draws "
     "from the same rng changes the queries that follow"),
    ("idak/selfreduction.py", SHIFTS, "    shifts = [(0, 0, 0)] * rounds\n",
     (AMPLIFY + "test_amplify_solves_every_instance_for_an_oracle_right_on_a_fixed_share",),
     "amplify does not blind: every round asks the instance itself, so an oracle that is "
     "right on a fixed share of instances decides each one alone"),
    # four refusals that no test reached, and what the additive blinding buys
    (BILINEAR, "# D shares a factor with n\n        return False",
     "# D shares a factor with n\n        return True",
     ("tests/test_bilinear.py::test_the_lucas_step_refuses_an_n_that_shares_a_factor_with_d",),
     "a Lucas step called directly passes an n that shares a factor with D, as 1055 = 5 * 211"),
    (BILINEAR, "            if v1 is None:\n                continue\n",
     "            if v1 is None:\n                return lines\n",
     (CORE + "test_a_test_point_where_a_line_vanishes_is_passed_over",),
     "the search for U keeps a U whose line vanishes at its test point, untested"),
    (BILINEAR, "    raise ParameterSearchError(\n        f\"no point of order h",
     "    return ()\n    raise ParameterSearchError(\n        f\"no point of order h",
     (CORE + "test_a_search_that_finds_no_u_raises_its_typed_error",),
     "a search that finds no U returns an empty chain, whose trace puts every point in G"),
    (BILINEAR, "if i != len(bits) - 1:", 'if bit == "1":',
     (CORE + "test_the_chain_refuses_a_u_whose_multiples_leave_its_path",),
     "a chain that meets a point of order 2 before its last doubling ends there, so a U of "
     "order h/2 gets lines"),
    ("idak/selfreduction.py", ADDITIVE_ROUND, MULTIPLICATIVE_ROUND,
     tuple(f"{AMPLIFY}test_amplify_solves_every_instance_for_a_wrong_answer_tied_to_the_query"
           f"[{oracle}]" for oracle in ("IdentityOffShareOracle", "DoubledXOracle")),
     "amplify blinds by [a]X, [b]Y, [c]Z and unblinds by the power 1/abc, so an oracle "
     "that answers 1 or the truth squared off its share wins every vote"),
    # the discrete log over GT traces: its sign ladder and its target's subgroup check
    ("idak/selfreduction.py", SIGN, "    return k\n",
     (AMPLIFY + "test_solve_dlog_matches_brute_force",
      AMPLIFY + "test_mock_oracle_matches_a_reference_answer_for_answer"),
     "the trace walk answers iW + j for every hit, so a k = iW - j comes back negated"),
    ("idak/selfreduction.py", "target.is_identity() or _in_group(params, target)",
     "target.is_identity() or True",
     (AMPLIFY + "test_solve_dlog_rejects_foreign_points",),
     "the trace walk takes a target outside the subgroup and returns its subgroup "
     "part's log, as the pairing with base sends the rest to 1"),
    # the rest of fresh's rules, and the index that every drawer of a point is on
    ("idak/sessions.py", "        if oracle.revealed:\n            return False\n", "",
     (SESSIONS + "test_fresh_gate_reveal_self_and_partner",
      SESSIONS + "test_binding_partners_match_the_transcript_reference"),
     "fresh ignores a reveal of the oracle itself"),
    ("idak/sessions.py", 'if self.mode == "br" or when < oracle.completed_at:',
     'if self.mode == "br":',
     (SESSIONS + "test_wpfs_corrupt_before_completion_poisons",),
     "wpfsbr keeps an oracle fresh after a corruption before its completion, where the "
     "adversary holds the key while the oracle runs"),
    ("idak/sessions.py", "self._drawn.setdefault(oracle.own_msg.r, []).append(oracle)",
     "self._drawn[oracle.own_msg.r] = [oracle]",
     (SESSIONS + "test_binding_partners_match_the_transcript_reference",),
     "_drawn keeps only the last oracle to draw a point, so where two drew it, fresh misses "
     "the peer's oracle that sent the flow or a revealed matching oracle"),
    # the World of a scenario file with no query or assertion, and a public name with
    # no caller
    ("idak/sessions.py",
     '    world = world or _scenario_world({**config, **overrides})\n    report["mode"]',
     '    world = world or _scenario_world(overrides)\n    report["mode"]',
     (SESSIONS + "test_a_file_of_config_lines_alone_reports_the_world_they_configure",
      SESSIONS + "test_scenario_rejects_bad_files"),
     "a file of config lines alone reports the defaults and takes a bad config, as its "
     "end-of-file World is built from the caller's overrides alone"),
    ("idak/sessions.py", FAIL,
     "def scenario_lines(text):\n    return text.splitlines()\n\n\n" + FAIL,
     ("tests/test_library_surface.py::"
      "test_every_public_name_has_a_caller_in_src_or_a_row_in_the_readme",),
     "a public function that nothing in src/ calls and no README row accounts for"),
    # run_scenario, the one place a scenario error is given its line
    ("idak/sessions.py", '            raise ScenarioError(f"line {number}: {exc}") from exc\n',
     "            raise\n",
     (SESSIONS + "test_every_scenario_error_names_its_line",),
     "a scenario error leaves run_scenario without its line, so a faulty line of a long "
     "file cannot be found"),
    # what an oracle has emitted, read off its role and completion, and the
    # vanished exponent that derive refuses
    ("idak/sessions.py", 'if oracle.role == "initiator" or oracle.completed:',
     "if oracle.own_msg is not None:",
     ("tests/test_cli.py::test_scenario_at_three_bits_reports_its_failed_lines",),
     "a back-reference to a responder that drew y and then aborted sends y, which it "
     "never emitted, where the query fails no-flow"),
    ("idak/sessions.py", "            if oracle.role is not None:\n",
     "            if oracle.completed:\n",
     (SESSIONS + "test_stale_oracle_rejections",),
     "send re-activates a waiting initiator, which draws a second flow"),
    ("idak/protocol.py", "if own_exp == 0:", "if own_exp != 0:",
     ("tests/test_cli.py::test_exchange_round_trip",
      "tests/test_protocol.py::test_derive_reports_its_first_fault_in_check_order"),
     "derive refuses every live exponent and passes a vanished one"),
    # randomize's table, and the xor-half pi that only the reference IDAK checks
    ("idak/selfreduction.py",
     "    validate_instance(params, inst)\n    table = _window_table(params, inst.g)\n",
     "    table, _ = _prepared(params, inst)\n",
     (AMPLIFY + "test_randomize_matches_reference",),
     "randomize prepares the products table too, paying seven pairings it throws away"),
    ("idak/protocol.py", "(1 << (field_bits // 2))", "(1 << ((field_bits + 1) // 2))",
     ("tests/test_protocol.py::test_an_exchange_matches_the_reference_byte_for_byte",),
     "xor-half keeps ceil(|p| / 2) bits, so where |p| is odd both sides agree on a key "
     "that README's definition does not give"),
)


def killed(test, report):
    """How test died in report: FAILED, ERROR or its file's collection
    error; None if it passed, was skipped or did not run."""
    file = test.partition("::")[0]
    # a summary line is "FAILED node" or "FAILED node - message"; a node's
    # parameter id may hold spaces
    for outcome, node in re.findall(r"^(FAILED|ERROR) (.+?)(?: - .*)?$", report, re.M):
        if node == file:
            return f"{file} fails at collection"
        if node == test or node.startswith(test + "["):
            return outcome
    return None


def run(index, file, old, new, tests):
    """Apply one entry to a copy of src/, run its tests there; pytest's
    exit code and report."""
    with tempfile.TemporaryDirectory() as copy:
        shutil.copytree(ROOT / "src", copy, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = Path(copy, file)
        source = path.read_text(encoding="utf-8")
        assert source.count(old) == 1, (index, file, old, source.count(old))
        path.write_text(source.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=copy)
        # the file that `import idak` loads, found without running the mutant
        find = "import importlib.util as u; print(u.find_spec('idak').origin)"
        where = subprocess.run([sys.executable, "-c", find], env=env, check=True,
                               capture_output=True, text=True).stdout
        assert where.startswith(copy), (index, where)
        pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "--hypothesis-profile=ci", *tests]
        return run_with_timeout(pytest, env)


def run_with_timeout(command, env):
    """command's exit code and standard output, or (None, "") once it has
    run ENTRY_TIMEOUT seconds: then it and every process it started are
    killed, as one process group."""
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          start_new_session=True) as process:
        try:
            out, _ = process.communicate(timeout=ENTRY_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return None, ""
        return process.returncode, out


def main(args):
    """Run the entries whose 1-based indices args names, or every entry."""
    try:
        chosen = [int(arg) for arg in args] or range(1, len(MUTANTS) + 1)
    except ValueError:
        chosen = [0]
    if not all(1 <= index <= len(MUTANTS) for index in chosen):
        print(f"usage: python tests/mutants.py [INDEX ...], each index 1 to {len(MUTANTS)}",
              file=sys.stderr)
        return 2
    wrong = survivors = 0
    for index in chosen:
        file, old, new, tests, breaks, *survives = MUTANTS[index - 1]
        start = time.perf_counter()
        code, report = run(index, file, old, new, tests)
        if code is None:
            hows = [f"hung past {ENTRY_TIMEOUT} s"] * len(tests)
        else:
            hows = [killed(test, report) for test in tests]
        if survives:
            # a known survivor survives only if every named test ran and passed
            survivors += 1
            verdict = "survives" if code == 0 else "CAUGHT"
            wrong += code != 0
        else:
            verdict = "killed" if all(hows) else "SURVIVED"
            wrong += not all(hows)
        seconds = time.perf_counter() - start
        print(f"{index:2} {verdict:8} {seconds:5.1f} s  {file}: {breaks}", flush=True)
        for test, how in zip(tests, hows):
            if how if survives else how != "FAILED":
                print(f"{'':12}{test}: {how or 'passed, skipped or not run'}")
        if verdict == "CAUGHT" and not any(hows):
            print(f"{'':12}pytest exited {code}: {report.strip().splitlines()[-1:]}")
    print(f"{len(chosen) - survivors} mutants to kill and {survivors} known survivors: "
          f"{wrong} not as the ledger says")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
