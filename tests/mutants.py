"""The mutant ledger: faults in src/ that named tests must catch.

Each entry is (file, old, new, tests, breaks): replacing the one `old` in
src/<file> by `new` makes every test node in `tests` fail or error, and
`breaks` says what it breaks.  A known survivor carries a sixth field,
"survives: <reason>": its tests all pass under the mutant, and the reason
says why no test catches it.  `python tests/mutants.py`, run from the
repository root, applies each entry to its own copy of src/, runs its tests
there at the ci hypothesis profile and prints a line per entry.  It exits 1
if an entry survives or a known survivor is caught, so the ledger changes
when a test starts to catch one.  tests/test_ci_mutants.py checks the
ledger in tier-1.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BILINEAR = "idak/bilinear.py"
CORE = "tests/test_core_differential.py::"
SIZES = CORE + "test_fixed_base_exp_and_checked_pairing_at_protocol_sizes"
U_IS_QR = CORE + "test_cofactor_point_is_q_times_the_hashed_point"
COSTS = ("tests/test_protocol.py::test_operation_cost_table",
         "tests/test_acceptance.py::test_criterion_2_strategy_cost_table",
         "tests/test_cli.py::test_bench_prints_four_tsv_rows")  # idak bench exits 3
C1 = "        shared = _checked_pairing(group, blended_peer, own_point)\n"
C2 = "        shared = _fixed_pairing(group, blended_peer, own.d_id)\n"
# respond's derive and its flow write, in that order
DERIVE, WRITE = (
    '    key, counts = _derive_key(args, params, own, "responder", y, msg, peer_ident, peer_msg)\n',
    '    _write_flow(args.flow_out, encode_flow(params, "responder", own.identity, msg, extra))\n')
# amplify's table fetch, which validates the instance, and its seed draw
PREPARE, SEEDS = ("    table, products = _prepared(params, inst)\n",
                  "    seeds = [rng.getrandbits(64) for _ in range(rounds)]\n")
BLIND = "    return CbdhInstance(\n        inst.g,\n"
AMPLIFY = "tests/test_selfreduction.py::"
SESSIONS = "tests/test_sessions.py::"
CRITERION_6 = "tests/test_acceptance.py::test_criterion_6_session_model_suite"
KEYSTORE = "tests/test_keystore.py::"

MUTANTS = (
    (BILINEAR, "(params.q.bit_length() + 1)", "params.q.bit_length()", (SIZES + "[24]",),
     "a window table of ceil(|q| / 6) rows, which a walk's carry overruns when 6 divides |q|"),
    (BILINEAR, "if d > half:", "if d >= half:", (SIZES + "[23]",),
     "a walk that subtracts 64 from a digit of 32 carries out of the last row at |q| = 23"),
    (BILINEAR, "is_probable_prime(q) and is_probable_prime(p)", "is_probable_prime(q)",
     ("tests/test_cli.py::test_a_pseudoprime_p_is_a_data_error",),
     "a params decoder that tests q alone accepts a strong base-2 pseudoprime p"),
    (BILINEAR, "if not _in_group(params, received):", "if False:",
     ("tests/test_protocol.py::test_derive_reports_its_first_fault_in_check_order",),
     "choice 2 skips the received blend's subgroup check and derives a key from outside it"),
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
     ("tests/test_sessions.py::test_rejected_flow_aborts_oracle_and_draws_nothing",),
     "a World's responder draws y for a flow outside the subgroup before derive refuses it"),
    ("idak/sessions.py", "oracle.role, _RELAY_STRATEGY,", "oracle.role,",
     ("tests/test_boundary.py::"
      "test_a_warm_world_relay_pairs_by_cached_lines_and_checks_each_blend_once",),
     "a World's relays derive by the c1-nopre default, a full Miller loop per derive"),
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
    ("idak/selfreduction.py", PREPARE + SEEDS, SEEDS + PREPARE,
     (AMPLIFY + "test_amplify_rejects_invalid_instance_before_any_query",),
     "amplify draws its seeds from rng before it rejects an invalid instance"),
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
    ("idak/protocol.py", "shared = gt_exp(shared, own_exp)", "shared = gt_exp(shared, own_x)",
     (SESSIONS + "test_a_world_relay_key_is_the_key_of_every_strategy",),
     "choice 2 raises its pairing to x alone, not to x + s, so its key differs from choice 1's"),
    ("idak/cli.py", "if stat.S_ISREG(os.fstat(fd).st_mode):", "if True:",
     ("tests/test_cli.py::test_flow_out_may_be_a_device",),
     "a flow written to a device is cut to length, which a device refuses"),
    (BILINEAR, "return _strong_probable_prime(n) and _strong_lucas_probable_prime(n)",
     "return _strong_probable_prime(n)",
     ("tests/test_bilinear.py::test_the_lucas_step_refuses_strong_base_2_pseudoprimes",),
     "a primality test without its Lucas step accepts strong base-2 pseudoprimes"),
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
        done = subprocess.run(pytest, cwd=ROOT, env=env, capture_output=True, text=True)
        return done.returncode, done.stdout


def main():
    wrong = survivors = 0
    for index, (file, old, new, tests, breaks, *survives) in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        code, report = run(index, file, old, new, tests)
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
    print(f"{len(MUTANTS) - survivors} mutants to kill and {survivors} known survivors: "
          f"{wrong} not as the ledger says")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
