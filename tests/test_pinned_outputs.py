"""sha256 digests of outputs that must stay byte-identical across changes
that only reorganise or speed up the computation.

They cover every bundled scenario report, the `idak reduce` report, the
files of the README walkthrough and the parameter sets instance_generate
makes at every size from 3 to 64 bits and at five larger ones.  A digest
here changes only when what the package computes changes; record a new
one on purpose, never to make a refactor pass.
"""

import hashlib
import json

import pytest

from idak.bilinear import encode_group_params, instance_generate
from idak.cli import _scenario_lines, bundled_scenarios, main

# Each report is pinned two ways: with k_bits and mode rewritten in the
# scenario's config line, and as the bundled file ships (its config line
# sets k_bits 16 and its own mode) with --k-bits and --mode, which win.
SCENARIO_DIGESTS = {
    # (scenario, k_bits, mode): (exit code, sha256 of the JSON report)
    ("br_corrupt_after.jsonl", 16, "br"): (
        0, "f969803c87a91f89d8a1f7111e6d3f395f096c5694e7a92d26a2ab2fd24271f5"),
    ("br_corrupt_after.jsonl", 16, "wpfsbr"): (
        3, "d107b11f761ddc72a8595ebfb7ba007e649f96747be15700c857f2bbe7b6739f"),
    ("br_corrupt_after.jsonl", 32, "br"): (
        0, "0901b2697e2dcedff030ccaa15404d99be5b84ac8c325cc56f98d83c235d0af8"),
    ("br_corrupt_after.jsonl", 32, "wpfsbr"): (
        3, "89f97d355b2708f139e6aa0572321625ec09576e4f32da4165c0e5ae3a80a6d4"),
    ("freshness_gates.jsonl", 16, "br"): (
        0, "736427d6ef9985a1a7bde77c2b30547ebade5773e5159ea3411857dcb083bff5"),
    ("freshness_gates.jsonl", 16, "wpfsbr"): (
        3, "cfc2c1442b19afdf8c450ff24af5b21edc87dff21e20b44483854e79634e805d"),
    ("freshness_gates.jsonl", 32, "br"): (
        0, "1296876e4649acc044a48a3e7981401abd0dfd024c96a8f603b90357b9e86f41"),
    ("freshness_gates.jsonl", 32, "wpfsbr"): (
        3, "b92a1b79698a69182587e507eb1766a9b24ae24256866e4561be12572efeaf1a"),
    ("honest_run.jsonl", 16, "br"): (
        0, "aeb4f0575e766989afd9cdcbf2921284f914ba2809fcd7d88c1d792225b8343f"),
    ("honest_run.jsonl", 16, "wpfsbr"): (
        0, "e0d970832f94a18209129e6101f085ad44d90afbd288f336f9c0eb8782912023"),
    ("honest_run.jsonl", 32, "br"): (
        0, "9f62241f267029de04995b1af4867e8bd5e18688fa35a0d6e9d6c579db27f0ff"),
    ("honest_run.jsonl", 32, "wpfsbr"): (
        0, "58394113b1cbe90a4e7eafd2561003bd93c422974ab9a90473afbd68a928e395"),
    ("rerouted_responder.jsonl", 16, "br"): (
        0, "24d391fa19d7cbf90b645a8b1afcd5d0aaebb488952871f65b86f5fa968c39a5"),
    ("rerouted_responder.jsonl", 16, "wpfsbr"): (
        0, "577fb7213b4061c2ef0a0b76ade16266364b96f18bf108d4bda91b4c0064ace4"),
    ("rerouted_responder.jsonl", 32, "br"): (
        0, "8c7cb0cb645804cd805c814707bd520990625047f6e280fb7beda1ba625a8e0e"),
    ("rerouted_responder.jsonl", 32, "wpfsbr"): (
        0, "93c2bfb526baa5e12ac7a5ba91659c2982afb45e5608ad548249c8494d29d2bc"),
    ("uks_rejected.jsonl", 16, "br"): (
        0, "9b21fbb22e1aa099fefb8323c8288cc29361136e413da96504a8c7351b099b5f"),
    ("uks_rejected.jsonl", 16, "wpfsbr"): (
        0, "75aba1b4531339b46fe48cd725176de5ac56621481a8eebffc2cc480e6e818ff"),
    ("uks_rejected.jsonl", 32, "br"): (
        0, "8147f401abc912caf1b56b820780074ab17a655f3363c94da6c2bec541db1370"),
    ("uks_rejected.jsonl", 32, "wpfsbr"): (
        0, "5fefa3deb2c49627dc51d86c42923afea3e67855a4b01ba39f63b0768d5626dd"),
    ("wpfs_corrupt_after.jsonl", 16, "br"): (
        3, "21d10b3dd8b0293da84f6427109fe89438dc4cbd7ba1f7cd03ed3ca47e4a152d"),
    ("wpfs_corrupt_after.jsonl", 16, "wpfsbr"): (
        0, "d7047f1e02915afedca585d00fb646ede674441f6d8da938f5b7340a1cbf7dee"),
    ("wpfs_corrupt_after.jsonl", 32, "br"): (
        3, "e0e12c202b946dfc023db1668522484944fb4ed217e9cb2783b7c26742f1fc7b"),
    ("wpfs_corrupt_after.jsonl", 32, "wpfsbr"): (
        0, "d7b2f1a7b737d7d380975f18707e252e2b018d53eb4f5a5c38f366e059895902"),
}

REDUCE_DIGEST = "6ebbe7f40fe58e33c62b6ace9f8413aa4d6565a244c17662e013c9feea813732"

# the walkthrough at k=32 with fixed seeds: sha256 over its key files, and
# per (strategy, pfs) over its flow, state and session files
KEY_FILES_DIGEST = "f899896fac3675309aabd68e44f5c61ac267b23bfccad12826c7731bfd341be4"
WALKTHROUGH_DIGESTS = {
    ("c1-nopre", False): "5e5dcd510ccff2c712f063d257156015bce075db006175001f973bc86cf478e2",
    ("c1-nopre", True): "48ca8fa9c835236e372e1baf209ed8e5cb9fcc934655174bc8b0a6cfdb8f9891",
    ("c1-pre", False): "5e5dcd510ccff2c712f063d257156015bce075db006175001f973bc86cf478e2",
    ("c1-pre", True): "48ca8fa9c835236e372e1baf209ed8e5cb9fcc934655174bc8b0a6cfdb8f9891",
    ("c2-nopre", False): "5e5dcd510ccff2c712f063d257156015bce075db006175001f973bc86cf478e2",
    ("c2-nopre", True): "48ca8fa9c835236e372e1baf209ed8e5cb9fcc934655174bc8b0a6cfdb8f9891",
    ("c2-pre", False): "5e5dcd510ccff2c712f063d257156015bce075db006175001f973bc86cf478e2",
    ("c2-pre", True): "48ca8fa9c835236e372e1baf209ed8e5cb9fcc934655174bc8b0a6cfdb8f9891",
}

STRATEGIES = ("c1-nopre", "c1-pre", "c2-nopre", "c2-pre")

# sha256 over encode_group_params(instance_generate(k, seed)) for every k in
# GENERATOR_K_BITS, each with both GENERATOR_SEEDS, in that order
GENERATOR_K_BITS = (*range(3, 65), 96, 128, 160, 256, 512)
GENERATOR_SEEDS = ("pin-a", "pin-b")
GENERATOR_DIGEST = "22561ba7153bdb050bc6e4e70a650e0d6a7971e3b7ed06b5c885af2742444f25"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files_digest(root, names):
    """One digest over each named file's name and bytes, in order."""
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0" + (root / name).read_bytes() + b"\0")
    return digest.hexdigest()


def test_every_bundled_scenario_is_pinned():
    names = {name for name, _, _ in SCENARIO_DIGESTS}
    assert names == set(bundled_scenarios())


def _with_config(name, k_bits, mode):
    """The bundled scenario's lines with k_bits and mode set in its config."""
    lines = []
    for line in _scenario_lines(name):
        if line.startswith("{") and "config" in json.loads(line):
            entry = json.loads(line)
            entry["config"].update(k_bits=k_bits, mode=mode)
            line = json.dumps(entry)
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, k_bits, mode", sorted(SCENARIO_DIGESTS))
def test_scenario_report_is_byte_identical(tmp_path, capsys, name, k_bits, mode):
    script = tmp_path / name
    script.write_text(_with_config(name, k_bits, mode))
    code = main(["scenario", str(script), "--k-bits", str(k_bits), "--mode", mode])
    out = capsys.readouterr().out
    assert (code, _sha256(out.encode())) == SCENARIO_DIGESTS[name, k_bits, mode]


@pytest.mark.parametrize("name, k_bits, mode", sorted(SCENARIO_DIGESTS))
def test_scenario_flags_win_over_the_config_line(capsys, name, k_bits, mode):
    code = main(["scenario", name, "--k-bits", str(k_bits), "--mode", mode])
    out = capsys.readouterr().out
    assert (code, _sha256(out.encode())) == SCENARIO_DIGESTS[name, k_bits, mode]


def test_generated_params_are_byte_identical():
    digest = hashlib.sha256()
    for k_bits in GENERATOR_K_BITS:
        for seed in GENERATOR_SEEDS:
            digest.update(encode_group_params(instance_generate(k_bits, seed)))
    assert digest.hexdigest() == GENERATOR_DIGEST


def test_reduce_report_is_byte_identical(capsys):
    assert main(["reduce", "--delta", "0.3", "--n", "201", "--trials", "20"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == REDUCE_DIGEST


@pytest.fixture(scope="module")
def keys(tmp_path_factory):
    """The walkthrough's setup and extract steps at k=32."""
    root = tmp_path_factory.mktemp("walkthrough-keys")
    assert main(["setup", "--k-bits", "32", "--seed", "demo", "--out", str(root), "--quiet"]) == 0
    for name in ("alice", "bob"):
        assert main(["extract", name, "--params", str(root / "params.key"),
                     "--master", str(root / "master.key"),
                     "--out", str(root / f"{name}.key"), "--quiet"]) == 0
    return root


def test_walkthrough_key_files_are_byte_identical(keys):
    names = ("params.key", "master.key", "alice.key", "bob.key")
    assert _files_digest(keys, names) == KEY_FILES_DIGEST


@pytest.mark.parametrize("pfs", [False, True], ids=["plain", "pfs"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_walkthrough_files_are_byte_identical(keys, tmp_path, strategy, pfs):
    params = ["--params", str(keys / "params.key")]
    variant = ["--strategy", strategy] + (["--pfs"] if pfs else [])
    assert main(["initiate", *params, "--key", str(keys / "alice.key"), "--peer", "bob",
                 "--flow-out", str(tmp_path / "a.flow"),
                 "--state-out", str(tmp_path / "a.state"), "--seed", "a", "--quiet"]) == 0
    assert main(["respond", *params, *variant, "--key", str(keys / "bob.key"),
                 "--flow-in", str(tmp_path / "a.flow"), "--flow-out", str(tmp_path / "b.flow"),
                 "--key-out", str(tmp_path / "bob.session"), "--seed", "b", "--quiet"]) == 0
    assert main(["finalize", *params, *variant, "--key", str(keys / "alice.key"),
                 "--state", str(tmp_path / "a.state"), "--flow-in", str(tmp_path / "b.flow"),
                 "--key-out", str(tmp_path / "alice.session"), "--quiet"]) == 0
    names = ("a.flow", "a.state", "b.flow", "bob.session", "alice.session")
    assert _files_digest(tmp_path, names) == WALKTHROUGH_DIGESTS[strategy, pfs]
