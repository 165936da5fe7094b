"""Core group and pairing tests, checked against brute-force oracles."""

import random
import time
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idak import bilinear
from idak.bilinear import (
    COFACTOR_CANDIDATE_BOUND,
    GElem,
    GroupParams,
    GTElem,
    INFINITY,
    _checked_pairing,
    decode_group_params,
    decode_point,
    encode_group_params,
    encode_point,
    fixed_base_exp,
    gt_exp,
    gt_inv,
    gt_mul,
    hash_to_group,
    in_subgroup,
    instance_generate,
    is_on_curve,
    is_probable_prime,
    pairing,
    point_add,
    random_scalar,
    scalar_exp,
    sized,
    take_point,
    take_sized,
)
from idak.errors import (
    HashToGroupError,
    InvalidIdentityError,
    MalformedElementError,
    ParameterSearchError,
)

import reference as ref


@pytest.fixture(scope="module")
def gp():
    """Desk-scale parameters used throughout: p = 43 = 4 * 11 - 1.  Curves
    and points are fixtures, not globals, so that a fault in building one
    fails the tests that use it, not the collection of this file."""
    return instance_generate(4, "0")


@pytest.fixture(scope="module")
def gen(gp):
    return hash_to_group(gp, "generator-test")


def naive_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


# ---------------------------------------------------------------------------
# parameter generation
# ---------------------------------------------------------------------------


def test_instance_generate_desk_example(gp):
    assert (gp.p, gp.q, gp.h, gp.k_bits) == (43, 11, 4, 4)


def test_instance_generate_structure():
    for k, seed in [(3, "0"), (4, "7"), (5, "s"), (8, "x"), (16, "acc")]:
        gp = instance_generate(k, seed)
        assert gp.q.bit_length() == k
        assert gp.p == gp.h * gp.q - 1
        assert gp.p % 4 == 3
        assert gp.h % 2 == 0
        assert gp.h % gp.q != 0
        assert is_probable_prime(gp.p) and is_probable_prime(gp.q)
        if gp.p < 10**6:
            assert naive_prime(gp.p) and naive_prime(gp.q)


def test_instance_generate_three_bit_branches():
    # q = 5 stops at h = 4 (h=2 gives composite 9); q = 7 must scan to h = 12
    # because 13 and 41 are 1 mod 4 while 27, 55, 69 are composite.
    assert instance_generate(3, "0") == GroupParams(p=19, q=5, h=4)
    assert instance_generate(3, "2") == GroupParams(p=83, q=7, h=12)


def test_instance_generate_deterministic():
    assert instance_generate(4, "0") == instance_generate(4, "0")
    assert instance_generate(16, b"abc") == instance_generate(16, b"abc")


def test_instance_generate_rejects_bad_sizes():
    with pytest.raises(ValueError):
        instance_generate(2, "s")
    with pytest.raises(ValueError):
        instance_generate(513, "s")


def test_instance_generate_stops_at_the_cofactor_bound(monkeypatch):
    # with h <= 2 no h = 4, 8, ... is scanned, so no q gets a p
    monkeypatch.setattr(bilinear, "COFACTOR_CANDIDATE_BOUND", 1)
    with pytest.raises(ParameterSearchError, match="^no admissible cofactor h <= 2 for q="):
        instance_generate(16, "s")


def test_point_count_is_p_plus_one():
    for k, seed in [(3, "0"), (4, "0"), (5, "s"), (6, "s")]:
        gp = instance_generate(k, seed)
        assert len(ref.curve_points(gp.p)) == gp.p + 1


def test_is_probable_prime_matches_naive():
    for n in range(2, 2000):
        assert is_probable_prime(n) == naive_prime(n), n


# The 13 primes 2..41, and psi_13, the least strong pseudoprime to all of
# them: below it, Miller-Rabin to these bases decides primality exactly
# (Sorenson-Webster 2015).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3_317_044_064_679_887_385_961_981


def miller_rabin_13(n):
    """The reference: Miller-Rabin to MILLER_RABIN_BASES, exact below PSI_13."""
    if n <= MILLER_RABIN_BASES[-1]:
        return n in MILLER_RABIN_BASES
    if n % 2 == 0:
        return False
    m = n - 1
    r = (m & -m).bit_length() - 1  # n - 1 = d * 2^r, d odd
    d = m >> r
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def test_is_probable_prime_is_exact_below_the_bound():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(range(d * d, limit, d)))
    for n in range(limit):
        assert is_probable_prime(n) == bool(sieve[n]), n
    # strong pseudoprimes to the bases 2..7, 2..31 and 2..37, which the 13
    # bases refuse
    assert 151 * 751 * 28351 == 3215031751
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert 399165290221 * 798330580441 == 318665857834031151167461
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not miller_rabin_13(n), n
        assert not is_probable_prime(n), n
    assert is_probable_prime(2**61 - 1)
    # psi_13 is the least strong pseudoprime to all 13 bases
    assert PSI_13 == 1287836182261 * 2575672364521
    assert miller_rabin_13(PSI_13)
    assert not is_probable_prime(PSI_13)
    assert is_probable_prime(2**89 - 1)
    assert not is_probable_prime((2**61 - 1) * (2**31 - 1))


def test_is_probable_prime_matches_the_13_base_reference():
    # every odd n below 2 * 10^6, where Baillie-PSW is exact
    for n in range(1, 2 * 10**6, 2):
        assert is_probable_prime(n) == miller_rabin_13(n), n
    # on [2^64, psi_13), where Baillie-PSW replaces an exact test: seeded
    # random odd n, each walked up to the next prime
    rng = random.Random("baillie-psw")
    for _ in range(200):
        n = rng.randrange(2**64, PSI_13 - 10**4) | 1
        while not miller_rabin_13(n):
            assert not is_probable_prime(n), n
            n += 2
        assert is_probable_prime(n), n


# Composites that pass one stage of Baillie-PSW, so the other stage alone
# refuses them.  Strong Lucas pseudoprimes (OEIS A217255): the five least,
# which the gcd also refuses, and three with no factor below 1000.
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 1711469, 2263127, 2518889]
# Strong base-2 pseudoprimes with no factor below 1000, each with a factor:
# 2304167 = 1103 * 2089, the three of PSEUDOPRIME_P_SETS below, the two
# above to the first 11 and 12 bases, and psi_13.
STRONG_BASE_2_PSEUDOPRIMES = [
    (2304167, 1103),
    (6787327, 1303),
    (21623659, 1163),
    (60547831, 1471),
    (3825123056546413051, 149491),
    (318665857834031151167461, 399165290221),
    (PSI_13, 1287836182261),
]


@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
def test_the_base_2_round_refuses_strong_lucas_pseudoprimes(n):
    assert not naive_prime(n)
    assert bilinear._strong_lucas_probable_prime(n)
    assert not bilinear._strong_probable_prime(n)
    assert not is_probable_prime(n)


@pytest.mark.parametrize("n, factor", STRONG_BASE_2_PSEUDOPRIMES)
def test_the_lucas_step_refuses_strong_base_2_pseudoprimes(n, factor):
    assert n % factor == 0 and 1000 < factor < n
    assert gcd(n, bilinear._PRIMORIAL_1000) == 1 and bilinear._strong_probable_prime(n)
    assert not bilinear._strong_lucas_probable_prime(n)
    assert not is_probable_prime(n)


def _no_jacobi(a, n):
    raise AssertionError("the search for D ran on a square")


@pytest.mark.parametrize("root", [1093, 3511, 2**89 - 1])
def test_the_lucas_step_refuses_a_square_before_its_search_for_d(root, monkeypatch):
    # no D has (D/n) = -1 for a square n, so the search would run until
    # |D| reached a factor of n
    n = root * root
    monkeypatch.setattr(bilinear, "_jacobi", _no_jacobi)
    assert not bilinear._strong_lucas_probable_prime(n)
    if root < 10**4:
        # 1093 and 3511 are the Wieferich primes: 2^(r-1) = 1 (mod r^2), so
        # their squares pass the gcd and the base-2 round, and reach the
        # Lucas step
        assert gcd(n, bilinear._PRIMORIAL_1000) == 1 and bilinear._strong_probable_prime(n)
        assert not is_probable_prime(n)


@pytest.mark.parametrize("n, d", [(1055, 5), (1141, -7)])
def test_the_lucas_step_refuses_an_n_that_shares_a_factor_with_d(n, d):
    # 1055 = 5 * 211 meets D = 5 first; 1141 = 7 * 163 has (5/n) = 1 and
    # meets D = -7.  Inside is_probable_prime the gcd refuses such an n
    # first, so only a direct call reaches the Lucas step's own refusal
    assert n % abs(d) == 0 and bilinear._jacobi(d, n) == 0
    assert not bilinear._strong_lucas_probable_prime(n)
    assert gcd(n, bilinear._PRIMORIAL_1000) != 1 and not is_probable_prime(n)


# strong pseudoprimes to base 2 with every factor above 1000, each n = hq - 1
# for a prime q > isqrt(n) + 1, the shape of a generated p: the gcd and the
# base-2 round pass them, so only the Lucas step of is_probable_prime
# refuses them
PSEUDOPRIME_P_SETS = [
    # (n, q, h, a factor of n)
    (6787327, 26513, 256, 1303),
    (21623659, 63599, 340, 1163),
    (60547831, 398341, 152, 1471),
]


@pytest.mark.parametrize("n, q, h, factor", PSEUDOPRIME_P_SETS)
def test_params_decoding_refuses_a_base_2_pseudoprime_p(n, q, h, factor):
    assert n == h * q - 1 and n % factor == 0 and 1000 < factor < n
    assert gcd(n, bilinear._PRIMORIAL_1000) == 1 and bilinear._strong_probable_prime(n)
    assert is_probable_prime(q) and q > isqrt(n) + 1
    # consistent and of a supported size, so only the test of p refuses it
    blob = encode_group_params(GroupParams(p=n, q=q, h=h))
    with pytest.raises(MalformedElementError, match="^group parameters are not prime$"):
        decode_group_params(blob)


def _cofactor_scan(k_bits, seed, is_prime):
    """instance_generate's search with both primes decided by is_prime, over
    every even h, keeping p = 3 (mod 4) by a test rather than by 4 | h."""
    rng = random.Random(seed)
    while True:
        q = (1 << (k_bits - 1)) | rng.getrandbits(k_bits - 1) | 1
        if is_prime(q):
            break
    h = 0
    while True:
        h += 2
        p = h * q - 1
        if h % q and p % 4 == 3 and is_prime(p):
            return GroupParams(p=p, q=q, h=h)


def test_generated_sets_match_a_scan_over_every_even_h():
    # at k = 256 and 512 setup finds the parameters of a scan over every
    # even h, so scanning only h divisible by 4 skips no prime p
    for k in (256, 512):
        for i in range(8):
            seed = f"ci-n-plus-1-{i}"
            assert instance_generate(k, seed) == _cofactor_scan(k, seed, is_probable_prime), (k, seed)


def test_generated_sets_match_an_exact_13_base_scan_at_56_to_64_bits():
    # for k = 56..64 most sets have q < 2^64 <= p, the one window where an
    # N+1 proof of p from q was exact; every p there is below psi_13, so the
    # 13-base reference decides both primes exactly
    in_window = 0
    for k in range(56, 65):
        for i in range(20):
            seed = f"n-plus-1-window-{i}"
            gp = instance_generate(k, seed)
            assert gp == _cofactor_scan(k, seed, miller_rabin_13), (k, seed)
            assert gp.p < PSI_13, (k, seed)
            in_window += gp.q < 2**64 <= gp.p
    assert in_window >= 100


# ---------------------------------------------------------------------------
# curve arithmetic
# ---------------------------------------------------------------------------


def test_point_add_identity_and_inverse(gp, gen):
    assert point_add(gp, gen, INFINITY) == gen
    assert point_add(gp, INFINITY, gen) == gen
    assert point_add(gp, gen, scalar_exp(gp, gen, -1)) == INFINITY


def test_point_add_rejects_off_curve(gp, gen):
    with pytest.raises(MalformedElementError):
        point_add(gp, GElem(1, 1), gen)
    with pytest.raises(MalformedElementError):
        scalar_exp(gp, GElem(5, 44), 2)


def test_scalar_exp_against_repeated_addition(gp, gen):
    acc = INFINITY
    for n in range(2 * gp.q + 1):
        assert scalar_exp(gp, gen, n) == acc
        acc = point_add(gp, acc, gen)


def test_scalar_exp_order_and_negation(gp, gen):
    assert scalar_exp(gp, gen, 0) == INFINITY
    assert scalar_exp(gp, gen, gp.q) == INFINITY
    three = scalar_exp(gp, gen, 3)
    assert scalar_exp(gp, gen, -3) == scalar_exp(gp, three, -1)
    assert scalar_exp(gp, three, -1) == GElem(three.x, (-three.y) % gp.p)


def test_group_is_commutative_and_associative(gp, gen):
    rng = random.Random(11)
    pts = [scalar_exp(gp, gen, rng.randrange(gp.q)) for _ in range(8)]
    for a in pts:
        for b in pts:
            assert point_add(gp, a, b) == point_add(gp, b, a)
    for a, b, c in [(pts[0], pts[1], pts[2]), (pts[3], pts[4], pts[5])]:
        left = point_add(gp, point_add(gp, a, b), c)
        right = point_add(gp, a, point_add(gp, b, c))
        assert left == right


def test_in_subgroup(gp, gen):
    assert in_subgroup(gp, gen)
    assert in_subgroup(gp, INFINITY)
    # a full-curve point outside the q-subgroup: order divides 44, not 11
    assert not in_subgroup(gp, ref.outside_point(gp))


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_pairing_non_degenerate(gp, gen):
    assert not pairing(gp, gen, gen).is_one()


def test_pairing_identity_convention(gp, gen):
    assert pairing(gp, INFINITY, gen).is_one()
    assert pairing(gp, gen, INFINITY).is_one()
    assert pairing(gp, INFINITY, INFINITY).is_one()


def test_pairing_output_in_gt_subgroup(gp, gen):
    z = pairing(gp, gen, gen)
    assert gt_exp(z, gp.q).is_one()


def test_pairing_concrete_exponent_example(gp, gen):
    # e(2g, 3g) = e(g, g)^6
    base = pairing(gp, gen, gen)
    lhs = pairing(gp, scalar_exp(gp, gen, 2), scalar_exp(gp, gen, 3))
    assert lhs == gt_exp(base, 6)


def test_pairing_full_bilinearity_table(gp, gen):
    # exhaustive over the 11 x 11 exponent grid on desk parameters
    base = pairing(gp, gen, gen)
    for a in range(gp.q):
        for b in range(gp.q):
            lhs = pairing(gp, scalar_exp(gp, gen, a), scalar_exp(gp, gen, b))
            assert lhs == gt_exp(base, a * b % gp.q), (a, b)


def test_pairing_bilinear_on_larger_params():
    gp = instance_generate(16, "acc")
    gen = hash_to_group(gp, "gen2")
    base = pairing(gp, gen, gen)
    assert not base.is_one()
    rng = random.Random(5)
    for _ in range(20):
        a = random_scalar(gp, rng)
        b = random_scalar(gp, rng)
        lhs = pairing(gp, scalar_exp(gp, gen, a), scalar_exp(gp, gen, b))
        assert lhs == gt_exp(base, a * b % gp.q)


@pytest.mark.parametrize("k", [256, 512])
def test_pairing_and_group_law_at_the_largest_sizes(k):
    # the two largest sizes, where no other test pairs: bilinearity,
    # symmetry, non-degeneracy, a right argument (0, 0), and the refusal of
    # a left point moved off the subgroup by (0, 0); the window tables and
    # point_add are checked against scalar_exp
    gp = instance_generate(k, f"ci-pairing-k{k}")
    rng = random.Random(k)
    g = hash_to_group(gp, "ci-pairing")
    a, b = random_scalar(gp, rng), random_scalar(gp, rng)
    P, Q = scalar_exp(gp, g, a), scalar_exp(gp, g, b)
    base = pairing(gp, g, g)
    assert not base.is_one()
    assert pairing(gp, P, Q) == gt_exp(base, a * b)
    assert pairing(gp, P, Q) == pairing(gp, Q, P)
    assert _checked_pairing(gp, P, Q) == pairing(gp, P, Q)
    assert pairing(gp, P, GElem(0, 0)).is_one()
    outside = point_add(gp, P, GElem(0, 0))
    assert _checked_pairing(gp, outside, Q) is None
    with pytest.raises(MalformedElementError):
        pairing(gp, outside, Q)
    for point in (P, outside):
        for _ in range(4):
            n = rng.randrange(1 << k)
            assert fixed_base_exp(gp, point, n) == scalar_exp(gp, point, n)
    assert point_add(gp, P, P) == scalar_exp(gp, P, 2)
    assert point_add(gp, P, scalar_exp(gp, P, -1)).is_identity()


def test_pairing_symmetry(gp, gen):
    rng = random.Random(3)
    for _ in range(30):
        a = scalar_exp(gp, gen, rng.randrange(gp.q))
        b = scalar_exp(gp, gen, rng.randrange(gp.q))
        assert pairing(gp, a, b) == pairing(gp, b, a)


def test_distortion_map_properties(gp, gen):
    # phi(x, y) = (-x, i*y) satisfies the curve equation over F_{p^2} and
    # phi(phi(P)) = -P
    p = gp.p
    xa = (-gen.x) % p
    # (i*y)^2 = -y^2, and x^3 + x with x real
    lhs = (-(gen.y * gen.y)) % p
    rhs = (xa * xa * xa + xa) % p
    assert lhs == rhs
    # applying the map twice: (x, i*(i*y)) = (x, -y)
    assert ((-xa) % p) == gen.x


def test_pairing_determinism(gp, gen):
    assert pairing(gp, gen, gen) == pairing(gp, gen, gen)


# ---------------------------------------------------------------------------
# GT arithmetic
# ---------------------------------------------------------------------------


def test_gt_operations(gp, gen):
    z = pairing(gp, gen, gen)
    assert gt_mul(z, gt_inv(z)).is_one()
    assert gt_mul(z, GTElem(1, 0, gp.p)) == z
    assert gt_exp(z, 0).is_one()
    assert gt_exp(z, 5) == gt_mul(gt_exp(z, 2), gt_exp(z, 3))
    assert gt_exp(z, -2) == gt_inv(gt_exp(z, 2))
    # gt_exp's ladder and gt_inv's conjugation need a^2 + b^2 = 1, which
    # every element of GT has
    for outside in (GTElem(2, 0, gp.p), GTElem(0, 0, gp.p), GTElem(1, 1, gp.p)):
        with pytest.raises(MalformedElementError, match="^GT element does not have norm 1$"):
            gt_inv(outside)
        for n in (0, 1, -1, 5):
            with pytest.raises(MalformedElementError, match="^GT element does not have norm 1$"):
                gt_exp(outside, n)


def test_gt_mul_rejects_mixed_fields(gp, gen):
    other = instance_generate(3, "0")
    with pytest.raises(MalformedElementError):
        gt_mul(pairing(gp, gen, gen), GTElem(1, 0, other.p))


# ---------------------------------------------------------------------------
# hashing and sampling
# ---------------------------------------------------------------------------


def test_hash_to_group_basic(gp):
    alice = hash_to_group(gp, "alice")
    bob = hash_to_group(gp, "bob")
    assert alice == GElem(23, 8)
    assert bob == GElem(23, 35)
    assert alice != bob
    assert in_subgroup(gp, alice) and not alice.is_identity()
    assert in_subgroup(gp, bob) and not bob.is_identity()


def test_hash_to_group_deterministic_and_typed(gp):
    assert hash_to_group(gp, "alice") == hash_to_group(gp, b"alice")
    assert hash_to_group(gp, "alice") == hash_to_group(gp, "alice")


def test_hash_to_group_counter_path(gp):
    # "bob" only succeeds at counter 2 on these parameters, so the
    # try-and-increment loop is genuinely exercised
    assert hash_to_group(gp, "bob") == GElem(23, 35)


def test_hash_to_group_stops_at_the_counter_bound(monkeypatch, gp):
    # an identity no other test hashes, since a result, once found, is cached
    monkeypatch.setattr(bilinear, "HASH_COUNTER_BOUND", 0)
    with pytest.raises(HashToGroupError, match="^no curve point for identity within 0 counters$"):
        hash_to_group(gp, "past-the-counter-bound")


def test_hash_to_group_rejects_empty(gp):
    with pytest.raises(InvalidIdentityError):
        hash_to_group(gp, "")
    with pytest.raises(InvalidIdentityError):
        hash_to_group(gp, b"")


def test_hash_to_group_cache_is_keyed_by_params_and_identity_bytes():
    first = instance_generate(16, "hash-cache-a")
    second = instance_generate(16, "hash-cache-b")
    a = hash_to_group(first, "carol")
    b = hash_to_group(second, "carol")
    assert a != b
    assert in_subgroup(first, a) and in_subgroup(second, b)
    # a str identity and its UTF-8 bytes share one cache entry
    assert hash_to_group(first, b"carol") is a
    with pytest.raises(InvalidIdentityError):
        hash_to_group(first, "")


def test_evicted_hash_and_window_table_entries_are_rebuilt_the_same():
    gp = instance_generate(16, "eviction")
    point = hash_to_group(gp, "dave")
    base = scalar_exp(gp, point, 5)
    expected = fixed_base_exp(gp, base, 12345)
    hashes, tables = bilinear._hash_to_group, bilinear._window_table
    for i in range(hashes.cache_info().maxsize):
        hash_to_group(gp, f"filler-{i}")
    for i in range(tables.cache_info().maxsize):
        fixed_base_exp(gp, scalar_exp(gp, point, 100 + i), 3)
    misses = hashes.cache_info().misses, tables.cache_info().misses
    assert hash_to_group(gp, "dave") == point
    assert fixed_base_exp(gp, base, 12345) == expected == scalar_exp(gp, base, 12345)
    # both were rebuilt, not read back
    assert (hashes.cache_info().misses, tables.cache_info().misses) == (
        misses[0] + 1, misses[1] + 1)


def test_fixed_base_add_is_the_sum_for_every_point_start_and_exponent(gp):
    # every point and start on p = 43, with exponents inside the window
    # table and beyond it, where the sum goes to scalar_exp and an addition
    points = [INFINITY] + [
        GElem(x, y) for x in range(gp.p) for y in range(gp.p) if is_on_curve(gp, GElem(x, y))
    ]
    top = 1 << gp.q.bit_length()
    for point in points:
        for n in (0, 1, gp.q - 1, gp.q, top - 1, top, top + 5, 3 * (gp.p + 1) + 2):
            product = scalar_exp(gp, point, n)
            for start in points:
                assert bilinear._fixed_base_add(gp, point, n, start) == point_add(
                    gp, product, start), (point, n, start)


@pytest.fixture(scope="module", params=["p43", "k128"])
def batch_curve(request, gp, gen):
    """The p = 43 curve and the benchmark's k = 128 curve, each with a point
    that generates its order-q subgroup."""
    if request.param == "p43":
        return gp, gen
    k128 = instance_generate(128, "idak-bench-k128")
    return k128, hash_to_group(k128, "batch-to-affine")


@st.composite
def jacobian_lists(draw, params, gen):
    """Lists of Jacobian points: each finite point in a scaled form
    (lam^2 x, lam^3 y, lam), in or outside the subgroup, and the identity
    as any (X, Y, 0) at the start, in the middle or at the end; or a list
    of identities only, or a single point."""
    p = params.p
    lams = st.integers(1, p - 1)
    identity = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1), st.just(0))

    def finite(n, outside, lam):
        # n < q, so neither point is the identity
        point = scalar_exp(params, gen, n)
        if outside:
            point = point_add(params, point, GElem(0, 0))
        return (lam * lam * point.x % p, lam * lam * lam * point.y % p, lam)

    points = st.builds(finite, st.integers(1, params.q - 1), st.booleans(), lams)
    shape = draw(st.sampled_from(["mixed", "all identities", "single"]))
    if shape == "all identities":
        return draw(st.lists(identity, min_size=1, max_size=17))
    if shape == "single":
        return [draw(points)]
    entries = draw(st.lists(points, min_size=1, max_size=17))
    for where in draw(st.sets(st.sampled_from(["start", "middle", "end"]), min_size=1)):
        index = {"start": 0, "middle": len(entries) // 2, "end": len(entries)}[where]
        entries.insert(index, draw(identity))
    return entries


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batch_to_affine_matches_one_inversion_per_point(batch_curve, data):
    params, gen = batch_curve
    points = data.draw(jacobian_lists(params, gen))
    expected = [bilinear._jac_to_affine(params.p, *point) for point in points]
    assert bilinear._batch_to_affine(params.p, points) == [
        None if e.is_identity() else (e.x, e.y) for e in expected]


def test_hash_to_group_many_identities():
    gp = instance_generate(8, "h2g")
    seen = set()
    for n in range(40):
        point = hash_to_group(gp, f"user-{n}")
        assert in_subgroup(gp, point) and not point.is_identity()
        seen.add(point)
    # collisions are possible in tiny groups but not across the board
    assert len(seen) > 1


def test_random_scalar_range_and_determinism(gp):
    rng1 = random.Random(42)
    rng2 = random.Random(42)
    draws1 = [random_scalar(gp, rng1) for _ in range(200)]
    draws2 = [random_scalar(gp, rng2) for _ in range(200)]
    assert draws1 == draws2
    assert all(1 <= v < gp.q for v in draws1)


def test_random_scalar_frequency(gp):
    # 10000 draws at q = 11: each residue close to uniform
    rng = random.Random(99)
    counts = [0] * gp.q
    for _ in range(10000):
        counts[random_scalar(gp, rng)] += 1
    assert counts[0] == 0
    for c in counts[1:]:
        assert abs(c / 10000 - 0.1) <= 0.02


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------


def test_point_encoding_round_trip(gp, gen):
    rng = random.Random(17)
    for _ in range(50):
        point = scalar_exp(gp, gen, rng.randrange(gp.q))
        assert decode_point(gp, encode_point(gp, point)) == point
    assert encode_point(gp, INFINITY) == b"\x00"
    assert decode_point(gp, b"\x00") == INFINITY


def test_point_encoding_rejects_garbage(gp):
    with pytest.raises(MalformedElementError):
        decode_point(gp, b"\x04\x01")
    with pytest.raises(MalformedElementError):
        decode_point(gp, b"\x05\x01\x02")
    # valid length, off curve
    with pytest.raises(MalformedElementError):
        decode_point(gp, b"\x04\x01\x01")


def test_framed_field_and_point_readers(gp, gen):
    point = scalar_exp(gp, gen, 3)
    data = b"\xff" + sized(b"abc") + sized(b"") + encode_point(gp, point) + b"\x00"
    field, offset = take_sized(data, 1)
    assert (field, offset) == (b"abc", 6)
    assert take_sized(data, offset) == (b"", 8)
    end = 8 + len(encode_point(gp, point))
    assert take_point(gp, data, 8) == (point, end)
    assert take_point(gp, data, end) == (INFINITY, end + 1)
    assert len(sized(bytes(0xFFFF))) == 0x10001
    with pytest.raises(MalformedElementError):
        sized(bytes(0x10000))
    for cut in (b"", b"\x00", b"\x00\x04abc"):
        with pytest.raises(MalformedElementError):
            take_sized(cut, 0)
    for cut in (b"", b"\x04", encode_point(gp, point)[:-1]):
        with pytest.raises(MalformedElementError):
            take_point(gp, cut, 0)


def test_params_encoding_round_trip():
    for k, seed in [(3, "0"), (4, "0"), (16, "acc")]:
        gp = instance_generate(k, seed)
        assert decode_group_params(encode_group_params(gp)) == gp


def test_params_encoding_rejects_garbage(gp):
    with pytest.raises(MalformedElementError):
        decode_group_params(b"")
    with pytest.raises(MalformedElementError):
        decode_group_params(b"\x02\x00\x01\x2b")
    blob = encode_group_params(gp)
    with pytest.raises(MalformedElementError):
        decode_group_params(blob + b"\x00")
    # internally inconsistent values: p != h*q - 1
    bad = bytes([0x01]) + b"\x00\x01\x2a" + b"\x00\x01\x0b" + b"\x00\x01\x04"
    with pytest.raises(MalformedElementError):
        decode_group_params(bad)


def free_of_small_factors(*values):
    return all(v % d for v in values for d in range(3, 38, 2))


def oversized_q():
    """p = 4q - 1 with a 32761-bit q; both pass trial division."""
    q = (1 << 32760) + 1
    while not free_of_small_factors(q, 4 * q - 1):
        q += 2
    return GroupParams(p=4 * q - 1, q=q, h=4)


def oversized_h():
    """q = 11 with a 32760-bit cofactor, consistent and trial-division clean."""
    h = 1 << 32760
    while not (h % 11 and free_of_small_factors(11 * h - 1)):
        h += 4
    return GroupParams(p=11 * h - 1, q=11, h=h)


def undersized_q():
    """p = 11, q = 3, h = 4: consistent and prime, but q has only 2 bits."""
    return GroupParams(p=11, q=3, h=4)


@pytest.mark.parametrize("make", [oversized_q, oversized_h, undersized_q])
def test_params_decoding_rejects_oversized_values_quickly(make):
    # a primality test on a 32k-bit p takes minutes; the size bound comes first
    blob = encode_group_params(make())
    start = time.perf_counter()
    with pytest.raises(MalformedElementError, match="supported sizes"):
        decode_group_params(blob)
    assert time.perf_counter() - start < 1.0


def test_params_decoding_accepts_the_largest_generated_sizes():
    gp = instance_generate(512, "ceiling")
    assert gp.q.bit_length() == 512
    assert decode_group_params(encode_group_params(gp)) == gp
    # the largest cofactor instance_generate can reach, with q = 11
    h = 2 * COFACTOR_CANDIDATE_BOUND
    while h % 11 == 0 or not is_probable_prime(11 * h - 1):
        h -= 4
    at_bound = GroupParams(p=11 * h - 1, q=11, h=h)
    assert decode_group_params(encode_group_params(at_bound)) == at_bound


@pytest.mark.parametrize("p, q, h", [(27, 7, 4), (71, 9, 8)], ids=["composite-p", "composite-q"])
def test_params_decoding_rejects_a_composite_p_or_q(p, q, h):
    # consistent (p = h*q - 1 = 3 mod 4, h even, q does not divide h) and of
    # a supported size, so only the primality check can refuse them
    blob = encode_group_params(GroupParams(p=p, q=q, h=h))
    with pytest.raises(MalformedElementError, match="^group parameters are not prime$"):
        decode_group_params(blob)


def test_is_on_curve_bounds(gp):
    assert not is_on_curve(gp, GElem(-1, 5))
    assert not is_on_curve(gp, GElem(5, gp.p))
    assert is_on_curve(gp, INFINITY)
