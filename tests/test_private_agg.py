"""Paillier primitives, the ring protocol, and plaintext equivalence.

``reference_is_probable_prime`` and ``reference_random_prime`` keep the
prime search as it tested all ``MR_ROUNDS`` Miller-Rabin witnesses on every
candidate, as the oracle for the search that tests only as many as the
candidate's size needs: both must accept and refuse the same numbers and
leave the generator in the same state, so every key stays the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roadflow import private_agg
from roadflow.errors import (DimensionMismatch, KeyMismatch,
                             PlaintextOutOfRange)
from roadflow.private_agg import (MR_ROUNDS, PRIME_ATTEMPTS, _SMALL_PRIMES,
                                  Ciphertext, CipherMatrix, _is_probable_prime,
                                  _rand_below, _random_prime, chain_aggregate,
                                  decrypt, encrypt, homomorphic_add, keygen,
                                  occupancy_indicator, run_private_learning)
from roadflow.scheduler import (FreightGraph, ScheduleState,
                                VehicleAssignment, conditional_scores,
                                default_horizon, occupancy_counts,
                                run_learning)

BITS = 256      # small keys keep the suite fast; never a production choice


@pytest.fixture(scope="module")
def keypair():
    return keygen(BITS, np.random.default_rng(1234))


def reference_is_probable_prime(n, rng):
    """Miller-Rabin with every one of the MR_ROUNDS witnesses tested."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(MR_ROUNDS):
        a = 2 + _rand_below(rng, n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def reference_random_prime(bits, rng):
    for _ in range(PRIME_ATTEMPTS):
        candidate = int.from_bytes(rng.bytes((bits + 7) // 8), "big")
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        candidate &= (1 << bits) - 1
        if reference_is_probable_prime(candidate, rng):
            return candidate
    raise AssertionError("no prime found")


def test_keygen_is_deterministic():
    for bits in (256, 257, 512):
        a = keygen(bits, np.random.default_rng(7))
        b = keygen(bits, np.random.default_rng(7))
        assert a.public.n == b.public.n
        assert a.secret.lam == b.secret.lam
        c = keygen(bits, np.random.default_rng(8))
        assert c.public.n != a.public.n
        # both primes have their top two bits set: n has exactly `bits` bits
        assert a.public.n.bit_length() == bits
    with pytest.raises(ValueError):
        keygen(128, np.random.default_rng(0))


@pytest.mark.parametrize("bits,seeds", [(256, 150), (512, 20)])
def test_keygen_equals_all_rounds_reference(monkeypatch, bits, seeds):
    keys, states = [], []
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        keys.append(keygen(bits, rng).secret)
        states.append(rng.bit_generator.state)
    monkeypatch.setattr(private_agg, "_random_prime", reference_random_prime)
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        ref = keygen(bits, rng).secret
        key = keys[seed]
        assert (key.p, key.q, key.n, key.lam, key.mu) == \
            (ref.p, ref.q, ref.n, ref.lam, ref.mu)
        assert states[seed] == rng.bit_generator.state


def count_rounds(monkeypatch, n, seed):
    """Whether the search accepts ``n``, the Miller-Rabin rounds it tested
    (each starts with the one modexp whose exponent is not 2), and whether
    it leaves the generator where the all-rounds reference does."""
    calls = []

    def counting_powmod(base, exp, mod):
        calls.append(exp)
        return pow(base, exp, mod)

    monkeypatch.setattr(private_agg, "_powmod", counting_powmod)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    accepted = _is_probable_prime(n, rng)
    assert accepted == reference_is_probable_prime(n, ref_rng)
    same_stream = rng.bit_generator.state == ref_rng.bit_generator.state
    return accepted, sum(exp != 2 for exp in calls), same_stream


def chernick_carmichael():
    """The first (6k+1)(12k+1)(18k+1) above 250 bits, k a multiple of the
    primes 5..59, whose three factors all pass the reference check."""
    step = math.prod(p for p in _SMALL_PRIMES if 5 <= p <= 59)
    rng = np.random.default_rng(0)
    k = step * (2 ** 80 // step + 1)
    while not all(reference_is_probable_prime(f, rng)
                  for f in (6 * k + 1, 12 * k + 1, 18 * k + 1)):
        k += step
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


def quarter_liar_composite():
    """The first (2m+1)(4m+1) above 2^128, m odd, whose two factors pass the
    reference check: a quarter of its bases are strong liars, the most any
    odd composite has (Monier; Rabin, J. Number Theory 1980)."""
    rng = np.random.default_rng(0)
    m = 2 ** 127 + 1
    while not (reference_is_probable_prime(2 * m + 1, rng)
               and reference_is_probable_prime(4 * m + 1, rng)):
        m += 2
    return (2 * m + 1) * (4 * m + 1)


P127, P255, P521 = 2 ** 127 - 1, 2 ** 255 - 19, 2 ** 521 - 1


def test_known_primes_test_the_tabulated_rounds(monkeypatch):
    p700 = reference_random_prime(700, np.random.default_rng(3))
    assert _random_prime(700, np.random.default_rng(3)) == p700
    # 127 bits -> the 100-bit row, 255 -> 250, 521 -> 450, 700 -> 650
    for n, rounds in ((P127, 27), (P255, 12), (P521, 6), (p700, 4)):
        assert count_rounds(monkeypatch, n, seed=5) == (True, rounds, True)


def test_composites_refused_on_the_reference_stream(monkeypatch):
    carmichael = chernick_carmichael()
    assert carmichael.bit_length() > 250
    # a Carmichael number passes Fermat's test for every coprime base
    assert pow(2, carmichael - 1, carmichael) == 1
    composites = (P127 * P255, P255 * P521, P127 ** 2, P255 ** 2,
                  carmichael, quarter_liar_composite())
    for n in composites:
        drawn = []
        for seed in range(16):
            accepted, rounds, same_stream = count_rounds(monkeypatch, n,
                                                          seed)
            assert not accepted and same_stream
            drawn.append(rounds)
    # the last has the most strong liars: some seeds pass rounds before the
    # one that fails, and the stream still matches
    assert max(drawn) >= 3


def test_roundtrip_and_probabilistic_encryption(keypair):
    rng = np.random.default_rng(0)
    for m in (0, 1, 17, keypair.public.n - 1):
        assert decrypt(encrypt(m, keypair.public, rng), keypair) == m
    a = encrypt(5, keypair.public, rng)
    b = encrypt(5, keypair.public, rng)
    assert a.value != b.value            # fresh randomness every call
    assert decrypt(a, keypair) == decrypt(b, keypair) == 5


def test_plaintext_range_enforced(keypair):
    rng = np.random.default_rng(0)
    with pytest.raises(PlaintextOutOfRange):
        encrypt(keypair.public.n, keypair.public, rng)
    with pytest.raises(PlaintextOutOfRange):
        encrypt(-1, keypair.public, rng)


def test_key_mismatch_detected(keypair):
    rng = np.random.default_rng(0)
    other = keygen(BITS, np.random.default_rng(99))
    c = encrypt(3, other.public, rng)
    with pytest.raises(KeyMismatch):
        decrypt(c, keypair)
    with pytest.raises(KeyMismatch):
        homomorphic_add(c, encrypt(1, keypair.public, rng), keypair.public)


def test_homomorphic_addition_random_pairs(keypair):
    rng = np.random.default_rng(2)
    n = keypair.public.n
    for _ in range(200):
        x = int(rng.integers(0, 2 ** 60))
        y = int(rng.integers(0, 2 ** 60))
        cx = encrypt(x, keypair.public, rng)
        cy = encrypt(y, keypair.public, rng)
        assert decrypt(homomorphic_add(cx, cy, keypair.public),
                       keypair) == (x + y) % n


def test_crt_decrypt_equals_lambda_mu_formula(keypair):
    rng = np.random.default_rng(11)
    n, secret = keypair.public.n, keypair.secret
    n2 = n * n
    values = []
    while len(values) < 100:
        v = int.from_bytes(rng.bytes((n2.bit_length() + 7) // 8), "big") % n2
        if math.gcd(v, n) == 1:
            values.append(v)
    for v in values:
        expected = (pow(v, secret.lam, n2) - 1) // n * secret.mu % n
        assert decrypt(Ciphertext(v, n), keypair) == expected


def test_cipher_matrix_validation(keypair):
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatch):
        CipherMatrix([], (0, 3), 1, keypair.public)
    with pytest.raises(DimensionMismatch):
        CipherMatrix([], (2, 3), 1, keypair.public)
    c = encrypt(0, keypair.public, rng)
    with pytest.raises(DimensionMismatch):          # six cells fit in one
        CipherMatrix([c, c], (2, 3), 1, keypair.public)
    other = keygen(BITS, np.random.default_rng(98))
    with pytest.raises(KeyMismatch):
        CipherMatrix([encrypt(0, other.public, rng)], (1, 1), 1,
                     keypair.public)
    m = CipherMatrix.zeros((2, 3), 1, keypair.public, rng)
    assert m.shape == (2, 3)
    assert len(m.chunks) == 1 and m.width == 1
    with pytest.raises(DimensionMismatch):
        m.add_indicator(np.zeros((3, 2), dtype=int), rng)
    with pytest.raises(PlaintextOutOfRange):        # not an indicator
        m.add_indicator(np.full((2, 3), 2), rng)
    m = m.add_indicator(np.ones((2, 3), dtype=int), rng)
    with pytest.raises(PlaintextOutOfRange):        # a 1-bit slot is full
        m.add_indicator(np.ones((2, 3), dtype=int), rng)
    assert np.array_equal(m.decrypt_counts(keypair), np.ones((2, 3)))


def test_occupancy_indicator_truncates():
    g = FreightGraph([("A", "B", 1.0, 2), ("B", "C", 1.0, 1)])
    veh = VehicleAssignment(g, [0, 1], depart=1, window=(0, 4))
    grid = occupancy_indicator(veh, 0, 2, 4)
    assert np.array_equal(grid, [[0, 1, 1, 0], [0, 0, 0, 1]])
    # delay 2 pushes the last step past the horizon
    grid = occupancy_indicator(veh, 2, 2, 4)
    assert np.array_equal(grid, [[0, 0, 0, 1], [0, 0, 0, 0]])


def ring_fixture():
    g = FreightGraph([("A", "B", 1.0, 2), ("B", "C", 1.0, 1)])
    vehs = [VehicleAssignment(g, [0, 1], 0, (0, 3)),
            VehicleAssignment(g, [0, 1], 1, (0, 2)),
            VehicleAssignment(g, [0], 2, (0, 2)),
            VehicleAssignment(g, [1], 0, (0, 3))]
    return g, vehs


def test_chain_aggregate_matches_plaintext_counts(keypair):
    g, vehs = ring_fixture()
    tau = [1, 0, 2, 1]
    horizon = default_horizon(vehs)
    ring = [(vehs[j], tau[j]) for j in (2, 3, 0, 1)]
    zeta = chain_aggregate(ring, g, horizon, keypair,
                           np.random.default_rng(5))
    oracle = occupancy_counts(g, [vehs[3], vehs[0], vehs[1]],
                              [tau[3], tau[0], tau[1]], horizon)
    assert np.array_equal(zeta, oracle)
    with pytest.raises(ValueError):
        chain_aggregate(ring[:1], g, horizon, keypair,
                        np.random.default_rng(5))


@pytest.mark.parametrize("contributors", [3, 7])
def test_packing_exact_at_tight_slot(keypair, contributors):
    # every contributor on the same cells: each count is 2**width - 1
    g = FreightGraph([("A", "B", 1.0, 2), ("B", "C", 1.0, 1)])
    vehs = [VehicleAssignment(g, [0, 1], 1, (0, 1))
            for _ in range(contributors + 1)]
    horizon = 5
    ring = [(veh, 0) for veh in vehs]
    zeta = chain_aggregate(ring, g, horizon, keypair,
                           np.random.default_rng(8))
    assert np.array_equal(zeta, [[0, contributors, contributors, 0, 0],
                                 [0, 0, 0, contributors, 0]])
    assert np.array_equal(zeta, occupancy_counts(g, vehs, [0] * len(vehs),
                                                 horizon, exclude=0))


def test_grid_spanning_several_ciphertexts(keypair):
    g = FreightGraph([("A", "B", 2.0, 40), ("B", "C", 1.0, 50),
                      ("B", "D", 1.0, 45)])
    vehs = [VehicleAssignment(g, [0, 1 + k % 2], k, (0, 5))
            for k in range(6)]
    tau = [3, 0, 5, 1, 2, 4]
    horizon = default_horizon(vehs)
    shape = (len(g), horizon)
    chunks = CipherMatrix.zeros(shape, len(vehs) - 1, keypair.public,
                                np.random.default_rng(0)).chunks
    assert len(chunks) >= 3
    zeta = chain_aggregate(list(zip(vehs, tau)), g, horizon, keypair,
                           np.random.default_rng(9))
    assert np.array_equal(zeta, occupancy_counts(g, vehs, tau, horizon,
                                                 exclude=0))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), ring=st.integers(2, 9), horizon=st.integers(1, 150))
def test_packed_counts_exact_property(keypair, data, ring, horizon):
    g = FreightGraph([("A", "B", 1.0, 3), ("B", "C", 1.0, 2),
                      ("B", "D", 1.0, 4)])
    walks = ([0, 1], [0, 2], [1], [2], [0])
    vehs, tau = [], []
    for _ in range(ring):
        walk = data.draw(st.sampled_from(walks))
        depart = data.draw(st.integers(0, horizon))
        vehs.append(VehicleAssignment(g, walk, depart, (0, 3)))
        tau.append(data.draw(st.integers(0, 3)))
    zeta = chain_aggregate(list(zip(vehs, tau)), g, horizon, keypair,
                           np.random.default_rng(ring * 1000 + horizon))
    assert np.array_equal(zeta, occupancy_counts(g, vehs, tau, horizon,
                                                 exclude=0))


def test_transcript_shape_and_no_plaintext_leak(keypair):
    g, vehs = ring_fixture()
    tau = [0, 0, 0, 0]
    horizon = default_horizon(vehs)
    ring = [(vehs[j], tau[j]) for j in range(4)]
    transcript = []
    chain_aggregate(ring, g, horizon, keypair, np.random.default_rng(6),
                    transcript=transcript)
    hops = [e for e in transcript if e[0] == "hop"]
    assert len(hops) == 4                      # seed message plus three adds
    assert transcript[-1] == ("decrypt", 0)
    digests = [e[4] for e in hops]
    # re-randomisation makes every message digest distinct
    assert len(set(digests)) == len(digests)
    assert all(isinstance(d, bytes) and len(d) == 32 for d in digests)
    receivers = [e[3] for e in hops]
    assert receivers == [1, 2, 3, 0]           # ring order, back to the holder


def test_private_scores_equal_plaintext_scores(keypair):
    g, vehs = ring_fixture()
    tau = [1, 2, 0, 3]
    horizon = default_horizon(vehs)
    i = 0
    ring = [(vehs[j], tau[j]) for j in (0, 1, 2, 3)]
    zeta = chain_aggregate(ring, g, horizon, keypair,
                           np.random.default_rng(7))
    counts = occupancy_counts(g, vehs, tau, horizon, exclude=i)
    assert np.array_equal(zeta, counts)
    plain = conditional_scores(g, vehs[i], counts, gamma=1.0)
    private = conditional_scores(g, vehs[i], zeta, gamma=1.0)
    assert np.array_equal(plain, private)      # shared code path, bit for bit


def test_private_learning_bit_identical_to_plaintext():
    g, vehs = ring_fixture()
    state = ScheduleState(g, tuple(vehs), np.zeros(4, dtype=int),
                          temperature=2.0)
    plain = run_learning(state, 60, rng_seed=99)
    private = run_private_learning(state, 60, rng_seed=99, bits=BITS)
    assert np.array_equal(plain.trajectory, private.trajectory)
    assert np.array_equal(plain.cost_trace, private.cost_trace)
    assert np.array_equal(plain.best_tau, private.best_tau)
    assert plain.best_cost == private.best_cost
    assert plain.visits == private.visits
    with pytest.raises(ValueError):
        run_private_learning(state, 0, rng_seed=1, bits=BITS)
