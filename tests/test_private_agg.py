"""Paillier primitives, the ring protocol, and plaintext equivalence.

``oracles.reference_is_probable_prime`` and ``reference_random_prime`` keep
the prime search as it tested all ``MR_ROUNDS`` Miller-Rabin witnesses on
every candidate, one after another, as the oracle for the search that
tests only as many as the candidate's size needs, in batches shared with
forked helpers: both must accept and refuse the same numbers and leave the
generator in the same state, so every key stays the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roadflow import forked, private_agg
from roadflow.errors import (DimensionMismatch, KeyMismatch,
                             PlaintextOutOfRange)
from roadflow.private_agg import (_SMALL_PRIMES, Ciphertext, CipherMatrix,
                                  _is_probable_prime, _random_prime,
                                  chain_aggregate, decrypt, encrypt,
                                  homomorphic_add, keygen, occupancy_indicator,
                                  run_private_learning)
from roadflow.scheduler import (FreightGraph, ScheduleState,
                                VehicleAssignment, conditional_scores,
                                default_horizon, occupancy_counts,
                                run_learning)

from oracles import reference_is_probable_prime, reference_random_prime

BITS = 256      # small keys keep the suite fast; never a production choice


def is_probable_prime(n, rng):
    """``_is_probable_prime`` on the words of a generator."""
    with private_agg._Words(rng) as words:
        return _is_probable_prime(n, words)


@pytest.fixture(scope="module")
def keypair():
    return keygen(BITS, np.random.default_rng(1234))


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
    """Whether the search accepts ``n``, the Miller-Rabin rounds it judged,
    up to the first that fails, and whether it leaves the generator where
    the all-rounds reference does.  An accepted ``n`` takes one modexp
    whose exponent is not 2 per round judged: no untested round is run."""
    verdicts, exps = [], []
    judge = private_agg._mr_round

    def counting_round(x, n, s):
        verdicts.append(judge(x, n, s))
        return verdicts[-1]

    def counting_powmod(base, exp, mod):
        exps.append(exp)
        return pow(base, exp, mod)

    monkeypatch.setattr(private_agg, "_mr_round", counting_round)
    monkeypatch.setattr(private_agg, "_powmod", counting_powmod)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    accepted = is_probable_prime(n, rng)
    assert accepted == reference_is_probable_prime(n, ref_rng)
    if accepted:
        assert sum(exp != 2 for exp in exps) == len(verdicts)
    same_stream = rng.bit_generator.state == ref_rng.bit_generator.state
    return accepted, len(verdicts), same_stream


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


# ------------------------------------------- bulk draws and forked helpers

@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), words=st.integers(0, 3),
       lengths=st.lists(st.integers(0, 70), min_size=1, max_size=12))
def test_words_are_generator_bytes(seed, words, lengths):
    # an odd count of 32-bit words taken before leaves a high half kept, an
    # even one a dead high half in the state; the state dicts must match.
    # numpy takes one word for zero bytes
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(words):
        rng.bytes(4)
        ref.bytes(4)
    assert rng.bit_generator.state["has_uint32"] == words % 2
    with private_agg._Words(rng) as stream:
        for k in lengths:
            assert stream.bytes(k) == ref.bytes(k)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_words_rewind_replays_and_leaves_the_generator_at_the_mark():
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    rng.bytes(4)
    ref.bytes(4)
    with private_agg._Words(rng) as stream:
        assert stream.bytes(33) == ref.bytes(33)
        mark = stream.at
        long = stream.bytes(5001)       # past one bulk block
        stream.at = mark
        assert stream.bytes(5001) == long == ref.bytes(5001)
        stream.at = mark
    ref = np.random.default_rng(3)
    ref.bytes(4)
    ref.bytes(33)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_candidates_without_witnesses_leave_the_generator_alone():
    for n in (97, 3 * P127, 2 ** 130 + 1, 1):      # sieved or small
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        assert is_probable_prime(n, rng) == reference_is_probable_prime(n,
                                                                         ref)
        assert rng.bit_generator.state == ref.bit_generator.state \
            == np.random.default_rng(9).bit_generator.state


def test_small_numbers_are_prime_as_by_trial_division():
    # 2 is the one even prime; below 101 squared the sieve and the small
    # primes decide every number, and the primes past 97 pass every round
    for n in range(601):
        prime = n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_probable_prime(n, np.random.default_rng(n)) == prime, n
        assert reference_is_probable_prime(
            n, np.random.default_rng(n)) == prime, n


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(forked, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_keygen_on_any_cpu_count_equals_the_one_by_one_search(cpus,
                                                              monkeypatch):
    cases = [(256, seed) for seed in range(12)] + [(512, 0), (512, 1)]
    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(private_agg, "_random_prime", reference_random_prime)
    expected = []
    for bits, seed in cases:
        rng = np.random.default_rng(seed)
        expected.append((keygen(bits, rng).secret, rng.bit_generator.state))
    monkeypatch.undo()
    use_cpus(monkeypatch, cpus)
    with private_agg.modexp_helpers():
        assert private_agg._RUNNING[0].processes == min(cpus, 2)
        for (bits, seed), (secret, state) in zip(cases, expected):
            rng = np.random.default_rng(seed)
            assert keygen(bits, rng).secret == secret
            assert rng.bit_generator.state == state
    assert not private_agg._RUNNING


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_small_primes_equal_the_one_by_one_search_and_rewind(cpus,
                                                             monkeypatch):
    # every search sets its stream back to just before the first witness
    # of the candidate that passes its first round; with helpers, that
    # also takes back the later candidates of the block drawn ahead
    use_cpus(monkeypatch, cpus)
    rewinds = []

    class Words(private_agg._Words):
        def __setattr__(self, name, value):
            if name == "at" and value < self.__dict__.get("at", 0):
                rewinds.append(self.at - value)
            super().__setattr__(name, value)

    monkeypatch.setattr(private_agg, "_Words", Words)
    with private_agg.modexp_helpers():
        for bits in (12, 16, 20, 24, 32, 40):
            witness = -(-((bits + 7) // 8 + 1) // 4)   # its 32-bit words
            for seed in range(30):
                rng = np.random.default_rng([bits, seed])
                ref = np.random.default_rng([bits, seed])
                assert _random_prime(bits, rng) == \
                    reference_random_prime(bits, ref)
                assert rng.bit_generator.state == ref.bit_generator.state
    assert len(rewinds) >= 180
    assert (max(rewinds) > witness) == (cpus > 1)
    with pytest.raises(ValueError):
        _random_prime(7, np.random.default_rng(0))


@pytest.mark.parametrize("cpus", [2, 3])
def test_composite_past_its_first_round_sets_the_stream_back(cpus,
                                                             monkeypatch):
    # a quarter of this composite's bases are strong liars, so some seeds
    # pass rounds before the one that fails; random candidates of 12-40
    # bits almost never do: the sieve removes every composite below 101^2
    n = quarter_liar_composite()
    d, s, _ = private_agg._mr_setup(n)
    use_cpus(monkeypatch, cpus)
    passed_first = 0
    with private_agg.modexp_helpers():
        for seed in range(16):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert not is_probable_prime(n, rng)
            assert not reference_is_probable_prime(n, ref)
            assert rng.bit_generator.state == ref.bit_generator.state
            a = 2 + private_agg._rand_below(np.random.default_rng(seed), n - 3)
            passed_first += private_agg._mr_round(pow(a, d, n), n, s)
    assert passed_first >= 2


def one_by_one_pass(ring, g, horizon, keypair, rng):
    """The ring pass with every encryption drawing its own ``r`` in turn:
    the message digests, the final ciphertexts and the counts."""
    matrix = CipherMatrix.zeros((len(g), horizon), len(ring) - 1,
                                keypair.public, rng)
    digests = [matrix.digest()]
    for vehicle, tau in ring[1:]:
        matrix = matrix.add_indicator(
            occupancy_indicator(vehicle, tau, len(g), horizon), rng)
        digests.append(matrix.digest())
    return (digests, [c.value for c in matrix.chunks],
            matrix.decrypt_counts(keypair))


def spied_run(monkeypatch, cpus, run):
    """What ``run()`` returns, the keys made, the ciphertexts decrypted and
    the state of every generator made, with ``cpus`` usable."""
    use_cpus(monkeypatch, cpus)
    made, keys, decrypted = [], [], []
    default_rng, real_keygen, real_decrypt = (np.random.default_rng,
                                              keygen, decrypt)

    def spy_rng(*args):
        made.append(default_rng(*args))
        return made[-1]

    def spy_keygen(*args):
        keys.append(real_keygen(*args))
        return keys[-1]

    def spy_decrypt(c, keypair):
        decrypted.append(c.value)
        return real_decrypt(c, keypair)

    monkeypatch.setattr(private_agg.np.random, "default_rng", spy_rng)
    monkeypatch.setattr(private_agg, "keygen", spy_keygen)
    monkeypatch.setattr(private_agg, "decrypt", spy_decrypt)
    out = run()
    monkeypatch.undo()
    return out, keys, decrypted, [g.bit_generator.state for g in made]


@pytest.mark.parametrize("cpus", [2, 3])
def test_private_run_on_any_cpu_count_equals_the_one_process_run(cpus,
                                                                 monkeypatch):
    g, vehs = ring_fixture()
    state = ScheduleState(g, tuple(vehs), np.zeros(4, dtype=int),
                          temperature=2.0)

    def run():
        result = run_private_learning(state, 12, rng_seed=21, bits=BITS)
        return result.trajectory, result.cost_trace, result.best_tau

    one = spied_run(monkeypatch, 1, run)
    many = spied_run(monkeypatch, cpus, run)
    for a, b in zip(one[0], many[0]):
        assert np.array_equal(a, b)
    assert one[1] == many[1] and len(one[1]) == 4
    assert one[2] == many[2] and len(one[2]) >= 12
    assert one[3] == many[3] and len(one[3]) == 2   # crypto, then learning


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_ring_pass_on_any_cpu_count_equals_one_by_one_encryption(
        cpus, keypair, monkeypatch):
    g = FreightGraph([("A", "B", 2.0, 40), ("B", "C", 1.0, 50),
                      ("B", "D", 1.0, 45)])
    vehs = [VehicleAssignment(g, [0, 1 + k % 2], k, (0, 5))
            for k in range(6)]
    ring = list(zip(vehs, [3, 0, 5, 1, 2, 4]))
    horizon = default_horizon(vehs)
    ref_rng = np.random.default_rng(17)
    digests, chunks, counts = one_by_one_pass(ring, g, horizon, keypair,
                                              ref_rng)
    assert len(chunks) >= 3
    use_cpus(monkeypatch, cpus)
    decrypted = []

    def spy_decrypt(c, keypair):
        decrypted.append(c.value)
        return decrypt(c, keypair)

    monkeypatch.setattr(private_agg, "decrypt", spy_decrypt)
    rng, transcript = np.random.default_rng(17), []
    with private_agg.modexp_helpers():
        zeta = chain_aggregate(ring, g, horizon, keypair, rng,
                               transcript=transcript)
    assert [e[4] for e in transcript if e[0] == "hop"] == digests
    assert decrypted == chunks
    assert np.array_equal(zeta, counts)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
