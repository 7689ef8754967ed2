"""Paillier primitives, the ring protocol, and plaintext equivalence."""

import numpy as np
import pytest

from roadflow.errors import (DimensionMismatch, KeyMismatch,
                             PlaintextOutOfRange)
from roadflow.private_agg import (CipherMatrix, chain_aggregate, decrypt,
                                  encrypt, homomorphic_add, keygen,
                                  occupancy_indicator, run_private_learning)
from roadflow.scheduler import (FreightGraph, ScheduleState,
                                VehicleAssignment, conditional_scores,
                                default_horizon, occupancy_counts,
                                run_learning)

BITS = 256      # small keys keep the suite fast; never a production choice


@pytest.fixture(scope="module")
def keypair():
    return keygen(BITS, np.random.default_rng(1234))


def test_keygen_is_deterministic():
    a = keygen(BITS, np.random.default_rng(7))
    b = keygen(BITS, np.random.default_rng(7))
    assert a.public.n == b.public.n
    assert a.secret.lam == b.secret.lam
    c = keygen(BITS, np.random.default_rng(8))
    assert c.public.n != a.public.n
    assert a.public.n.bit_length() >= BITS - 1
    with pytest.raises(ValueError):
        keygen(128, np.random.default_rng(0))


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


def test_cipher_matrix_validation(keypair):
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatch):
        CipherMatrix([], keypair.public)
    c = encrypt(0, keypair.public, rng)
    with pytest.raises(DimensionMismatch):
        CipherMatrix([[c, c], [c]], keypair.public)
    other = keygen(BITS, np.random.default_rng(98))
    with pytest.raises(KeyMismatch):
        CipherMatrix([[encrypt(0, other.public, rng)]], keypair.public)
    m = CipherMatrix.zeros((2, 3), keypair.public, rng)
    assert m.shape == (2, 3)
    with pytest.raises(DimensionMismatch):
        m.add_indicator(np.zeros((3, 2), dtype=int), rng)


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
