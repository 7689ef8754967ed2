"""Encrypted edge-occupancy aggregation for private schedule coordination.

Paillier encryption (additively homomorphic) lets a ring of vehicles
accumulate per-(edge, step) occupancy counts without revealing any
individual walk: the querying vehicle sends encrypted zeros around the
ring, every other vehicle multiplies in a fresh encryption of its 0/1
occupancy indicator, and only the querying vehicle decrypts the returned
totals.  The counts travel packed, many small slots to one plaintext, and
the holder decrypts with the CRT over its own primes.  The decrypted counts
feed the scheduler's one learning driver and its scoring code, so the
private run produces bit-identical learning trajectories.

Key sizes of 512 bits keep the tests fast and are NOT a production
choice; use 2048 bits or more for anything real.  Keys and encryption
randomness are drawn from a seeded numpy generator, so anyone who knows
the seed can regenerate every secret key: they are reproducible, not
secret.  The protocol here demonstrates the aggregation; a real
deployment needs keys from a cryptographic source such as ``secrets``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DimensionMismatch, KeyMismatch, PlaintextOutOfRange,
                     PrimeGenerationFailed)
from .scheduler import (FreightGraph, LearningResult, ScheduleState,
                        VehicleAssignment, default_horizon, drive_learning)
# the learning driver tracks the best profile through the scheduler's own
# name; this one stays importable because perfbench's tracer wraps it here
from .scheduler import coordination_cost  # noqa: F401

try:
    from gmpy2 import powmod

    def _powmod(base, exp, mod):
        return int(powmod(base, exp, mod))
except ImportError:  # pragma: no cover - exercised only without gmpy2
    def _powmod(base, exp, mod):
        return pow(base, exp, mod)

#: candidate primes tried before giving up
PRIME_ATTEMPTS = 20_000
#: Miller-Rabin witnesses drawn per candidate, whether or not each is tested
MR_ROUNDS = 40
#: (smallest bit length, rounds tested): Miller-Rabin rounds that give an
#: error of at most 2^-80 on a uniformly random odd candidate of that many
#: bits (Damgard, Landrock and Pomerance, Math. Comp. 1993; HAC Table 4.4).
#: `_random_prime`, the only caller, also forces the second-highest bit,
#: which halves that candidate set and so at most doubles the bound.
#: Below 100 bits all MR_ROUNDS are tested.
_MR_TESTED = ((1300, 2), (850, 3), (650, 4), (550, 5), (450, 6), (400, 7),
              (350, 8), (300, 9), (250, 12), (200, 15), (150, 18), (100, 27))

_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _rand_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) from generator bytes."""
    nbytes = (bound.bit_length() + 7) // 8 + 1
    while True:
        r = int.from_bytes(rng.bytes(nbytes), "big")
        if r < (256 ** nbytes // bound) * bound:
            return r % bound


def _is_probable_prime(n: int, rng: np.random.Generator) -> bool:
    """Miller-Rabin for a random candidate.  Every one of the MR_ROUNDS
    witnesses is drawn, in order, so the generator ends where a test of
    all of them leaves it; only the first `_MR_TESTED` many are tested."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    tested = next((r for k, r in _MR_TESTED if n.bit_length() >= k),
                  MR_ROUNDS)
    for i in range(MR_ROUNDS):
        a = 2 + _rand_below(rng, n - 3)
        if i >= tested:
            continue
        x = _powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = _powmod(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: np.random.Generator) -> int:
    for _ in range(PRIME_ATTEMPTS):
        candidate = int.from_bytes(rng.bytes((bits + 7) // 8), "big")
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        candidate &= (1 << bits) - 1
        if _is_probable_prime(candidate, rng):
            return candidate
    raise PrimeGenerationFailed(f"no {bits}-bit prime in {PRIME_ATTEMPTS} attempts")


@dataclass(frozen=True)
class PublicKey:
    n: int
    bits: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def generator(self) -> int:
        # n + 1 makes g^m = 1 + m n (mod n^2), avoiding one modexp
        return self.n + 1


@dataclass(frozen=True)
class PrivateKey:
    lam: int
    mu: int
    n: int
    p: int
    q: int


@dataclass(frozen=True)
class Keypair:
    public: PublicKey
    secret: PrivateKey


def keygen(bits: int, rng: np.random.Generator) -> Keypair:
    """Paillier keypair with an n of roughly ``bits`` bits.

    Deterministic for a seeded generator.  Primes come from seeded
    Miller-Rabin search; the n+1 generator fixes mu = lam^-1 mod n.  The
    secret key keeps ``p`` and ``q`` for CRT decryption.
    """
    if bits < 256:
        raise ValueError("modulus below 256 bits is meaningless even for tests")
    half = bits // 2
    for _ in range(PRIME_ATTEMPTS):
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p != q:
            break
    else:  # pragma: no cover
        raise PrimeGenerationFailed("could not find two distinct primes")
    n = p * q
    lam = math.lcm(p - 1, q - 1)
    mu = pow(lam, -1, n)
    return Keypair(PublicKey(n, bits), PrivateKey(lam, mu, n, p, q))


@dataclass(frozen=True)
class Ciphertext:
    value: int
    n: int

    def digest(self) -> bytes:
        size = (self.n.bit_length() * 2 + 7) // 8
        return hashlib.sha256(self.value.to_bytes(size, "big")).digest()


def encrypt(m: int, public: PublicKey, rng: np.random.Generator) -> Ciphertext:
    """Probabilistic encryption; fresh randomness every call."""
    m = int(m)
    if not 0 <= m < public.n:
        raise PlaintextOutOfRange(f"plaintext must lie in [0, {public.n})")
    n, n2 = public.n, public.n_squared
    while True:
        r = 1 + _rand_below(rng, n - 1)
        if math.gcd(r, n) == 1:
            break
    value = ((1 + m * n) % n2) * _powmod(r, n, n2) % n2
    return Ciphertext(value, n)


def _residue(c: int, p: int, q: int) -> int:
    """The plaintext mod ``p``: L_p(c^(p-1) mod p^2) / L_p(g^(p-1) mod p^2),
    where the n+1 generator makes the denominator -q mod p."""
    p2 = p * p
    x = _powmod(c % p2, p - 1, p2)
    return (x - 1) // p * pow(-q, -1, p) % p


def decrypt(c: Ciphertext, keypair: Keypair) -> int:
    """Plaintext of ``c``, worked out mod p^2 and q^2 and joined by the
    CRT (Paillier, EUROCRYPT 1999, section 7).  The result is the one the
    lambda/mu formula L(c^lam mod n^2) * mu mod n gives."""
    secret = keypair.secret
    if c.n != secret.n:
        raise KeyMismatch("ciphertext was produced under a different modulus")
    p, q = secret.p, secret.q
    mp = _residue(c.value, p, q)
    mq = _residue(c.value, q, p)
    return mq + q * ((mp - mq) * pow(q, -1, p) % p)


def homomorphic_add(c1: Ciphertext, c2: Ciphertext,
                    public: PublicKey) -> Ciphertext:
    if c1.n != c2.n or c1.n != public.n:
        raise KeyMismatch("ciphertexts are not under the given public key")
    return Ciphertext(c1.value * c2.value % public.n_squared, c1.n)


def _slots(public: PublicKey, width: int) -> int:
    """Slots of ``width`` bits per plaintext: all of them stay below n."""
    return (public.n.bit_length() - 1) // width


def _pack(flags: np.ndarray, width: int, slots: int) -> list:
    """Plaintexts holding the flat 0/1 ``flags``, ``slots`` to a plaintext.

    Entry ``j`` goes to bit ``(j % slots) * width`` of plaintext
    ``j // slots``; the rest of its slot is left free for carries.
    """
    count = -(-flags.size // slots)
    bits = np.zeros((count * slots, width), dtype=np.uint8)
    bits[:flags.size, 0] = flags
    rows = np.packbits(bits.reshape(count, slots * width), axis=1,
                       bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _unpack(values: Sequence[int], width: int, slots: int) -> np.ndarray:
    """Every ``width``-bit slot of ``values`` in ``_pack``'s order."""
    nbytes = (slots * width + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in values),
                        dtype=np.uint8).reshape(len(values), nbytes)
    bits = np.unpackbits(raw, axis=1, count=slots * width, bitorder="little")
    return bits.reshape(-1, width) @ (1 << np.arange(width))


class CipherMatrix:
    """|E| x horizon grid of counts, packed into a few ciphertexts.

    The edge labelling is positional: row ``k`` is the graph's edge ``k``,
    which every party knows in advance.  Cells are taken row-major,
    ``slots`` to a ciphertext, each in a slot of ``width`` bits.  A slot
    holds counts up to ``2**width - 1``, so up to that many 0/1 indicators
    add without a carry into the next slot; ``terms`` counts those added
    so far.
    """

    def __init__(self, chunks: Sequence[Ciphertext], shape: tuple[int, int],
                 width: int, public: PublicKey, terms: int = 0):
        rows, cols = shape
        if rows < 1 or cols < 1:
            raise DimensionMismatch("empty cipher matrix")
        slots = _slots(public, width)
        chunks = tuple(chunks)
        if len(chunks) != -(-rows * cols // slots):
            raise DimensionMismatch(
                f"{len(chunks)} ciphertexts for {rows * cols} cells in "
                f"{slots} slots each")
        for chunk in chunks:
            if chunk.n != public.n:
                raise KeyMismatch("matrix entry under a different modulus")
        self.chunks = chunks
        self.shape = (rows, cols)
        self.width = width
        self.slots = slots
        self.public = public
        self.terms = terms

    @classmethod
    def zeros(cls, shape: tuple[int, int], capacity: int, public: PublicKey,
              rng: np.random.Generator) -> "CipherMatrix":
        """Encrypted zeros in slots wide enough for counts up to
        ``capacity``."""
        width = max(1, int(capacity).bit_length())
        count = -(-shape[0] * shape[1] // _slots(public, width))
        return cls([encrypt(0, public, rng) for _ in range(count)], shape,
                   width, public)

    def add_indicator(self, indicator: np.ndarray,
                      rng: np.random.Generator) -> "CipherMatrix":
        """Fresh encryption of the packed 0/1 indicator multiplied into
        every ciphertext."""
        if indicator.shape != self.shape:
            raise DimensionMismatch(
                f"indicator shape {indicator.shape} vs matrix {self.shape}")
        flags = indicator.ravel()
        if not ((flags == 0) | (flags == 1)).all():
            raise PlaintextOutOfRange("indicator entries must be 0 or 1")
        if self.terms >= (1 << self.width) - 1:
            raise PlaintextOutOfRange(
                f"{self.width}-bit slots already hold {self.terms} indicators")
        plain = _pack(flags, self.width, self.slots)
        chunks = [homomorphic_add(chunk, encrypt(m, self.public, rng),
                                  self.public)
                  for chunk, m in zip(self.chunks, plain)]
        return CipherMatrix(chunks, self.shape, self.width, self.public,
                            self.terms + 1)

    def decrypt_counts(self, keypair: Keypair) -> np.ndarray:
        """The holder's view: every slot decrypted, as an integer grid."""
        values = [decrypt(chunk, keypair) for chunk in self.chunks]
        cells = _unpack(values, self.width, self.slots)
        return cells[:self.shape[0] * self.shape[1]].reshape(self.shape)

    def digest(self) -> bytes:
        h = hashlib.sha256()
        for chunk in self.chunks:
            h.update(chunk.digest())
        return h.digest()


def occupancy_indicator(vehicle: VehicleAssignment, tau: int,
                        n_edges: int, horizon: int) -> np.ndarray:
    """0/1 matrix of the vehicle's delayed walk, truncated to the horizon."""
    grid = np.zeros((n_edges, horizon), dtype=int)
    grid.reshape(-1)[vehicle.cells(tau, n_edges, horizon)] = 1
    return grid


def chain_aggregate(vehicles: Sequence[tuple[VehicleAssignment, int]],
                    graph: FreightGraph, horizon: int, keypair: Keypair,
                    rng: np.random.Generator,
                    transcript: Optional[list] = None) -> np.ndarray:
    """Ring pass computing counts of vehicles 2..n, decrypted by vehicle 1.

    ``vehicles`` is the ring order; the first entry holds the keypair and
    contributes nothing to the counts, so each count sums at most
    ``len(vehicles) - 1`` indicators and the holder sizes the packed slots
    for that.  Every hop re-randomises every ciphertext, so consecutive
    messages look unrelated.  The transcript records one
    ("hop", hop, sender, receiver, matrix digest) entry per message plus one
    final ("decrypt", holder_index) marker; no other party ever sees the
    secret key, which the marker makes checkable.
    """
    if len(vehicles) < 2:
        raise ValueError("the ring needs at least two vehicles")
    shape = (len(graph), int(horizon))
    matrix = CipherMatrix.zeros(shape, len(vehicles) - 1, keypair.public, rng)
    if transcript is not None:
        transcript.append(("hop", 0, 0, 1, matrix.digest()))
    for hop in range(1, len(vehicles)):
        vehicle, tau = vehicles[hop]
        indicator = occupancy_indicator(vehicle, tau, *shape)
        matrix = matrix.add_indicator(indicator, rng)
        if transcript is not None:
            receiver = (hop + 1) % len(vehicles)
            transcript.append(("hop", hop, hop, receiver, matrix.digest()))
    zeta = matrix.decrypt_counts(keypair)
    if transcript is not None:
        transcript.append(("decrypt", 0))
    return zeta


def _ring_order(n: int, first: int) -> list:
    return [(first + k) % n for k in range(n)]


def run_private_learning(state0: ScheduleState, iterations: int,
                         rng_seed: int, *, bits: int = 512,
                         horizon: Optional[int] = None) -> LearningResult:
    """Log-linear learning where every count comes from the ring protocol.

    Runs the scheduler's learning driver with a ring oracle: vehicle
    ``i``'s view of the others is one ``chain_aggregate`` pass under its
    own keypair, never the plaintext counts.  The learning stream consumes
    exactly the draws of the plaintext ``run_learning`` (vehicle index,
    then one uniform per iteration), so matched seeds give bit-identical
    trajectories.  Encryption randomness and per-vehicle keypairs come
    from a separate stream.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    crypto_rng = np.random.default_rng([rng_seed, 0x5EC2E7])
    n_vehicles = len(state0.assignments)
    horizon = default_horizon(state0.assignments) if horizon is None else horizon
    keypairs = [keygen(bits, crypto_rng) for _ in range(n_vehicles)]

    def ring_counts(i: int, tau: np.ndarray) -> np.ndarray:
        ring = [(state0.assignments[j], int(tau[j]))
                for j in _ring_order(n_vehicles, i)]
        return chain_aggregate(ring, state0.graph, horizon, keypairs[i],
                               crypto_rng)

    return drive_learning(state0, iterations, np.random.default_rng(rng_seed),
                          ring_counts, horizon=horizon)
