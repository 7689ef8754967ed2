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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DimensionMismatch, KeyMismatch, PlaintextOutOfRange,
                     PrimeGenerationFailed)
from .forked import Helpers
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
#: Miller-Rabin witnesses drawn by a candidate that passes every tested
#: round; one that fails a round draws none after it
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
_SIEVE = math.prod(_SMALL_PRIMES)
#: sieved candidates whose first rounds one batch with a helper tests
_SPECULATED = 4

_RUNNING: list = []     # the helper of the outermost call running, if any


def _powmod_all(jobs: list) -> list:
    return [_powmod(*job) for job in jobs]


@contextmanager
def modexp_helpers():
    """One helper for the modular powers of this call and the calls it
    makes: forked by the outermost call, closed when that call ends.  If
    the fork fails, this process takes every power: the bits are the same."""
    if _RUNNING:
        yield
        return
    try:
        helpers = Helpers(_powmod_all, 2)
    except OSError:
        helpers = Helpers(_powmod_all, 1)
    with helpers:
        _RUNNING.append(helpers)
        try:
            yield
        finally:
            _RUNNING.clear()


def _powmods(jobs: list) -> list:
    """``pow(base, exp, mod)`` of each job, shared with the running helper."""
    return _RUNNING[0].map(jobs) if _RUNNING else _powmod_all(jobs)


class _Words:
    """``rng.bytes`` from bulk draws, taking ``ceil(k / 4)`` 32-bit words a
    call as numpy does.  ``at`` counts the words taken, and may be set back;
    on exit ``rng`` is left where ``at`` words leave it."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.start = rng, rng.bit_generator.state
        self.buffer, self.at = b"", 0

    def bytes(self, k: int) -> bytes:
        first, self.at = 4 * self.at, self.at + ((k + 3) // 4 or 1)
        while len(self.buffer) < 4 * self.at:
            self.buffer += self.rng.bytes(4096)
        return self.buffer[first:first + k]

    def __enter__(self) -> "_Words":
        return self

    def __exit__(self, *exc) -> None:
        self.rng.bit_generator.state = self.start
        if self.at:
            self.rng.bytes(4 * self.at)


def _rand_below(rng, bound: int) -> int:
    """Uniform integer in [0, bound) from the bytes of ``rng``, a generator
    or ``_Words``."""
    nbytes = (bound.bit_length() + 7) // 8 + 1
    while True:
        r = int.from_bytes(rng.bytes(nbytes), "big")
        if r < (256 ** nbytes // bound) * bound:
            return r % bound


def _mr_setup(n: int):
    """``(d, s, rounds tested)`` with ``n - 1 = d 2^s``, or None if a small
    prime divides ``n``."""
    if math.gcd(n, _SIEVE) != 1:
        return None
    s = ((n - 1) & (1 - n)).bit_length() - 1      # the lowest bit of n - 1
    return (n - 1) >> s, s, next(
        (r for k, r in _MR_TESTED if n.bit_length() >= k), MR_ROUNDS)


def _mr_round(x: int, n: int, s: int) -> bool:
    """Whether the round whose witness gives ``x = a^d mod n`` passes."""
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = _powmod(x, 2, n)
        if x == n - 1:
            return True
    return False


def _is_probable_prime(n: int, rng: _Words) -> bool:
    """Miller-Rabin for a random candidate.  All MR_ROUNDS witnesses are
    drawn and the first `_MR_TESTED` many tested at once; the stream is
    then set back to just after the first that fails, where testing one
    after another stops."""
    if n < 3 or n % 2 == 0 or n in _SMALL_PRIMES:
        return n == 2 or n in _SMALL_PRIMES
    if (setup := _mr_setup(n)) is None:
        return False
    d, s, tested = setup
    rounds = [(2 + _rand_below(rng, n - 3), rng.at)
              for _ in range(MR_ROUNDS)][:tested]
    powers = _powmods([(a, d, n) for a, _ in rounds])
    failed = next((at for x, (_, at) in zip(powers, rounds)
                   if not _mr_round(x, n, s)), None)
    if failed is not None:
        rng.at = failed
    return failed is None


def _random_prime(bits: int, rng: np.random.Generator) -> int:
    """The first random candidate that ``_is_probable_prime`` accepts.  The
    first rounds of a block of sieved candidates (one without a helper) are
    tested at once; the stream is set back to the first witness of the
    first that passes, which is then tested in full.  So the draws, the
    attempts counted and the prime are those of a one-by-one search."""
    if bits < 8:
        raise ValueError("a random prime needs at least 8 bits")
    size = _SPECULATED if _RUNNING and _RUNNING[0].processes > 1 else 1
    top = (1 << (bits - 1)) | (1 << (bits - 2)) | 1
    with _Words(rng) as words:
        attempts = 0
        while attempts < PRIME_ATTEMPTS:
            block, firsts = [], []      # (attempts, n, s, words), (a, d, n)
            while attempts < PRIME_ATTEMPTS and len(block) < size:
                attempts += 1
                n = int.from_bytes(words.bytes((bits + 7) // 8), "big")
                n = (n | top) & ((1 << bits) - 1)
                if setup := _mr_setup(n):
                    block.append((attempts, n, setup[1], words.at))
                    firsts.append((2 + _rand_below(words, n - 3), setup[0], n))
            for (count, n, s, at), x in zip(block, _powmods(firsts)):
                if _mr_round(x, n, s):
                    words.at, attempts = at, count
                    if _is_probable_prime(n, words):
                        return n
                    break
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


def _noise(public: PublicKey, count: int, rng, secret=None, own: int = 0):
    """``rng`` if it is an iterator; else one over ``r^n mod n^2`` of the
    next ``count`` encryptions, whose ``r`` hang on the stream and ``n``
    alone, so all are drawn first as one encryption after another does.
    The first ``own`` are the key holder's, who has the ``secret`` to take
    them mod p^2 and q^2 (as r coprime to n allows) and join them."""
    if not isinstance(rng, np.random.Generator):
        return rng
    n, rs = public.n, []
    while len(rs) < count:
        r = 1 + _rand_below(rng, n - 1)
        if math.gcd(r, n) == 1:
            rs.append(r)
    jobs = [(r, n, public.n_squared) for r in rs]
    if own:
        p, q = secret.p, secret.q
        jobs[:own] = [(r % (f * f), n % (f * (f - 1)), f * f)
                      for r in rs[:own] for f in (p, q)]
    x = _powmods(jobs)
    if own:
        inv, q2 = pow(q * q, -1, p * p), q * q
        x[:2 * own] = [xq + q2 * ((xp - xq) * inv % (p * p))
                       for xp, xq in zip(x[:2 * own:2], x[1:2 * own:2])]
    return iter(x)


def encrypt(m: int, public: PublicKey, rng) -> Ciphertext:
    """Probabilistic encryption; fresh randomness every call, from a
    generator or a ``_noise`` iterator."""
    m = int(m)
    if not 0 <= m < public.n:
        raise PlaintextOutOfRange(f"plaintext must lie in [0, {public.n})")
    n, n2 = public.n, public.n_squared
    value = ((1 + m * n) % n2) * next(_noise(public, 1, rng)) % n2
    return Ciphertext(value, n)


def _residue(x: int, p: int, q: int) -> int:
    """The plaintext mod ``p`` from ``x = c^(p-1) mod p^2``: L_p(x) over
    L_p(g^(p-1) mod p^2), which the n+1 generator makes -q mod p."""
    return (x - 1) // p * pow(-q, -1, p) % p


def decrypt(c: Ciphertext, keypair: Keypair) -> int:
    """Plaintext of ``c``, worked out mod p^2 and q^2 and joined by the
    CRT (Paillier, EUROCRYPT 1999, section 7).  The result is the one the
    lambda/mu formula L(c^lam mod n^2) * mu mod n gives."""
    secret = keypair.secret
    if c.n != secret.n:
        raise KeyMismatch("ciphertext was produced under a different modulus")
    p, q = secret.p, secret.q
    p2, q2 = p * p, q * q
    xp, xq = _powmods([(c.value % p2, p - 1, p2), (c.value % q2, q - 1, q2)])
    mp, mq = _residue(xp, p, q), _residue(xq, q, p)
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
              rng) -> "CipherMatrix":
        """Encrypted zeros in slots wide enough for counts up to
        ``capacity``; ``rng`` is a generator or a ``_noise`` iterator."""
        width = max(1, int(capacity).bit_length())
        count = -(-shape[0] * shape[1] // _slots(public, width))
        rng = _noise(public, count, rng)
        return cls([encrypt(0, public, rng) for _ in range(count)], shape,
                   width, public)

    def add_indicator(self, indicator: np.ndarray, rng) -> "CipherMatrix":
        """Fresh encryption of the packed 0/1 indicator multiplied into
        every ciphertext; ``rng`` is a generator or a ``_noise`` iterator."""
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
        rng = _noise(self.public, len(plain), rng)
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
    secret key, which the marker makes checkable.  Every encryption of the
    pass is drawn first (see ``_noise``), its powers shared with the helper
    of ``modexp_helpers`` if one runs; the holder's zeros take theirs by
    the CRT.
    """
    if len(vehicles) < 2:
        raise ValueError("the ring needs at least two vehicles")
    shape = (len(graph), int(horizon))
    public = keypair.public
    slots = _slots(public, max(1, (len(vehicles) - 1).bit_length()))
    count = -(-shape[0] * shape[1] // slots)
    rng = _noise(public, len(vehicles) * count, rng, keypair.secret, count)
    matrix = CipherMatrix.zeros(shape, len(vehicles) - 1, public, rng)
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

    def ring_counts(i: int, tau: np.ndarray) -> np.ndarray:
        ring = [(state0.assignments[j], int(tau[j]))
                for j in _ring_order(n_vehicles, i)]
        return chain_aggregate(ring, state0.graph, horizon, keypairs[i],
                               crypto_rng)

    with modexp_helpers():
        keypairs = [keygen(bits, crypto_rng) for _ in range(n_vehicles)]
        return drive_learning(state0, iterations,
                              np.random.default_rng(rng_seed), ring_counts,
                              horizon=horizon)
