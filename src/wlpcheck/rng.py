"""Every random draw: the generator, its streams, the sampling knobs and the
linear forms drawn from them.

The generator is the standard splitmix64, so sampled forms are reproducible
across platforms.  Python's own Mersenne twister would work, but its state
layout is private and the stream-per-index trick below (fixed stride
between starting states) is awkward there.  Trial i draws
from ``stream(seed, i)``, which never overlaps neighbouring trials as long
as a single trial uses fewer than STREAM_BLOCK draws.
"""

from __future__ import annotations

from typing import Iterator

from .frozen import Frozen
from .poly import LinearForm

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
STREAM_BLOCK = 1024

GENERATOR_NAME = "splitmix64"

DEFAULT_SEED = 20100601
DEFAULT_BOUND = 100
DEFAULT_ATTEMPTS = 5
MAX_BOUND = (1 << 63) - 1  # so one 64-bit draw covers the 2B + 1 values of [-B, B]

MAX_SAMPLE_TRIES = 256


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; the modulo bias is irrelevant here."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_uint64() % (hi - lo + 1)


def stream(seed: int, index: int) -> SplitMix64:
    """Generator number ``index`` of the family seeded by ``seed``.

    Starting states sit STREAM_BLOCK steps apart on the splitmix64 orbit, so
    the streams are disjoint windows of one underlying sequence.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    return SplitMix64((seed + index * STREAM_BLOCK * GAMMA) & MASK64)


class CheckConfig(Frozen):
    """Sampling knobs shared by every randomized check."""

    _fields = ("seed", "bound", "attempts")
    seed: int
    bound: int
    attempts: int

    def __init__(self, seed: int = DEFAULT_SEED, bound: int = DEFAULT_BOUND,
                 attempts: int = DEFAULT_ATTEMPTS):
        if bound < 1:
            raise ValueError("bound must be positive")
        if bound > MAX_BOUND:
            raise ValueError("bound must be at most 2^63 - 1")
        if attempts < 1:
            raise ValueError("need at least one attempt")
        super().__init__(seed, bound, attempts)


class TrialConfig(Frozen):
    """Shape of the random sweep; degree and generator counts are inclusive."""

    _fields = (
        "count", "seed", "bound", "attempts", "num_vars",
        "min_degree", "max_degree", "min_generators", "max_generators",
    )
    count: int
    seed: int
    bound: int
    attempts: int
    num_vars: int
    min_degree: int
    max_degree: int
    min_generators: int
    max_generators: int

    def __init__(
        self,
        count: int = 100,
        seed: int = DEFAULT_SEED,
        bound: int = DEFAULT_BOUND,
        attempts: int = DEFAULT_ATTEMPTS,
        num_vars: int = 3,
        min_degree: int = 2,
        max_degree: int = 8,
        min_generators: int = 3,
        max_generators: int = 6,
    ):
        if count < 1:
            raise ValueError("need at least one trial")
        if not (1 <= min_degree <= max_degree):
            raise ValueError("bad degree range")
        if not (num_vars <= min_generators <= max_generators):
            raise ValueError("generator range must allow a spanning set")
        CheckConfig(seed, bound, attempts)  # rejects a bad bound or attempt count
        super().__init__(count, seed, bound, attempts, num_vars,
                         min_degree, max_degree, min_generators, max_generators)

    def check_config(self, seed: int) -> CheckConfig:
        return CheckConfig(seed=seed, bound=self.bound, attempts=self.attempts)


def distinct_forms(rng: SplitMix64, num_vars: int, bound: int) -> Iterator[LinearForm]:
    """Random integer linear forms with coefficients in [-bound, bound].

    Each form is nonzero and not proportional to any earlier one.  The
    stream ends once MAX_SAMPLE_TRIES draws in a row are rejected, which
    is how a small coefficient pool runs out.
    """
    seen: list[LinearForm] = []
    rejected = 0
    while rejected < MAX_SAMPLE_TRIES:
        form = LinearForm(tuple(rng.integer(-bound, bound) for _ in range(num_vars)))
        if form.is_zero or any(form.proportional_to(f) for f in seen):
            rejected += 1
            continue
        rejected = 0
        seen.append(form)
        yield form


def witness_forms(config: CheckConfig, num_vars: int) -> Iterator[LinearForm]:
    """The candidate multipliers of a randomized check, in the order tried."""
    return distinct_forms(SplitMix64(config.seed), num_vars, config.bound)
