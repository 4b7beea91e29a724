"""Sampling knobs of the randomized checks and the shape of a random sweep.

The defaults live here, apart from the code that samples, so the command
line can state them without importing that code.
"""

from __future__ import annotations

from .frozen import Frozen

DEFAULT_SEED = 20100601
DEFAULT_BOUND = 100
DEFAULT_ATTEMPTS = 5


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
