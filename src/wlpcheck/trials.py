"""Randomized sweeps: sample ideals of powers, run both routes, compare.

Each trial draws its randomness from its own stream (``rng.stream``), so
trial i is reproducible in isolation and the sweep's outcome does not
depend on how many trials run or in what order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GenericityError
from .lefschetz import CheckConfig, LefschetzReport, sample_linear_form, wlp_check
from .poly import LinearForm
from .quotient import GradedIdeal
from .rng import SplitMix64, stream
from .splitting import WlpPrediction, predict_wlp

DEFAULT_TRIALS = 100
DEFAULT_MIN_DEGREE = 2
DEFAULT_MAX_DEGREE = 8
DEFAULT_MIN_GENERATORS = 3
DEFAULT_MAX_GENERATORS = 6


@dataclass(frozen=True)
class TrialConfig:
    """Shape of the random sweep; degree and generator counts are inclusive."""

    count: int = DEFAULT_TRIALS
    seed: int = CheckConfig.seed
    bound: int = CheckConfig.bound
    attempts: int = CheckConfig.attempts
    num_vars: int = 3
    min_degree: int = DEFAULT_MIN_DEGREE
    max_degree: int = DEFAULT_MAX_DEGREE
    min_generators: int = DEFAULT_MIN_GENERATORS
    max_generators: int = DEFAULT_MAX_GENERATORS

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("need at least one trial")
        if not (1 <= self.min_degree <= self.max_degree):
            raise ValueError("bad degree range")
        if not (self.num_vars <= self.min_generators <= self.max_generators):
            raise ValueError("generator range must allow a spanning set")

    def check_config(self, seed: int) -> CheckConfig:
        return CheckConfig(seed=seed, bound=self.bound, attempts=self.attempts)


def random_power_ideal(rng: SplitMix64, config: TrialConfig) -> GradedIdeal:
    """Powers of pairwise non-proportional spanning forms, degrees in range."""
    n = rng.integer(config.min_generators, config.max_generators)
    for _ in range(64):
        forms: list[LinearForm] = []
        for _ in range(n):
            forms.append(
                sample_linear_form(rng, config.num_vars, config.bound, avoid=tuple(forms))
            )
        powers = [rng.integer(config.min_degree, config.max_degree) for _ in range(n)]
        ideal = GradedIdeal.from_powers(zip(forms, powers))
        if ideal.algebra.is_artinian():
            return ideal
    raise GenericityError("could not sample a spanning set of linear forms")


@dataclass(frozen=True)
class TrialResult:
    index: int
    degrees: tuple[int, ...]
    hilbert: tuple[int, ...]
    wlp_holds: bool
    predicted_holds: bool
    ranks_agree: bool
    direct_failures: tuple[tuple[int, int], ...]
    predicted_failures: tuple[int, ...]

    @property
    def consistent(self) -> bool:
        """Both routes returned the same verdict and the same rank table."""
        return self.wlp_holds == self.predicted_holds and self.ranks_agree


@dataclass(frozen=True)
class TrialsReport:
    config: TrialConfig
    results: tuple[TrialResult, ...]

    @property
    def num_wlp(self) -> int:
        return sum(1 for r in self.results if r.wlp_holds)

    @property
    def num_consistent(self) -> int:
        return sum(1 for r in self.results if r.consistent)

    @property
    def all_consistent(self) -> bool:
        return self.num_consistent == len(self.results)

    @property
    def all_wlp(self) -> bool:
        return self.num_wlp == len(self.results)


def run_trial(index: int, config: TrialConfig) -> TrialResult:
    """One ideal, both routes, at the same witness form."""
    rng = stream(config.seed, index)
    ideal = random_power_ideal(rng, config)
    direct: LefschetzReport = wlp_check(ideal, config.check_config(seed=rng.next_uint64()))
    predicted: WlpPrediction = predict_wlp(ideal, direct.form)
    direct_ranks = [(r.degree, r.rank) for r in direct.records]
    predicted_ranks = [(r.degree, r.rank) for r in predicted.records]
    return TrialResult(
        index=index,
        degrees=tuple(sorted(ideal.generator_degrees)),
        hilbert=direct.hilbert,
        wlp_holds=direct.holds,
        predicted_holds=predicted.holds,
        ranks_agree=direct_ranks == predicted_ranks,
        direct_failures=direct.failures,
        predicted_failures=predicted.failures,
    )


def run_random_trials(config: TrialConfig | None = None) -> TrialsReport:
    config = config or TrialConfig()
    results = tuple(run_trial(i, config) for i in range(config.count))
    return TrialsReport(config, results)
