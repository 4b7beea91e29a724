"""Randomized sweeps: sample ideals of powers, run both routes, compare.

Each trial draws its randomness from its own stream (``rng.stream``), so
trial i is reproducible in isolation and the sweep's outcome does not
depend on how many trials run or in what order.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .errors import GenericityError
from .lefschetz import LefschetzReport, wlp_check
from .quotient import GradedIdeal
from .rng import MAX_SAMPLE_TRIES, SplitMix64, TrialConfig, distinct_forms, stream
from .splitting import WlpPrediction, predict_wlp


def random_power_ideal(rng: SplitMix64, config: TrialConfig) -> GradedIdeal:
    """Powers of pairwise non-proportional spanning forms, degrees in range."""
    n = rng.integer(config.min_generators, config.max_generators)
    for _ in range(64):
        forms = list(islice(distinct_forms(rng, config.num_vars, config.bound), n))
        if len(forms) < n:
            raise GenericityError(
                f"could not sample a fresh linear form within {MAX_SAMPLE_TRIES} tries "
                f"(bound {config.bound}, {len(forms)} forms excluded)"
            )
        powers = [rng.integer(config.min_degree, config.max_degree) for _ in range(n)]
        ideal = GradedIdeal.from_powers(zip(forms, powers))
        if ideal.algebra.is_artinian():
            return ideal
    raise GenericityError("could not sample a spanning set of linear forms")


class TrialResult(NamedTuple):
    index: int
    degrees: tuple[int, ...]
    hilbert: tuple[int, ...]
    wlp_holds: bool
    predicted_holds: bool
    ranks_agree: bool

    @property
    def consistent(self) -> bool:
        """Both routes returned the same verdict and the same rank table."""
        return self.wlp_holds == self.predicted_holds and self.ranks_agree


class TrialsReport(NamedTuple):
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


def wlp_trial(index: int, config: TrialConfig) -> tuple[GradedIdeal, LefschetzReport]:
    """Ideal ``index`` of the sweep and its direct weak Lefschetz check.

    The check's seed is drawn from the trial's stream after the ideal's
    draws, so sampling the multiplier does not replay the draws that built
    the ideal: a multiplier equal to a generator form has a forced kernel.
    """
    rng = stream(config.seed, index)
    ideal = random_power_ideal(rng, config)
    return ideal, wlp_check(ideal, config.check_config(seed=rng.next_uint64()))


def run_trial(index: int, config: TrialConfig) -> TrialResult:
    """One ideal, both routes, at the same witness form."""
    ideal, direct = wlp_trial(index, config)
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
    )


def run_random_trials(config: TrialConfig | None = None) -> TrialsReport:
    config = config or TrialConfig()
    results = tuple(run_trial(i, config) for i in range(config.count))
    return TrialsReport(results)
