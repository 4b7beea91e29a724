"""Exact verification of maximal-rank multiplication maps on Artinian
graded quotients, with closed-form predictions from the splitting type of
the restricted syzygy bundle for ideals of powers of linear forms in three
variables.
"""

from .binary import (
    BinaryResolution,
    binary_power_resolution,
    minimal_power_degrees,
    power_ideal_dim,
    power_quotient_dim,
    power_syzygy_shifts,
)
from .errors import (
    GenericityError,
    HilbertDataError,
    NotArtinianError,
    SpecFormatError,
)
from .lefschetz import (
    DEFAULT_ATTEMPTS,
    DEFAULT_BOUND,
    DEFAULT_SEED,
    CheckConfig,
    LefschetzReport,
    MapRankRecord,
    multiplication_rank,
    sample_linear_form,
    slp_check,
    wlp_check,
)
from .poly import GradedPoly, LinearForm, linear_form, monomial_basis, restrict_mod_linear
from .quotient import GradedIdeal, QuotientAlgebra
from .rng import GENERATOR_NAME, SplitMix64, stream
from .specfile import (
    CorpusEntry,
    corpus_names,
    load_corpus_entry,
    load_ideal_argument,
    load_ideal_file,
    load_ideal_text,
    parse_ideal,
    parse_polynomial,
    render_ideal,
    render_ideal_text,
)
from .splitting import (
    PredictedMapRecord,
    SplittingType,
    WlpPrediction,
    connecting_image_dim,
    generic_splitting_type,
    predict_wlp,
    predicted_splitting_type,
    restriction_h0,
    restriction_h1,
    splitting_type_at,
    syzygy_h2,
    syzygy_module_dim,
)
from .trials import TrialConfig, TrialResult, TrialsReport, run_random_trials
from .verify import EntryVerification, verify_all, verify_entry

__version__ = "0.1.0"

__all__ = [
    "BinaryResolution",
    "CheckConfig",
    "CorpusEntry",
    "DEFAULT_ATTEMPTS",
    "DEFAULT_BOUND",
    "DEFAULT_SEED",
    "EntryVerification",
    "GENERATOR_NAME",
    "GenericityError",
    "GradedIdeal",
    "GradedPoly",
    "HilbertDataError",
    "LefschetzReport",
    "LinearForm",
    "MapRankRecord",
    "NotArtinianError",
    "PredictedMapRecord",
    "QuotientAlgebra",
    "SpecFormatError",
    "SplitMix64",
    "SplittingType",
    "TrialConfig",
    "TrialResult",
    "TrialsReport",
    "WlpPrediction",
    "binary_power_resolution",
    "connecting_image_dim",
    "corpus_names",
    "generic_splitting_type",
    "linear_form",
    "load_corpus_entry",
    "load_ideal_argument",
    "load_ideal_file",
    "load_ideal_text",
    "minimal_power_degrees",
    "monomial_basis",
    "multiplication_rank",
    "parse_ideal",
    "parse_polynomial",
    "power_ideal_dim",
    "power_quotient_dim",
    "power_syzygy_shifts",
    "predict_wlp",
    "predicted_splitting_type",
    "render_ideal",
    "render_ideal_text",
    "restrict_mod_linear",
    "restriction_h0",
    "restriction_h1",
    "run_random_trials",
    "sample_linear_form",
    "slp_check",
    "splitting_type_at",
    "stream",
    "syzygy_h2",
    "syzygy_module_dim",
    "verify_all",
    "verify_entry",
    "wlp_check",
    "__version__",
]
