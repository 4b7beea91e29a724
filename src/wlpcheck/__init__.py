"""Exact verification of maximal-rank multiplication maps on Artinian
graded quotients, with closed-form predictions from the splitting type of
the restricted syzygy bundle for ideals of powers of linear forms in three
variables.
"""

from .binary import minimal_power_degrees, power_quotient_dim, power_syzygy_shifts
from .errors import GenericityError, HilbertDataError, NotArtinianError, SpecFormatError
from .lefschetz import CheckConfig, slp_check, wlp_check
from .poly import GradedPoly, LinearForm, linear_form
from .quotient import GradedIdeal
from .specfile import load_ideal_file, parse_ideal, render_ideal
from .splitting import generic_splitting_type, predict_wlp, predicted_splitting_type, splitting_type_at
from .trials import run_random_trials
from .verify import verify_all

__version__ = "0.1.0"

__all__ = [
    "CheckConfig",
    "GenericityError",
    "GradedIdeal",
    "GradedPoly",
    "HilbertDataError",
    "LinearForm",
    "NotArtinianError",
    "SpecFormatError",
    "generic_splitting_type",
    "linear_form",
    "load_ideal_file",
    "minimal_power_degrees",
    "parse_ideal",
    "power_quotient_dim",
    "power_syzygy_shifts",
    "predict_wlp",
    "predicted_splitting_type",
    "render_ideal",
    "run_random_trials",
    "slp_check",
    "splitting_type_at",
    "verify_all",
    "wlp_check",
    "__version__",
]
