"""Exact verification of maximal-rank multiplication maps on Artinian
graded quotients, with closed-form predictions from the splitting type of
the restricted syzygy bundle for ideals of powers of linear forms in three
variables.

Each exported name is imported from its submodule on first access, so
importing the package, or one submodule, loads nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "minimal_power_degrees": "binary",
    "power_quotient_dim": "binary",
    "power_syzygy_shifts": "binary",
    "GenericityError": "errors",
    "HilbertDataError": "errors",
    "NotArtinianError": "errors",
    "SpecFormatError": "errors",
    "slp_check": "lefschetz",
    "wlp_check": "lefschetz",
    "GradedPoly": "poly",
    "LinearForm": "poly",
    "linear_form": "poly",
    "GradedIdeal": "quotient",
    "CheckConfig": "rng",
    "load_ideal_file": "specfile",
    "parse_ideal": "specfile",
    "render_ideal": "specfile",
    "generic_splitting_type": "splitting",
    "predict_wlp": "splitting",
    "predicted_splitting_type": "splitting",
    "splitting_type_at": "splitting",
    "run_random_trials": "trials",
    "verify_all": "verify",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
