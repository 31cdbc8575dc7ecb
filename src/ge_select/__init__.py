"""Guideline-effectiveness scoring and data selection for agent trajectories.

The public names load on first use (PEP 562): importing the package loads
only ``models``, and reading a name loads the module that defines it.
"""

import importlib

from . import models

_EXPORTS = {
    "backends": (
        "BackendId", "CachedBackend", "HttpBackend", "NgramBackend", "ResponseCache",
        "build_backend", "cache_key",
    ),
    "envs": (
        "EnvStep", "HttpEnv", "ToyShopConfig", "ToyShopEnv", "toyshop_guideline", "toyshop_make",
        "toyshop_rollout",
    ),
    "models": (
        "BackendError", "EnvError", "FormatError", "Guideline", "Question", "ScoreRecord",
        "SelectionItem", "SelectionResult", "Step", "StepScore", "Trajectory", "load_pool",
        "load_scores", "load_selection", "load_trajectories", "write_records",
    ),
    "pipeline": ("RunConfig", "annotate", "score_pool", "score_trajectory"),
    "prompts": ("PromptBundle", "build_prompt", "map_spans_to_tokens"),
    "reports": (
        "dataset_stats", "difficulty_shift", "export_sft", "review_report", "validate_sft_record",
    ),
    "scoring": (
        "DIFFICULTY_FLOOR", "TokenDistribution", "aggregate_trajectory", "ge_score",
        "mean_entropy", "step_difficulty",
    ),
    "selectors": (
        "HashEmbedBackend", "fl_objective", "select_facility_location", "select_ge",
        "select_high_score", "select_mean_entropy", "select_random",
    ),
}  # fmt: skip
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, *_EXPORTS]  # the modules too, as ``import *`` bound them before

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
