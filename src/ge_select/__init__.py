"""Guideline-effectiveness scoring and data selection for agent trajectories."""

from .backends import (
    BackendError,
    BackendId,
    CachedBackend,
    HttpBackend,
    NgramBackend,
    ResponseCache,
    build_backend,
    cache_key,
)
from .envs import (
    EnvError,
    EnvStep,
    HttpEnv,
    ToyShopConfig,
    ToyShopEnv,
    toyshop_guideline,
    toyshop_make,
    toyshop_rollout,
)
from .models import (
    FormatError,
    Guideline,
    Question,
    ScoreRecord,
    SelectionItem,
    SelectionResult,
    Step,
    StepScore,
    Trajectory,
    load_pool,
    load_scores,
    load_selection,
    load_trajectories,
    write_records,
)
from .pipeline import (
    RunConfig,
    annotate,
    dataset_stats,
    difficulty_shift,
    export_sft,
    review_report,
    score_pool,
    score_trajectory,
    validate_sft_record,
)
from .prompts import PromptBundle, build_prompt, map_spans_to_tokens
from .scoring import (
    DIFFICULTY_FLOOR,
    TokenDistribution,
    aggregate_trajectory,
    ge_score,
    mean_entropy,
    step_difficulty,
)
from .selectors import (
    HashEmbedBackend,
    fl_objective,
    select_facility_location,
    select_ge,
    select_high_score,
    select_mean_entropy,
    select_random,
)

__version__ = "0.1.0"
