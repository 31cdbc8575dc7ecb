"""The package's public surface, which loads lazily (PEP 562)."""

from __future__ import annotations

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import ge_select

# Every name ``from ge_select import *`` bound before the package loaded
# lazily, grouped by the module that defines it.
PUBLIC = {
    "backends": ("BackendId", "CachedBackend", "HttpBackend", "NgramBackend", "ResponseCache",
                 "build_backend", "cache_key"),
    "envs": ("EnvStep", "HttpEnv", "ToyShopConfig", "ToyShopEnv", "toyshop_guideline",
             "toyshop_make", "toyshop_rollout"),
    "models": ("BackendError", "EnvError", "FormatError", "Guideline", "Question", "ScoreRecord",
               "SelectionItem", "SelectionResult", "Step", "StepScore", "Trajectory", "ge_score",
               "load_pool", "load_scores", "load_selection", "load_trajectories", "write_records"),
    "pipeline": ("RunConfig", "annotate", "score_pool", "score_trajectory"),
    "prompts": ("PromptBundle", "build_prompt", "map_spans_to_tokens"),
    "reports": ("dataset_stats", "difficulty_shift", "export_sft", "review_report",
                "validate_sft_record"),
    "scoring": ("DIFFICULTY_FLOOR", "TokenDistribution", "aggregate_trajectory", "mean_entropy",
                "step_difficulty"),
    "selectors": ("HashEmbedBackend", "fl_objective", "select_facility_location", "select_ge",
                  "select_high_score", "select_mean_entropy", "select_random"),
}  # fmt: skip
# ``import *`` also bound the modules the package imported.
FORMER_MODULES = ("backends", "envs", "models", "pipeline", "prompts", "scoring", "selectors")


def test_star_import_binds_every_former_name():
    namespace: dict = {}
    exec("from ge_select import *", namespace)
    names = {name for names in PUBLIC.values() for name in names}
    assert len(names) == 55
    assert names | set(FORMER_MODULES) <= set(namespace)
    for module in FORMER_MODULES:
        assert namespace[module] is importlib.import_module(f"ge_select.{module}")


def test_every_public_name_is_its_defining_modules_object():
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"ge_select.{module_name}")
        for name in names:
            value = getattr(ge_select, name)
            assert value is getattr(module, name), name
            if hasattr(value, "__module__"):  # a class or function, not a constant
                assert value.__module__ == module.__name__, name
    # The errors moved to ``models``; their former modules still export them.
    # ``pipeline`` still exports the one ``reports`` name the benchmark imports from it.
    from ge_select import backends, envs, pipeline, reports

    assert backends.BackendError is ge_select.BackendError
    assert envs.EnvError is ge_select.EnvError
    assert pipeline.validate_sft_record is reports.validate_sft_record
    for name in ("dataset_stats", "difficulty_shift", "export_sft", "review_report"):
        with pytest.raises(ImportError, match=name):
            exec(f"from ge_select.pipeline import {name}", {})


def test_unknown_attributes_raise_attribute_error():
    import ge_select.cli

    for module in (ge_select, ge_select.cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from ge_select import no_such_name", {})


def test_importing_the_package_loads_only_models():
    src_root = str(Path(ge_select.__file__).resolve().parent.parent)
    loaded = "print(sorted(m for m in sys.modules if 'ge_select' in m))"
    # Reading a module's name loads that module and what it imports; ``envs``
    # loads ``backends`` only when an ``HttpEnv`` posts.
    child = (
        f"import sys, ge_select; {loaded}; ge_select.scoring; {loaded}; ge_select.envs; {loaded}"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], cwd=src_root, capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == [
        "['ge_select', 'ge_select.models']",
        "['ge_select', 'ge_select.models', 'ge_select.scoring']",
        "['ge_select', 'ge_select.envs', 'ge_select.models', 'ge_select.scoring']",
    ]


@pytest.mark.parametrize("module", ["ge_select", "ge_select.cli"])
def test_the_package_and_its_cli_module_run_the_cli(tmp_path, module):
    src_root = str(Path(ge_select.__file__).resolve().parent.parent)
    missing = tmp_path / "missing.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", module, "stats", "--trajectories", str(missing)],
        cwd=src_root, capture_output=True, text=True,
    )  # fmt: skip
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:2:") and str(missing) in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_toyshop_keys_are_the_fields_of_toyshop_config():
    from ge_select.envs import ToyShopConfig
    from ge_select.pipeline import TOYSHOP_KEYS

    assert TOYSHOP_KEYS == tuple(inspect.signature(ToyShopConfig).parameters)
