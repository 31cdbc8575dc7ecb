"""The commands that only read and write files: the review report, SFT
export and dataset statistics. They need nothing but ``models``, so the
commands that run them load neither a backend nor an environment.
"""

from __future__ import annotations

import math
from typing import Sequence

from .models import (
    LEVELS,
    FormatError,
    Guideline,
    Question,
    ScoreRecord,
    SelectionResult,
    Trajectory,
    sum_floats,
)


def review_report(
    scores: Sequence[ScoreRecord],
    trajectories: Sequence[Trajectory],
    m: int,
) -> str:
    """Human-readable dossier of the m questions the guideline helps least,
    ranked as ``select_ge`` ranks them."""
    if m < 1:
        raise FormatError("m must be >= 1")
    by_id: dict[str, Trajectory] = {}
    for t in trajectories:
        by_id.setdefault(t.question_id, t)
    ranked = sorted(scores, key=lambda s: (s.default_ge, s.question_id))[:m]
    lines = ["# Guideline review report", ""]
    lines.append(
        f"Showing {len(ranked)} of {len(scores)} scored questions, "
        "lowest guideline effectiveness first."
    )
    lines.append("")
    for rank, record in enumerate(ranked, start=1):
        lines.append(f"## {rank}. {record.question_id} (ge = {record.ge:+.6f})")
        lines.append("")
        ratios = [math.log(s.d_i) - math.log(s.d_g) for s in record.per_step]
        worst = min(ratios)
        lines.append("| step | tokens | d_i | d_g | log(d_i/d_g) | |")
        lines.append("|---:|---:|---:|---:|---:|:---|")
        for i, (step_score, ratio) in enumerate(zip(record.per_step, ratios), start=1):
            flag = "guideline conflict" if ratio == worst else ""
            lines.append(
                f"| {i} | {step_score.n_tokens} | {step_score.d_i:.6f} "
                f"| {step_score.d_g:.6f} | {ratio:+.6f} | {flag} |"
            )
        lines.append("")
        trajectory = by_id.get(record.question_id)
        if trajectory is not None:
            lines.append(f"reward: {trajectory.reward:.4f}")
            lines.append("")
            if trajectory.question_text:
                lines.append(f"Task: {trajectory.question_text}")
            for step in trajectory.steps:
                if step.thought:
                    lines.append(f"Thought: {step.thought}")
                lines.append(f"Action: {step.action}")
                lines.append(f"Observation: {step.observation}")
        lines.append("")
    return "\n".join(lines)


def export_sft(
    trajectories: Sequence[Trajectory],
    instruction: str,
    guideline: Guideline,
) -> list[dict]:
    """Convert trajectories into chat-style fine-tuning records.

    Message layout: one system message (instruction plus guideline), one user
    message framing the task, then strictly alternating assistant/user turns.
    The final observation is dropped so every record ends on an assistant
    action, giving 2T+1 messages for a T-step trajectory.
    """
    system = instruction.rstrip("\n") + "\n" + guideline.text.rstrip("\n")
    records = []
    for trajectory in trajectories:
        framing_parts = [p for p in (trajectory.question_text, trajectory.initial_observation) if p]
        framing = "\n".join(framing_parts) if framing_parts else trajectory.question_id
        messages = [
            {"role": "system", "content": system},
            {"role": "user", "content": framing},
        ]
        for i, step in enumerate(trajectory.steps):
            if not step.action.strip():
                raise FormatError(
                    f"trajectory {trajectory.question_id!r} step {i} has an empty action"
                )
            messages.append({"role": "assistant", "content": step.action})
            if i < len(trajectory.steps) - 1:
                messages.append({"role": "user", "content": step.observation})
        records.append({"messages": messages})
    return records


def validate_sft_record(record: dict) -> int:
    """Check role alternation of one exported record; returns message count."""
    messages = record.get("messages")
    if not isinstance(messages, list) or len(messages) < 3:
        raise FormatError("sft record needs at least system, user, assistant messages")
    roles = [m.get("role") for m in messages]
    if roles[0] != "system":
        raise FormatError("first message must be system")
    expected = "user"
    for role in roles[1:]:
        if role != expected:
            raise FormatError(f"expected {expected} message, got {role}")
        expected = "assistant" if expected == "user" else "user"
    if roles[-1] != "assistant":
        raise FormatError("record must end on an assistant action")
    for message in messages:
        if not isinstance(message.get("content"), str):
            raise FormatError("message content must be a string")
    return len(messages)


def dataset_stats(trajectories: Sequence[Trajectory]) -> dict[str, float]:
    if not trajectories:
        raise FormatError("dataset_stats needs at least one trajectory")
    avg_turns = sum(len(t.steps) for t in trajectories) / len(trajectories)
    avg_reward_pct = 100.0 * sum_floats(t.reward for t in trajectories) / len(trajectories)
    return {"avg_turns": avg_turns, "avg_reward_pct": avg_reward_pct}


def difficulty_shift(
    selected: SelectionResult,
    pool: Sequence[Question],
) -> dict[str, float]:
    """Percentage-point change of each difficulty level vs the whole pool."""
    by_id = {q.id: q for q in pool}

    def level_of(question: Question, where: str) -> str:
        level = question.metadata.get("level")
        if level is None:
            raise FormatError(f"{where} question {question.id!r} has no level metadata")
        return level

    pool_counts = {level: 0 for level in LEVELS}
    for question in pool:
        level = level_of(question, "pool")
        pool_counts[level] = pool_counts.get(level, 0) + 1
    selected_counts = {level: 0 for level in LEVELS}
    for item in selected.items:
        question = by_id.get(item.question_id)
        if question is None:
            raise FormatError(f"selected question {item.question_id!r} is not in the pool")
        level = level_of(question, "selected")
        selected_counts[level] = selected_counts.get(level, 0) + 1
    n_pool = len(pool)
    n_selected = len(selected.items)
    shifts = {}
    levels = sorted(set(pool_counts) | set(selected_counts), key=_level_order)
    for level in levels:
        pool_frac = pool_counts.get(level, 0) / n_pool if n_pool else 0.0
        sel_frac = selected_counts.get(level, 0) / n_selected if n_selected else 0.0
        shifts[level] = 100.0 * (sel_frac - pool_frac)
    return shifts


def _level_order(level: str) -> tuple[int, str]:
    try:
        return (LEVELS.index(level), level)
    except ValueError:
        return (len(LEVELS), level)
