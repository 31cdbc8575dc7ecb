"""Multi-turn environments for annotation rollouts.

``ToyShopEnv`` is a seeded synthetic shopping task with hidden product
attributes: some attribute kinds (flavor by default) never appear in search
result titles and are only revealed on the product page. Questions that need
a hidden attribute are exactly the ones an incomplete guideline cannot help
with, which gives the scoring pipeline a desk-scale ground truth.

``HttpEnv`` adapts a remote reset/step service. Recorded trajectories need
no environment: ``score`` re-scores them as they are.
"""

from __future__ import annotations

import math
import random
import re
from typing import TYPE_CHECKING, Iterable

from .models import EnvError, FormatError, Question, Record, Step, Trajectory, keys, number, string

if TYPE_CHECKING:
    import requests

ATTRIBUTE_KINDS = ("color", "size", "flavor")
ATTRIBUTE_VALUES = {
    "color": ("red", "blue", "green", "black"),
    "size": ("small", "large"),
    "flavor": ("mango", "lemon", "vanilla", "mint", "cocoa"),
}
NOUNS = ("gadget", "widget", "bottle", "snack", "kit", "lamp", "mug", "poster")
BRANDS = ("acme", "zenco", "orbit", "lumen", "nova", "crisp")

INVALID_ACTION = "Invalid action."

_ACTION_RE = re.compile(r"^(search|click)\[(.*)\]$", re.DOTALL)
_RESULT_ID_RE = re.compile(r"\[(P\d+)\]")


class EnvStep(Record):
    __slots__ = ("observation", "reward", "done")
    observation: str
    reward: float
    done: bool

    def __init__(self, observation: str, reward: float, done: bool) -> None:
        object.__setattr__(self, "observation", observation)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "done", done)
        if not 0.0 <= reward <= 1.0:
            raise EnvError(f"reward {reward} outside [0,1]")
        if reward > 0.0 and not done:
            raise EnvError("nonzero reward requires done=true")


class Product(Record):
    __slots__ = ("id", "noun", "brand", "attributes")
    id: str
    noun: str
    brand: str
    attributes: dict[str, str]

    def __init__(self, id: str, noun: str, brand: str, attributes: dict[str, str]) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "noun", noun)
        object.__setattr__(self, "brand", brand)
        object.__setattr__(self, "attributes", attributes)

    def title(self, hidden_attrs: frozenset[str]) -> str:
        words = [self.brand]
        for kind in ATTRIBUTE_KINDS:
            if kind not in hidden_attrs:
                words.append(self.attributes[kind])
        words.append(self.noun)
        return " ".join(words)


# ``build_catalog`` makes one product per unit of ``catalog_size``, so it is
# capped far above desk scale (the benchmark uses 100) but below what
# exhausts memory.
MAX_CATALOG_SIZE = 10_000
# [low, high] of each integer setting of ``env.toyshop``.
_TOYSHOP_BOUNDS = {
    "seed": (-math.inf, math.inf),
    "catalog_size": (1, MAX_CATALOG_SIZE),
    "max_results": (1, math.inf),
}


class ToyShopConfig(Record):
    """The ``env.toyshop`` settings. A value of the wrong type raises
    ``FormatError``; one out of range, or an unknown hidden attribute kind,
    raises ``EnvError``."""

    __slots__ = ("seed", "catalog_size", "hidden_attrs", "max_results")
    seed: int
    catalog_size: int
    hidden_attrs: frozenset[str]
    max_results: int

    def __init__(
        self,
        seed: int = 0,
        catalog_size: int = 20,
        hidden_attrs: Iterable[str] = frozenset({"flavor"}),
        max_results: int = 5,
    ) -> None:
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "catalog_size", catalog_size)
        object.__setattr__(self, "max_results", max_results)
        for name in _TOYSHOP_BOUNDS:
            number(getattr(self, name), f"env.toyshop.{name}", integer=True)
        hidden = hidden_attrs
        if not isinstance(hidden, (list, tuple, set, frozenset)) or not all(
            isinstance(kind, str) for kind in hidden
        ):
            raise FormatError(f"env.toyshop.hidden_attrs must be a list of strings, got {hidden!r}")
        for name, (low, high) in _TOYSHOP_BOUNDS.items():
            where = f"env.toyshop.{name}"
            number(getattr(self, name), where, integer=True, low=low, high=high, error=EnvError)
        unknown = set(hidden) - set(ATTRIBUTE_KINDS)
        if unknown:
            raise EnvError(f"unknown hidden attribute kinds: {sorted(unknown)}")
        object.__setattr__(self, "hidden_attrs", frozenset(hidden))


def build_catalog(config: ToyShopConfig) -> list[Product]:
    rng = random.Random(config.seed)
    products = []
    for i in range(config.catalog_size):
        attributes = {kind: rng.choice(ATTRIBUTE_VALUES[kind]) for kind in ATTRIBUTE_KINDS}
        products.append(
            Product(
                id=f"P{i:03d}",
                noun=rng.choice(NOUNS),
                brand=rng.choice(BRANDS),
                attributes=attributes,
            )
        )
    return products


def parse_requirements(text: str) -> dict[str, str]:
    """Recover required attribute values from question wording by vocabulary."""
    words = set(re.findall(r"[a-z0-9]+", text.lower()))
    required = {}
    for kind in ATTRIBUTE_KINDS:
        for value in ATTRIBUTE_VALUES[kind]:
            if value in words:
                required[kind] = value
    return required


class ToyShopEnv:
    """Seeded synthetic shop; one instance runs one episode at a time. An
    episode ends only at a buy; the agent loop bounds its turns."""

    def __init__(self, config: ToyShopConfig) -> None:
        self.config = config
        self.catalog = build_catalog(config)
        self._by_id = {p.id: p for p in self.catalog}
        self._by_title = {p.title(config.hidden_attrs): p for p in self.catalog}
        self._question: Question | None = None
        self._required: dict[str, str] = {}
        self._opened: Product | None = None
        self._done = True

    def reset(self, question: Question) -> str:
        self._question = question
        self._required = parse_requirements(question.text)
        self._opened = None
        self._done = False
        return (
            f"You are shopping. Task: {question.text}\n"
            "You can search[query] or click[button]."
        )

    def _search(self, query: str) -> str:
        query_words = set(re.findall(r"[a-z0-9]+", query.lower()))
        ranked = sorted(
            self.catalog,
            key=lambda p: (
                -len(query_words & set(p.title(self.config.hidden_attrs).split())),
                p.id,
            ),
        )
        lines = ["Results:"]
        for product in ranked[: self.config.max_results]:
            lines.append(f"[{product.id}] {product.title(self.config.hidden_attrs)}")
        return "\n".join(lines)

    def _open(self, product: Product) -> str:
        self._opened = product
        options = " ".join(
            f"[{product.attributes[kind]}]" for kind in ATTRIBUTE_KINDS
        )
        return (
            f"{product.title(self.config.hidden_attrs)}\n"
            f"Options: {options} [buy]"
        )

    def _buy(self) -> EnvStep:
        if self._opened is None or not self._required:
            return EnvStep("You bought nothing.", 0.0, True)
        matched = sum(
            1
            for kind, value in self._required.items()
            if self._opened.attributes.get(kind) == value
        )
        reward = matched / len(self._required)
        return EnvStep(f"You bought [{self._opened.id}].", reward, True)

    def step(self, action: str) -> EnvStep:
        if self._done:
            raise EnvError("step called after episode end; reset first")
        result = self._apply(action.strip())
        self._done = result.done
        return result

    def _apply(self, action: str) -> EnvStep:
        match = _ACTION_RE.match(action)
        if not match:
            return EnvStep(INVALID_ACTION, 0.0, False)
        verb, arg = match.group(1), match.group(2).strip()
        if verb == "search":
            return EnvStep(self._search(arg), 0.0, False)
        if arg == "buy":
            return self._buy()
        product = self._by_id.get(arg) or self._by_title.get(arg)
        if product is not None:
            return EnvStep(self._open(product), 0.0, False)
        if self._opened is not None and arg in self._opened.attributes.values():
            return EnvStep(f"You selected {arg}.", 0.0, False)
        return EnvStep(INVALID_ACTION, 0.0, False)


def _question_text(noun: str, required: dict[str, str]) -> str:
    clauses = [f"{required[kind]} {kind}" for kind in ATTRIBUTE_KINDS if kind in required]
    return f"find a {noun} with " + " and ".join(clauses)


def toyshop_make(
    config: ToyShopConfig,
    n_questions: int,
    hidden_question_rate: float = 0.4,
) -> tuple[ToyShopEnv, list[Question], dict[str, dict[str, bool]]]:
    """Build an environment, a question pool, and per-question ground truth.

    Each question is generated from a catalog product, so a perfect match
    always exists. ``requires_hidden`` marks questions that mention a hidden
    attribute value, which only a guideline covering the hidden rule can
    teach.
    """
    if n_questions < 1:
        raise EnvError("n_questions must be >= 1")
    env = ToyShopEnv(config)
    rng = random.Random((config.seed << 16) ^ 0x5EED)
    visible_kinds = [k for k in ATTRIBUTE_KINDS if k not in config.hidden_attrs]
    questions: list[Question] = []
    ground_truth: dict[str, dict[str, bool]] = {}
    for i in range(n_questions):
        product = rng.choice(env.catalog)
        wants_hidden = bool(config.hidden_attrs) and rng.random() < hidden_question_rate
        required: dict[str, str] = {}
        if wants_hidden:
            hidden_kind = rng.choice(sorted(config.hidden_attrs))
            required[hidden_kind] = product.attributes[hidden_kind]
            if visible_kinds and rng.random() < 0.5:
                kind = rng.choice(visible_kinds)
                required[kind] = product.attributes[kind]
            level = "hard"
        else:
            count = rng.choice((1, 2)) if len(visible_kinds) > 1 else 1
            for kind in rng.sample(visible_kinds, count):
                required[kind] = product.attributes[kind]
            level = "easy" if len(required) == 1 else "medium"
        qid = f"q{i:04d}"
        questions.append(
            Question(
                id=qid,
                text=_question_text(product.noun, required),
                metadata={"level": level},
            )
        )
        ground_truth[qid] = {"requires_hidden": wants_hidden}
    return env, questions, ground_truth


def toyshop_guideline(
    hidden_attrs: frozenset[str] = frozenset({"flavor"}),
    include_hidden_rule: bool = False,
) -> str:
    """Assemble a shopping guideline from the catalog vocabulary.

    The default omits every hidden attribute kind, producing the incomplete
    guideline the selection experiments start from.
    """
    covered = [k for k in ATTRIBUTE_KINDS if k not in hidden_attrs]
    if include_hidden_rule:
        covered = list(ATTRIBUTE_KINDS)
    lines = ["Shopping guideline:"]
    lines.append("Search with the task words, for example search[red gadget].")
    lines.append("Open a result by its id, for example click[P001].")
    for kind in covered:
        examples = ", ".join(f"click[{v}]" for v in ATTRIBUTE_VALUES[kind])
        lines.append(f"Select the required {kind} option: {examples}.")
    if include_hidden_rule and hidden_attrs:
        kinds = " and ".join(sorted(hidden_attrs))
        lines.append(
            f"Some options such as {kinds} never appear in titles; "
            "open the product page to check them."
        )
    lines.append("Finish with click[buy].")
    return "\n".join(lines) + "\n"


def toyshop_rollout(
    env: ToyShopEnv,
    question: Question,
    guideline_version: str,
) -> Trajectory:
    """Deterministic scripted episode: search, open top hit, select, buy."""
    initial = env.reset(question)
    required = parse_requirements(question.text)
    steps: list[Step] = []

    def act(action: str) -> EnvStep:
        result = env.step(action)
        steps.append(Step(action=action, observation=result.observation))
        return result

    result = act(f"search[{question.text}]")
    reward = result.reward
    if not result.done:
        match = _RESULT_ID_RE.search(result.observation)
        plan = []
        if match:
            plan.append(f"click[{match.group(1)}]")
        for kind in ATTRIBUTE_KINDS:
            if kind in required:
                plan.append(f"click[{required[kind]}]")
        plan.append("click[buy]")
        for action in plan:
            result = act(action)
            reward = result.reward
            if result.done:
                break
    return Trajectory(
        question_id=question.id,
        guideline_version=guideline_version,
        steps=tuple(steps),
        reward=reward,
        source="synthetic",
        question_text=question.text,
        initial_observation=initial,
    )


class HttpEnv:
    """Adapter for a remote environment exposing POST /reset and /step.

    Every reply must be a JSON object; a reply that is not, or whose fields
    have the wrong types, raises ``EnvError``.
    """

    def __init__(self, base_url: str, timeout: float = 60.0, session: requests.Session | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def _post(self, path: str, body: dict) -> dict:
        """Send one call through the http backend's client. ``/reset`` only
        starts an episode, so it is retried as a backend call is; ``/step``
        acts, so it is sent once."""
        from .backends import BACKOFF_S, MAX_RETRIES, post_json

        name = f"environment {path}"
        retries = MAX_RETRIES if path == "/reset" else 0
        url = f"{self.base_url}{path}"
        data = post_json(self.session, url, body, name, self.timeout, retries, BACKOFF_S, EnvError)
        return keys(data, None, f"{name} reply", EnvError)

    def reset(self, question: Question) -> str:
        data = self._post("/reset", {"question_id": question.id, "text": question.text})
        observation = data.get("observation")
        return string(observation, "environment /reset observation", empty=True, error=EnvError)

    def step(self, action: str) -> EnvStep:
        data = self._post("/step", {"action": action})
        done = data.get("done")
        if not isinstance(done, bool):
            raise EnvError(f"environment /step done must be true or false, got {done!r}")
        observation = data.get("observation")
        return EnvStep(
            string(observation, "environment /step observation", empty=True, error=EnvError),
            number(data.get("reward"), "environment /step reward", error=EnvError),
            done,
        )
