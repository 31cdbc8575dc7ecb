from __future__ import annotations

import pytest

from ge_select.envs import (
    ATTRIBUTE_VALUES,
    EnvError,
    EnvStep,
    MAX_CATALOG_SIZE,
    HttpEnv,
    ToyShopConfig,
    ToyShopEnv,
    build_catalog,
    parse_requirements,
    toyshop_guideline,
    toyshop_make,
    toyshop_rollout,
)
from ge_select.models import FormatError, Question


def make_env(seed=0, **kwargs) -> ToyShopEnv:
    return ToyShopEnv(ToyShopConfig(seed=seed, catalog_size=12, **kwargs))


def test_env_step_invariants():
    with pytest.raises(EnvError):
        EnvStep("obs", reward=0.5, done=False)
    with pytest.raises(EnvError):
        EnvStep("obs", reward=1.5, done=True)
    EnvStep("obs", reward=0.0, done=False)


def test_toyshop_config_bounds_catalog_size():
    # Checked on the config alone, so no catalog of a rejected size is built.
    assert ToyShopConfig(catalog_size=MAX_CATALOG_SIZE).catalog_size == MAX_CATALOG_SIZE
    for size in (0, MAX_CATALOG_SIZE + 1, 1_000_000_000_000):
        with pytest.raises(EnvError, match="catalog_size"):
            ToyShopConfig(catalog_size=size)
    with pytest.raises(FormatError, match="catalog_size"):
        ToyShopConfig(catalog_size=10**400)


def test_catalog_deterministic():
    config = ToyShopConfig(seed=5, catalog_size=30)
    assert build_catalog(config) == build_catalog(config)
    other = build_catalog(ToyShopConfig(seed=6, catalog_size=30))
    assert other != build_catalog(config)


def test_hidden_attrs_never_in_titles():
    config = ToyShopConfig(seed=1, catalog_size=50)
    for product in build_catalog(config):
        title = product.title(config.hidden_attrs)
        for kind in config.hidden_attrs:
            assert product.attributes[kind] not in title.split()


def test_reset_deterministic():
    question = Question(id="q1", text="find a red gadget")
    a = make_env(seed=2).reset(question)
    b = make_env(seed=2).reset(question)
    assert a == b
    assert "find a red gadget" in a


def test_search_ranked_by_overlap_then_id():
    env = make_env(seed=3)
    env.reset(Question(id="q1", text="find a gadget"))
    product = env.catalog[0]
    title = product.title(env.config.hidden_attrs)
    result = env.step(f"search[{title}]")
    lines = result.observation.splitlines()
    assert lines[0] == "Results:"
    assert lines[1].startswith(f"[{product.id}]")
    assert len(lines) - 1 <= env.config.max_results


def test_click_open_lists_all_options_including_hidden():
    env = make_env(seed=4)
    env.reset(Question(id="q1", text="anything"))
    product = env.catalog[0]
    result = env.step(f"click[{product.id}]")
    for value in product.attributes.values():
        assert f"[{value}]" in result.observation
    assert "[buy]" in result.observation


def test_buy_rewards_matched_fraction():
    env = make_env(seed=5)
    product = env.catalog[0]
    color = product.attributes["color"]
    flavor = product.attributes["flavor"]
    question = Question(id="q1", text=f"find a thing with {color} color and {flavor} flavor")
    env.reset(question)
    env.step(f"click[{product.id}]")
    result = env.step("click[buy]")
    assert result.done
    assert result.reward == 1.0


def test_buy_immediately_is_zero_reward_done():
    env = make_env(seed=6)
    env.reset(Question(id="q1", text="find a red gadget"))
    result = env.step("click[buy]")
    assert result.done
    assert result.reward == 0.0


def test_nonexistent_button_is_invalid_action():
    env = make_env(seed=7)
    env.reset(Question(id="q1", text="find a red gadget"))
    product = env.catalog[0]
    env.step(f"click[{product.id}]")
    absent = next(
        v for v in ATTRIBUTE_VALUES["flavor"] if v != product.attributes["flavor"]
    )
    result = env.step(f"click[{absent}]")
    assert result.observation == "Invalid action."
    assert not result.done


def test_malformed_action_is_invalid():
    env = make_env(seed=8)
    env.reset(Question(id="q1", text="x y z"))
    result = env.step("purchase the gadget")
    assert result.observation == "Invalid action."
    assert not result.done


def test_only_a_buy_ends_an_episode():
    env = make_env(seed=9)
    env.reset(Question(id="q1", text="find things"))
    for _ in range(50):
        assert not env.step("search[things]").done
    assert env.step("click[buy]").done


def test_step_after_done_is_error():
    env = make_env(seed=10)
    env.reset(Question(id="q1", text="x"))
    env.step("click[buy]")
    with pytest.raises(EnvError, match="after episode end"):
        env.step("search[x]")


def test_transcripts_are_pure_functions_of_inputs():
    question = Question(id="q1", text="find a large blue kit")
    actions = ["search[large blue kit]", "click[P000]", "click[buy]"]
    transcripts = []
    for _ in range(2):
        env = make_env(seed=11)
        obs = [env.reset(question)]
        for action in actions:
            step = env.step(action)
            obs.append((step.observation, step.reward, step.done))
            if step.done:
                break
        transcripts.append(obs)
    assert transcripts[0] == transcripts[1]


def test_toyshop_make_deterministic():
    config = ToyShopConfig(seed=12, catalog_size=15)
    a = toyshop_make(config, 25)
    b = toyshop_make(config, 25)
    assert a[1] == b[1]
    assert a[2] == b[2]
    with pytest.raises(EnvError, match="n_questions must be >= 1"):
        toyshop_make(config, 0)


def test_toyshop_make_no_hidden_attrs_means_no_hidden_questions():
    config = ToyShopConfig(seed=13, catalog_size=15, hidden_attrs=frozenset())
    _, questions, truth = toyshop_make(config, 30)
    assert all(not t["requires_hidden"] for t in truth.values())
    assert len(questions) == 30


def test_toyshop_make_hidden_fraction_within_band():
    for seed in range(20):
        config = ToyShopConfig(seed=seed, catalog_size=15)
        _, _, truth = toyshop_make(config, 120)
        fraction = sum(t["requires_hidden"] for t in truth.values()) / len(truth)
        assert 0.2 <= fraction <= 0.6


def test_toyshop_questions_carry_levels():
    _, questions, _ = toyshop_make(ToyShopConfig(seed=14, catalog_size=15), 40)
    assert all(q.metadata.get("level") in {"easy", "medium", "hard"} for q in questions)


def test_parse_requirements_from_question_text():
    required = parse_requirements("find a snack with mango flavor and red color")
    assert required == {"color": "red", "flavor": "mango"}


def test_rollout_is_deterministic_and_valid():
    config = ToyShopConfig(seed=15, catalog_size=15)
    env, questions, truth = toyshop_make(config, 10)
    runs = []
    for _ in range(2):
        runs.append([toyshop_rollout(env, q, "0" * 12) for q in questions])
    assert runs[0] == runs[1]
    for trajectory in runs[0]:
        assert trajectory.steps[0].action.startswith("search[")
        assert trajectory.steps[-1].action == "click[buy]" or len(trajectory.steps) == 1
        assert 0.0 <= trajectory.reward <= 1.0
        assert trajectory.initial_observation


def test_guideline_builder_covers_visible_only_by_default():
    text = toyshop_guideline()
    for value in ATTRIBUTE_VALUES["color"] + ATTRIBUTE_VALUES["size"]:
        assert f"click[{value}]" in text
    for value in ATTRIBUTE_VALUES["flavor"]:
        assert value not in text
    full = toyshop_guideline(include_hidden_rule=True)
    for value in ATTRIBUTE_VALUES["flavor"]:
        assert f"click[{value}]" in full
    assert "never appear in titles" in full


def test_http_env_round_trip(local_server):
    state = {"resets": 0}

    def handler(path, body):
        if path == "/reset":
            state["resets"] += 1
            return 200, {"observation": f"hello {body['question_id']}"}
        if path == "/step":
            done = body["action"] == "click[buy]"
            return 200, {"observation": "ok", "reward": 1.0 if done else 0.0, "done": done}
        return 404, {}

    local_server.handler = handler
    env = HttpEnv(local_server.url)
    obs = env.reset(Question(id="q9", text="buy a mug"))
    assert obs == "hello q9"
    step = env.step("search[mug]")
    assert step == EnvStep("ok", 0.0, False)
    final = env.step("click[buy]")
    assert final.done and final.reward == 1.0
    assert local_server.requests[0][1] == {"question_id": "q9", "text": "buy a mug"}


def test_http_env_error_status(local_server, no_sleep):
    """A 5xx on ``/reset`` is retried as a backend call is, sleeping 1, 2
    and 4 s; a 5xx on ``/step`` is not retried."""
    failing = {"/reset"}
    local_server.handler = lambda path, body: (500 if path in failing else 200, {"observation": "ready"})
    env = HttpEnv(local_server.url)
    with pytest.raises(
        EnvError, match=r"^environment /reset unreachable after 3 retries \(HTTP 500\)$"
    ):
        env.reset(Question(id="q1", text="x"))
    assert no_sleep == [1.0, 2.0, 4.0]
    failing.clear()
    failing.add("/step")
    assert env.reset(Question(id="q1", text="x")) == "ready"
    with pytest.raises(
        EnvError, match=r"^environment /step unreachable after 0 retries \(HTTP 500\)$"
    ):
        env.step("click[buy]")
    assert [path for path, _, _ in local_server.requests] == ["/reset"] * 5 + ["/step"]
    assert no_sleep == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("path", ["/reset", "/step"])
def test_http_env_client_error_is_sent_once_and_quotes_the_reply(local_server, no_sleep, path):
    local_server.handler = lambda p, body: (
        (404, {"error": "unknown"}) if p == path else (200, {"observation": "ready"})
    )
    env = HttpEnv(local_server.url)
    message = f'^environment {path} returned HTTP 404: {{"error": "unknown"}}$'
    with pytest.raises(EnvError, match=message):
        env.reset(Question(id="q1", text="x"))
        env.step("click[buy]")
    assert [p for p, _, _ in local_server.requests][-1] == path
    assert len(local_server.requests) == (1 if path == "/reset" else 2)
    assert no_sleep == []


def test_http_env_transport_and_body_errors_name_the_call():
    import requests

    class NotJson:
        status_code = 200

        def json(self):
            raise ValueError("Expecting value")

    class Session:
        def __init__(self):
            self.headers = []

        def post(self, url, json, headers, timeout):
            self.headers.append(headers)
            if url.endswith("/step"):
                raise requests.ConnectionError("connection refused")
            return NotJson()

    session = Session()
    env = HttpEnv("http://env.invalid", session=session)
    with pytest.raises(EnvError, match="^environment /reset returned non-JSON body: Expecting value$"):
        env.reset(Question(id="q1", text="x"))
    with pytest.raises(
        EnvError,
        match=r"^environment /step unreachable after 0 retries "
        r"\(transport error: connection refused\)$",
    ):
        env.step("click[buy]")
    assert session.headers == [None, None]  # the environment gets no header of the model's


@pytest.mark.parametrize(
    "reset_reply, step_reply",
    [
        (["ready"], None),
        ({"observation": "ready"}, ["ok"]),
        ({"observation": "ready"}, {"observation": "ok", "reward": None, "done": True}),
        ({"observation": "ready"}, {"observation": "ok", "reward": "high", "done": True}),
        ({"observation": "ready"}, {"observation": "ok", "reward": True, "done": True}),
        ({"observation": "ready"}, {"observation": "ok", "reward": 10**400, "done": True}),
        ({"observation": "ready"}, {"observation": "ok", "done": True}),
        ({"observation": "ready"}, {"observation": "ok", "reward": 0.0, "done": "false"}),
        ({"observation": "ready"}, {"observation": None, "reward": 0.0, "done": False}),
        ({"observation": "ready\ud800"}, None),
    ],
    ids=["reset-list", "step-list", "reward-null", "reward-str", "reward-bool",
         "reward-huge", "reward-missing", "done-str", "observation-null",
         "observation-surrogate"],
)
def test_http_env_bad_replies_raise_env_error(local_server, reset_reply, step_reply):
    local_server.handler = lambda path, body: (
        200, reset_reply if path == "/reset" else step_reply
    )
    env = HttpEnv(local_server.url)
    with pytest.raises(EnvError):
        env.reset(Question(id="q1", text="x"))
        env.step("click[buy]")
