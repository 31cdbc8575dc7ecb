from __future__ import annotations

import copy
import json
import math
import os
import pickle
import random
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ge_select.models import (
    SOURCES,
    STRATEGIES,
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
    normalize_guideline_text,
    write_file,
    write_records,
)
from ge_select.scoring import ge_score


def sample_trajectory(qid: str = "q1", reward: float = 1.0, n_steps: int = 3) -> Trajectory:
    steps = tuple(
        Step(action=f"click[opt{i}]", observation=f"obs {i}", thought="" if i % 2 else f"th {i}")
        for i in range(n_steps)
    )
    return Trajectory(
        question_id=qid,
        guideline_version="a" * 12,
        steps=steps,
        reward=reward,
        source="ingested",
        question_text="find a thing",
        initial_observation="You are shopping.",
    )


_TEXT = st.text(min_size=1, max_size=12)
_ANY_TEXT = st.text(max_size=12)
_POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | _ANY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_ANY_TEXT, inner, max_size=3),
    max_leaves=6,
)
_QUESTIONS = st.builds(
    Question, _TEXT, _TEXT, st.dictionaries(_ANY_TEXT, _ANY_TEXT, max_size=3)
)
_STEPS = st.builds(
    Step, _TEXT.filter(str.strip), observation=_ANY_TEXT, thought=_ANY_TEXT
)
_TRAJECTORIES = st.builds(
    Trajectory,
    question_id=_TEXT,
    guideline_version=_TEXT,
    steps=st.lists(_STEPS, min_size=1, max_size=3).map(tuple),
    reward=st.floats(min_value=0.0, max_value=1.0),
    source=st.sampled_from(SOURCES),
    question_text=_ANY_TEXT,
    initial_observation=_ANY_TEXT,
)


@st.composite
def _score_files(draw) -> list[ScoreRecord]:
    """Records sharing one guideline and backend, as ``load_scores`` requires."""
    version, backend = draw(_TEXT), draw(_TEXT)
    records = []
    for qid in draw(st.lists(_TEXT, min_size=1, max_size=3, unique=True)):
        per_step = draw(st.lists(st.builds(StepScore, _POSITIVE, _POSITIVE, st.integers(1, 10**9)),
                                 min_size=1, max_size=3))  # fmt: skip
        ge = ge_score([(s.d_i, s.d_g) for s in per_step]) * draw(st.sampled_from((1, -1)))
        entropy = draw(st.none() | st.floats(min_value=0.0, max_value=10.0))
        records.append(ScoreRecord(qid, version, backend, tuple(per_step), ge, entropy))
    return records


_SELECTIONS = st.builds(
    SelectionResult,
    strategy=st.sampled_from(STRATEGIES),
    params=st.dictionaries(_ANY_TEXT, _JSON, max_size=3),
    items=st.lists(
        st.builds(SelectionItem, _TEXT, st.floats(allow_nan=False, allow_infinity=False)),
        max_size=4,
        unique_by=lambda item: item.question_id,
    ).map(tuple),
    warning=_ANY_TEXT,
)


def _rewrite(records: list, load) -> list:
    """Write ``records``, load them and write what loaded; the two files must
    be byte-identical. Returns what loaded."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.jsonl"), Path(tmp, "second.jsonl")
        write_records(records, first)
        loaded = load(first)
        write_records(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    return loaded


@given(st.lists(_QUESTIONS, max_size=4, unique_by=lambda q: q.id))
@example([Question("q1", "line\u2028separator\x85inside", {"level": "easy"})])
def test_question_roundtrip_is_byte_stable(pool):
    assert _rewrite(pool, load_pool) == pool


def test_load_pool_preserves_order(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text(
        '{"id":"q1","text":"first"}\n{"id":"q2","text":"second"}\n', encoding="utf-8"
    )
    pool = load_pool(path)
    assert [q.id for q in pool] == ["q1", "q2"]
    assert pool[0].text == "first"


def test_load_pool_duplicate_id_names_line(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text(
        '{"id":"q1","text":"a"}\n{"id":"q2","text":"b"}\n{"id":"q1","text":"c"}\n',
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 3|:3:"):
        load_pool(path)


def test_load_pool_malformed_line_names_line(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text('{"id":"q1","text":"a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(FormatError, match=":2:"):
        load_pool(path)


def test_load_pool_missing_file(tmp_path):
    with pytest.raises(FormatError, match="cannot read"):
        load_pool(tmp_path / "nope.jsonl")


def test_large_pool_roundtrip(tmp_path):
    pool = [Question(id=f"q{i:05d}", text=f"question {i}") for i in range(10_000)]
    path = tmp_path / "pool.jsonl"
    write_records(pool, path)
    assert load_pool(path) == pool


def test_question_requires_nonempty_fields():
    with pytest.raises(FormatError):
        Question(id="", text="x")
    with pytest.raises(FormatError):
        Question(id="q", text="")


@given(st.lists(_TRAJECTORIES, min_size=1, max_size=3))
@example([sample_trajectory()])
def test_trajectory_roundtrip(trajectories):
    assert _rewrite(trajectories, load_trajectories) == trajectories


def test_nested_record_that_is_not_an_object_names_its_line(tmp_path):
    trajectory = sample_trajectory().to_record()
    trajectory["steps"][1] = 5
    score = {"question_id": "q1", "guideline_version": "a", "backend_id": "b",
             "per_step": [None], "ge": 0.0}  # fmt: skip
    selection = {"strategy": "ge", "params": {}, "items": [["q1", 0.0]]}
    path = tmp_path / "records.jsonl"
    for load, record in (
        (load_trajectories, trajectory),
        (load_scores, score),
        (load_selection, selection),
    ):
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"{path}:1 .* must be a JSON object"):
            load(path)


def test_trajectory_reward_range(tmp_path):
    with pytest.raises(FormatError, match="reward"):
        sample_trajectory(reward=1.5)
    path = tmp_path / "t.jsonl"
    rec = sample_trajectory().to_record()
    rec["reward"] = -0.2
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="reward"):
        load_trajectories(path)


def test_trajectory_requires_steps():
    with pytest.raises(FormatError, match="steps"):
        Trajectory(
            question_id="q1",
            guideline_version="a" * 12,
            steps=(),
            reward=0.5,
            source="ingested",
        )


def test_step_action_nonempty():
    with pytest.raises(FormatError):
        Step(action="   ")


def test_write_is_canonical_and_idempotent(tmp_path):
    records = [sample_trajectory(f"q{i}") for i in range(5)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(records, a)
    write_records(records, b)
    assert a.read_bytes() == b.read_bytes()
    # load-then-write of a canonical file is byte-identical
    write_records(load_trajectories(a), b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert ": " not in text.splitlines()[0].split('"observation"')[0]


def test_write_file_replaces_the_output_whole_as_write_text_would(tmp_path):
    plain, replaced = tmp_path / "plain.txt", tmp_path / "replaced.txt"
    plain.write_text("é\n", encoding="utf-8")
    write_file(replaced, "é\n")
    assert replaced.read_bytes() == plain.read_bytes()
    assert replaced.stat().st_mode == plain.stat().st_mode  # write_text's mode, not 0600
    # a symlink at the output is replaced, and its target keeps its bytes
    link = tmp_path / "link.txt"
    link.symlink_to(plain)
    write_file(link, "new\n")
    assert not link.is_symlink() and link.read_text(encoding="utf-8") == "new\n"
    assert plain.read_text(encoding="utf-8") == "é\n"
    # a path that is not a regular file is written through and stays what it is
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open it at once
    try:
        write_file(fifo, "é\n")
        assert os.read(reader, 1024) == "é\n".encode("utf-8")
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    # a failed write raises write_text's error, naming the output, and leaves no file
    (tmp_path / "directory").mkdir()
    for target in (tmp_path / "missing" / "out.txt", tmp_path / "directory"):
        with pytest.raises(OSError) as expected:
            target.write_text("x", encoding="utf-8")
        with pytest.raises(type(expected.value)) as got:
            write_file(target, "x")
        assert str(got.value) == str(expected.value)
    longest = tmp_path / ("n" * 255)  # the longest name most file systems allow
    write_file(longest, "x")
    assert longest.read_text(encoding="utf-8") == "x"
    names = ["directory", "fifo", "link.txt", longest.name, "plain.txt", "replaced.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_guideline_version_is_content_hash():
    g1 = Guideline.from_text("Always search first.\nThen click.")
    g2 = Guideline.from_text("Always search first.   \nThen click.\n\n")
    g3 = Guideline.from_text("Always search last.\nThen click.")
    assert g1.version == g2.version  # trailing whitespace is insignificant
    assert g1.version != g3.version
    assert len(g1.version) == 12
    assert all(c in "0123456789abcdef" for c in g1.version)


def test_guideline_normalization_idempotent():
    text = "line one  \nline two\t\n\n\n"
    once = normalize_guideline_text(text)
    assert normalize_guideline_text(once) == once
    assert once.endswith("\n")
    assert not once.endswith("\n\n")


def test_guideline_any_char_change_changes_version():
    rng = random.Random(7)
    base = "Use short search keywords.\nPrefer top ranked results."
    version = Guideline.from_text(base).version
    for _ in range(20):
        i = rng.randrange(len(base))
        if base[i].isspace():
            continue
        mutated = base[:i] + chr(ord(base[i]) + 1) + base[i + 1 :]
        assert Guideline.from_text(mutated).version != version


@given(_score_files())
@example(
    [ScoreRecord("q1", "b" * 12, "c" * 12, (StepScore(1.0, 0.5, 4),), math.log(2.0), 0.25)]
)
def test_score_record_roundtrip(records):
    assert _rewrite(records, load_scores) == records


def test_step_difficulties_must_be_positive():
    # ge takes their logarithms; a zero once ended select and report in a traceback.
    for d_i, d_g in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)):
        with pytest.raises(FormatError, match="difficulties"):
            StepScore(d_i=d_i, d_g=d_g, n_tokens=1)


def test_score_record_rejects_inconsistent_ge():
    with pytest.raises(FormatError, match="ge"):
        ScoreRecord(
            question_id="q1",
            guideline_version="b" * 12,
            backend_id="c" * 12,
            per_step=(StepScore(d_i=1.0, d_g=0.5, n_tokens=1),),
            ge=0.123,
        )


def test_score_record_accepts_negated_sign_convention():
    ScoreRecord(
        question_id="q1",
        guideline_version="b" * 12,
        backend_id="c" * 12,
        per_step=(StepScore(d_i=1.0, d_g=0.5, n_tokens=1),),
        ge=-math.log(2.0),
    )


@pytest.mark.parametrize(
    "d_g, ge, default_ge",
    [
        (0.5, math.log(2.0), math.log(2.0)),  # default sign
        (0.5, -math.log(2.0), math.log(2.0)),  # eq5: the default value is its negation
        (0.5, math.log(2.0) + 5e-10, math.log(2.0) + 5e-10),  # default within 1e-9
        (0.5, -math.log(2.0) - 5e-10, math.log(2.0) + 5e-10),  # eq5 within 1e-9
        (1.0, 4e-10, 4e-10),  # matches both signs: taken as default
    ],
)
def test_score_record_default_ge_follows_the_sign_its_ge_was_written_with(d_g, ge, default_ge):
    record = ScoreRecord("q1", "b" * 12, "c" * 12, (StepScore(1.0, d_g, 1),), ge)
    assert record.default_ge == default_ge
    assert record.ge == ge and "default_ge" not in record.to_record()
    assert record == ScoreRecord("q1", "b" * 12, "c" * 12, (StepScore(1.0, d_g, 1),), ge)


@given(_SELECTIONS)
@example(
    SelectionResult("ge", {"k": 2}, (SelectionItem("q2", -0.5), SelectionItem("q1", 0.1)))
)
def test_selection_roundtrip_and_duplicates(result):
    assert _rewrite([result], lambda path: [load_selection(path)]) == [result]
    with pytest.raises(FormatError, match="duplicate"):
        SelectionResult(
            strategy="ge",
            params={},
            items=(SelectionItem("q1", 0.0), SelectionItem("q1", 0.0)),
        )


def test_write_records_deterministic_across_runs(tmp_path):
    records = [sample_trajectory(f"q{i}", reward=i / 7) for i in range(7)]
    paths = [tmp_path / f"run{i}.jsonl" for i in range(2)]
    for p in paths:
        write_records(records, p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _record_cases() -> dict:
    """Every record type of the package, with one valid value per constructor
    parameter, in positional order."""
    from ge_select.backends import BackendId
    from ge_select.envs import EnvStep, Product, ToyShopConfig
    from ge_select.pipeline import Diagnostic, RunConfig
    from ge_select.prompts import DEFAULT_TEMPLATE, PromptBundle
    from ge_select.scoring import TokenDistribution

    return {
        Question: ("q1", "find a mug", {"lang": "en"}),
        Step: ("search[mug]", "results", "look first"),
        Trajectory: ("q1", "v1", (Step("click[buy]"),), 1.0, "synthetic", "find a mug", "start"),
        Guideline: ("Check the flavor.",),
        StepScore: (2.0, 1.0, 3),
        ScoreRecord: ("q1", "v1", "b1", (StepScore(2.0, 1.0, 3),), -ge_score([(2.0, 1.0)]), 0.5),
        SelectionItem: ("q1", 0.5),
        SelectionResult: ("ge", {"k": 1}, (SelectionItem("q1", 0.5),), "few"),
        TokenDistribution: ((("a", -0.5),), 0.25),
        BackendId: ("ngram", "m", "http://x", "abc"),
        Diagnostic: ("q1", "score", "boom"),
        RunConfig: ("do it", ("ex",), DEFAULT_TEMPLATE, "emission", "eq5", 3, 7,
                    {"kind": "ngram"}, {}, {"toyshop": {"seed": 1}}),  # fmt: skip
        PromptBundle: ("Action: a", ((8, 9),)),
        EnvStep: ("obs", 1.0, True),
        Product: ("P001", "mug", "acme", {"color": "red"}),
        ToyShopConfig: (1, 10, frozenset({"size"}), 3),
    }


@pytest.mark.parametrize("cls", _record_cases(), ids=lambda cls: cls.__name__)
def test_records_construct_compare_hash_print_and_refuse_assignment(cls):
    import inspect

    args = _record_cases()[cls]
    names = list(inspect.signature(cls).parameters)
    assert len(names) == len(args)
    positional, keyword = cls(*args), cls(**dict(zip(names, args)))
    assert positional == keyword and not positional != keyword
    assert positional != cls.__name__  # another type is never equal
    try:
        hash(args)
    except TypeError:  # a dict field makes the record unhashable, as its values are
        with pytest.raises(TypeError):
            hash(positional)
    else:
        assert hash(positional) == hash(keyword)
    with pytest.raises(AttributeError):
        setattr(positional, names[0], args[0])
    with pytest.raises(AttributeError):
        delattr(positional, names[0])
    assert copy.copy(keyword) == keyword == pickle.loads(pickle.dumps(keyword))
    text = repr(keyword)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    for name in cls.__slots__:  # the parameters, and any field computed from them
        assert f"{name}={getattr(keyword, name)!r}" in text


def test_record_defaults_and_computed_fields():
    from ge_select.pipeline import RunConfig

    assert repr(Step("a")) == "Step(action='a', observation='', thought='')"
    first, second = Question("q1", "x"), Question("q1", "x")
    assert first.metadata == {} and first.metadata is not second.metadata
    configs = RunConfig(), RunConfig()
    for name in ("score_backend", "generate_backend", "env"):
        assert getattr(configs[0], name) == {}
        assert getattr(configs[0], name) is not getattr(configs[1], name)
    guideline = Guideline("Check the flavor.")
    assert repr(guideline) == f"Guideline(text='Check the flavor.\\n', version='{guideline.version}')"
    with pytest.raises(TypeError):
        Guideline("Check the flavor.", version="0" * 12)
    with pytest.raises(TypeError):
        ScoreRecord("q1", "v1", "b1", (StepScore(2.0, 1.0, 3),), 0.5, default_ge=0.5)
    eq5 = ScoreRecord("q1", "v1", "b1", (StepScore(2.0, 1.0, 3),), -ge_score([(2.0, 1.0)]))
    assert eq5.default_ge == ge_score([(2.0, 1.0)])
    assert f"default_ge={eq5.default_ge!r})" in repr(eq5)
