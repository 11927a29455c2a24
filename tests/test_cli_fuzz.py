"""The CLI on hostile inputs: every run ends in exit 0 or in exit 2 with one
`error:` line, never in a traceback (exit 1)."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zhcorrect.cli import main
from zhcorrect.model import fit_stage, initial_model, load_model, save_model
from zhcorrect.synthetic import make_suite

_GOOD_TSV = "天汽很好\t天气很好\n他是学圣\t他是学生\n我们学习\t我们学习\n"
_GOOD_JSONL = "".join(
    json.dumps({"id": str(i), "source": s, "references": [t]}, ensure_ascii=False) + "\n"
    for i, (s, t) in enumerate(line.split("\t") for line in _GOOD_TSV.splitlines())
)
_GOOD_M2 = "S 天汽很好\nA 1 2|||sub|||气|||0\n\nS 他是学圣\nA 3 4|||sub|||生|||0\n\n"
_GOOD_HYP_TSV = "天汽很好\t天气很好\n他是学圣\t他是学圣\n"
_GOOD_LINES = "天气很好\n他是学生\n我们学习\n"

# Text near the formats: tabs, line ends, JSON and M2 syntax, digits, and
# units the normalizer rejects or folds.
_NEAR_FORMAT = st.text(
    alphabet=st.sampled_from(
        list("\t\n\r {}[]\":,|-SA0123456789天气汽很好他是学生圣我们习") + ["\x02", "\x1a", "１", "\u0085"]
    ),
    max_size=120,
)
_FILE_BYTES = st.one_of(
    st.binary(max_size=200),
    _NEAR_FORMAT.map(lambda t: t.encode("utf-8")),
    st.text(max_size=60).map(str.encode),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(argv):
    code, _, err = _run(argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    return code


@pytest.fixture(scope="module")
def container():
    """The JSON payload of a trained model."""
    suite = make_suite(seed=0, stage1_size=40, csc_size=10, cgc_size=10, eval_size=2)
    model = fit_stage(initial_model(), suite.stage1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        save_model(model, str(path))
        return json.loads(path.read_text(encoding="utf-8"))


# Each case names the file that gets the bytes as {bad}; the rest are valid.
_COMMANDS = {
    "score-csc-hyp": (["score-csc", "{bad}", "{gold_tsv}"], "lines"),
    "score-csc-tsv": (["score-csc", "{hyp_txt}", "{bad}"], "tsv"),
    "score-csc-jsonl": (["score-csc", "{hyp_txt}", "{bad}", "--format", "jsonl"], "jsonl"),
    "score-csc-macro": (["score-csc", "--macro", "{bad}"], "report"),
    "score-cgc-hyp": (["score-cgc", "{bad}", "{gold_m2}"], "tsv"),
    "score-cgc-gold": (["score-cgc", "{hyp_tsv}", "{bad}"], "m2"),
    "extract-edits-tsv": (["extract-edits", "{bad}"], "tsv"),
    "extract-edits-jsonl": (["extract-edits", "{bad}", "--format", "jsonl"], "jsonl"),
    "train-stage1": (["train", "--stage1", "{bad}", "--stage2", "{gold_tsv}", "--out", "{out}"], "tsv"),
    "train-stage2": (["train", "--stage1", "{gold_tsv}", "--stage2", "{bad}", "--out", "{out}"], "tsv"),
    "correct-model": (["correct", "{bad}", "{hyp_txt}"], "model"),
    "correct-input": (["correct", "{model_json}", "{bad}"], "lines"),
}


def _run_with(container, template, data):
    """Run the command template with the bytes data as its {bad} file and
    valid companion files for the other names."""
    files = {
        "gold_tsv": _GOOD_TSV,
        "hyp_txt": _GOOD_LINES,
        "gold_m2": _GOOD_M2,
        "hyp_tsv": _GOOD_HYP_TSV,
        "model_json": json.dumps(container),
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / name) for name in [*files, "bad", "out"]}
        for name, text in files.items():
            Path(paths[name]).write_text(text, encoding="utf-8")
        Path(paths["bad"]).write_bytes(data)
        return _assert_clean_exit([arg.format_map(paths) for arg in template])


@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=_FILE_BYTES)
@example(data=b"[" * 100_000)
@example(data=b'{"f_beta": "x"}')
@example(data=b"\xff\xfe")
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_arbitrary_input_file_exits_zero_or_two(container, command, data):
    _run_with(container, _COMMANDS[command][0], data)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_valid_input_file_exits_zero(container, command):
    # The fuzz above only means something if the companion files are
    # accepted: with a valid file in the bad one's place, the command runs.
    template, kind = _COMMANDS[command]
    text = {
        "lines": _GOOD_LINES,
        "tsv": _GOOD_HYP_TSV if command == "score-cgc-hyp" else _GOOD_TSV,
        "jsonl": _GOOD_JSONL,
        "m2": _GOOD_M2,
        "report": '{"f_beta": 0.5}',
        "model": json.dumps(container),
    }[kind]
    assert _run_with(container, template, text.encode("utf-8")) == 0


# Values at the edges of the parameters' ranges, drawn as often as all
# other JSON values together.
_EDGES = st.sampled_from(
    [0, -1, 1, 2, 64, 65, 10**30, 2**63, 10**400, 0.0, 0.5, 1.0, 1e308, 5e-324,
     math.nan, math.inf, -math.inf, True, None, "", "x", [], {}]
)
_JSON_VALUES = _EDGES | st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutations(draw, payload):
    """A copy of payload with up to two of its scalar parameters set to edge
    values, then up to two other values replaced or removed: a top-level
    field, a vocab entry, a count table, one of its rows or one of its
    counts."""
    payload = json.loads(json.dumps(payload))
    parameters = ["order", "lm_smoothing_k", "channel_smoothing_k", "mixing_weight"]
    payload.update(draw(st.dictionaries(st.sampled_from(parameters), _EDGES, max_size=2)))
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from(["field", "vocab", "table", "row", "count"]))
        if where == "field":
            key = draw(st.sampled_from(sorted(payload) or ["order"]))
            if draw(st.integers(0, 5)) == 0:
                payload.pop(key, None)
            else:
                payload[key] = draw(_JSON_VALUES)
            continue
        if where == "vocab" and isinstance(payload.get("vocab"), list) and payload["vocab"]:
            index = draw(st.integers(0, len(payload["vocab"]) - 1))
            payload["vocab"][index] = draw(_JSON_VALUES)
            continue
        table = payload.get(draw(st.sampled_from(["lm_counts", "channel_counts"])))
        if not isinstance(table, dict) or not table:
            continue
        key = draw(st.sampled_from(sorted(table)))
        row = table[key]
        if where == "table":
            table[draw(st.text(max_size=3))] = draw(_JSON_VALUES)
        elif where == "row" or not isinstance(row, dict) or not row:
            table[key] = draw(_JSON_VALUES)
        else:
            row[draw(st.sampled_from(sorted(row)))] = draw(_JSON_VALUES)
    return payload


def _correct_with(payload):
    """Run correct on _GOOD_LINES with payload as its model container."""
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "m.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        lines = Path(tmp) / "in.txt"
        lines.write_text(_GOOD_LINES, encoding="utf-8")
        return _run(["correct", str(model), str(lines)])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_mutated_model_container_loads_and_decodes_or_exits_two(container, data):
    payload = data.draw(_mutations(container))
    code, out, err = _correct_with(payload)
    assert code in (0, 2), err
    if code == 0:
        assert [len(line) for line in out.splitlines()] == [len(line) for line in _GOOD_LINES.splitlines()]
        _assert_saves_canonically(payload)
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def _assert_saves_canonically(payload):
    """The model of an accepted container saves, loads back equal and saves
    again to the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        given, first, second = (Path(tmp) / name for name in ("given.json", "first.json", "second.json"))
        given.write_text(json.dumps(payload), encoding="utf-8")
        model = load_model(str(given))
        save_model(model, str(first))
        assert load_model(str(first)) == model
        save_model(load_model(str(first)), str(second))
        assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "fields",
    [
        {"order": True, "mixing_weight": True},
        {"lm_smoothing_k": True},
        {"channel_smoothing_k": True},
        {"mixing_weight": False},
    ],
    ids=str,
)
def test_correct_refuses_a_bool_parameter(container, fields):
    code, out, err = _correct_with({**container, **fields})
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "malformed model container" in err


@pytest.mark.parametrize(
    "fields",
    [
        {"order": 10**30},
        {"mixing_weight": 1.0, "lm_smoothing_k": 1e308},
        {"mixing_weight": 1.0, "lm_smoothing_k": 5e-324},
        {"mixing_weight": 0.0, "channel_smoothing_k": 1e308},
        {"mixing_weight": 0.0, "channel_smoothing_k": 5e-324},
    ],
    ids=str,
)
def test_correct_rejects_a_container_that_zeroes_a_probability(container, fields):
    code, out, err = _correct_with({**container, **fields})
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "malformed model container" in err
    assert "order" in err or "smoothing_k" in err
