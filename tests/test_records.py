"""The records keep what frozen dataclasses gave them: immutable fields,
equality, hashing and repr by value, and checks on every construction,
copies made with _replace and by pickling included."""

import copy
import math
import pickle
from collections import Counter

import pytest

from zhcorrect import (
    UNK,
    ConfigError,
    ConfusionChannel,
    Corpus,
    Edit,
    EditSet,
    MixtureCorrectorModel,
    ParallelPair,
    Stage,
    StructuralError,
    UsageError,
    decode,
    initial_model,
    parse_parallel,
)


def _model():
    vocab = frozenset("甲乙") | {UNK}
    channel = ConfusionChannel(0.5, {"甲": Counter({"乙": 2})})
    return MixtureCorrectorModel(initial_model(vocab="甲乙").lm, channel, vocab, 0.4, Stage.STAGE1)


def _records():
    pair = ParallelPair("甲乙", ("甲丙",))
    return [
        pair,
        Corpus((pair,)),
        Edit(1, 2, "丙"),
        EditSet((Edit(1, 2, "丙"),)),
        _model(),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_copies_are_equal_and_pickle_back(record):
    for clone in (record._replace(), copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is type(record)


def test_repr_names_every_field_as_a_dataclass_did():
    assert repr(Edit(1, 2, "丙")) == "Edit(start=1, end=2, replacement='丙')"
    assert repr(EditSet(())) == "EditSet(edits=())"
    assert repr(Corpus(())) == "Corpus(pairs=())"


@pytest.mark.parametrize(
    ("record", "changes", "error"),
    [
        (ParallelPair("甲", ("乙",)), {"references": ()}, UsageError),
        # An int beyond any float is read as an infinity, out of range.
        (_model(), {"mixing_weight": 10**400}, UsageError),
        (_model(), {"mixing_weight": -0.1}, UsageError),
        (_model(), {"mixing_weight": math.nan}, UsageError),
        (Edit(1, 2, "丙"), {"end": 0}, StructuralError),
        (Edit(1, 2, ""), {"end": 1}, StructuralError),
        (EditSet(()), {"edits": (Edit(0, 2, "x"), Edit(1, 2, "y"))}, StructuralError),
        (_model(), {"lm": _model().lm._replace(smoothing_k=1e308)}, ConfigError),
        (_model(), {"channel": _model().channel._replace(smoothing_k=5e-324)}, ConfigError),
        (initial_model(), {"vocab": frozenset("甲")}, StructuralError),
        (initial_model(), {"channel": initial_model().channel._replace(smoothing_k=0.0)}, StructuralError),
        (_model(), {"mixing_weight": 1.5}, UsageError),
        (_model(), {"vocab": frozenset("甲乙")}, StructuralError),
        (initial_model(), {"lm": initial_model().lm._replace(order=0)}, StructuralError),
    ],
)
def test_replace_runs_the_checks(record, changes, error):
    with pytest.raises(error):
        record._replace(**changes)
    if isinstance(record, tuple):  # a namedtuple's other copy path
        with pytest.raises(error):
            type(record)._make({**record._asdict(), **changes}.values())


def test_replace_refuses_unknown_fields():
    for record in _records():
        with pytest.raises((TypeError, ValueError)):
            record._replace(no_such_field=1)


def test_equal_records_hash_equal():
    a = parse_parallel(["甲\t乙\n"])
    b = Corpus((ParallelPair("甲", ("乙",)),))
    assert a == b and hash(a) == hash(b)
    assert {EditSet((Edit(0, 1, "x"),)), EditSet((Edit(0, 1, "x"),))} == {
        EditSet((Edit(0, 1, "x"),))
    }


def test_decode_cache_stays_out_of_equality_repr_and_pickles():
    model = _model()
    assert decode(model, "甲甲") and model._columns
    with pytest.raises(AttributeError):
        model._columns = {}
    for clone in (model._replace(), pickle.loads(pickle.dumps(model))):
        assert clone == model and not clone._columns
        assert clone._channel_totals == model._channel_totals == {"甲": 2}
    assert "_columns" not in repr(model) and "_totals" not in repr(model)
    with pytest.raises(TypeError):
        hash(model)  # its counts are dicts, as with the frozen dataclass
