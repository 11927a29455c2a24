"""The records keep what frozen dataclasses gave them: immutable fields,
equality, hashing and repr by value, and checks on every construction,
copies made with _replace, copy, deepcopy and pickling included. A corpus
and an edit set are tuples of their items, without _fields or _replace."""

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


# The tuples of items, each with the property that reads it as a plain tuple.
_ITEMS = {Corpus: "pairs", EditSet: "edits"}


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
    field = _ITEMS.get(type(record)) or record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_copies_are_equal_and_pickle_back(record):
    clones = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    if type(record) not in _ITEMS:
        clones.append(record._replace())
    for clone in clones:
        assert clone == record and type(clone) is type(record)


@pytest.mark.parametrize(
    "record", [r for r in _records() if type(r) in _ITEMS], ids=lambda r: type(r).__name__
)
def test_a_corpus_and_an_edit_set_are_tuples_of_their_items(record):
    items = getattr(record, _ITEMS[type(record)])
    assert type(items) is tuple and items == record == tuple(record) and len(record) == 1
    assert not hasattr(record, "_fields") and not hasattr(record, "_replace")


def test_one_built_from_a_list_equals_one_built_from_a_tuple():
    edit, pair = Edit(1, 2, "丙"), ParallelPair("甲乙", ("甲丙",))
    assert EditSet([edit]) == EditSet((edit,))
    assert hash(EditSet([edit])) == hash(EditSet((edit,)))
    assert Corpus([pair]) == Corpus((pair,))


@pytest.mark.parametrize(
    ("bad", "error"),
    [
        # tuple.__new__ skips the checks of __new__, which every copy reruns.
        (tuple.__new__(EditSet, (Edit(0, 2, "x"), Edit(1, 2, "y"))), StructuralError),
        (tuple.__new__(MixtureCorrectorModel, (*_model()[:3], 1.5, Stage.STAGE1)), UsageError),
    ],
    ids=["EditSet", "MixtureCorrectorModel"],
)
def test_copies_rerun_the_checks(bad, error):
    for clone in (copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))):
        with pytest.raises(error):
            clone(bad)


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
        (Edit(1, 2, "丙"), {"start": -1}, StructuralError),
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
    with pytest.raises(error):  # a namedtuple's other copy path
        type(record)._make({**record._asdict(), **changes}.values())


def test_replace_refuses_unknown_fields():
    for record in (r for r in _records() if type(r) not in _ITEMS):
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


def test_a_copied_model_derives_its_totals_and_starts_with_an_empty_cache():
    model = _model()
    assert decode(model, "甲甲") and model._columns
    for clone in (copy.copy(model), copy.deepcopy(model)):
        assert clone == model and clone._columns == {}
        assert clone._lm_totals == model._lm_totals
        assert clone._channel_totals == model._channel_totals == {"甲": 2}
    # The model is the tuple of its five fields.
    assert len(model) == 5
    assert model == (model.lm, model.channel, model.vocab, model.mixing_weight, model.stage)
