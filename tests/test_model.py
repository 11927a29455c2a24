import hashlib
import importlib
import inspect
import itertools
import json
import math
import pickle
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zhcorrect import ConfigError, FormatError, StructuralError, UsageError
from zhcorrect.alignment import align
from zhcorrect.corpus import Corpus, ParallelPair, split
from zhcorrect.model import (
    BOUNDARY,
    DEFAULT_MIX_GRID,
    UNK,
    ConfusionChannel,
    MixtureCorrectorModel,
    NgramLM,
    Stage,
    conditional,
    dataset_objective,
    decode,
    fit_stage,
    initial_model,
    load_model,
    save_model,
    stage_heldout,
    _accumulate,
    _context_key,
    _token_probs,
)
from zhcorrect.synthetic import CONFUSION, WORD_INVENTORY, make_suite

_NINE_CHARS = "天气很好我们学生说"


def _pair(src, ref):
    return ParallelPair(src, (ref,))


def _corpus(pairs):
    return Corpus(tuple(pairs))


def _nll(model, pair):
    """The negative log-likelihood of the pair's first reference, natural
    log: the objective of a one-pair corpus."""
    return dataset_objective(model, _corpus([pair]))


def _hand_model():
    # order-2 LM and channel with small integer counts; every expected value
    # in the tests that use this model is written out as explicit arithmetic
    vocab = frozenset({"甲", "乙", UNK})
    lm = NgramLM(2, 0.5, {BOUNDARY: Counter({"甲": 3, "乙": 1}), "甲": Counter({"乙": 2})})
    channel = ConfusionChannel(0.5, {"甲": Counter({"甲": 4, "乙": 1}), "乙": Counter({"乙": 3})})
    return MixtureCorrectorModel(lm, channel, vocab, 0.6, Stage.STAGE1)


@pytest.fixture(scope="module")
def small_suite():
    return make_suite(seed=0, stage1_size=400, csc_size=200, cgc_size=200, eval_size=60)


@pytest.fixture(scope="module")
def trained(small_suite):
    m1 = fit_stage(initial_model(), small_suite.stage1)
    m2 = fit_stage(m1, small_suite.joint)
    return m1, m2


def test_untrained_model_is_uniform():
    model = initial_model(vocab=_NINE_CHARS)
    assert len(model.vocab) == 10  # nine units plus UNK
    for y in sorted(model.vocab):
        assert conditional(model, "", "天", y) == pytest.approx(0.1, abs=1e-12)
        assert conditional(model, "我们", None, y) == pytest.approx(0.1, abs=1e-12)


def _full_prefix_context_key(vocab, order, prefix):
    """The context key as first written: map the whole prefix to vocab/UNK,
    left-pad with BOUNDARY, keep the last order-1 units. Oracle only."""
    width = order - 1
    if width == 0:
        return ""
    mapped = [u if u in vocab else UNK for u in prefix]
    return "".join(([BOUNDARY] * width + mapped)[-width:])


def test_context_key_matches_full_prefix_mapping():
    vocab = frozenset("甲乙丙") | {UNK}
    pool = "甲乙丙丁戊"  # 丁 and 戊 are out of vocabulary
    rng = random.Random(3)
    for _ in range(3000):
        order = rng.randint(1, 5)
        prefix = "".join(rng.choice(pool) for _ in range(rng.randint(0, 9)))
        expected = _full_prefix_context_key(vocab, order, prefix)
        assert _context_key(vocab, order, prefix) == expected
        assert len(expected) == order - 1


def test_mixture_endpoints():
    # At weight 1.0 the mixture is the LM term alone and at 0.0 the channel
    # term alone, bit for bit; every term is exact arithmetic over the hand
    # model's counts, so == holds. |V| = 3 and k = 0.5, so k·|V| = 1.5.
    model = _hand_model()
    pure_lm = model._replace(mixing_weight=1.0)
    pure_ch = model._replace(mixing_weight=0.0)
    cases = [
        # ctx boundary: lm (1+.5)/(4+1.5); channel src 甲 emits 乙 (1+.5)/(5+1.5)
        (("", "甲", "乙"), 1.5 / 5.5, 1.5 / 6.5),
        # ctx 甲: lm (2+.5)/(2+1.5); channel src 乙 emits 乙 (3+.5)/(3+1.5)
        (("甲", "乙", "乙"), 2.5 / 3.5, 3.5 / 4.5),
        # unseen ctx 乙 and no source: both uniform, .5/1.5
        (("乙", None, "甲"), 0.5 / 1.5, 0.5 / 1.5),
    ]
    for (ctx, src, y), lm_p, ch_p in cases:
        assert conditional(pure_lm, ctx, src, y) == lm_p
        assert conditional(pure_ch, ctx, src, y) == ch_p
        assert conditional(model, ctx, src, y) == 0.6 * lm_p + (1.0 - 0.6) * ch_p


def test_channel_single_pair_tiny_smoothing():
    vocab = frozenset({"甲", "乙", UNK})
    channel = ConfusionChannel(1e-9, {"甲": Counter({"乙": 1})})
    lm = initial_model(vocab=vocab).lm
    model = MixtureCorrectorModel(lm, channel, vocab, 0.0, Stage.STAGE1)
    assert conditional(model, "", "甲", "乙") == pytest.approx(1.0, abs=1e-6)


def test_a_count_total_beyond_any_float_is_a_config_error():
    vocab = frozenset({"甲", "乙", UNK})
    channel = ConfusionChannel(0.5, {"甲": Counter({"乙": 10**400})})
    lm = initial_model(vocab=vocab).lm
    with pytest.raises(ConfigError, match="channel smoothing_k 0.5 makes a probability 0.0"):
        MixtureCorrectorModel(lm, channel, vocab, 0.0, Stage.STAGE1)


def test_mixing_weight_range_checked():
    # The model's weight and each weight dataset_objective scores are
    # checked alike: a number but no bool, in [0, 1].
    model = _hand_model()
    heldout = _corpus([_pair("甲乙", "甲乙")])
    for weight in (1.5, -0.1, -0.5, math.nan, math.inf):
        with pytest.raises(UsageError, match=r"^mixing_weight must be in \[0, 1\]"):
            model._replace(mixing_weight=weight)
        with pytest.raises(UsageError, match=r"^weight must be in \[0, 1\]"):
            dataset_objective(model, heldout, [0.5, weight])
    for weight in (True, "0.5", None):
        with pytest.raises(StructuralError, match="^mixing_weight must be a number"):
            model._replace(mixing_weight=weight)
        with pytest.raises(StructuralError, match="^weight must be a number"):
            dataset_objective(model, heldout, [weight])
    assert dataset_objective(model, heldout, [0, 1, -0.0]) == dataset_objective(
        model, heldout, [0.0, 1.0, 0.0]
    )


def test_conditional_distributions_sum_to_one(trained):
    # The model's own mixture, and each table alone at the weights 1.0 and 0.0.
    _, model = trained
    rng = random.Random(7)
    units = sorted(model.vocab)
    contexts = ["", "哈", "".join(rng.choices(units, k=2)), "".join(rng.choices(units, k=5))]
    sources = [None, "哈", rng.choice(units), rng.choice(units)]
    for weighted in (model, model._replace(mixing_weight=1.0), model._replace(mixing_weight=0.0)):
        for ctx in contexts:
            for src in sources:
                total = sum(conditional(weighted, ctx, src, y) for y in units)
                assert total == pytest.approx(1.0, abs=1e-9)


def test_a_container_may_count_a_unit_outside_its_vocab(tmp_path):
    # Only a trained model's vocab holds every unit it counts. A container
    # whose channel counts "b" outside its vocab loads and decodes, and its
    # row p(. | a) is no longer a distribution over the vocab: "b" maps to
    # UNK, whose count in the row is 0.
    path = tmp_path / "model.json"
    save_model(initial_model(order=1, mixing_weight=0.0), str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.update(vocab=[UNK, "a"], channel_counts={"a": {"b": 1}})
    path.write_text(json.dumps(payload), encoding="utf-8")
    model = load_model(str(path))
    assert decode(model, "aa") == "aa"
    row = [conditional(model, "", "a", y) for y in sorted(model.vocab)]
    assert row == [0.01 / 1.02, 0.01 / 1.02]
    assert sum(row) == pytest.approx(0.0196, abs=1e-4)


def test_nll_uniform_is_length_times_log_v():
    model = initial_model(vocab=_NINE_CHARS)
    pair = _pair("天气好", "天气好")
    assert _nll(model, pair) == pytest.approx(3 * math.log(10), abs=1e-9)


def test_nll_trivial_vocab_is_exactly_zero():
    model = initial_model(vocab=())
    assert len(model.vocab) == 1
    assert _nll(model, _pair("甲乙丙", "甲乙丙")) == 0.0


def test_nll_hand_computed_two_units():
    model = _hand_model()
    # target 甲乙 aligned to identical source: two match ops
    # t=1: ctx boundary, lm (3+.5)/(4+1.5), channel src 甲 (4+.5)/(5+1.5)
    # t=2: ctx 甲, lm (2+.5)/(2+1.5), channel src 乙 (3+.5)/(3+1.5)
    p1 = 0.6 * (3.5 / 5.5) + 0.4 * (4.5 / 6.5)
    p2 = 0.6 * (2.5 / 3.5) + 0.4 * (3.5 / 4.5)
    expected = -(math.log(p1) + math.log(p2))
    assert _nll(model, _pair("甲乙", "甲乙")) == pytest.approx(expected, abs=1e-12)


def test_nll_uses_first_reference_only():
    model = _hand_model()
    one = _pair("甲乙", "甲乙")
    two = ParallelPair("甲乙", ("甲乙", "乙乙"))
    assert _nll(model, one) == _nll(model, two)


def test_nll_additive_over_independent_pairs_order_one():
    # with a context-free LM and all-distinct units, the concatenated pair's
    # alignment is the two diagonals laid end to end, so nll decomposes
    train = _corpus(
        [
            _pair("甲乙丙", "甲丁丙"),
            _pair("戊己", "庚己"),
            _pair("辛壬癸", "辛壬癸"),
            _pair("子丑", "子丑"),
        ],
    )
    model = fit_stage(initial_model(order=1), train, heldout_fraction=0.25)
    left = _pair("甲乙", "甲丁")
    right = _pair("戊己", "庚己")
    joined = _pair("甲乙戊己", "甲丁庚己")
    assert _nll(model, left) + _nll(model, right) == pytest.approx(
        _nll(model, joined), abs=1e-9
    )


def test_dataset_objective_mean_semantics():
    model = _hand_model()
    a = _pair("甲乙", "甲乙")
    b = _pair("乙", "甲")
    doubled = _corpus([a, a])
    assert dataset_objective(model, doubled) == pytest.approx(_nll(model, a), abs=1e-12)
    mixed = _corpus([a, a, b])
    expected = (2 * _nll(model, a) + _nll(model, b)) / 3
    assert dataset_objective(model, mixed) == pytest.approx(expected, abs=1e-12)


def test_dataset_objective_rejects_empty():
    with pytest.raises(UsageError):
        dataset_objective(_hand_model(), _corpus([]))


def test_stage_config_validation():
    # A stage's settings are checked where they are used: the order and the
    # smoothing constant by the model's tables, the heldout fraction by
    # split, which fit_stage calls first, so on an empty corpus too.
    with pytest.raises(StructuralError):
        initial_model(order=0)
    with pytest.raises(StructuralError):
        initial_model(smoothing_k=0.0)
    for pairs in ([_pair("甲", "甲")], []):
        with pytest.raises(UsageError, match=r"^heldout_fraction must be in \(0, 1\), got 1.0$"):
            fit_stage(initial_model(), _corpus(pairs), heldout_fraction=1.0)


def test_fit_stage_takes_its_stage_order_and_smoothing_from_init():
    init = initial_model(order=2, smoothing_k=0.5)
    init = init._replace(channel=init.channel._replace(smoothing_k=0.25))
    corpus = _corpus([_pair("甲乙", "甲丙"), _pair("乙", "乙")])
    m1 = fit_stage(init, corpus)
    m2 = fit_stage(m1, corpus)
    assert (m1.stage, m2.stage) == (Stage.STAGE1, Stage.STAGE2)
    for model in (m1, m2):
        assert (model.lm.order, model.lm.smoothing_k, model.channel.smoothing_k) == (2, 0.5, 0.25)


def test_fit_stage_rejects_mismatches():
    # No stage follows stage 2, whatever the corpus.
    stage2 = initial_model()._replace(stage=Stage.STAGE2)
    for pairs in ([_pair("甲", "甲")], []):
        with pytest.raises(ConfigError, match="no stage follows"):
            fit_stage(stage2, _corpus(pairs))


def test_fit_stage_empty_corpus_only_advances_stage():
    init = initial_model(vocab="甲乙")
    fitted = fit_stage(init, _corpus([]))
    assert fitted.stage is Stage.STAGE1
    assert fitted == init._replace(stage=Stage.STAGE1)
    assert fit_stage(fitted, _corpus([])) == init._replace(stage=Stage.STAGE2)


def test_fit_repeated_pair_reaches_smoothing_floor():
    pairs = [_pair("天汽很好", "天气很好")] * 100
    corpus = _corpus(pairs)
    model = fit_stage(initial_model(smoothing_k=1e-6), corpus)
    heldout = stage_heldout(corpus, 0.1, 0)
    assert dataset_objective(model, heldout) < 1e-3


def test_fit_lambda_comes_from_grid(small_suite):
    init = initial_model(mixing_weight=0.37)
    model = fit_stage(init, small_suite.stage1)
    assert model.mixing_weight in set(DEFAULT_MIX_GRID) | {0.37}


def test_fit_is_deterministic(small_suite):
    a = fit_stage(initial_model(), small_suite.stage1)
    b = fit_stage(initial_model(), small_suite.stage1)
    assert a == b


def test_stage_two_never_regresses_on_joint_heldout(small_suite, trained):
    m1, m2 = trained
    heldout = stage_heldout(small_suite.joint, 0.1, 0)
    before = dataset_objective(m1, heldout)
    after = dataset_objective(m2, heldout)
    assert math.isfinite(before) and math.isfinite(after)
    assert after <= before + 1e-9


def _per_weight_nll(model, pair):
    """nll as it was computed before the per-token table: one alignment and
    one conditional per unit, for the model's own weight."""
    target = pair.references[0]
    ops = align(pair.source, target)
    # The source units that M and S codes consume, in order, against one
    # code per target unit.
    consumed = iter(
        [unit for unit, code in zip(pair.source, ops.replace("I", "")) if code != "D"]
    )
    aligned = [None if code == "I" else next(consumed) for code in ops.replace("D", "")]
    total = 0.0
    for t, unit in enumerate(target):
        total -= math.log(conditional(model, target[:t], aligned[t], unit))
    return total


def test_grid_search_matches_per_weight_objective_loop():
    # The old search: one full dataset objective per grid weight. The table
    # of weight-free probabilities must pick the same weight and give the
    # same objective, bit for bit, at every weight.
    suite = make_suite(0)
    init = initial_model()
    for corpus in (suite.stage1, suite.joint):
        fitted = fit_stage(init, corpus)
        heldout = stage_heldout(corpus, 0.1, 0)
        grid = sorted(set(DEFAULT_MIX_GRID) | {init.mixing_weight})
        best_weight, best_objective, objectives = None, math.inf, []
        for weight in grid:
            candidate = fitted._replace(mixing_weight=weight)
            expected = sum(_per_weight_nll(candidate, p) for p in heldout.pairs) / len(heldout)
            assert dataset_objective(candidate, heldout) == expected, weight
            objectives.append(expected)
            if expected < best_objective:
                best_weight, best_objective = weight, expected
        assert dataset_objective(fitted, heldout, grid) == objectives
        assert fitted.mixing_weight == best_weight
        init = fitted


def _reference_aligned(source, target):
    """For each target position, the source unit aligned to it (None for
    insertions): a walk over align's codes, one code at a time."""
    aligned = [None] * len(target)
    i = j = 0
    for code in align(source, target):
        if code == "I":
            j += 1
        elif code == "D":
            i += 1
        else:
            aligned[j] = source[i]
            i += 1
            j += 1
    return aligned


def _reference_accumulate(lm_counts, ch_counts, vocab, order, pair):
    """_accumulate of one pair as it was before it sliced its context keys,
    kept as its oracle (less the count totals, which the model now
    derives)."""
    target = pair.references[0]
    vocab.update(pair.source)
    vocab.update(target)
    for t, unit in enumerate(target):
        key = _context_key(vocab, order, target[:t])
        lm_counts.setdefault(key, Counter())[unit] += 1
    # Insertions have no source unit and deletions no emission; the
    # substitution-only channel records neither.
    for src, unit in zip(_reference_aligned(pair.source, target), target):
        if src is not None:
            ch_counts.setdefault(src, Counter())[unit] += 1


def _reference_token_probs(model, pairs):
    """_token_probs one conditional per term: the LM term is conditional at
    weight 1.0 and the channel term at 0.0, since for positive finite x and
    y, 1.0*x + 0.0*y is x bit for bit."""
    pure_lm, pure_ch = model._replace(mixing_weight=1.0), model._replace(mixing_weight=0.0)
    for pair in pairs:
        target = pair.references[0]
        aligned = _reference_aligned(pair.source, target)
        yield [
            (
                conditional(pure_lm, target[:t], aligned[t], unit),
                conditional(pure_ch, target[:t], aligned[t], unit),
            )
            for t, unit in enumerate(target)
        ]


def _random_training_pairs(rng, pool, count):
    """Pairs over pool: edited copies, unrelated pairs and equal pairs, some
    of them empty."""
    pairs = []
    for _ in range(count):
        src = "".join(rng.choice(pool) for _ in range(rng.randint(0, 14)))
        roll = rng.random()
        if roll < 0.6:
            units = list(src)
            for _ in range(rng.randint(0, 3)):
                i = rng.randint(0, len(units))
                edit = rng.random()
                if edit < 0.5 and i < len(units):
                    units[i] = rng.choice(pool)
                elif edit < 0.75:
                    units.insert(i, rng.choice(pool))
                elif i < len(units):
                    del units[i]
            ref = "".join(units)
        elif roll < 0.8:
            ref = "".join(rng.choice(pool) for _ in range(rng.randint(0, 14)))
        else:
            ref = src
        pairs.append(_pair(src, ref))
    return pairs


def _with_unk_counts(rng, lm_counts, ch_counts, vocab):
    """Copies of the count tables with UNK counted as a unit, in contexts
    and as a channel source, the way a hand-written container may count it."""
    lm_counts = {key: Counter(c) for key, c in lm_counts.items()}
    ch_counts = {key: Counter(c) for key, c in ch_counts.items()}
    for key in list(lm_counts):
        lm_counts[key][UNK] += rng.randint(1, 5)
        if key:
            lm_counts.setdefault(key[:-1] + UNK, Counter())[rng.choice(sorted(vocab))] += 2
    for src in list(ch_counts):
        ch_counts[src][UNK] += rng.randint(1, 5)
    ch_counts[UNK] = Counter({UNK: rng.randint(1, 5), rng.choice(sorted(vocab)): 2})
    return lm_counts, ch_counts


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_accumulate_and_token_probs_match_their_references(order):
    # Exact ==, not approx: training must keep every count and every bit.
    rng = random.Random(order)
    seen, unseen = "甲乙丙丁戊", "己庚辛"
    for k in (0.01, 0.37, 1.0):
        tables = [({}, {}, {UNK}) for _ in range(2)]
        # Two stages: the second accumulates onto counts it did not start,
        # as stage 2 does onto stage 1's. Each is fed in batches of 0, 1 and
        # many pairs, and the reference one pair at a time.
        for stage in range(2):
            pairs = _random_training_pairs(rng, seen[: 3 + 2 * stage], 150)
            for batch in ((), pairs[:1], pairs[1:]):
                _accumulate(*tables[0], order, batch)
                for pair in batch:
                    _reference_accumulate(*tables[1], order, pair)
                assert tables[0] == tables[1]
        # Heldout pairs hold units outside the training vocabulary on both
        # sides, which map to UNK, and contexts training never saw.
        heldout = _random_training_pairs(rng, seen + unseen, 200)
        assert any(set(p.source + p.references[0]) & set(unseen) for p in heldout)
        vocab = frozenset(tables[0][2])
        # Training never counts UNK, but a model container may; only then
        # does mapping a unit to UNK change its probability.
        with_unk = _with_unk_counts(rng, *tables[0])
        for lm_counts, ch_counts in (tables[0][:2], with_unk):
            model = MixtureCorrectorModel(
                NgramLM(order, k, lm_counts), ConfusionChannel(k, ch_counts), vocab, 0.5, Stage.STAGE1
            )
            expected = list(_reference_token_probs(model, heldout))
            assert list(_token_probs(model, heldout)) == expected


def _accumulated(stages, order=2):
    """The tables after each stage's pairs, from _accumulate and from its
    reference, asserted equal after every stage."""
    tables = [({}, {}, {UNK}) for _ in range(2)]
    for pairs in stages:
        _accumulate(*tables[0], order, pairs)
        for pair in pairs:
            _reference_accumulate(*tables[1], order, pair)
        assert tables[0] == tables[1]
    return tables[0]


def test_accumulate_stores_no_copy_of_a_unit_never_copied():
    # 乙 is only ever a substituted target and 丙 only a substituted or an
    # inserted one: their totals are used up, and no zero copy is stored.
    lm_counts, ch_counts, vocab = _accumulated(
        [[_pair("甲", "乙"), _pair("甲", "甲丙"), _pair("丁乙", "甲丙")]]
    )
    assert ch_counts == {
        "甲": Counter({"乙": 1, "甲": 1}), "丁": Counter({"甲": 1}), "乙": Counter({"丙": 1})
    }
    assert all(n > 0 for row in ch_counts.values() for n in row.values())
    model = MixtureCorrectorModel(
        NgramLM(2, 0.01, lm_counts), ConfusionChannel(0.01, ch_counts),
        frozenset(vocab), 0.5, Stage.STAGE1,
    )
    assert model.channel.partners("甲") == ("乙", "甲")


def test_accumulate_takes_deleted_and_substituted_sources_into_the_vocab():
    # 丁 is only ever deleted and 戊 only ever substituted: neither is a
    # target unit, and both join the vocabulary.
    lm_counts, ch_counts, vocab = _accumulated([[_pair("甲丁", "甲"), _pair("戊乙", "甲乙")]])
    assert vocab == {UNK, "甲", "乙", "丁", "戊"}
    assert ch_counts == {"甲": Counter({"甲": 1}), "戊": Counter({"甲": 1}), "乙": Counter({"乙": 1})}


def test_accumulate_adds_copies_onto_an_earlier_stages_row():
    stage1 = [_pair("甲乙", "甲丙"), _pair("甲", "甲")]
    stage2 = [_pair("甲甲", "甲甲"), _pair("乙甲", "丙甲")]
    _, ch_counts, _ = _accumulated([stage1, stage2])
    assert ch_counts == {"甲": Counter({"甲": 5}), "乙": Counter({"丙": 2})}


def test_fit_stage_aligns_each_unequal_pair_once(small_suite, monkeypatch):
    # Training and the held-out search each align their slice once, and an
    # equal pair is never aligned.
    calls = []

    def counted_align(source, target):
        calls.append((source, target))
        return align(source, target)

    monkeypatch.setattr("zhcorrect.model.align", counted_align)
    corpus = small_suite.stage1
    fit_stage(initial_model(), corpus)
    unequal = [
        sum(pair.source != pair.references[0] for pair in part.pairs)
        for part in split(corpus, 0.1, 0)
    ]
    assert all(unequal) and len(calls) == sum(unequal)
    assert all(source != target for source, target in calls)


def test_stage_heldout_matches_split(small_suite):
    heldout = stage_heldout(small_suite.joint, 0.25, 3)
    _, expected = split(small_suite.joint, 0.25, 3)
    assert heldout == expected
    assert len(heldout) == int(len(small_suite.joint) * 0.25 + 0.5)
    # An empty corpus too: its slice is empty, and its fraction is checked.
    assert stage_heldout(Corpus(()), 0.25, 3) == Corpus(())
    with pytest.raises(UsageError, match=r"^heldout_fraction must be in \(0, 1\)"):
        stage_heldout(Corpus(()), 1.0, 3)


def test_decode_rejects_bad_beam():
    # Checked before any position, so also where no beam would be cut.
    for beam_width in (0, -1):
        with pytest.raises(UsageError, match=r"^beam_width must be >= 1"):
            decode(_hand_model(), "甲乙甲乙", beam_width)
    for beam_width in (2.5, 8.0, True, "8", None):
        with pytest.raises(StructuralError, match="^beam_width must be an integer"):
            decode(_hand_model(), "甲乙甲乙", beam_width)


def test_decode_identity_without_channel_mass():
    model = initial_model(vocab=_NINE_CHARS)
    for text in ["天气很好", "我们学习", "完全陌生"]:
        assert decode(model, text) == text
        assert decode(model, text, 1) == text


def test_decode_fixes_planted_substitution():
    # channel sees only the 做->作 confusion; the LM prefers 工作 after 工
    texts = [
        ("我的工做", "我的工作"),
        ("工做很忙", "工作很忙"),
        ("做饭好吃", "做饭好吃"),
        ("他在工做", "他在工作"),
    ]
    corpus = _corpus([_pair(s, t) for s, t in texts])
    model = fit_stage(initial_model(), corpus, heldout_fraction=0.25)
    assert model.channel.partners("做") == ("作",)
    assert decode(model, "他的工做") == "他的工作"
    assert _lattice_oracle(model, "他的工做") == "他的工作"


def _lattice_oracle(model, src):
    """Exhaustive lattice search: scores every per-position candidate product
    and breaks score ties toward the code-point-smaller sequence."""
    options = [sorted({u, *model.channel.partners(u)}) for u in src]
    best = None
    for cand in itertools.product(*options):
        score = 0.0
        for t, (y, su) in enumerate(zip(cand, src)):
            score += math.log(conditional(model, "".join(cand[:t]), su, y))
        key = (-score, cand)
        if best is None or key < best:
            best = key
    return "".join(best[1])


def test_decode_beam_matches_exhaustive_on_short_inputs(trained):
    _, model = trained
    alphabet = sorted({ch for w in WORD_INVENTORY for ch in w} | set(CONFUSION.values()))
    rng = random.Random(123)
    for _ in range(50):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        assert decode(model, src, 8) == _lattice_oracle(model, src)


def test_decode_preserves_length(small_suite, trained):
    _, model = trained
    for pair in small_suite.eval_csc.pairs[:40]:
        assert len(decode(model, pair.source)) == len(pair.source)


def _reference_decode(model, src, beam_width=8):
    """decode as a plain beam, before its column cache and recombination:
    every expansion takes a slot. Kept verbatim as its oracle."""
    if beam_width < 1:
        raise UsageError(f"beam_width must be >= 1, got {beam_width}")
    beams: list[tuple[float, str]] = [(0.0, "")]
    for unit in src:
        options = sorted({unit, *model.channel.partners(unit)})
        expanded = [
            (score + math.log(conditional(model, prefix, unit, option)), prefix + option)
            for score, prefix in beams
            for option in options
        ]
        expanded.sort(key=lambda beam: (-beam[0], beam[1]))
        beams = expanded[:beam_width]
    return beams[0][1]


def _cost(model, src, out):
    """Summed -log conditional of out as a correction of src, added left to
    right as decode adds it."""
    cost = 0.0
    for t, (y, su) in enumerate(zip(out, src)):
        cost += -math.log(conditional(model, out[:t], su, y))
    return cost


_ORACLE_VOCAB = "甲乙丙丁戊己"
_ORACLE_OOV = "庚辛x"


def _random_model(rng, order, weight):
    """A hand-built model with random counts: LM contexts over vocab,
    BOUNDARY and UNK; 甲 without channel entry, 乙 emitting only itself,
    丙 and 丁 with several partners (one of them outside the vocab)."""
    vocab = frozenset(_ORACLE_VOCAB) | {UNK}
    context_units = sorted(vocab | {BOUNDARY})
    lm_counts = {}
    for _ in range(rng.randint(0, 25)):
        key = "".join(rng.choice(context_units) for _ in range(order - 1))
        lm_counts.setdefault(key, Counter())[rng.choice(sorted(vocab))] += rng.randint(1, 9)
    channel_counts = {
        "乙": Counter({"乙": rng.randint(1, 9)}),
        "丙": Counter({"丙": rng.randint(1, 9), "丁": rng.randint(1, 9)}),
        "丁": Counter({"丁": 5, "丙": rng.randint(1, 9), "己": rng.randint(1, 9), "庚": 1}),
    }
    lm, channel = NgramLM(order, 0.1, lm_counts), ConfusionChannel(0.2, channel_counts)
    return MixtureCorrectorModel(lm, channel, vocab, weight, Stage.STAGE1)


def test_decode_matches_or_beats_the_plain_beam_on_random_models():
    # Recombination keeps one hypothesis per LM tail where the plain beam
    # let hypotheses of one tail crowd out the rest, so decode may leave the
    # plain beam's output only for a strictly cheaper one.
    rng = random.Random(61)
    units = _ORACLE_VOCAB + _ORACLE_OOV
    checked = 0
    cheaper = Counter()
    for order in (1, 2, 3, 4):
        for weight in (0.0, 0.35, 1.0):
            model = _random_model(rng, order, weight)
            for n in range(171):
                src = "".join(rng.choice(units) for _ in range(rng.randint(0, 40)))
                beam_width = (1, 2, 8)[n % 3]
                fixed, plain = decode(model, src, beam_width), _reference_decode(model, src, beam_width)
                if fixed != plain:
                    assert _cost(model, src, fixed) < _cost(model, src, plain), (order, weight, src)
                    cheaper[order, beam_width] += 1
                checked += 1
            assert model._columns  # one warm model served every source
    assert checked == 2052
    assert cheaper == {(2, 2): 14, (2, 8): 5, (3, 2): 2}


def _column_model(rng, order, weight):
    """_random_model plus a channel row for UNK and one for x, a source
    outside the vocab: x's options are its own partners, but it reads the
    UNK row, as conditional does."""
    model = _random_model(rng, order, weight)
    counts = {**model.channel.counts, "x": Counter({"甲": 2, "辛": 1}), UNK: Counter({"乙": 3})}
    return model._replace(channel=model.channel._replace(counts=counts))


def test_every_cached_column_holds_conditional_and_the_next_tail():
    # Each column is keyed by an LM state, the mapped and padded LM context
    # its steps read, and leads to the state of the prefix it extends.
    rng = random.Random(71)
    units = _ORACLE_VOCAB + _ORACLE_OOV
    for order in (1, 2, 3, 4):
        for weight in (0.0, 0.35, 1.0):
            model = _column_model(rng, order, weight)
            channel_only = model._replace(mixing_weight=0.0)
            for _ in range(30):
                src = "".join(rng.choice(units) for _ in range(rng.randint(1, 12)))
                decode(model, src, rng.choice((1, 2, 8)))
            assert set(model._columns) == set(units)
            states = set()
            for unit, (options, by_state) in model._columns.items():
                expected = sorted({unit, *model.channel.partners(unit)})
                assert [option for option, _, _ in options] == expected
                for option, mapped, ch_p in options:
                    assert mapped == (option if option in model.vocab else UNK)
                    assert ch_p.hex() == conditional(channel_only, "", unit, option).hex()
                for state, column in by_state.items():
                    assert [option for _, option, _ in column] == expected
                    context = state.lstrip(BOUNDARY)
                    if weight:
                        assert _context_key(model.vocab, order, context) == state
                    for (step, option, next_state), (_, mapped, _) in zip(column, options):
                        exact = -math.log(conditional(model, context, unit, option))
                        assert step.hex() == exact.hex(), (order, weight, unit, state, option)
                        if weight == 0.0:
                            # No step reads the prefix: after any other one,
                            # OOV units among it, the step has the same bits.
                            other = -math.log(conditional(model, "庚甲" * order, unit, option))
                            assert step.hex() == other.hex(), (order, unit, option)
                            assert next_state == ""
                        else:
                            assert next_state == (state + mapped)[1:]
                states.update(by_state)
            if weight == 0.0:
                # One state, so one column per source unit.
                assert states == {""}
                continue
            # Every state is a full LM context, UNK in some of them.
            assert {len(state) for state in states} == {order - 1}
            assert order == 1 or any(UNK in state for state in states)


def test_decoding_a_line_again_adds_no_column(suite0_model):
    suite, trained_model = suite0_model
    model = trained_model._replace(mixing_weight=0.35)

    def cached():
        return len(model._columns), sum(len(by_tail) for _, by_tail in model._columns.values())

    for pair in suite.eval_csc.pairs[:40]:
        first = decode(model, pair.source)
        filled = cached()
        assert decode(model, pair.source) == first
        assert cached() == filled
    assert cached()[1] > cached()[0]  # the LM tail keys the columns


def test_decode_is_exact_when_the_beam_holds_every_tail():
    # _column_model's x has two options outside the vocab, x and 辛, which
    # share one LM state.
    rng = random.Random(67)
    units = _ORACLE_VOCAB + _ORACLE_OOV
    for build in (_random_model, _column_model):
        for order in (1, 2, 3):
            for weight in (0.0, 0.35, 1.0):
                model = build(rng, order, weight)
                max_options = max(len({u, *model.channel.partners(u)}) for u in units)
                beam_width = max_options ** (order - 1)
                for _ in range(40):
                    src = "".join(rng.choice(units) for _ in range(rng.randint(1, 6)))
                    expected = _lattice_oracle(model, src)
                    assert decode(model, src, beam_width) == expected, (build, order, weight, src)


def test_decode_keeps_one_state_for_options_outside_the_vocab():
    # Pure LM of order 2. Source x offers x, 甲 and 辛; x and 辛 are outside
    # the vocab, so both read UNK and lead to one state with equal futures.
    # They are the two cheapest first units, and a beam of 2 that gave each
    # its own slot would drop 甲, the only way to a likely 乙.
    vocab = frozenset("甲乙") | {UNK}
    lm_counts = {BOUNDARY: Counter({UNK: 8, "甲": 1}), "甲": Counter({"乙": 100}), UNK: Counter({"甲": 100})}
    channel_counts = {"x": Counter({"甲": 1, "辛": 1})}
    model = MixtureCorrectorModel(
        NgramLM(2, 0.01, lm_counts), ConfusionChannel(0.01, channel_counts), vocab, 1.0, Stage.STAGE1
    )
    assert _reference_decode(model, "x乙", 2) == "x乙"
    assert decode(model, "x乙", 2) == "甲乙" == _lattice_oracle(model, "x乙")
    assert set(model._columns["乙"][1]) == {UNK, "甲"}


def test_decode_is_exact_at_any_beam_without_the_lm():
    # At weight 0 no step reads the tail, so every hypothesis has the one
    # state "" and even a beam of 1 holds every state.
    rng = random.Random(73)
    units = _ORACLE_VOCAB + _ORACLE_OOV
    for order in (1, 2, 3, 4):
        model = _random_model(rng, order, 0.0)
        for n in range(60):
            src = "".join(rng.choice(units) for _ in range(rng.randint(1, 6)))
            beam_width = (1, 2, 8)[n % 3]
            assert decode(model, src, beam_width) == _lattice_oracle(model, src), (order, src)
        assert all(list(by_tail) == [""] for _, by_tail in model._columns.values())


def test_decode_finds_the_optimum_the_plain_beam_misses():
    # Pure LM of order 2 over the options {a,b} {c,d} {e,f}. After two units
    # "ad" and "bd" tie as the two best prefixes, both with tail "d", so a
    # plain beam of width 2 drops every prefix ending in "c". But only "c"
    # makes "e" near certain, and "ace" is the cheapest output.
    vocab = frozenset("abcdef") | {UNK}
    lm_counts = {
        BOUNDARY: Counter({"a": 1, "b": 1}),
        "a": Counter({"c": 4, "d": 5}),
        "b": Counter({"c": 4, "d": 5}),
        "c": Counter({"e": 100}),
        "d": Counter({"e": 1, "f": 1}),
    }
    channel_counts = {"a": Counter({"b": 1}), "c": Counter({"d": 1}), "e": Counter({"f": 1})}
    model = MixtureCorrectorModel(
        NgramLM(2, 0.01, lm_counts), ConfusionChannel(0.01, channel_counts), vocab, 1.0, Stage.STAGE1
    )
    assert _reference_decode(model, "ace", 2) == "ade"
    assert _cost(model, "ace", "ace") < _cost(model, "ace", "ade")
    assert decode(model, "ace", 2) == "ace" == _lattice_oracle(model, "ace")


def test_decode_breaks_exact_ties_across_beams_by_code_point():
    # Pure LM of order 2. After the first unit the beam "b" leads "a", yet
    # "ba" and "ab" end on the same float score (hi + lo against lo + hi), so
    # only the tie-break on the sequence, not the order of the beams, picks
    # "ab".
    vocab = frozenset("ab") | {UNK}
    lm_counts = {
        BOUNDARY: Counter({"a": 1, "b": 3}),
        "b": Counter({"a": 1, UNK: 3}),
        "a": Counter({"b": 3, UNK: 1}),
    }
    channel_counts = {"a": Counter({"b": 1}), "b": Counter({"a": 1})}
    model = MixtureCorrectorModel(
        NgramLM(2, 0.01, lm_counts), ConfusionChannel(0.01, channel_counts), vocab, 1.0, Stage.STAGE1
    )
    score_ab = math.log(conditional(model, "", "a", "a")) + math.log(conditional(model, "a", "b", "b"))
    score_ba = math.log(conditional(model, "", "a", "b")) + math.log(conditional(model, "b", "b", "a"))
    assert score_ab == score_ba
    assert conditional(model, "", "a", "b") > conditional(model, "", "a", "a")
    for beam_width in (2, 8):
        assert decode(model, "ab", beam_width) == "ab" == _lattice_oracle(model, "ab")
        assert decode(model, "ba", beam_width) == "ab"


@pytest.fixture(scope="module")
def suite0_model():
    suite = make_suite(0)
    m1 = fit_stage(initial_model(), suite.stage1)
    return suite, fit_stage(m1, suite.joint)


def test_trained_model_caches_one_column_per_source_unit(suite0_model):
    # Training picks weight 0 here, so no step reads the LM tail and each
    # source unit's one column is keyed on, and leads to, the empty state.
    suite, trained_model = suite0_model
    assert trained_model.mixing_weight == 0.0
    model = trained_model._replace()
    for pair in suite.eval_csc.pairs:
        decode(model, pair.source)
    assert set(model._columns) == {unit for pair in suite.eval_csc.pairs for unit in pair.source}
    for _, by_tail in model._columns.values():
        assert list(by_tail) == [""]
        assert {next_tail for _, _, next_tail in by_tail[""]} == {""}


def test_decode_matches_reference_on_suite_eval(suite0_model):
    suite, model = suite0_model
    changed = 0
    for pair in suite.eval_csc.pairs:
        fixed = decode(model, pair.source)
        assert fixed == _reference_decode(model, pair.source)
        changed += fixed != pair.source
    assert changed  # the comparison covers lines the decoder rewrites


def test_decode_output_is_pinned_with_the_lm_in_play(tmp_path, suite0_model):
    # The trained model's weight is 0, which leaves the LM tail unread and
    # decode with one state, so the pinned lines are also decoded with the
    # LM mixed in at 0.35, one state per tail. The digests are those of the
    # decode that kept one state per tail at every weight.
    suite, model = suite0_model
    path = tmp_path / "model.json"
    save_model(model, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "039dd0c055eefd03d1766e7027d629d6f414d218c27a2d556d017d18acab1a86"
    )
    channel_only = "8127ce8d1547f172608fbe39ba7aa453c67a4cd8a86b1a4d09869931c439b934"
    pinned = {
        (0.0, 1): channel_only,
        (0.0, 2): channel_only,
        (0.0, 8): channel_only,
        (0.35, 1): "8127ce8d1547f172608fbe39ba7aa453c67a4cd8a86b1a4d09869931c439b934",
        (0.35, 2): "c82b7ebccfed7e0d9f5be4a3a8e30dd749eae3741c62c76a86b3cde01c03cd59",
        (0.35, 8): "c82b7ebccfed7e0d9f5be4a3a8e30dd749eae3741c62c76a86b3cde01c03cd59",
    }
    for (weight, beam_width), expected in pinned.items():
        weighted = model._replace(mixing_weight=weight)
        lines = "".join(decode(weighted, p.source, beam_width) + "\n" for p in suite.eval_csc.pairs)
        assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == expected, (weight, beam_width)


def test_decode_cache_ignores_line_order(suite0_model):
    suite, trained_model = suite0_model
    sources = [pair.source for pair in suite.eval_csc.pairs[:80]]
    model = trained_model._replace()
    assert not model._columns
    in_order = [decode(model, src) for src in sources]
    shuffled = list(range(len(sources)))
    random.Random(3).shuffle(shuffled)
    for i in shuffled:
        assert decode(model, sources[i]) == in_order[i]
    cold = [decode(trained_model._replace(), src) for src in sources]
    assert cold == in_order


def test_decode_after_replace_scores_the_new_weight(suite0_model):
    suite, trained_model = suite0_model
    model = trained_model._replace()
    sources = [pair.source for pair in suite.eval_csc.pairs[:60]]
    for src in sources:
        decode(model, src)
    assert model._columns
    heavier = model._replace(mixing_weight=0.9)
    assert not heavier._columns
    outputs = [decode(heavier, src) for src in sources]
    assert outputs == [_reference_decode(heavier, src) for src in sources]
    assert outputs != [decode(model, src) for src in sources]  # the weight matters here


def test_warm_model_equals_cold_reload_and_saves_same_bytes(tmp_path, suite0_model):
    suite, model = suite0_model
    cold_path, warm_path = tmp_path / "cold.json", tmp_path / "warm.json"
    save_model(model, str(cold_path))
    cold = load_model(str(cold_path))
    for pair in suite.eval_csc.pairs[:20]:
        decode(model, pair.source)
    assert model._columns and not cold._columns
    assert model == cold
    assert "_columns" not in repr(model)
    save_model(model, str(warm_path))
    assert warm_path.read_bytes() == cold_path.read_bytes()


def test_every_copy_derives_the_count_totals_again(tmp_path, suite0_model):
    # The totals are no field, so each construction path must derive them
    # anew: a copy that kept none would score seen contexts and sources as
    # unseen ones.
    suite, model = suite0_model
    path = tmp_path / "model.json"
    save_model(model, str(path))
    copies = {
        "_replace": model._replace(),
        "pickle": pickle.loads(pickle.dumps(model)),
        "load_model": load_model(str(path)),
    }
    references = [pair.references[0] for pair in suite.joint.pairs[:12]]
    contexts = ["", "哈", *(ref[:t] for ref in references for t in (1, 3, len(ref)))]
    sources = [None, "哈", *sorted(model.channel.counts)[:20]]
    units = ["哈", *sorted({unit for ref in references for unit in ref})]
    expected = [decode(model, pair.source) for pair in suite.eval_csc.pairs]
    for how, copy in copies.items():
        for ctx, src, y in itertools.product(contexts, sources, units):
            assert conditional(copy, ctx, src, y) == conditional(model, ctx, src, y), how
        assert [decode(copy, pair.source) for pair in suite.eval_csc.pairs] == expected, how


def test_decode_signature_is_stable():
    # perfbench/tracing.py binds decode's arguments by these names to count
    # model.decode.expansions, so they are part of decode's contract.
    params = inspect.signature(decode).parameters
    assert list(params) == ["model", "src", "beam_width"]
    assert params["beam_width"].default == 8


def test_what_the_benchmark_harness_reads_is_stable():
    # perfbench reads these parts of the package. Each check names the
    # harness line it serves: a change that drops one (deleting Corpus, say)
    # changes that line first.
    from zhcorrect.corpus import parse_parallel
    from zhcorrect.edits import Edit, extract_edits

    # tracing.py:36-43, TARGETS: wraps each function by module and name.
    targets = {
        "textnorm": ("units_of",),
        "corpus": ("parse_parallel",),
        "alignment": ("align",),
        "edits": ("extract_edits", "match_edits", "format_edit_records", "parse_edit_file"),
        "metrics": ("score_csc", "sentence_edit_counts"),
        "model": ("fit_stage", "dataset_objective", "decode", "save_model", "load_model"),
    }
    for module, names in targets.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"zhcorrect.{module}"), name))
    # tracing.py:73: the source and references of each of parse_parallel's
    # result.pairs.
    corpus = parse_parallel(["甲\t乙\t丙\n"])
    assert type(corpus) is Corpus and corpus.pairs == (ParallelPair("甲", ("乙", "丙")),)
    assert ParallelPair._fields == ("source", "references")
    pair = corpus.pairs[0]
    assert (pair.source, pair.references) == ("甲", ("乙", "丙"))
    # workloads.py:66-69 and 112: make_suite's stage1, csc and cgc .pairs,
    # written out and counted; workloads.py:121-128: eval_csc.pairs, sliced.
    suite = make_suite(0, stage1_size=3, csc_size=2, cgc_size=2, eval_size=4)
    parts = (suite.stage1, suite.csc, suite.cgc, suite.eval_csc)
    assert [len(part.pairs) for part in parts] == [3, 2, 2, 4]
    for part in parts:
        assert type(part.pairs) is tuple
        assert all(type(p) is ParallelPair for p in part.pairs)
    # tracing.py:78: the edits of extract_edits' result.
    assert extract_edits("甲乙", "甲丙").edits == (Edit(1, 2, "丙"),)
    # tracing.py:82: dataset_objective's second argument, by position or as
    # corpus=, and its .pairs.
    assert list(inspect.signature(dataset_objective).parameters)[:2] == ["model", "corpus"]
    # tracing.py:86 and 90: the path argument of save_model and load_model.
    assert list(inspect.signature(save_model).parameters) == ["model", "path"]
    assert list(inspect.signature(load_model).parameters) == ["path"]


def test_save_load_roundtrip(tmp_path, trained):
    _, model = trained
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded == model
    again = tmp_path / "again.json"
    save_model(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_save_load_untrained(tmp_path):
    model = initial_model(vocab="甲乙")
    path = tmp_path / "empty.json"
    save_model(model, str(path))
    assert load_model(str(path)) == model


def test_constructor_refuses_a_zero_count():
    # Counter == ignores a zero count, so a model that held one would equal a
    # model without it yet differ in its tables; the constructor refuses it,
    # and every count that is no positive int of a single unit.
    model = _hand_model()
    for row in ({"乙": 1, "甲": 0}, {"乙": -1}, {"乙": 1.0}, {"乙": True}, {"乙乙": 1}, {"": 1}):
        for field in ("lm", "channel"):
            table = getattr(model, field)._replace(counts={"甲": Counter(row)})
            with pytest.raises(StructuralError, match="^counts must map single units to positive"):
                model._replace(**{field: table})


def test_load_rejects_bad_containers(tmp_path):
    good = tmp_path / "good.json"
    save_model(initial_model(), str(good))
    payload = json.loads(good.read_text())

    bumped = dict(payload, version=2)
    p = tmp_path / "v2.json"
    p.write_text(json.dumps(bumped))
    with pytest.raises(FormatError):
        load_model(str(p))

    renamed = dict(payload, format="other-model")
    p = tmp_path / "fmt.json"
    p.write_text(json.dumps(renamed))
    with pytest.raises(FormatError):
        load_model(str(p))

    p = tmp_path / "junk.json"
    p.write_text("not json at all {")
    with pytest.raises(FormatError):
        load_model(str(p))

    gutted = {k: v for k, v in payload.items() if k != "order"}
    p = tmp_path / "missing.json"
    p.write_text(json.dumps(gutted))
    with pytest.raises(FormatError):
        load_model(str(p))

    # A str or an object would read as the set of its characters or keys.
    for vocab in ("a" + UNK, {"a": 1, UNK: 1}):
        p = tmp_path / "vocab.json"
        p.write_text(json.dumps(dict(payload, vocab=vocab)))
        with pytest.raises(FormatError, match="vocab must be a list of single units$"):
            load_model(str(p))


@pytest.mark.parametrize(
    "field, value",
    [
        ("order", 0),
        ("order", -2),
        ("order", 2.5),
        ("lm_smoothing_k", 0),
        ("lm_smoothing_k", -0.5),
        ("channel_smoothing_k", 0.0),
        ("channel_smoothing_k", math.nan),
        ("channel_counts", {"甲": {"乙": -1}}),
        ("lm_counts", {"甲": {"乙": 0.5}}),
        ("channel_counts", {"甲": {"乙": 0}}),
    ],
)
def test_load_rejects_out_of_range_parameters(tmp_path, field, value):
    path = tmp_path / "model.json"
    save_model(initial_model(vocab="甲乙"), str(path))
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="order|smoothing_k|positive integers"):
        load_model(str(path))


@pytest.mark.parametrize(
    "field, value",
    [("order", True), ("lm_smoothing_k", True), ("channel_smoothing_k", True),
     ("mixing_weight", True), ("mixing_weight", False), ("mixing_weight", "0.5")],
)
def test_load_refuses_a_parameter_that_is_no_number(tmp_path, field, value):
    # JSON true is a Python int equal to 1; loaded, it would save back as true.
    path = tmp_path / "model.json"
    save_model(initial_model(vocab="甲乙"), str(path))
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=field.replace("_smoothing_k", " smoothing_k")):
        load_model(str(path))


def _respell(value):
    """The same number in another JSON spelling: an int as a float, an
    integral float as an int, a zero with the other sign."""
    if isinstance(value, int):
        return float(value)
    if value == 0:
        return -value
    if math.isfinite(value) and value.is_integer():
        return int(value)
    return value


# Values in and around each field's range, in every JSON spelling: bools,
# ints, integral floats, signed zeros, subnormals and ints beyond any float.
_EDGE_NUMBERS = [True, False, -1, 65, 10**400, -0.0, 1.0, 2.0, 3.0, 5e-324, 1e308, math.nan, math.inf]
_ORDER_SPELLINGS = st.integers(1, 4) | st.sampled_from(_EDGE_NUMBERS)
_REAL_SPELLINGS = st.integers(0, 3) | st.floats(0.0, 1.0) | st.sampled_from(_EDGE_NUMBERS)


@settings(derandomize=True, deadline=None, max_examples=300)
@example(fields={"order": True, "lm_smoothing_k": 1, "channel_smoothing_k": 1, "mixing_weight": True})
@example(fields={"order": 2, "lm_smoothing_k": 1, "channel_smoothing_k": 0.5, "mixing_weight": 1})
@example(fields={"order": 3, "lm_smoothing_k": 2.0, "channel_smoothing_k": 0.5, "mixing_weight": -0.0})
@given(
    fields=st.fixed_dictionaries(
        {
            "order": _ORDER_SPELLINGS,
            "lm_smoothing_k": _REAL_SPELLINGS,
            "channel_smoothing_k": _REAL_SPELLINGS,
            "mixing_weight": _REAL_SPELLINGS,
        }
    )
)
def test_every_container_load_model_accepts_is_canonical(tmp_path_factory, fields):
    # A loaded model saves, loads and saves again to identical bytes, and the
    # same numbers spelled another way give an equal model with those bytes.
    folder = tmp_path_factory.mktemp("canonical")
    first, second, spelled = folder / "first.json", folder / "second.json", folder / "spelled.json"
    save_model(_hand_model(), str(first))
    payload = json.loads(first.read_text())
    spelled.write_text(json.dumps({**payload, **fields}))
    try:
        model = load_model(str(spelled))
    except FormatError:
        return
    assert type(fields["order"]) is int
    assert not any(isinstance(value, bool) for value in fields.values())
    save_model(model, str(first))
    assert load_model(str(first)) == model
    save_model(load_model(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()
    reals = ("lm_smoothing_k", "channel_smoothing_k", "mixing_weight")
    spelled.write_text(json.dumps({**payload, **fields, **{k: _respell(fields[k]) for k in reals}}))
    twin = load_model(str(spelled))
    assert twin == model
    save_model(twin, str(second))
    assert second.read_bytes() == first.read_bytes()
    spelled.write_text(json.dumps({**payload, **fields, "order": float(fields["order"])}))
    with pytest.raises(FormatError, match="lm order must be an integer"):
        load_model(str(spelled))


_UNITS = st.sampled_from(["甲", "乙", "丙", "a", "\\", '"', "\u2028", "\U0001F600", UNK])


def _count_tables(keys):
    return st.dictionaries(keys, st.dictionaries(_UNITS, st.integers(1, 10**6), max_size=4), max_size=5)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    order=st.integers(1, 4),
    lm_k=st.floats(1e-6, 10.0),
    channel_k=st.floats(1e-6, 10.0),
    mixing_weight=st.floats(0.0, 1.0),
    stage=st.sampled_from(list(Stage)),
    extra_vocab=st.frozensets(_UNITS, max_size=4),
    data=st.data(),
)
def test_model_container_round_trips_to_identical_bytes(
    tmp_path_factory, order, lm_k, channel_k, mixing_weight, stage, extra_vocab, data
):
    contexts = st.lists(st.sampled_from(["甲", "乙", BOUNDARY, UNK]), min_size=order - 1, max_size=order - 1)
    lm_counts = {k: Counter(c) for k, c in data.draw(_count_tables(contexts.map("".join))).items()}
    ch_counts = {k: Counter(c) for k, c in data.draw(_count_tables(_UNITS)).items()}
    vocab = extra_vocab | {UNK} | {u for c in (*lm_counts.values(), *ch_counts.values()) for u in c}
    model = MixtureCorrectorModel(
        NgramLM(order, lm_k, lm_counts), ConfusionChannel(channel_k, ch_counts), vocab, mixing_weight, stage
    )
    folder = tmp_path_factory.mktemp("model")
    first, second = folder / "first.json", folder / "second.json"
    save_model(model, str(first))
    loaded = load_model(str(first))
    assert loaded == model
    save_model(loaded, str(second))
    assert second.read_bytes() == first.read_bytes()
