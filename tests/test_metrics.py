import io
import math
import random
from typing import NamedTuple

import pytest

from zhcorrect import (
    GoldRecord,
    MatchCounts,
    UsageError,
    extract_edits,
    f_beta,
    format_edit_records,
    macro_average,
    parse_edit_file,
    precision_recall,
    score_cgc,
    score_csc,
    sentence_edit_counts,
)

# published precision/recall/F0.5 rows used as a cross-check of the formula
_F05_ROWS = [
    (0.3882, 0.1558, 0.2990),
    (0.5708, 0.1294, 0.3394),
    (0.5095, 0.3129, 0.4526),
    (0.5420, 0.3475, 0.4874),
]

# published per-dataset scores and their reported averages
_MACRO_ROWS = [
    ((0.3147, 0.3763, 0.3317), 0.3409),
    ((0.8383, 0.3357, 0.1318), 0.4353),
    ((0.8314, 0.1610, 0.2055), 0.3993),
    ((0.4917, 0.9798, 0.9959), 0.8225),
    ((0.6340, 0.9360, 0.9864), 0.8521),
]


def test_f05_reproduces_published_rows():
    for p, r, expected in _F05_ROWS:
        assert abs(f_beta(p, r, 0.5) - expected) < 1e-4


def test_f_beta_fixed_points():
    assert f_beta(0.7, 0.7, 0.5) == pytest.approx(0.7)
    assert f_beta(0.0, 0.0, 0.5) == 0.0
    assert f_beta(1.0, 1.0, 2.0) == pytest.approx(1.0)
    assert f_beta(0.3, 0.0, 0.5) == 0.0
    assert f_beta(0.0, 0.9, 0.5) == 0.0


def test_f1_is_harmonic_mean():
    p, r = 0.5, 0.3333333333333333
    harmonic = 2 * p * r / (p + r)
    assert f_beta(p, r, 1.0) == pytest.approx(harmonic)


def test_f_beta_range_checks():
    with pytest.raises(UsageError):
        f_beta(-0.1, 0.5)
    with pytest.raises(UsageError):
        f_beta(0.5, 1.2)
    with pytest.raises(UsageError):
        f_beta(0.5, 0.5, 0.0)
    with pytest.raises(UsageError):
        f_beta(0.5, 0.5, -1.0)
    # beta * beta is inf above about 1.34e154, and F would be NaN.
    for beta in (math.nan, math.inf, 1e200):
        with pytest.raises(UsageError):
            f_beta(0.5, 0.5, beta)
    assert f_beta(0.5, 0.5, 1e150) == 0.5


def test_sentence_edit_counts_range_checks():
    record = _cgc_gold()[0]
    with pytest.raises(UsageError, match="finite square"):
        sentence_edit_counts(record.source, record.source, record.refs, beta=1e200)
    with pytest.raises(UsageError, match="no gold references"):
        sentence_edit_counts(record.source, record.source, ())


def test_f_beta_bounds_and_precision_weighting():
    rng = random.Random(31)
    for _ in range(300):
        p, r = rng.random(), rng.random()
        f = f_beta(p, r, 0.5)
        assert 0.0 <= f <= 1.0
        if p > 0 and r > 0:
            assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
        if p > r > 0:
            # beta<1 favors precision: swapping the larger value into the
            # precision slot can only raise the score
            assert f_beta(p, r, 0.5) > f_beta(r, p, 0.5)


def test_f_beta_monotone_in_each_argument():
    for lo, hi in [(0.2, 0.4), (0.5, 0.9)]:
        assert f_beta(hi, 0.3, 0.5) > f_beta(lo, 0.3, 0.5)
        assert f_beta(0.3, hi, 0.5) > f_beta(0.3, lo, 0.5)


def test_precision_recall_from_counts():
    assert precision_recall(MatchCounts(1, 1, 2)) == (0.5, pytest.approx(1 / 3))
    assert precision_recall(MatchCounts(0, 0, 0)) == (0.0, 0.0)
    assert precision_recall(MatchCounts(0, 0, 5)) == (0.0, 0.0)
    assert precision_recall(MatchCounts(3, 0, 0)) == (1.0, 1.0)


def test_macro_average_reproduces_published_rows():
    for scores, expected in _MACRO_ROWS:
        assert abs(macro_average(scores) - expected) < 5e-5


def test_macro_average_basics():
    assert macro_average([0.75]) == 0.75
    assert macro_average([0.0, 1.0]) == 0.5
    with pytest.raises(UsageError):
        macro_average([])
    with pytest.raises(UsageError):
        macro_average([0.5, 1.5])
    with pytest.raises(UsageError):
        macro_average([-0.1])


class CscSentenceOutcome(NamedTuple):
    gold_changed: bool
    hyp_changed: bool
    exact_correct: bool


def csc_outcome(source, reference, hypothesis):
    """Test oracle: the three comparisons score_csc counts a sentence by."""
    return CscSentenceOutcome(
        gold_changed=reference != source,
        hyp_changed=hypothesis != source,
        exact_correct=hypothesis == reference,
    )


def test_csc_outcome_flags():
    src, ref = "天汽", "天气"
    out = csc_outcome(src, ref, "天气")
    assert (out.gold_changed, out.hyp_changed, out.exact_correct) == (True, True, True)
    out = csc_outcome(src, ref, src)
    assert (out.gold_changed, out.hyp_changed, out.exact_correct) == (True, False, False)
    clean = "天气"
    out = csc_outcome(clean, clean, clean)
    assert (out.gold_changed, out.hyp_changed, out.exact_correct) == (False, False, True)


def _csc_fixture():
    # item: (source, reference, hypothesis)
    # 1: dirty, fixed exactly           -> tp
    # 2: dirty, wrong fix               -> fn + fp
    # 3: clean, needlessly changed      -> fp
    return [
        ("天汽很好", "天气很好", "天气很好"),
        ("他是学圣", "他是学生", "他是学牲"),
        ("我们吃饭", "我们吃饭", "我们吃反"),
    ]


def test_score_csc_counts_and_f1():
    report = score_csc(_csc_fixture(), dataset="fixture")
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (1, 2, 1)
    assert report.precision == pytest.approx(1 / 3)
    assert report.recall == pytest.approx(1 / 2)
    assert report.f_beta == pytest.approx(0.4)
    assert report.beta == 1.0
    assert report.task == "csc"
    assert report.dataset == "fixture"
    assert report.n_sentences == 3


def test_score_csc_counts_follow_csc_outcome():
    # Every equality pattern of (source, reference, hypothesis), one at a time
    # and all together, counted from csc_outcome's flags as the oracle.
    texts = ("甲", "乙", "丙")
    items = [(s, r, h) for s in texts for r in texts for h in texts]
    for batch in [[item] for item in items] + [items]:
        tp = fp = fn = 0
        for item in batch:
            o = csc_outcome(*item)
            tp += o.gold_changed and o.exact_correct
            fn += o.gold_changed and not o.exact_correct
            fp += o.hyp_changed and not (o.gold_changed and o.exact_correct)
        counts = score_csc(batch).counts
        assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn)


def test_score_csc_perfect_and_do_nothing():
    items = [(s, r, r) for s, r, _ in _csc_fixture()]
    assert score_csc(items).f_beta == pytest.approx(1.0)
    lazy = [(s, r, s) for s, r, _ in _csc_fixture()]
    assert score_csc(lazy).f_beta == 0.0


def test_score_csc_all_clean_yields_zeros():
    clean = "我们学习"
    report = score_csc([(clean, clean, clean)] * 3)
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (0, 0, 0)
    assert report.precision == report.recall == report.f_beta == 0.0


def test_score_csc_rejects_empty():
    with pytest.raises(UsageError, match="score_csc needs at least one sentence"):
        score_csc([])
    with pytest.raises(UsageError, match="score_csc needs at least one sentence"):
        score_csc(item for item in ())


def test_score_csc_takes_a_generator_and_consumes_it_once():
    items = _csc_fixture()
    lazy = (item for item in items)
    assert score_csc(lazy, dataset="fixture") == score_csc(items, dataset="fixture")
    assert next(lazy, None) is None


_CGC_GOLD = (
    "S 他是学生生\n"
    "A 4 5|||del|||-NONE-|||0\n"
    "\n"
    "S 天汽很号\n"
    "A 1 2|||sub|||气|||0\n"
    "A 3 4|||sub|||好|||0\n"
    "\n"
)


def _cgc_gold():
    return parse_edit_file(io.StringIO(_CGC_GOLD))


def test_score_cgc_fixture_counts():
    # sentence 1: hypothesis fixes the duplication      -> tp 1
    # sentence 2: one wrong edit, both gold edits missed -> fp 1 fn 2
    hyp = [
        ("他是学生生", "他是学生"),
        ("天汽很号", "天汽很呺"),
    ]
    report = score_cgc(hyp, _cgc_gold(), dataset="fixture")
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (1, 1, 2)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(1 / 3, abs=1e-9)
    assert report.f_beta == pytest.approx(0.454545, abs=1e-6)
    assert report.beta == 0.5
    assert report.task == "cgc"
    assert report.n_sentences == 2


def test_score_cgc_beta_one():
    hyp = [
        ("他是学生生", "他是学生"),
        ("天汽很号", "天汽很呺"),
    ]
    report = score_cgc(hyp, _cgc_gold(), beta=1.0)
    assert report.f_beta == pytest.approx(0.4, abs=1e-9)


def test_score_cgc_perfect_and_do_nothing():
    perfect = [
        ("他是学生生", "他是学生"),
        ("天汽很号", "天气很好"),
    ]
    assert score_cgc(perfect, _cgc_gold()).f_beta == pytest.approx(1.0)
    lazy = [("他是学生生", "他是学生生"),
            ("天汽很号", "天汽很号")]
    assert score_cgc(lazy, _cgc_gold()).f_beta == 0.0


def test_score_cgc_multi_reference_picks_best():
    # ref 0 wants two edits, ref 1 wants one; a hypothesis applying exactly
    # ref 1's edit scores F=1 there and is credited in full
    gold_text = (
        "S 天汽很号\n"
        "A 1 2|||sub|||气|||0\n"
        "A 3 4|||sub|||好|||0\n"
        "A 1 2|||sub|||气|||1\n"
        "\n"
    )
    gold = parse_edit_file(io.StringIO(gold_text))
    hyp = [("天汽很号", "天气很号")]
    report = score_cgc(hyp, gold)
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (1, 0, 0)


def test_score_cgc_f_tie_keeps_the_first_reference():
    # do-nothing hypothesis scores F=0 against every reference; the tie
    # resolves to the first reference, ref 0, so its two misses are counted,
    # not ref 1's one, in whatever order the file lists their "A" lines
    ref0 = "A 1 2|||sub|||气|||0\nA 3 4|||sub|||好|||0\n"
    ref1 = "A 1 2|||sub|||气|||1\n"
    hyp = [("天汽很号", "天汽很号")]
    for a_lines in (ref0 + ref1, ref1 + ref0):
        gold = parse_edit_file(io.StringIO(f"S 天汽很号\n{a_lines}\n"))
        report = score_cgc(hyp, gold)
        assert (report.counts.tp, report.counts.fp, report.counts.fn) == (0, 0, 2)


def test_score_cgc_counts_a_reference_without_edits_from_the_file_as_in_memory():
    # The unchanged reference is written as a noop line, so it survives the
    # file and the do-nothing hypothesis matches it, not the edited one.
    source = "甲乙丙"
    refs = tuple(extract_edits(source, ref) for ref in ("甲乙丙", "甲丁丙"))
    gold_text = format_edit_records([(source, refs)])
    assert "A -1 -1|||noop|||-NONE-|||0\n" in gold_text
    for gold in ([GoldRecord(source, refs)], parse_edit_file(io.StringIO(gold_text))):
        assert score_cgc([(source, source)], gold).counts == MatchCounts(0, 0, 0)


def test_score_cgc_missing_gold_entry():
    hyp = [("没有这句", "没有这句")]
    with pytest.raises(UsageError):
        score_cgc(hyp, _cgc_gold())


def test_score_cgc_rejects_reordered_hypotheses():
    hyp = [("天汽很号", "天气很好"), ("他是学生生", "他是学生")]
    with pytest.raises(UsageError) as err:
        score_cgc(hyp, _cgc_gold())
    message = str(err.value)
    assert "hypothesis 0" in message
    assert "'天汽很号'" in message and "'他是学生生'" in message


def test_score_cgc_rejects_empty():
    with pytest.raises(UsageError):
        score_cgc([], _cgc_gold())


def test_report_json_shape():
    report = score_csc(_csc_fixture(), dataset="d")
    payload = report.to_json_dict()
    assert set(payload) == {
        "task", "dataset", "beta", "precision", "recall", "f_beta",
        "tp", "fp", "fn", "n_sentences",
    }
    assert payload["tp"] == 1 and payload["fp"] == 2 and payload["fn"] == 1
    assert payload["task"] == "csc" and payload["dataset"] == "d"
