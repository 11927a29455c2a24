"""The two scoring protocols: sentence-level CSC F1 and edit-level F0.5.

Conventions, stated once because they decide the numbers:
  * CSC is correction-level: a sentence counts as a true positive only when
    the hypothesis equals the reference on a sentence the gold actually
    changed. False positives cover both touched-but-clean sentences and
    wrong fixes on dirty ones.
  * CGC aggregates micro (sum TP/FP/FN over sentences, then P/R/F); the
    macro average is only ever taken across datasets, for CSC F1.
  * Any 0/0 ratio evaluates to 0, never an error, so degenerate systems
    score rather than crash.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .edits import EditSet, GoldRecord, MatchCounts, MergePolicy, extract_edits, match_edits
from .errors import UsageError


class ScoreReport(NamedTuple):
    """Precision/recall/F_beta plus the raw counts they came from."""

    task: str
    dataset: str
    beta: float
    precision: float
    recall: float
    f_beta: float
    counts: MatchCounts
    n_sentences: int

    def to_json_dict(self) -> dict:
        """The fields, with counts spread out into tp, fp and fn."""
        payload = self._asdict()
        payload.update(payload.pop("counts")._asdict())
        return payload


def _check_beta(beta: float) -> None:
    # NaN fails both comparisons; an infinite beta makes every F NaN.
    if not 0.0 < beta < math.inf:
        raise UsageError(f"beta must be finite and > 0, got {beta}")
    # So does a beta whose square overflows.
    if beta * beta == math.inf:
        raise UsageError(f"beta must have a finite square, got {beta}")


def f_beta(precision: float, recall: float, beta: float = 0.5) -> float:
    """Weighted harmonic mean of precision and recall.

    beta < 1 prioritizes precision over recall. Returns 0 when the
    denominator vanishes (in particular when P = R = 0).
    """
    if not 0.0 <= precision <= 1.0:
        raise UsageError(f"precision must be in [0, 1], got {precision}")
    if not 0.0 <= recall <= 1.0:
        raise UsageError(f"recall must be in [0, 1], got {recall}")
    _check_beta(beta)
    denominator = beta * beta * precision + recall
    if denominator == 0.0:
        return 0.0
    return (1.0 + beta * beta) * precision * recall / denominator


def precision_recall(counts: MatchCounts) -> tuple[float, float]:
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    return p, r


def macro_average(scores: Sequence[float]) -> float:
    """Unweighted mean of per-dataset scores, summed left to right: sum() of
    floats is compensated from Python 3.12 on and would give other bits."""
    if not scores:
        raise UsageError("macro_average needs at least one score")
    total = 0.0
    for s in scores:
        if not 0.0 <= s <= 1.0:
            raise UsageError(f"scores must be in [0, 1], got {s}")
        total += s
    return total / len(scores)


def _report(
    task: str, dataset: str, beta: float, counts: MatchCounts, n_sentences: int
) -> ScoreReport:
    p, r = precision_recall(counts)
    return ScoreReport(task, dataset, beta, p, r, f_beta(p, r, beta), counts, n_sentences)


def score_csc(
    items: Iterable[tuple[str, str, str]],
    dataset: str = "",
) -> ScoreReport:
    """Sentence-level CSC scoring (beta = 1).

    items are (source, gold reference, hypothesis) triples, one reference per
    sentence and all normalized under the same policy; any iterable will do,
    and it is consumed once, a triple at a time. A sentence is a true
    positive only if the gold changed it and the hypothesis equals the
    reference. Raises UsageError when items yields nothing.
    """
    tp = fp = fn = n_sentences = 0
    for n_sentences, (source, reference, hypothesis) in enumerate(items, 1):
        if reference != source:
            if hypothesis == reference:
                tp += 1
            else:
                fn += 1
                if hypothesis != source:
                    fp += 1
        elif hypothesis != source:
            fp += 1
    if not n_sentences:
        raise UsageError("score_csc needs at least one sentence")
    return _report("csc", dataset, 1.0, MatchCounts(tp=tp, fp=fp, fn=fn), n_sentences)


def sentence_edit_counts(
    source: str,
    hypothesis: str,
    gold_refs: Sequence[EditSet],
    beta: float = 0.5,
    merge: MergePolicy = MergePolicy.MAXIMAL_RUNS,
) -> MatchCounts:
    """Counts for one sentence against its best-scoring gold reference.

    The hypothesis edit set is extracted from the source/hypothesis
    alignment; the reference maximizing sentence-local F_beta is selected,
    ties going to the first of gold_refs, as the M2 scorer's annotators.
    """
    if not gold_refs:
        raise UsageError("sentence has no gold references")
    hyp_set = extract_edits(source, hypothesis, merge)
    # max keeps the first of equal keys.
    return max(
        (match_edits(hyp_set, ref) for ref in gold_refs),
        key=lambda counts: f_beta(*precision_recall(counts), beta),
    )


def score_cgc(
    hyp_corpus: Sequence[tuple[str, str]],
    gold: Sequence[GoldRecord],
    beta: float = 0.5,
    merge: MergePolicy = MergePolicy.MAXIMAL_RUNS,
    dataset: str = "",
) -> ScoreReport:
    """Edit-level scoring (beta = 0.5 by default) with multi-reference selection.

    hyp_corpus holds (source, hypothesis) pairs, paired with the gold
    records by position as in the M2 scorers: the i-th hypothesis is scored
    against the i-th record, whose source must equal its own. The sentences
    are scored in order, and the counts from each one's selected reference
    are added to a running total before computing corpus P/R/F_beta.
    """
    _check_beta(beta)  # f_beta's check, made before any sentence is aligned
    if not hyp_corpus:
        raise UsageError("score_cgc needs at least one sentence")
    if len(hyp_corpus) != len(gold):
        raise UsageError(
            f"hypothesis count {len(hyp_corpus)} differs from gold record count {len(gold)}"
        )
    total = MatchCounts()
    for i, ((source, hypothesis), record) in enumerate(zip(hyp_corpus, gold)):
        if source != record.source:
            raise UsageError(
                f"hypothesis {i}: source {source!r} differs from gold record source "
                f"{record.source!r}; gold S lines are compared as written, while "
                f"hypothesis sources are read normalized"
            )
        total += sentence_edit_counts(source, hypothesis, record.refs, beta, merge)
    return _report("cgc", dataset, beta, total, len(hyp_corpus))
