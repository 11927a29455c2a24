"""Count-based noisy-channel corrector trained in two curriculum stages.

The model scores a target unit with a mixture of two proper distributions:
an add-k character n-gram LM over the decoded prefix and an add-k confusion
channel conditioned on the aligned source unit. Training is count
accumulation: stage 1 fits on alignment-tagged data, stage 2 keeps those
counts and accumulates the joint corpus on top, re-tuning the mixing weight
on a held-out slice by grid search. A stage's counts are taken in one
batched pass (equal pairs are not aligned). The channel's copies are not
counted one by one: a unit's copy count is its count in the targets less
its substitution and insertion targets. The key order inside the count
tables is not part of a model. Decoding is substitution-only beam search
over a per-position candidate lattice that keeps one hypothesis per LM
state, the LM context a step reads (none at mixing weight 0, where one
hypothesis is kept), its columns cached on the model (see decode).
Training and decoding read both tables through one _add_k.

Reserved units (textnorm's, which input text may not hold): BOUNDARY pads
LM contexts at the sentence start and UNK absorbs units outside the
vocabulary, so every probability stays positive. Every distribution is
proper in the models training builds, whose vocabulary holds every unit they
count; a loaded container's row that counts a unit outside it sums to less.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter, namedtuple
from enum import Enum
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Sequence

from .corpus import Corpus, ParallelPair, split
from .alignment import align, positions
from .artifacts import write_artifact
from .errors import (
    ConfigError, FormatError, NormalizationError, StructuralError, UsageError, ZhcorrectError,
)
from .records import Checked
from .textnorm import BOUNDARY, UNK, check_scalars, rejected_in

MODEL_FORMAT = "zhcorrect-model"
MODEL_VERSION = 1

DEFAULT_ORDER = 3
# An LM context is a str of order-1 units, built for every unit the model
# counts or scores; an order past the longest sentence only adds padding.
MAX_ORDER = 64
DEFAULT_SMOOTHING_K = 0.01
DEFAULT_MIX_GRID: tuple[float, ...] = tuple(i / 20 for i in range(21))

# Text units _lm_windows scans at a time, padding included: enough that the
# join and the regex call made once per chunk cost little per window, few
# enough that a chunk's windows, one str of order units per target unit,
# stay small whatever the order and the sentence lengths.
_SCAN_UNITS = 4096


class Stage(str, Enum):
    """Curriculum position of a model's parameters."""

    INITIAL = "initial"
    STAGE1 = "stage1"
    STAGE2 = "stage2"


def _real(name: str, value: object) -> float:
    """value, a number but no bool, as a float with -0.0 as 0.0: equal
    parameters then save to one spelling. An int beyond any float becomes an
    infinity, which every range check refuses."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StructuralError(f"{name} must be a number, got {value!r}")
    try:
        return float(value) + 0.0
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _mixing_weight(name: str, value: object) -> float:
    """value as a mixing weight: a number but no bool (see _real), in [0, 1]."""
    weight = _real(name, value)
    if not 0.0 <= weight <= 1.0:
        raise UsageError(f"{name} must be in [0, 1], got {weight}")
    return weight


def _check_smoothing(owner: str, k: float, totals: dict[str, int], vocab_size: int) -> None:
    """k must keep every add-k probability (count + k) / (total + k·|V|) of
    the table a normal float: then a mixture of two, at any weight, is at
    least half the smaller and stays positive, so its log is finite. The
    least of them is k / (largest total + k·|V|), as float division rounds
    monotonically."""
    if not 0.0 < k < math.inf:
        raise StructuralError(f"{owner} smoothing_k must be finite and > 0, got {k!r}")
    try:
        least = k / (max(totals.values(), default=0) + k * vocab_size)
    except OverflowError:  # a count total beyond any float
        least = 0.0
    if not least >= sys.float_info.min:
        raise ConfigError(
            f"{owner} smoothing_k {k!r} makes a probability {least!r} over "
            f"{vocab_size} units; every probability must be a positive normal float"
        )


def _context_key(vocab: AbstractSet[str], order: int, prefix: str) -> str:
    """LM context of the unit after prefix: the last order-1 units of the
    BOUNDARY-padded prefix, units outside vocab mapped to UNK. Reads only
    those units, never the whole prefix."""
    width = order - 1
    if width == 0:
        return ""
    key = "".join(u if u in vocab else UNK for u in prefix[-width:])
    return BOUNDARY * (width - len(key)) + key


class NgramLM(NamedTuple):
    """Add-k n-gram table: counts maps an LM context (see _context_key) to
    the counts of the units that followed it. MixtureCorrectorModel checks
    it and conditional scores it."""

    order: int
    smoothing_k: float
    counts: dict[str, Counter]


class ConfusionChannel(NamedTuple):
    """Add-k emission table: counts maps an aligned source unit to the
    counts of the units emitted for it."""

    smoothing_k: float
    counts: dict[str, Counter]

    def partners(self, source: str) -> tuple[str, ...]:
        return tuple(sorted(self.counts.get(source, ())))


def _totals(counts: dict[str, Counter]) -> dict[str, int]:
    """Each row's count total, the count part of its add-k denominator.
    Every count must be a positive int of a single unit other than
    BOUNDARY: decode emits the counted units, and a zero, which Counter ==
    ignores, would make equal models differ in their tables."""
    totals = {}
    for key, row in counts.items():
        if not all(
            type(u) is str and len(u) == 1 and type(n) is int and n > 0 for u, n in row.items()
        ):
            raise StructuralError("counts must map single units to positive integers")
        if BOUNDARY in row:
            raise StructuralError("BOUNDARY may pad an LM context but is never a counted unit")
        totals[key] = sum(row.values())
    return totals


_NO_COUNTS: dict[str, int] = {}


def _add_k(
    table: NgramLM | ConfusionChannel, totals: dict[str, int], vocab_size: int,
    keys: Iterable[str | None], units: Iterable[str],
) -> Iterator[float]:
    """The table's add-k probability (count + k) / (total + k·|V|) of each
    unit, in the vocab or UNK, in the row of its key (an LM context or a
    channel source), keys and units taken in pairs, lazily. A key without a
    row, None included, has no counts."""
    counts, k, kv = table.counts, table.smoothing_k, table.smoothing_k * vocab_size
    return (
        (counts.get(key, _NO_COUNTS).get(unit, 0) + k) / (totals.get(key, 0) + kv)
        for key, unit in zip(keys, units)
    )


def _scan_chunks(targets: Iterable[str], width: int) -> Iterator[list[str]]:
    """The targets in lists whose padded text, each target with width
    units of padding, holds about _SCAN_UNITS units; a longer target is a
    list of its own."""
    chunk: list[str] = []
    size = 0
    for target in targets:
        chunk.append(target)
        size += len(target) + width
        if size >= _SCAN_UNITS:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _lm_windows(order: int, targets: Iterable[str]) -> Iterator[str]:
    """The LM n-grams of the targets, lazily and in order, one ending at
    each unit of each target: the order-unit slices of each target once
    padded with order-1 BOUNDARY units. If every unit is in the vocab, an
    n-gram is its last unit's LM context and the unit.

    No target may hold BOUNDARY: no model counts or scores it (a vocab
    refuses it, and _token_probs maps held-out units outside the vocab to
    UNK first). Then the windows are found in C, a chunk of targets at a
    time: the chunk is joined with each target after its padding, and one
    regex scan matches each unit that is not BOUNDARY, exactly each target
    unit, and captures the order units that end there by a lookbehind; at
    padding it fails after one unit, so no window ending on padding is
    tried. A chunk holds about _SCAN_UNITS units (see _scan_chunks), so the
    windows alive at once stay few whatever the batch, the order and the
    sentence lengths."""
    pad = BOUNDARY * (order - 1)
    scan = re.compile(f"[^{BOUNDARY}](?<=(.{{{order}}}))", re.S).findall
    chunks = _scan_chunks(targets, order - 1)
    return chain.from_iterable(scan(pad + pad.join(chunk)) for chunk in chunks)


class Tuning(NamedTuple):
    """fit_stage's search for the mixing weight: the held-out slice it scored,
    the grid of weights and the objective at each (see dataset_objective).
    The chosen weight is the one of least objective, the smaller on a tie."""

    heldout: Corpus
    grid: tuple[float, ...]
    objectives: tuple[float, ...]

    @property
    def objective(self) -> float:
        """The held-out objective at the chosen weight."""
        return min(self.objectives)


class MixtureCorrectorModel(
    Checked, namedtuple("MixtureCorrectorModel", "lm channel vocab mixing_weight stage")
):
    """The LM and channel over one vocabulary, mixed with weight
    mixing_weight on the LM. __new__ is where the fields are checked: the
    order is an int and the weight and smoothing constants are numbers,
    none of them a bool, and the latter three are stored as floats, so equal
    models save to identical bytes. Every count is a positive int of a
    single unit. BOUNDARY is neither in the vocab nor a counted unit: it
    only pads LM context keys.

    It also derives each table's count totals into _lm_totals and
    _channel_totals, which _add_k reads for every caller, while decode
    caches its lattice in _columns (see decode). tuning is the Tuning of the
    model fit_stage returns after scoring a non-empty held-out slice, and
    None on every other model; it holds a reference to that slice. None of
    the four is a field: they sit in the instance __dict__, out of ==, repr
    and save_model, and __getstate__ returns None, so pickling, copy and
    deepcopy rebuild the model from its fields through __new__. Every new
    model (_replace, a copy, fit_stage, load_model) derives the totals anew
    and starts with an empty cache and no tuning. So no attribute may be
    set, and a model's tables must not be mutated once it is built, or it
    would go on reading totals and scores of the old counts.
    """

    def __new__(
        cls, lm: NgramLM, channel: ConfusionChannel, vocab: frozenset[str],
        mixing_weight: float, stage: Stage,
    ) -> MixtureCorrectorModel:
        lm_totals, channel_totals = _totals(lm.counts), _totals(channel.counts)
        order = lm.order
        if type(order) is not int or not 1 <= order <= MAX_ORDER:
            raise StructuralError(f"lm order must be an integer in [1, {MAX_ORDER}], got {order!r}")
        lm = lm._replace(smoothing_k=_real("lm smoothing_k", lm.smoothing_k))
        _check_smoothing("lm", lm.smoothing_k, lm_totals, len(vocab))
        if UNK not in vocab:
            raise StructuralError("vocab must contain the UNK unit")
        if BOUNDARY in vocab:
            raise StructuralError("vocab must not contain the BOUNDARY unit")
        channel = channel._replace(smoothing_k=_real("channel smoothing_k", channel.smoothing_k))
        _check_smoothing("channel", channel.smoothing_k, channel_totals, len(vocab))
        mixing_weight = _mixing_weight("mixing_weight", mixing_weight)
        self = tuple.__new__(cls, (lm, channel, vocab, mixing_weight, stage))
        vars(self).update(
            _lm_totals=lm_totals, _channel_totals=channel_totals, _columns={}, tuning=None
        )
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __getstate__(self) -> None:
        return None


def initial_model(
    order: int = DEFAULT_ORDER,
    smoothing_k: float = DEFAULT_SMOOTHING_K,
    vocab: Iterable[str] = (),
    mixing_weight: float = 0.5,
) -> MixtureCorrectorModel:
    """Untrained model: empty counts, so every conditional is uniform."""
    return MixtureCorrectorModel(
        lm=NgramLM(order, smoothing_k, {}),
        channel=ConfusionChannel(smoothing_k, {}),
        vocab=frozenset(vocab) | {UNK},
        mixing_weight=mixing_weight,
        stage=Stage.INITIAL,
    )


def conditional(
    model: MixtureCorrectorModel,
    prev_context: str,
    aligned_src_unit: str | None,
    y_t: str,
) -> float:
    """Mixture probability of emitting y_t after prev_context given the
    aligned source unit; always in (0, 1].

    Each table gives its add-k probability (see _add_k), units outside the
    vocabulary mapped to UNK. A source of None (no aligned unit) takes the
    channel's zero-count case, i.e. uniform over the vocabulary.
    """
    vocab = model.vocab
    units = (y_t if y_t in vocab else UNK,)
    src = aligned_src_unit
    if src is not None and src not in vocab:
        src = UNK
    key = _context_key(vocab, model.lm.order, prev_context)
    (lm_p,) = _add_k(model.lm, model._lm_totals, len(vocab), (key,), units)
    (ch_p,) = _add_k(model.channel, model._channel_totals, len(vocab), (src,), units)
    lam = model.mixing_weight
    return lam * lm_p + (1.0 - lam) * ch_p


def _codes(sources: Sequence[str], targets: Sequence[str]) -> str:
    """The joined alignment codes of the pairs; an equal pair is all M
    without align. A pair's codes consume its own units, so the joined codes
    line up with the joined sides."""
    return "".join("M" * len(s) if s == t else align(s, t) for s, t in zip(sources, targets))


def _token_probs(
    model: MixtureCorrectorModel, pairs: Sequence[ParallelPair]
) -> tuple[list[tuple[float, float]], list[list[int]]]:
    """The pairs' (lm_p, ch_p) terms, conditional's two terms, which do not
    depend on the mixing weight, as (terms, rows): terms holds each distinct
    term once, in first-seen order, and rows[p] the index of the term of
    each unit of pair p's first reference.

    The targets are mapped to UNK in one translate of their joined text,
    made only if a unit is outside the vocab, and cut back by their lengths;
    they are mapped before _lm_windows pads them, as BOUNDARY is never in a
    vocab and would map to UNK too. A unit's key is its LM window (its LM
    context and itself, a window of the mapped target, see _lm_windows) and
    its channel source: the mapped unit itself under an M code, which pairs
    equal units, the mapped source unit under an S, and None under an I (no
    aligned unit). Each distinct key is looked up once, and keys whose two
    probabilities are equal share one term."""
    lm, channel, vocab = model.lm, model.channel, model.vocab
    sources = [pair.source for pair in pairs]
    targets = [pair.references[0] for pair in pairs]
    codes = _codes(sources, targets)
    joined, joined_sources = "".join(targets), "".join(sources)
    outside = set(joined) - vocab
    if outside:
        joined = joined.translate(dict.fromkeys(map(ord, outside), UNK))
        ends = list(accumulate(map(len, targets), initial=0))
        targets = list(map(joined.__getitem__, map(slice, ends, ends[1:])))
    aligned: list[str | None] = list(joined)
    for code, i, j in positions(codes, "[SI]"):
        if code == "S":
            src = joined_sources[i]
            aligned[j] = src if src in vocab else UNK
        else:
            aligned[j] = None
    keys = list(zip(_lm_windows(lm.order, targets), aligned))
    distinct = list(dict.fromkeys(keys))
    units = [window[-1] for window, _ in distinct]
    contexts = [window[:-1] for window, _ in distinct]
    lm_ps = _add_k(lm, model._lm_totals, len(vocab), contexts, units)
    ch_ps = _add_k(channel, model._channel_totals, len(vocab), map(itemgetter(1), distinct), units)
    terms: dict[tuple[float, float], int] = {}
    index = dict(zip(distinct, [terms.setdefault(term, len(terms)) for term in zip(lm_ps, ch_ps)]))
    ids = map(index.__getitem__, keys)
    return list(terms), [list(islice(ids, len(target))) for target in targets]


def _mean_nll(terms: Sequence[tuple[float, float]], rows: Sequence[list[int]], lam: float) -> float:
    """Mean over the rows' pairs of their nll under mixing weight lam.

    The mixture is conditional's written out, and each distinct term is
    logged once. Both sums, over a pair's units and over the pairs, are
    left-to-right loops on purpose: sum() of floats is compensated from
    Python 3.12 on, so it would give the objective other bits on other
    interpreters. (functools.reduce over the same order keeps the bits but
    takes twice as long on CPython 3.11.)
    """
    mu = 1.0 - lam
    log = math.log
    logs = [log(lam * lm_p + mu * ch_p) for lm_p, ch_p in terms]
    nll = 0.0
    for row in rows:
        total = 0.0
        for term in row:
            total -= logs[term]
        nll += total
    return nll / len(rows)


def dataset_objective(
    model: MixtureCorrectorModel, corpus: Corpus, weights: Sequence[float] | None = None
) -> float | list[float]:
    """Mean per-pair nll over the corpus at the model's mixing weight or,
    given weights, the list of it at each weight, checked as the model's.
    Every weight is scored from one table of terms (see _token_probs), so
    each pair is aligned once and each distinct key looked up once, and
    _mean_nll logs each distinct term once per weight."""
    if not corpus:
        raise UsageError("dataset_objective needs a non-empty corpus")
    terms, rows = _token_probs(model, corpus)
    if weights is None:
        return _mean_nll(terms, rows, model.mixing_weight)
    return [_mean_nll(terms, rows, _mixing_weight("weight", weight)) for weight in weights]


def _accumulate(
    lm_counts: dict[str, Counter],
    ch_counts: dict[str, Counter],
    vocab: set[str],
    order: int,
    pairs: Sequence[ParallelPair],
) -> None:
    """Add the counts of the pairs' first references to the tables and their
    units to vocab in one batch. Each LM n-gram is a str, made by the
    chunked scan of _lm_windows (no target holds BOUNDARY: fit_stage refuses
    it), and all are counted by one Counter in C; each distinct one then
    adds its count to its last unit in the row of the rest and to that
    unit's total in the targets.

    The channel counts the source and target unit of each M or S code, but
    only the non-M codes are visited: an S counts its emission, and an S or
    I takes its target unit from that unit's total. What is left is the
    unit's copies (its M codes), stored only when positive, as _totals
    refuses a zero. Insertions have no source unit and deletions no
    emission; the substitution-only channel records neither. An M pairs
    equal units, so vocab gains the targets' units and the S and D sources."""
    sources = [pair.source for pair in pairs]
    targets = [pair.references[0] for pair in pairs]
    # Every target unit joins vocab, so none maps to UNK and each LM context
    # + unit is a window of the padded target; every unit ends one window.
    copies: Counter[str] = Counter()
    for gram, n in Counter(_lm_windows(order, targets)).items():
        lm_counts.setdefault(gram[:-1], Counter())[gram[-1]] += n
        copies[gram[-1]] += n
    joined_sources, joined_targets = "".join(sources), "".join(targets)
    edited: list[str] = []
    for code, i, j in positions(_codes(sources, targets), "[DIS]"):
        if code == "S":
            src, unit = joined_sources[i], joined_targets[j]
            row = ch_counts.get(src)
            if row is None:
                row = ch_counts[src] = Counter()
            row[unit] += 1
            copies[unit] -= 1
            edited.append(src)
        elif code == "I":
            copies[joined_targets[j]] -= 1
        else:
            edited.append(joined_sources[i])
    vocab.update(copies, edited)
    for unit, n in copies.items():
        if n > 0:
            ch_counts.setdefault(unit, Counter())[unit] += n


def _check_units(pairs: Sequence[ParallelPair]) -> None:
    """Raise check_scalars' NormalizationError for the first text of the
    pairs that holds a rejected unit, prefixed with its place. The texts
    are tested joined first, by rejected_in, which is exact (see there)."""
    sources = "".join(map(itemgetter(0), pairs))
    refs = "".join(chain.from_iterable(map(itemgetter(1), pairs)))
    if not (rejected_in(sources) or rejected_in(refs)):
        return
    for n, (source, references) in enumerate(pairs):
        named = [("source", source), *((f"references[{r}]", t) for r, t in enumerate(references))]
        for field, text in named:
            try:
                check_scalars(text)
            except NormalizationError as exc:
                raise NormalizationError(f"pairs[{n}].{field}: {exc}") from None


def stage_heldout(corpus: Corpus, heldout_fraction: float, seed: int) -> Corpus:
    """The held-out slice fit_stage tunes on: split's, reproducible from its
    arguments. It equals the slice that the fitted model's tuning holds, and
    splits the corpus again to make it."""
    return split(corpus, heldout_fraction, seed)[1]


def fit_stage(
    init: MixtureCorrectorModel, corpus: Corpus, heldout_fraction: float = 0.1, seed: int = 0
) -> MixtureCorrectorModel:
    """The curriculum stage after init's: accumulate corpus counts onto
    init's, then pick the mixing weight minimizing the held-out objective.
    The LM order and each table's smoothing_k are init's.

    The candidates are DEFAULT_MIX_GRID plus init's weight, so on the slice
    the search runs over the tuned objective cannot exceed init's under the
    same counts. The returned model's tuning records the search: the slice
    (held by reference), the grid and the objective at each weight. Only
    the model returned here carries it. Deterministic for a fixed seed. An
    empty corpus splits into two empty corpora, and its stage keeps init's
    counts and weight; with an empty slice nothing is scored, and tuning is
    None.

    A pair whose source or a reference holds a reserved unit (BOUNDARY,
    UNK) or a surrogate is refused, as the corpus readers refuse it: a
    NormalizationError names the first such text, e.g. "pairs[3].source:
    reserved unit U+0002 at byte offset 3". So training never counts
    BOUNDARY or UNK.
    """
    if init.stage is Stage.STAGE2:
        raise ConfigError("a stage2 model is fully trained: no stage follows it")
    _check_units(corpus)
    stage = Stage.STAGE2 if init.stage is Stage.STAGE1 else Stage.STAGE1
    train_part, heldout_part = split(corpus, heldout_fraction, seed)
    lm_counts = {key: Counter(c) for key, c in init.lm.counts.items()}
    ch_counts = {key: Counter(c) for key, c in init.channel.counts.items()}
    vocab = set(init.vocab)
    _accumulate(lm_counts, ch_counts, vocab, init.lm.order, train_part)

    fitted = MixtureCorrectorModel(
        init.lm._replace(counts=lm_counts), init.channel._replace(counts=ch_counts),
        frozenset(vocab), init.mixing_weight, stage,
    )
    if not heldout_part:
        return fitted

    grid = tuple(sorted(set(DEFAULT_MIX_GRID) | {init.mixing_weight}))
    objectives = tuple(dataset_objective(fitted, heldout_part, grid))
    _, best_weight = min(zip(objectives, grid))
    tuned = fitted._replace(mixing_weight=best_weight)
    vars(tuned)["tuning"] = Tuning(heldout_part, grid, objectives)
    return tuned


def _options(model: MixtureCorrectorModel, unit: str) -> tuple[tuple[str, str, float], ...]:
    """decode's options at source unit: the unit and its channel partners,
    in code-point order, each as (option, vocab-mapped option, channel
    probability given unit)."""
    vocab = model.vocab
    options = sorted({unit, *model.channel.partners(unit)})
    mapped = [option if option in vocab else UNK for option in options]
    src = unit if unit in vocab else UNK
    ch_ps = _add_k(model.channel, model._channel_totals, len(vocab), repeat(src), mapped)
    return tuple(zip(options, mapped, ch_ps))


def _column(
    model: MixtureCorrectorModel, options: tuple[tuple[str, str, float], ...], state: str
) -> tuple[tuple[float, str, str], ...]:
    """The (step, option, next state) of each of a source unit's _options in
    the LM state state: step is -log conditional(model, prefix, unit,
    option), by its float expressions, for a prefix of that LM context, and
    next state is state + the mapped option less its first unit. At mixing
    weight 0 state is "" and each step is -log(ch_p), as 0.0 * lm_p is 0.0."""
    lam = model.mixing_weight
    units = [mapped for _, mapped, _ in options]
    lm_ps = _add_k(model.lm, model._lm_totals, len(model.vocab), repeat(state), units)
    return tuple(
        (-math.log(lam * lm_p + (1.0 - lam) * ch_p), option, (state + mapped)[1:])
        for (option, mapped, ch_p), lm_p in zip(options, lm_ps)
    )


def decode(model: MixtureCorrectorModel, src: str, beam_width: int = 8) -> str:
    """Substitution-only beam search with hypothesis recombination.

    At source position i the lattice offers the source unit itself plus
    every unit the channel has seen emitted for it. A hypothesis's cost is
    its summed -log conditional, added left to right; hypotheses are ranked
    by (cost, prefix), so cost ties break toward the prefix that is smallest
    in unit code-point order (prefixes are equal-length str, so plain str
    order). Output length always equals input length.

    A conditional reads only the LM context of the prefix, its last order-1
    units mapped to the vocab and padded with BOUNDARY (see _context_key),
    and at mixing weight 0 none of it, as the LM term is 0.0. A hypothesis's
    state is what is read: it starts as order-1 BOUNDARY units, or "" at
    weight 0, and each option appends its mapped unit and drops the first.
    Two hypotheses with one state get the same future increments and the
    costlier can never overtake the other. The beam therefore keeps one
    hypothesis per state, the least (cost, prefix), and beam_width counts
    states: after each position only the beam_width best survive. When the
    beam holds every state the search is exact (Viterbi); at weight 0 there
    is one state, so one hypothesis is kept and any beam_width is exact. It
    can change output only where a plain beam made a search error, usually
    to a cheaper output; but a cut beam is not monotone, since a freed slot
    changes which states survive later cuts, so the output can also cost
    more. Options outside the vocabulary all map to UNK, so where one source
    unit offers two or more of them they share a state, which can move the
    output of a cut beam; a trained model never offers two, since every unit
    it emits is in its vocabulary. One corner is left to rounding: two costs
    a < b of one state can round to the same sum after equal increments, and
    the prefix tie-break may then prefer the hypothesis that was dropped.

    model._columns maps each source unit to (its _options, a dict from state
    to its _column). Each is built once per model, so an expansion only adds
    its step, probes the state it leads to and compares; it builds a string
    only for the prefix of a hypothesis that wins its state.
    """
    if type(beam_width) is not int:
        raise StructuralError(f"beam_width must be an integer, got {beam_width!r}")
    if beam_width < 1:
        raise UsageError(f"beam_width must be >= 1, got {beam_width}")
    columns = model._columns
    start = BOUNDARY * (model.lm.order - 1) if model.mixing_weight else ""
    beams: dict[str, tuple[float, str]] = {start: (0.0, "")}
    for unit in src:
        cached = columns.get(unit)
        if cached is None:
            cached = columns[unit] = (_options(model, unit), {})
        options, by_state = cached
        expanded: dict[str, tuple[float, str]] = {}
        for state, (cost, prefix) in beams.items():
            column = by_state.get(state)
            if column is None:
                column = by_state[state] = _column(model, options, state)
            for step, option, key in column:
                total = cost + step
                held = expanded.get(key)
                if held is None or total < held[0] or (
                    total == held[0] and prefix + option < held[1]
                ):
                    expanded[key] = (total, prefix + option)
        if len(expanded) > beam_width:
            expanded = dict(sorted(expanded.items(), key=itemgetter(1))[:beam_width])
        beams = expanded
    return min(beams.values())[1]


def save_model(model: MixtureCorrectorModel, path: str) -> None:
    """Versioned JSON container; == models produce identical bytes, as a
    model holds only positive counts (Counter == ignores no other).
    The file is replaced whole (see write_artifact)."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "order": model.lm.order,
        "lm_smoothing_k": model.lm.smoothing_k,
        "channel_smoothing_k": model.channel.smoothing_k,
        "mixing_weight": model.mixing_weight,
        "stage": model.stage.value,
        "vocab": sorted(model.vocab),
        "lm_counts": model.lm.counts,
        "channel_counts": model.channel.counts,
    }
    write_artifact(
        path, json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":")) + "\n"
    )


def _count_table(raw: object) -> dict[str, Counter]:
    """A container's count table, key -> unit -> count, as JSON objects; the
    model checks the counts."""
    if not isinstance(raw, dict):
        raise StructuralError("a count table must be a JSON object")
    if not all(isinstance(counts, dict) for counts in raw.values()):
        raise StructuralError("counts must map single units to positive integers")
    return {key: Counter(counts) for key, counts in raw.items()}


def load_model(path: str) -> MixtureCorrectorModel:
    """Read a container written by save_model. An unreadable path is a
    UsageError; anything but a well-formed container is a FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise FormatError(f"{path}: not a model container: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise FormatError(f"{path}: not a {MODEL_FORMAT} container")
    if payload.get("version") != MODEL_VERSION:
        raise FormatError(
            f"{path}: container version {payload.get('version')!r} unsupported, "
            f"expected {MODEL_VERSION}"
        )
    try:
        vocab = payload["vocab"]
        if type(vocab) is not list or not all(type(u) is str and len(u) == 1 for u in vocab):
            raise StructuralError("vocab must be a list of single units")
        lm_counts = _count_table(payload["lm_counts"])
        ch_counts = _count_table(payload["channel_counts"])
        return MixtureCorrectorModel(
            lm=NgramLM(payload["order"], payload["lm_smoothing_k"], lm_counts),
            channel=ConfusionChannel(payload["channel_smoothing_k"], ch_counts),
            vocab=frozenset(vocab),
            mixing_weight=payload["mixing_weight"],
            stage=Stage(payload["stage"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError, ZhcorrectError) as exc:
        raise FormatError(f"{path}: malformed model container: {exc}") from None
