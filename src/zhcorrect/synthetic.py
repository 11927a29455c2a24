"""Seeded generator for the bundled toy corpora the training tests run on.

Sentences are concatenations of two-character words from a fixed inventory,
so a trigram LM can actually learn the within-word transitions. Corruption
comes in two flavours:

  * spelling-style: substitute a confusable character. Most wrong
    characters live outside the word inventory, so the corrected side never
    contains them; one planted pair (the second character of "工作"
    swapped to "做", itself a legitimate word-initial character) forces the
    decoder to use context rather than the channel alone.
  * grammar-style: duplicate or drop one character, changing the length.

The grammar-style pairs appear only in training corpora; the decode
evaluation set is spelling-style with at least one corruption per sentence,
so the do-nothing baseline is exactly zero.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, NamedTuple

from .corpus import Corpus, ParallelPair

WORD_INVENTORY: tuple[str, ...] = (
    "今天", "天气", "很好", "我们", "学校", "学生", "老师", "工作", "做饭", "吃饭",
    "喜欢", "学习", "汉语", "说话", "朋友", "时间", "问题", "知道", "觉得", "高兴",
)

# gold character -> the wrong character it gets typed as. Only 作→做 maps
# into the inventory; the rest are out-of-inventory lookalikes/homophones.
CONFUSION: dict[str, str] = {
    "作": "做",
    "气": "汽",
    "好": "号",
    "师": "狮",
    "饭": "反",
    "语": "雨",
    "题": "提",
    "道": "到",
    "间": "见",
    "很": "狠",
    "欢": "换",
}

_ELIGIBLE_WORDS = tuple(w for w in WORD_INVENTORY if any(c in CONFUSION for c in w))

SUBSTITUTION_RATE = 0.25


class SyntheticSuite(NamedTuple):
    stage1: Corpus
    csc: Corpus
    cgc: Corpus
    joint: Corpus
    eval_csc: Corpus


def _sentence(rng: random.Random, force_eligible: bool = False) -> str:
    words = [rng.choice(WORD_INVENTORY) for _ in range(rng.randint(3, 6))]
    if force_eligible and not any(c in CONFUSION for w in words for c in w):
        words[rng.randrange(len(words))] = rng.choice(_ELIGIBLE_WORDS)
    return "".join(words)


def _substitute(rng: random.Random, text: str, force: bool = False) -> str:
    eligible = [i for i, c in enumerate(text) if c in CONFUSION]
    chars = list(text)
    hit = False
    for i in eligible:
        if rng.random() < SUBSTITUTION_RATE:
            chars[i] = CONFUSION[chars[i]]
            hit = True
    if force and not hit and eligible:
        i = rng.choice(eligible)
        chars[i] = CONFUSION[chars[i]]
    return "".join(chars)


def _length_error(rng: random.Random, text: str) -> str:
    i = rng.randrange(len(text))
    if rng.random() < 0.5:
        return text[: i + 1] + text[i] + text[i + 1 :]
    return text[:i] + text[i + 1 :]


def _mixed_error(rng: random.Random, text: str) -> str:
    text = _substitute(rng, text)
    return _length_error(rng, text) if rng.random() < 0.3 else text


def _corpus(
    size: int, rng: random.Random, corrupt: Callable[[random.Random, str], str], force: bool = False
) -> Corpus:
    """size pairs of corrupt(rng, clean) and clean, each clean sentence drawn
    before its corruption."""
    pairs = []
    for _ in range(size):
        clean = _sentence(rng, force_eligible=force)
        pairs.append(ParallelPair(corrupt(rng, clean), (clean,)))
    return Corpus(pairs)


def make_suite(
    seed: int = 0,
    stage1_size: int = 2000,
    csc_size: int = 1000,
    cgc_size: int = 1000,
    eval_size: int = 200,
) -> SyntheticSuite:
    """Build the full suite deterministically from one seed.

    The evaluation set draws from an offset seed so it never repeats
    training sentences verbatim by construction of the stream, and every
    evaluation source carries at least one substitution.
    """
    rng = random.Random(seed)
    stage1 = _corpus(stage1_size, rng, _mixed_error)
    csc = _corpus(csc_size, rng, _substitute)
    cgc = _corpus(cgc_size, rng, _length_error)
    joint = Corpus(csc + cgc)
    eval_rng = random.Random(seed + 7919)
    eval_csc = _corpus(eval_size, eval_rng, partial(_substitute, force=True), force=True)
    return SyntheticSuite(stage1=stage1, csc=csc, cgc=cgc, joint=joint, eval_csc=eval_csc)
