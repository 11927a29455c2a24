import hashlib

import pytest

from zhcorrect.synthetic import CONFUSION, WORD_INVENTORY, make_suite


def _small():
    return make_suite(seed=3, stage1_size=60, csc_size=30, cgc_size=30, eval_size=20)


def _decomposes_into_words(text):
    if len(text) % 2:
        return False
    return all(text[i : i + 2] in WORD_INVENTORY for i in range(0, len(text), 2))


def test_default_sizes():
    suite = make_suite(seed=0)
    assert len(suite.stage1) == 2000
    assert len(suite.csc) == 1000
    assert len(suite.cgc) == 1000
    assert len(suite.joint) == 2000
    assert len(suite.eval_csc) == 200


@pytest.mark.parametrize(
    ("sizes", "digest"),
    [
        ({}, "59f0a00b3a3984aa21bb1a60a30bda4ee2060594385b660e8465c86a35b22f2b"),
        # the benchmark's train inputs (twice the default sizes)
        (
            {"stage1_size": 4000, "csc_size": 2000, "cgc_size": 2000, "eval_size": 1},
            "62ed685ace0362047137d63fd79552f396c0a78928da395344e5441b5c47ada6",
        ),
        # the benchmark's correct lines draw on the evaluation set alone
        (
            {"stage1_size": 0, "csc_size": 0, "cgc_size": 0, "eval_size": 1500},
            "496e139a1a100d3d8929b963f50050121b46a473d50eb85b853688a22e7340b1",
        ),
    ],
    ids=["default", "train-2x", "eval-only"],
)
def test_seed_zero_pairs_are_pinned(sizes, digest):
    # The pairs every trained model, benchmark input and pin downstream is
    # built from: any change to the generator's draws shows here first.
    h = hashlib.sha256()
    for corpus in make_suite(0, **sizes):
        h.update(repr([(p.source, p.references) for p in corpus.pairs]).encode())
    assert h.hexdigest() == digest


def test_deterministic_per_seed():
    assert _small() == _small()
    assert make_suite(seed=1, stage1_size=40, csc_size=20, cgc_size=20, eval_size=10) != \
        make_suite(seed=2, stage1_size=40, csc_size=20, cgc_size=20, eval_size=10)


def test_references_decompose_into_inventory_words():
    suite = _small()
    for corpus in (suite.stage1, suite.csc, suite.cgc, suite.eval_csc):
        for pair in corpus.pairs:
            assert _decomposes_into_words(pair.references[0])


def test_spelling_corpora_substitute_in_place():
    suite = _small()
    for corpus in (suite.csc, suite.eval_csc):
        for pair in corpus.pairs:
            src, ref = pair.source, pair.references[0]
            assert len(src) == len(ref)
            for s_ch, r_ch in zip(src, ref):
                assert s_ch == r_ch or s_ch == CONFUSION.get(r_ch)


def test_eval_set_is_fully_corrupted():
    suite = _small()
    assert all(p.source != p.references[0] for p in suite.eval_csc.pairs)


def test_plain_csc_keeps_some_clean_pairs():
    suite = make_suite(seed=3, stage1_size=10, csc_size=200, cgc_size=10, eval_size=10)
    outcomes = {p.source == p.references[0] for p in suite.csc.pairs}
    assert outcomes == {True, False}


def test_grammar_corpus_changes_length_by_one():
    suite = _small()
    for pair in suite.cgc.pairs:
        assert abs(len(pair.source) - len(pair.references[0])) == 1


def test_stage1_mixes_both_error_shapes():
    suite = make_suite(seed=3, stage1_size=300, csc_size=10, cgc_size=10, eval_size=10)
    deltas = {len(p.source) - len(p.references[0]) for p in suite.stage1.pairs}
    assert 0 in deltas
    assert deltas & {-1, 1}
    assert deltas <= {-1, 0, 1}


def test_joint_is_union_of_csc_and_cgc():
    suite = _small()
    joint_sources = sorted(p.source for p in suite.joint.pairs)
    part_sources = sorted(
        p.source for p in (*suite.csc.pairs, *suite.cgc.pairs)
    )
    assert joint_sources == part_sources
