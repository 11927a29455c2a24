"""Acceptance gate: one test per numbered criterion.

Each test is self-contained (no shared fixtures) so per-criterion runtime
budgets are measured around the full workload. The terminal summary prints
one PASS/FAIL line per criterion; see conftest.py.
"""

import ast
import importlib.metadata
import io
import math
import random
import sys
import time
from pathlib import Path

import pytest

import zhcorrect
from zhcorrect import (
    MatchCounts,
    MergePolicy,
    align,
    apply_edits,
    extract_edits,
    f_beta,
    format_edit_records,
    macro_average,
    parse_edit_file,
    precision_recall,
    score_cgc,
    score_csc,
)
from zhcorrect.model import dataset_objective, decode, fit_stage, initial_model, stage_heldout
from zhcorrect.synthetic import make_suite

from oracles import oracle_min_cost

_CJK = [chr(c) for c in range(0x4E00, 0x4E00 + 120)]


def test_criterion_1_f05_reproduces_reference_rows():
    rows = [
        (0.3882, 0.1558, 0.2990),
        (0.5708, 0.1294, 0.3394),
        (0.5095, 0.3129, 0.4526),
        (0.5420, 0.3475, 0.4874),
    ]
    for p, r, expected in rows:
        assert abs(f_beta(p, r, 0.5) - expected) < 1e-4


def test_criterion_2_macro_average_reproduces_reference_rows():
    rows = [
        ((0.3147, 0.3763, 0.3317), 0.3409),
        ((0.8383, 0.3357, 0.1318), 0.4353),
        ((0.8314, 0.1610, 0.2055), 0.3993),
        ((0.4917, 0.9798, 0.9959), 0.8225),
        ((0.6340, 0.9360, 0.9864), 0.8521),
    ]
    for scores, expected in rows:
        assert abs(macro_average(scores) - expected) < 5e-5


def _random_pair(rng, max_total=12):
    n = rng.randint(0, max_total // 2)
    if rng.random() < 0.5:
        # independent strings
        m = rng.randint(0, max_total - n)
        s = "".join(rng.choice(_CJK) for _ in range(n))
        t = "".join(rng.choice(_CJK) for _ in range(m))
    else:
        # corruption of a shared base, so matches actually occur
        s = "".join(rng.choice(_CJK) for _ in range(n))
        chars = list(s)
        for _ in range(rng.randint(0, 3)):
            if not chars:
                break
            i = rng.randrange(len(chars))
            roll = rng.random()
            if roll < 0.4:
                chars[i] = rng.choice(_CJK)
            elif roll < 0.7 and len(s) + len(chars) < max_total:
                chars.insert(i, rng.choice(_CJK))
            else:
                del chars[i]
        t = "".join(chars)
        if n + len(t) > max_total:
            t = t[: max_total - n]
    return s, t


def test_criterion_3_alignment_matches_bruteforce_oracle():
    started = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        src, tgt = _random_pair(rng)
        ops = align(src, tgt)
        # At unit costs the path's cost is its number of codes other than M.
        assert len(ops) - ops.count("M") == oracle_min_cost(src, tgt)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_4_edit_roundtrip_both_policies():
    started = time.perf_counter()
    rng = random.Random(777)
    for _ in range(1000):
        base = "".join(rng.choice(_CJK) for _ in range(rng.randint(1, 14)))
        chars = list(base)
        for _ in range(rng.randint(0, 5)):
            if not chars:
                break
            i = rng.randrange(len(chars))
            roll = rng.random()
            if roll < 0.4:
                chars[i] = rng.choice(_CJK)
            elif roll < 0.7:
                chars.insert(i, rng.choice(_CJK))
            else:
                del chars[i]
        src, tgt = "".join(chars), base
        for policy in MergePolicy:
            assert apply_edits(src, extract_edits(src, tgt, policy)) == tgt
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"roundtrip sweep took {elapsed:.1f}s"


def test_criterion_5_scorer_fixed_points():
    rows = [("天汽很好", "天气很好"), ("我们学习", "我们学习"), ("他是学生生", "他是学生")]
    sources = [s for s, _ in rows]
    refs = [r for _, r in rows]

    perfect = score_csc([(s, r, r) for s, r in zip(sources, refs)])
    assert perfect.f_beta == pytest.approx(1.0, abs=1e-12)
    lazy = score_csc([(s, r, s) for s, r in zip(sources, refs)])
    assert lazy.f_beta == 0.0

    gold_text = format_edit_records(
        [
            (s, [extract_edits(s, r)])
            for i, (s, r) in enumerate(zip(sources, refs))
        ]
    )
    gold = parse_edit_file(io.StringIO(gold_text))
    assert score_cgc(list(zip(sources, refs)), gold).f_beta == pytest.approx(1.0, abs=1e-12)
    assert score_cgc(list(zip(sources, sources)), gold).f_beta == 0.0

    # zero-denominator cases return 0 rather than raising
    assert f_beta(0.0, 0.0, 0.5) == 0.0
    assert f_beta(0.0, 0.0, 1.0) == 0.0
    assert precision_recall(MatchCounts(0, 0, 0)) == (0.0, 0.0)
    clean = ["我们学习", "吃饭时间"]
    all_clean = score_csc([(c, c, c) for c in clean])
    assert all_clean.precision == all_clean.recall == all_clean.f_beta == 0.0


def test_criterion_6_staged_training_non_regression():
    started = time.perf_counter()
    suite = make_suite(seed=0, stage1_size=2000, csc_size=1000, cgc_size=1000)
    theta1 = fit_stage(initial_model(), suite.stage1)
    theta2 = fit_stage(theta1, suite.joint)
    heldout = stage_heldout(suite.joint, 0.1, 0)
    before = dataset_objective(theta1, heldout)
    after = dataset_objective(theta2, heldout)
    assert math.isfinite(before) and math.isfinite(after)
    assert after <= before + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"staged training took {elapsed:.1f}s"


def test_criterion_7_end_to_end_lift_over_do_nothing():
    started = time.perf_counter()
    suite = make_suite(seed=0, stage1_size=2000, csc_size=1000, cgc_size=1000, eval_size=200)
    theta1 = fit_stage(initial_model(), suite.stage1)
    theta2 = fit_stage(theta1, suite.joint)

    items = []
    baseline = []
    for pair in suite.eval_csc.pairs:
        hyp = decode(theta2, pair.source)
        items.append((pair.source, pair.references[0], hyp))
        baseline.append((pair.source, pair.references[0], pair.source))
    lift = score_csc(items)
    assert score_csc(baseline).f_beta == 0.0
    assert lift.f_beta >= 0.6, f"decoded F1 {lift.f_beta:.4f} below threshold"
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"end-to-end run took {elapsed:.1f}s"


def test_criterion_8_offline_and_out_of_scope_models():
    # the reference tables' model-quality numbers come from a fine-tuned LLM
    # and are out of scope; the toolkit must run fully offline with no
    # network, model-download, or GPU machinery anywhere in the package
    package_root = Path(zhcorrect.__file__).resolve().parent
    banned = (
        "urllib", "http://", "https://", "requests", "socket",
        "torch", "cuda", "transformers", "huggingface",
    )
    # no runtime dependencies in the code: every absolute import is from
    # the standard library or the package itself
    allowed = set(sys.stdlib_module_names) | {"zhcorrect"}
    for source_file in sorted(package_root.glob("*.py")):
        text = source_file.read_text(encoding="utf-8")
        for needle in banned:
            assert needle not in text.lower(), f"{source_file.name} mentions {needle!r}"

        for node in ast.walk(ast.parse(text, str(source_file))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.partition(".")[0] in allowed, (
                    f"{source_file.name} imports {module!r}, "
                    "which is not in the standard library"
                )

    # no runtime dependencies declared, read from the declaration of the copy
    # that was imported: a source checkout has no installed metadata, and an
    # installed copy that PYTHONPATH shadows is not the one under test
    repo_root = Path(__file__).resolve().parent.parent
    if package_root.is_relative_to(repo_root / "src"):
        tomllib = pytest.importorskip("tomllib")
        with open(repo_root / "pyproject.toml", "rb") as f:
            runtime = tomllib.load(f)["project"].get("dependencies")
    else:
        requires = importlib.metadata.requires("zhcorrect") or []
        runtime = [r for r in requires if "extra" not in r]
    assert runtime == [], f"unexpected runtime dependencies: {runtime}"
