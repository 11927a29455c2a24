import argparse
import errno
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import zhcorrect
from zhcorrect.cli import build_parser, main
from zhcorrect.model import initial_model, load_model, save_model
from zhcorrect.synthetic import make_suite
from zhcorrect.textnorm import NormalizePolicy

_GOLD_EDITS = (
    "S 他是学生生\n"
    "A 4 5|||del|||-NONE-|||0\n"
    "\n"
    "S 天汽很号\n"
    "A 1 2|||sub|||气|||0\n"
    "A 3 4|||sub|||好|||0\n"
    "\n"
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _tsv(path, rows):
    return _write(path, "".join("\t".join(row) + "\n" for row in rows))


def _suite_tsv(tmp_path, corpus, name):
    rows = [(p.source, *p.references) for p in corpus.pairs]
    return _tsv(tmp_path / name, rows)


@pytest.fixture()
def gold_tsv(tmp_path):
    return _tsv(
        tmp_path / "gold.tsv",
        [("天汽很好", "天气很好"), ("我们学习", "我们学习"), ("他是学圣", "他是学生")],
    )


def test_score_csc_perfect(tmp_path, gold_tsv, capsys):
    hyp = _write(tmp_path / "hyp.txt", "天气很好\n我们学习\n他是学生\n")
    assert main(["score-csc", hyp, gold_tsv]) == 0
    out = capsys.readouterr().out
    assert "F1" in out and "1.0000" in out


def test_score_csc_do_nothing(tmp_path, gold_tsv, capsys):
    hyp = _write(tmp_path / "hyp.txt", "天汽很好\n我们学习\n他是学圣\n")
    assert main(["score-csc", hyp, gold_tsv]) == 0
    assert "0.0000" in capsys.readouterr().out


def test_score_csc_line_count_mismatch(tmp_path, gold_tsv, capsys):
    hyp = _write(tmp_path / "hyp.txt", "天气很好\n我们学习\n")
    assert main(["score-csc", hyp, gold_tsv]) == 2
    err = capsys.readouterr().err
    assert "2 hypotheses" in err and "3 pairs" in err


def test_score_csc_gold_parse_error(tmp_path, capsys):
    gold = _write(tmp_path / "bad.tsv", "天汽很好\t天气很好\n只有一列\n")
    hyp = _write(tmp_path / "hyp.txt", "天气很好\n只有一列\n")
    assert main(["score-csc", hyp, gold]) == 2
    assert "line 2" in capsys.readouterr().err


# Line 1 of a file lies in its first block of 512 lines, and line 1,100 in
# its third.
_LATE = 1100
_NO_TAB = "expected a source and at least one reference (got 1 column)"


def _gold_text(n):
    return "".join(f"天汽{i}\t天气{i}\n" for i in range(n))


def _hyp_text(n):
    return "".join(f"天气{i}\n" for i in range(n))


def _bad_gold(tmp_path, kind):
    """A gold file of 1,200 pairs, bad in the given way, and its error."""
    path = tmp_path / "gold.tsv"
    good = _gold_text(1200).encode("utf-8")
    if kind == "missing":
        return str(path), f"error: cannot read {path}: "
    if kind == "not-utf8":
        path.write_bytes(good + b"\xff\t\xfe\n")
        return str(path), f"error: {path} is not UTF-8: "
    lines = _gold_text(1200).splitlines()
    lines[_LATE - 1] = {"no-tab": "只有一列", "reserved": "天\x1a\t天气"}[kind]
    _write(path, "".join(line + "\n" for line in lines))
    message = {"no-tab": _NO_TAB, "reserved": "reserved unit U+001A at byte offset 3"}[kind]
    return str(path), f"error: line {_LATE}: {message}\n"


def _bad_hyp(tmp_path, kind):
    """A hypothesis file of 1,200 lines, bad in the given way, and its error."""
    path = tmp_path / "hyp.txt"
    if kind == "missing":
        return str(path), f"error: cannot read {path}: "
    if kind == "not-utf8":
        path.write_bytes(b"\xff\n" + _hyp_text(1199).encode("utf-8"))
        return str(path), f"error: {path} is not UTF-8: "
    _write(path, "天\x02气\n" + _hyp_text(1199))
    return str(path), "error: line 1: reserved unit U+0002 at byte offset 3\n"


@pytest.mark.parametrize("hyp_kind", ["missing", "not-utf8", "reserved"])
@pytest.mark.parametrize("gold_kind", ["missing", "not-utf8", "no-tab", "reserved"])
def test_score_csc_reports_the_gold_error_when_both_files_are_bad(
    tmp_path, capsys, gold_kind, hyp_kind
):
    # The gold file is read to its end before a hypothesis error is raised,
    # even when the hypotheses fail on their first line.
    gold, gold_error = _bad_gold(tmp_path, gold_kind)
    hyp, _ = _bad_hyp(tmp_path, hyp_kind)
    assert main(["score-csc", hyp, gold]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(gold_error)


@pytest.mark.parametrize("hyp_kind", ["missing", "not-utf8", "reserved"])
def test_score_csc_reports_a_hypothesis_error_after_a_good_gold_file(tmp_path, capsys, hyp_kind):
    gold = _write(tmp_path / "gold.tsv", _gold_text(1200))
    hyp, hyp_error = _bad_hyp(tmp_path, hyp_kind)
    assert main(["score-csc", hyp, gold]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(hyp_error)


def test_score_csc_names_a_hypothesis_file_that_turns_out_not_utf8_late(tmp_path, capsys):
    gold = _write(tmp_path / "gold.tsv", _gold_text(3000))
    hyp = tmp_path / "hyp.txt"
    hyp.write_bytes(_hyp_text(2999).encode("utf-8") + b"\xe5\n")
    assert main(["score-csc", str(hyp), gold]) == 2
    assert capsys.readouterr().err.startswith(f"error: {hyp} is not UTF-8: ")


@pytest.mark.parametrize("extra", [1, 2 * 512 + 5])
def test_score_csc_a_bad_hypothesis_beyond_the_gold_beats_the_count_mismatch(
    tmp_path, capsys, extra
):
    gold = _write(tmp_path / "gold.tsv", _gold_text(600))
    lines = _hyp_text(600 + extra).splitlines()
    lines[-1] = "天\x1a"
    hyp = _write(tmp_path / "hyp.txt", "".join(line + "\n" for line in lines))
    assert main(["score-csc", hyp, gold]) == 2
    want = f"error: line {600 + extra}: reserved unit U+001A at byte offset 3\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("n_hyps", [1499, 1501, 0])
def test_score_csc_count_mismatch_gives_both_full_counts(tmp_path, capsys, n_hyps):
    gold = _write(tmp_path / "gold.tsv", _gold_text(1500))
    hyp = _write(tmp_path / "hyp.txt", _hyp_text(n_hyps))
    assert main(["score-csc", hyp, gold]) == 2
    assert capsys.readouterr().err == (
        f"error: line count mismatch: {hyp} has {n_hyps} hypotheses, {gold} has 1500 pairs\n"
    )


def test_score_csc_count_mismatch_against_an_empty_gold_file(tmp_path, capsys):
    gold = _write(tmp_path / "gold.tsv", "# only a comment\n")
    hyp = _write(tmp_path / "hyp.txt", _hyp_text(3))
    assert main(["score-csc", hyp, gold]) == 2
    assert capsys.readouterr().err == (
        f"error: line count mismatch: {hyp} has 3 hypotheses, {gold} has 0 pairs\n"
    )


def test_score_csc_empty_files_need_a_sentence(tmp_path, capsys):
    gold = _write(tmp_path / "gold.tsv", "")
    hyp = _write(tmp_path / "hyp.txt", "")
    assert main(["score-csc", hyp, gold]) == 2
    assert capsys.readouterr().err == "error: score_csc needs at least one sentence\n"


def test_score_csc_jsonl_duplicate_id_names_its_line(tmp_path, capsys):
    rows = [{"id": i, "source": "天汽", "references": ["天气"]} for i in ("a", "b", "a")]
    gold = _write(tmp_path / "gold.jsonl", "".join(json.dumps(r) + "\n" for r in rows))
    hyp = _write(tmp_path / "hyp.txt", "\x02\n天气\n天气\n")
    assert main(["score-csc", hyp, gold, "--format", "jsonl"]) == 2
    assert capsys.readouterr().err == "error: line 3: duplicate pair id 'a'\n"


def test_score_csc_scores_a_jsonl_gold_file(tmp_path, capsys):
    rows = [
        {"id": "x", "source": "天汽", "references": ["天气"]},
        {"id": "y", "source": "学圣", "references": ["学生"]},
    ]
    gold = _write(tmp_path / "gold.jsonl", "".join(json.dumps(r) + "\n" for r in rows))
    hyp = _write(tmp_path / "hyp.txt", "天气\n学圣\n")
    assert main(["score-csc", hyp, gold, "--format", "jsonl"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (report["dataset"], report["tp"], report["fp"], report["fn"]) == ("gold", 1, 0, 1)


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
def test_score_csc_refuses_a_gold_pair_with_two_references(tmp_path, capsys, fmt):
    # The hypothesis equals the second reference: scoring it against the
    # first alone would count a miss and a false alarm. A gold error comes
    # before the hypotheses' (line 2 holds a reserved unit).
    rows = [("天气", "天气"), ("甲乙丙", "甲乙丁", "甲乙戊"), ("学生", "学生")]
    if fmt == "tsv":
        gold = _tsv(tmp_path / "gold.tsv", rows)
    else:
        lines = (
            json.dumps({"id": str(i), "source": s, "references": refs}) + "\n"
            for i, (s, *refs) in enumerate(rows)
        )
        gold = _write(tmp_path / "gold.jsonl", "".join(lines))
    for hyps in ("天气\n甲乙戊\n学生\n", "天气\n\x02\n学生\n"):
        hyp = _write(tmp_path / "hyp.txt", hyps)
        assert main(["score-csc", hyp, gold, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gold pair 1: 2 references for one source; score-csc reads one\n"


def _score_csc_peak(folder, n):
    """The peak traced memory of an in-process score-csc run on n lines of
    20-80 units, every fifth one changed by its reference."""
    folder.mkdir()
    text = "天气很好我们学习他是学生今天下雨明天晴朗" * 5
    gold, hyps = [], []
    for i in range(n):
        source = text[i % 20 : i % 20 + 20 + i % 61]
        reference = source.replace("天", "大") if i % 5 == 0 else source
        gold.append(f"{source}\t{reference}\n")
        hyps.append((reference if i % 3 else source) + "\n")
    gold_path, hyp_path = _write(folder / "gold.tsv", "".join(gold)), _write(folder / "hyp.txt", "".join(hyps))
    del gold, hyps
    tracemalloc.start()
    try:
        assert main(["score-csc", hyp_path, gold_path]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_score_csc_memory_does_not_grow_with_the_corpus(tmp_path, capsys):
    # Each file is read a block at a time and each row is counted as it is
    # read, so eight times the lines must not take much more memory.
    _score_csc_peak(tmp_path / "warm", 16)
    small = _score_csc_peak(tmp_path / "small", 4096)
    large = _score_csc_peak(tmp_path / "large", 32768)
    assert large < 1.5 * small, (small, large)
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["n_sentences"] == 32768


def test_score_csc_macro(tmp_path, capsys):
    paths = []
    for i, f in enumerate((0.6340, 0.9360, 0.9864)):
        paths.append(_write(tmp_path / f"r{i}.json", json.dumps({"f_beta": f})))
    assert main(["score-csc", "--macro", *paths]) == 0
    assert "Avg. F1 0.8521" in capsys.readouterr().out


def test_score_csc_macro_out_writes_the_average_and_manifest(tmp_path, capsys):
    paths = [_write(tmp_path / f"r{i}.json", json.dumps({"f_beta": f})) for i, f in enumerate((0.5, 1.0))]
    assert main(["score-csc", "--macro", *paths]) == 0
    assert capsys.readouterr().out == "Avg. F1 0.7500\n"
    out = tmp_path / "avg.txt"
    assert main(["score-csc", "--macro", *paths, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == "Avg. F1 0.7500\n"
    manifest = json.loads((tmp_path / "avg.txt.manifest.json").read_text())
    assert manifest["command"] == "score-csc" and set(manifest["inputs"]) == set(paths)


def test_score_csc_macro_rejects_non_reports(tmp_path, capsys):
    bad = _write(tmp_path / "r.json", json.dumps({"precision": 1.0}))
    assert main(["score-csc", "--macro", bad]) == 2
    assert "f_beta" in capsys.readouterr().err


def test_score_csc_single_file_is_usage_error(tmp_path, capsys):
    hyp = _write(tmp_path / "hyp.txt", "天气很好\n")
    assert main(["score-csc", hyp]) == 2


def test_score_csc_out_writes_report_and_manifest(tmp_path, gold_tsv, capsys, monkeypatch):
    # Relative paths, so that the configuration hash is a fixed value: the
    # options as parsed, and not the command's clock.
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "hyp.txt", "天气很好\n我们学习\n他是学生\n")
    assert main(["score-csc", "hyp.txt", "gold.tsv", "--out", "report.json"]) == 0
    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert payload["f_beta"] == pytest.approx(1.0)
    assert payload["task"] == "csc"
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert set(manifest) == {
        "command", "config_hash", "inputs", "seed", "version", "wall_time_s",
    }
    assert manifest["config_hash"] == "sha256:fcdc0c4bd27e871fe57bb34361b274f87c19c069a20f315639ca166fcb1a7486"
    assert manifest["version"] == zhcorrect.__version__
    assert manifest["wall_time_s"] >= 0
    assert set(manifest["inputs"]) == {"hyp.txt", "gold.tsv"}
    assert all(v.startswith("sha256:") for v in manifest["inputs"].values())


def test_manifest_records_the_input_as_read_when_out_overwrites_it(tmp_path, capsys):
    model = tmp_path / "model.json"
    save_model(initial_model(), str(model))
    # No final line feed, so each artifact differs from the input it replaces.
    lines = _write(tmp_path / "in.txt", "天汽很好")
    pairs = _write(tmp_path / "pairs.tsv", "天汽很好\t天气很好")
    stage1 = _tsv(tmp_path / "stage1.tsv", [("天汽很好", "天气很好"), ("他是学圣", "他是学生")])
    stage2 = _tsv(tmp_path / "stage2.tsv", [("我们学习", "我们学习")])
    for argv, path in (
        (["correct", str(model), lines, "--out", lines], lines),
        (["extract-edits", pairs, "--out", pairs], pairs),
        (["train", "--stage1", stage1, "--stage2", stage2, "--out", stage1], stage1),
    ):
        read = Path(path).read_bytes()
        assert main(argv) == 0, argv
        assert Path(path).read_bytes() != read
        manifest = json.loads(Path(path + ".manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"][path] == "sha256:" + hashlib.sha256(read).hexdigest()


def test_score_cgc_fixture_numbers(tmp_path, capsys):
    gold = _write(tmp_path / "gold.m2", _GOLD_EDITS)
    hyp = _tsv(tmp_path / "hyp.tsv", [("他是学生生", "他是学生"), ("天汽很号", "天汽很呺")])
    assert main(["score-cgc", hyp, gold]) == 0
    out = capsys.readouterr().out
    assert "F0.5" in out
    assert "0.5000" in out and "0.3333" in out and "0.4545" in out


def test_score_cgc_beta_flag(tmp_path, capsys):
    gold = _write(tmp_path / "gold.m2", _GOLD_EDITS)
    hyp = _tsv(tmp_path / "hyp.tsv", [("他是学生生", "他是学生"), ("天汽很号", "天汽很呺")])
    assert main(["score-cgc", hyp, gold, "--beta", "1"]) == 0
    out = capsys.readouterr().out
    assert "F1" in out and "0.4000" in out


@pytest.mark.parametrize("beta", ["0", "-1", "nan", "inf"])
def test_score_cgc_rejects_a_beta_that_is_not_finite_and_positive(tmp_path, capsys, monkeypatch, beta):
    gold = _write(tmp_path / "gold.m2", _GOLD_EDITS)
    hyp = _tsv(tmp_path / "hyp.tsv", [("他是学生生", "他是学生"), ("天汽很号", "天汽很呺")])

    def no_align(src, tgt):
        raise AssertionError("a sentence was aligned before beta was checked")

    monkeypatch.setattr("zhcorrect.edits.align", no_align)
    assert main(["score-cgc", hyp, gold, "--beta", beta]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: beta must be finite and > 0, got {float(beta)}"]


def test_score_cgc_rejects_a_beta_whose_square_overflows(tmp_path, capsys):
    gold = _write(tmp_path / "gold.m2", _GOLD_EDITS)
    hyp = _tsv(tmp_path / "hyp.tsv", [("他是学生生", "他是学生"), ("天汽很号", "天汽很呺")])
    assert main(["score-cgc", hyp, gold, "--beta", "1e200"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: beta must have a finite square, got 1e+200"]


def _bom_file(path, text):
    path.write_text(text, encoding="utf-8-sig")
    return str(path)


@pytest.mark.parametrize("bom", ["gold", "hyp"])
def test_score_csc_reads_past_a_byte_order_mark(tmp_path, capsys, bom):
    # With the mark kept, a gold source "\ufeff好" read as a change the gold
    # never made (tp 1), and a marked hypothesis as a false positive.
    gold = (_bom_file if bom == "gold" else _write)(tmp_path / "gold.tsv", "好\t好\n")
    hyp = (_bom_file if bom == "hyp" else _write)(tmp_path / "hyp.txt", "好\n")
    report = tmp_path / "r.json"
    assert main(["score-csc", hyp, gold, "--out", str(report)]) == 0
    counts = json.loads(report.read_text(encoding="utf-8"))
    assert (counts["tp"], counts["fp"], counts["fn"]) == (0, 0, 0)


def test_score_cgc_reads_past_a_byte_order_mark(tmp_path, capsys):
    gold = _bom_file(tmp_path / "gold.m2", _GOLD_EDITS)
    hyp = _bom_file(tmp_path / "hyp.tsv", "他是学生生\t他是学生\n天汽很号\t天汽很呺\n")
    assert main(["score-cgc", hyp, gold]) == 0
    assert "0.5000" in capsys.readouterr().out


def test_score_cgc_rejects_a_gold_span_past_its_source(tmp_path, capsys):
    gold = _write(tmp_path / "gold.m2", "S 天气\nA 5 6|||sub|||x|||0\n\n")
    hyp = _tsv(tmp_path / "hyp.tsv", [("天气", "天气")])
    assert main(["score-cgc", hyp, gold]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: line 2: edit span [5,6) exceeds source length 2"]


@pytest.mark.parametrize(
    "line",
    ["A 1_0 1_1|||sub|||戊|||0", "A \u0661 \u0662|||sub|||戊|||0", "A 1 2|||sub|||戊|||-1"],
)
def test_score_cgc_rejects_a_gold_span_or_ref_id_not_in_ascii_digits(tmp_path, capsys, line):
    # int() reads "1_0" as 10 and Arabic-Indic digits as 1 and 2; the
    # grammar writes neither, nor a negative ref id.
    gold = _write(tmp_path / "gold.m2", f"S 甲乙丙丁戊己庚辛壬癸甲乙\n{line}\n\n")
    hyp = _tsv(tmp_path / "hyp.tsv", [("甲乙丙丁戊己庚辛壬癸甲乙", "甲乙丙丁戊己庚辛壬癸戊乙")])
    assert main(["score-cgc", hyp, gold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: bad span or ref id\n"


def test_score_cgc_missing_gold_record(tmp_path, capsys):
    gold = _write(tmp_path / "gold.m2", _GOLD_EDITS)
    hyp = _tsv(tmp_path / "hyp.tsv", [("从未见过", "从未见过")])
    assert main(["score-cgc", hyp, gold]) == 2
    assert "hypothesis count 1 differs from gold record count 2" in capsys.readouterr().err


def test_score_cgc_scores_its_own_gold_with_a_repeated_source(tmp_path, capsys):
    # Two lines share a source but fix different characters: the gold file
    # holds two records for one source, and each line is scored against its own.
    par = _tsv(tmp_path / "dup.tsv", [("天汽很号", "天气很号"), ("天汽很号", "天汽很好")])
    gold = str(tmp_path / "dup.m2")
    assert main(["extract-edits", par, "--out", gold]) == 0
    assert main(["score-cgc", par, gold]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (report["tp"], report["fp"], report["fn"]) == (2, 0, 0)
    assert report["f_beta"] == 1.0


@pytest.mark.parametrize(
    "raw, normalized", [(" padded", "padded"), ("e\u0301te\u0301", "\u00e9t\u00e9")]
)
def test_score_cgc_names_the_policy_for_an_unnormalized_gold_source(
    tmp_path, capsys, raw, normalized
):
    # The spans index the S line as written, so it is not normalized; the
    # hypothesis source is, and the message says that this is why they differ.
    gold = _write(tmp_path / "gold.m2", f"S {raw}\n\n")
    hyp = _tsv(tmp_path / "hyp.tsv", [(raw, raw)])
    assert main(["score-cgc", hyp, gold]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: hypothesis 0: source {normalized!r} differs from gold record source "
        f"{raw!r}; gold S lines are compared as written, while hypothesis sources "
        f"are read normalized\n"
    )
    assert main(["score-cgc", hyp, gold, "--normalize", "none"]) == 0
    capsys.readouterr()


def test_extract_edits_exact_output(tmp_path, capsys):
    parallel = _tsv(
        tmp_path / "par.tsv",
        [("他是学生生", "他是学生"), ("我们学习", "我们学习"), ("天汽很号", "天气很号", "天汽很好")],
    )
    assert main(["extract-edits", parallel]) == 0
    out = capsys.readouterr().out
    assert out == (
        "S 他是学生生\n"
        "A 4 5|||del|||-NONE-|||0\n"
        "\n"
        "S 我们学习\n"
        "\n"
        "S 天汽很号\n"
        "A 1 2|||sub|||气|||0\n"
        "A 3 4|||sub|||好|||1\n"
        "\n"
    )


def test_extract_then_score_closes_to_one(tmp_path, capsys):
    rows = [("他是学生生", "他是学生"), ("天汽很号", "天气很号", "天汽很好"), ("工做很忙", "工作很忙")]
    parallel = _tsv(tmp_path / "par.tsv", rows)
    hyp = _tsv(tmp_path / "hyp.tsv", [row[:2] for row in rows])
    gold = tmp_path / "gold.m2"
    assert main(["extract-edits", parallel, "--out", str(gold)]) == 0
    assert main(["score-cgc", hyp, str(gold)]) == 0
    assert "1.0000" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
def test_score_cgc_refuses_a_row_with_two_hypotheses(tmp_path, capsys, fmt):
    # One hypothesis per source: a second one would be dropped unscored.
    gold = _write(tmp_path / "gold.m2", _GOLD_EDITS)
    rows = [("他是学生生", ["他是学生"]), ("天汽很号", ["天气很号", "天汽很好"])]
    if fmt == "tsv":
        hyp = _tsv(tmp_path / "hyp.tsv", [(source, *refs) for source, refs in rows])
    else:
        lines = [
            json.dumps({"id": str(i), "source": source, "references": refs}) + "\n"
            for i, (source, refs) in enumerate(rows)
        ]
        hyp = _write(tmp_path / "hyp.jsonl", "".join(lines))
    assert main(["score-cgc", hyp, gold, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: hypothesis 1: 2 hypotheses for one source; score-cgc reads one\n"


def _train_files(tmp_path):
    suite = make_suite(seed=0, stage1_size=300, csc_size=150, cgc_size=150, eval_size=40)
    stage1 = _suite_tsv(tmp_path, suite.stage1, "stage1.tsv")
    csc = _suite_tsv(tmp_path, suite.csc, "csc.tsv")
    cgc = _suite_tsv(tmp_path, suite.cgc, "cgc.tsv")
    eval_src = _write(
        tmp_path / "eval.txt", "".join(p.source + "\n" for p in suite.eval_csc.pairs)
    )
    eval_gold = _suite_tsv(tmp_path, suite.eval_csc, "eval.tsv")
    return stage1, csc, cgc, eval_src, eval_gold


def test_train_correct_score_pipeline(tmp_path, capsys):
    stage1, csc, cgc, eval_src, eval_gold = _train_files(tmp_path)
    model = tmp_path / "model.json"
    rc = main(["train", "--stage1", stage1, "--stage2", csc, cgc, "--out", str(model)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stage-1 heldout objective:" in out
    assert "stage-2 heldout objective:" in out
    assert "mixing weight:" in out
    assert model.exists()
    manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
    assert set(manifest["inputs"]) == {stage1, csc, cgc}

    again = tmp_path / "model2.json"
    assert main(["train", "--stage1", stage1, "--stage2", csc, cgc, "--out", str(again)]) == 0
    capsys.readouterr()
    assert model.read_bytes() == again.read_bytes()

    fixed = tmp_path / "fixed.txt"
    assert main(["correct", str(model), eval_src, "--out", str(fixed)]) == 0
    fixed_lines = fixed.read_text(encoding="utf-8").splitlines()
    src_lines = (tmp_path / "eval.txt").read_text(encoding="utf-8").splitlines()
    assert len(fixed_lines) == len(src_lines)
    assert all(len(a) == len(b) for a, b in zip(fixed_lines, src_lines))
    assert fixed_lines != src_lines  # the decoder did something

    assert main(["score-csc", str(fixed), eval_gold]) == 0
    capsys.readouterr()


_PINNED_MODEL_SHA256 = "039dd0c055eefd03d1766e7027d629d6f414d218c27a2d556d017d18acab1a86"


def _train_pinned(tmp_path, *options):
    suite = make_suite(0)
    stage1 = _suite_tsv(tmp_path, suite.stage1, "stage1.tsv")
    csc = _suite_tsv(tmp_path, suite.csc, "csc.tsv")
    cgc = _suite_tsv(tmp_path, suite.cgc, "cgc.tsv")
    model = tmp_path / "model.json"
    argv = ["train", "--stage1", stage1, "--stage2", csc, cgc, "--seed", "0", "--out", str(model)]
    assert main([*argv, *options]) == 0
    return suite, model


def test_train_writes_the_pinned_model_bytes(tmp_path, capsys):
    # Training's promise is byte-identical output: the model file and the
    # report lines of make_suite(0) are pinned here.
    _, model = _train_pinned(tmp_path)
    assert capsys.readouterr().out == (
        "stage-1 heldout objective: 1.269563\n"
        "stage-2 heldout objective: 0.855721\n"
        "mixing weight: 0\n"
    )
    assert hashlib.sha256(model.read_bytes()).hexdigest() == _PINNED_MODEL_SHA256


@pytest.mark.parametrize(
    ("order", "sha256"),
    [
        # Order 1 counts every unit under the one empty context key.
        ("1", "545c293016a8f5e8521ff4b2f925675cef5a0867ae2677a324484d0e3fbcf715"),
        # Order 5 pads each target with four BOUNDARY units.
        ("5", "7597a5834e8bf38565297684921ed9b41ba874e2c48e24a70a9d3d9f452703c5"),
    ],
)
def test_train_writes_the_pinned_model_bytes_at_other_orders(tmp_path, capsys, order, sha256):
    # Both orders pick weight 0, so the channel alone gives the objectives.
    _, model = _train_pinned(tmp_path, "--order", order)
    assert capsys.readouterr().out == (
        "stage-1 heldout objective: 1.270924\n"
        "stage-2 heldout objective: 0.855721\n"
        "mixing weight: 0\n"
    )
    assert hashlib.sha256(model.read_bytes()).hexdigest() == sha256


def test_train_reads_pairs_by_position_not_by_id(tmp_path, capsys):
    # The stage-2 files are joined in file order, whatever their ids: JSONL
    # files whose ids repeat across files train the model their rows give as
    # TSV, where an id is a position.
    suite, tsv_model = _train_pinned(tmp_path)
    tsv_out = capsys.readouterr().out
    paths = []
    for name, corpus in (("stage1", suite.stage1), ("csc", suite.csc), ("cgc", suite.cgc)):
        rows = (
            {"id": str(i), "source": p.source, "references": list(p.references)}
            for i, p in enumerate(corpus.pairs)
        )
        text = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
        paths.append(_write(tmp_path / f"{name}.jsonl", text))
    model = tmp_path / "jsonl-model.json"
    argv = ["train", "--stage1", paths[0], "--stage2", *paths[1:], "--format", "jsonl"]
    assert main([*argv, "--seed", "0", "--out", str(model)]) == 0
    assert capsys.readouterr().out == tsv_out
    assert model.read_bytes() == tsv_model.read_bytes()
    assert hashlib.sha256(model.read_bytes()).hexdigest() == _PINNED_MODEL_SHA256


def test_correct_writes_the_pinned_output(tmp_path, capsys):
    # Decoding's promise is byte-identical output too: the corrected lines of
    # make_suite(0).eval_csc under the pinned model.
    suite, model = _train_pinned(tmp_path)
    assert hashlib.sha256(model.read_bytes()).hexdigest() == _PINNED_MODEL_SHA256
    src = _write(tmp_path / "eval.txt", "".join(p.source + "\n" for p in suite.eval_csc.pairs))
    fixed = tmp_path / "fixed.txt"
    assert main(["correct", str(model), src, "--out", str(fixed)]) == 0
    digest = hashlib.sha256(fixed.read_bytes()).hexdigest()
    assert digest == "8127ce8d1547f172608fbe39ba7aa453c67a4cd8a86b1a4d09869931c439b934"


def _cgc_shaped_rows(seed):
    """Parallel and hypothesis TSV rows shaped like long CGC data: 300 lines
    of 60-200 units drawn from the synthetic word inventory, 1-4 errors per
    line (a substitution, a doubled unit or a dropped unit) at least 8 units
    apart, and a second reference on about 30 % of lines that leaves the
    last error alone. Each hypothesis fixes, keeps or miscorrects each error."""
    from zhcorrect.synthetic import WORD_INVENTORY

    rng = random.Random(seed)
    noise = [chr(c) for c in range(0x4E00, 0x4E00 + 200)]
    noise = [u for u in noise if u not in "".join(WORD_INVENTORY)]
    parallel, hyps = [], []
    for _ in range(300):
        length = rng.randint(60, 200)
        clean = ""
        while len(clean) < length:
            clean += rng.choice(WORD_INVENTORY)
        count = rng.randint(1, 4)
        width = len(clean) // count
        positions = [k * width + rng.randrange(4, width - 4) for k in range(count)]
        # Each error: (position, clean unit, source piece, hypothesis piece).
        errors = []
        for pos in positions:
            unit = clean[pos]
            wrong = rng.choice(noise)
            source_piece = rng.choice((wrong, unit + unit, ""))
            hyp_piece = rng.choice((unit, unit, source_piece, rng.choice(noise)))
            errors.append((pos, unit, source_piece, hyp_piece))

        def render(pick, keep_last=False):
            pieces, prev = [], 0
            for index, error in enumerate(errors):
                last = keep_last and index == len(errors) - 1
                pieces.append(clean[prev : error[0]] + error[2 if last else pick])
                prev = error[0] + 1
            return "".join(pieces) + clean[prev:]

        source = render(2)
        references = [clean]
        if count >= 2 and rng.random() < 0.4:
            references.append(render(1, keep_last=True))
        parallel.append((source, *references))
        hyps.append((source, render(3)))
    return parallel, hyps


def test_cgc_pipeline_writes_the_pinned_bytes_on_long_pairs(tmp_path, capsys):
    # Edit extraction and CGC scoring on long, lightly edited pairs, the
    # shape align's long-core path serves, are byte-identical: the M2 file
    # and the score JSON are pinned.
    parallel, hyps = _cgc_shaped_rows(23)
    par = _tsv(tmp_path / "parallel.tsv", parallel)
    hyp = _tsv(tmp_path / "hyp.tsv", hyps)
    gold, report = tmp_path / "gold.m2", tmp_path / "cgc.json"
    assert main(["extract-edits", par, "--out", str(gold)]) == 0
    assert main(["score-cgc", hyp, str(gold), "--out", str(report)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(gold.read_bytes()).hexdigest() == (
        "f1728bf64ec7aab10ddcb9212772cb712ad3097c948c14028379c6a7859220c5"
    )
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "acd32133e822a76ddd1a9078b9f9e1607a11ec9e9b34a94000e8d47b618ca112"
    )


def test_train_requires_stage2_values(tmp_path, capsys):
    stage1, csc, _, _, _ = _train_files(tmp_path)
    model = tmp_path / "model.json"
    assert main(["train", "--stage1", stage1, "--stage2", "--out", str(model)]) == 2
    assert main(["train", "--stage1", stage1, "--out", str(model)]) == 2
    assert not model.exists()


def test_train_parse_error_leaves_no_artifact(tmp_path, capsys):
    bad = _write(tmp_path / "bad.tsv", "这行没有制表符\n")
    good = _tsv(tmp_path / "ok.tsv", [("天汽", "天气")])
    model = tmp_path / "model.json"
    assert main(["train", "--stage1", bad, "--stage2", good, "--out", str(model)]) == 2
    assert not model.exists()
    assert "line 1" in capsys.readouterr().err


def test_correct_identity_model(tmp_path, capsys):
    model = tmp_path / "id.json"
    save_model(initial_model(vocab="天气很好我们"), str(model))
    inp = _write(tmp_path / "in.txt", "天气很好\n我们学习\n")
    out = tmp_path / "out.txt"
    assert main(["correct", str(model), inp, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "天气很好\n我们学习\n"


def test_correct_empty_input(tmp_path, capsys):
    model = tmp_path / "id.json"
    save_model(initial_model(), str(model))
    inp = _write(tmp_path / "in.txt", "")
    out = tmp_path / "out.txt"
    assert main(["correct", str(model), inp, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("text", ["", "天气\n"])
def test_correct_checks_the_beam_before_reading_lines(tmp_path, capsys, text):
    model = tmp_path / "id.json"
    save_model(initial_model(), str(model))
    inp = _write(tmp_path / "in.txt", text)
    out = tmp_path / "out.txt"
    assert main(["correct", str(model), inp, "--beam", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: beam_width must be >= 1, got 0\n"
    assert not out.exists()


def test_correct_rejects_bad_container(tmp_path, capsys):
    model = tmp_path / "m.json"
    save_model(initial_model(), str(model))
    payload = json.loads(model.read_text(encoding="utf-8"))
    payload["version"] = 99
    bad = _write(tmp_path / "v99.json", json.dumps(payload))
    inp = _write(tmp_path / "in.txt", "天气\n")
    assert main(["correct", bad, inp]) == 2
    assert "error:" in capsys.readouterr().err


def _jobs_argv(tmp_path, command):
    """The argv of one run of command over small inputs, less --out."""
    if command == "correct":
        stage1, csc, cgc, eval_src, _ = _train_files(tmp_path)
        model = tmp_path / "model.json"
        assert main(["train", "--stage1", stage1, "--stage2", csc, cgc, "--out", str(model)]) == 0
        return ["correct", str(model), eval_src]
    suite = make_suite(seed=4, stage1_size=5, csc_size=5, cgc_size=12, eval_size=5)
    parallel = _suite_tsv(tmp_path, suite.cgc, "cgc.tsv")
    gold = tmp_path / "gold.m2"
    assert main(["extract-edits", parallel, "--out", str(gold)]) == 0
    return ["score-cgc", parallel, str(gold)]


@pytest.mark.parametrize("command", ["correct", "score-cgc"])
def test_jobs_accepts_only_one_and_changes_nothing(tmp_path, capsys, command):
    # The command runs in one process. --jobs 1, which the benchmark harness
    # passes, sets nothing (not even the config hash), and every other value
    # is an invalid choice.
    argv = _jobs_argv(tmp_path, command)
    capsys.readouterr()
    runs, out = [], tmp_path / "out"
    for jobs in ([], ["--jobs", "1"]):
        assert main([*argv, *jobs, "--out", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
        runs.append((out.read_bytes(), capsys.readouterr().out, manifest["config_hash"]))
    assert runs[0] == runs[1]
    for jobs in ("2", "0"):
        out = tmp_path / f"jobs{jobs}"
        assert main([*argv, "--jobs", jobs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"argument --jobs: invalid choice: {jobs} (choose from 1)")
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["score-csc", "extract-edits", "train", "correct", "score-cgc"],
)
def test_unreadable_inputs_exit_two_without_traceback(tmp_path, capsys, command):
    not_utf8 = tmp_path / "bad.tsv"
    not_utf8.write_bytes(b"\xff\xfe\xe5\tx\n")
    good = _tsv(tmp_path / "ok.tsv", [("天汽", "天气")])
    hyp = _write(tmp_path / "hyp.txt", "天气\n")
    missing = str(tmp_path / "absent")
    model = tmp_path / "model.json"
    argv = {
        "score-csc": ["score-csc", hyp, str(not_utf8)],
        "extract-edits": ["extract-edits", str(not_utf8)],
        "train": ["train", "--stage1", str(not_utf8), "--stage2", good, "--out", str(model)],
        "correct": ["correct", missing, hyp],
        "score-cgc": ["score-cgc", good, missing],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not model.exists()


@pytest.mark.parametrize("normalize", ["default", "none"])
@pytest.mark.parametrize("command", ["score-csc", "train", "correct", "score-csc-hyp"])
@pytest.mark.parametrize("reserved", ["\x02", "\x1a"])
def test_reserved_units_in_input_exit_two(tmp_path, capsys, command, normalize, reserved):
    # U+0002 (BOUNDARY) and U+001A (UNK) would pass as LM context units.
    forged = f"天{reserved}气"
    good = _tsv(tmp_path / "ok.tsv", [("天汽", "天气")])
    bad = _tsv(tmp_path / "bad.tsv", [("天汽", "天气"), (forged, "天气")])
    gold = _tsv(tmp_path / "gold.tsv", [("天汽", "天气"), ("天汽", "天气")])
    model = tmp_path / "m.json"
    save_model(initial_model(vocab="天气"), str(model))
    out = tmp_path / "trained.json"
    argv = {
        "score-csc": ["score-csc", _write(tmp_path / "hyp.txt", "天气\n天气\n"), bad],
        "train": ["train", "--stage1", bad, "--stage2", good, "--out", str(out)],
        "correct": ["correct", str(model), _write(tmp_path / "in.txt", f"天气\n{forged}\n")],
        "score-csc-hyp": ["score-csc", _write(tmp_path / "hyp.txt", f"天气\n{forged}\n"), gold],
    }[command]
    assert main([*argv, "--normalize", normalize]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # Corpus files and plain-line inputs alike name the line.
    assert captured.err == f"error: line 2: reserved unit U+{ord(reserved):04X} at byte offset 3\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["order", "lm_smoothing_k", "channel_smoothing_k"])
def test_correct_rejects_zero_model_parameters(tmp_path, capsys, field):
    path = tmp_path / "m.json"
    save_model(initial_model(vocab="天气"), str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[field] = 0
    bad = _write(tmp_path / "zero.json", json.dumps(payload))
    inp = _write(tmp_path / "in.txt", "天气\n")
    assert main(["correct", bad, inp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "order" in err or "smoothing_k" in err


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        # k·|V| overflows to inf, so a probability is k / inf = 0.
        ("--smoothing-k", "1e308", "error: lm smoothing_k 1e+308 makes a probability 0.0"),
        # k / (total + k·|V|) underflows to 0.
        ("--smoothing-k", "5e-324", "error: lm smoothing_k 5e-324 makes a probability 0.0"),
        ("--smoothing-k", "nan", "error: lm smoothing_k must be finite and > 0, got nan"),
        ("--order", "1" + "0" * 30, "error: lm order must be an integer in [1, 64], got 1" + "0" * 30),
    ],
)
def test_train_rejects_settings_that_zero_a_probability_or_overflow_the_order(
    tmp_path, capsys, flag, value, message
):
    parallel = _tsv(tmp_path / "p.tsv", [("天汽很好", "天气很好"), ("他是学圣", "他是学生")] * 3)
    model = tmp_path / "m.json"
    argv = ["train", "--stage1", parallel, "--stage2", parallel, flag, value, "--out", str(model)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(message), err
    assert not model.exists()


def test_train_rejects_a_bad_heldout_fraction_on_empty_corpora(tmp_path, capsys):
    empty = _write(tmp_path / "empty.tsv", "")
    model = tmp_path / "m.json"
    argv = ["train", "--stage1", empty, "--stage2", empty, "--heldout-fraction", "1.5"]
    assert main([*argv, "--out", str(model)]) == 2
    assert capsys.readouterr().err == "error: heldout_fraction must be in (0, 1), got 1.5\n"
    assert not model.exists()


@pytest.mark.parametrize("command", ["extract-edits", "correct", "train", "score-csc"])
def test_out_in_missing_directory_exits_two(tmp_path, capsys, command):
    parallel = _tsv(tmp_path / "ok.tsv", [("天汽", "天气")])
    hyp = _write(tmp_path / "hyp.txt", "天气\n")
    model = tmp_path / "m.json"
    save_model(initial_model(vocab="天气"), str(model))
    out = str(tmp_path / "nodir" / "out")
    argv = {
        "extract-edits": ["extract-edits", parallel, "--out", out],
        "correct": ["correct", str(model), hyp, "--out", out],
        "train": ["train", "--stage1", parallel, "--stage2", parallel, "--out", out],
        "score-csc": ["score-csc", hyp, parallel, "--out", out],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_out_through_a_symlink_writes_the_linked_file(tmp_path, capsys):
    parallel = _tsv(tmp_path / "ok.tsv", [("天汽", "天气")])
    real = tmp_path / "real.m2"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.m2"
    link.symlink_to(real)
    assert main(["extract-edits", parallel]) == 0
    expected = capsys.readouterr().out
    assert main(["extract-edits", parallel, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == expected
    assert (tmp_path / "link.m2.manifest.json").exists()


@pytest.mark.parametrize("sep", ["\u0085", "\u2028", "\x1c", "\v", "\f", "\r"], ids=repr)
def test_score_csc_splits_hypotheses_only_at_line_feeds(tmp_path, capsys, sep):
    gold = _tsv(tmp_path / "gold.tsv", [(f"天汽{sep}很好", f"天气{sep}很好")])
    hyp = _write(tmp_path / "hyp.txt", f"天气{sep}很好\n")
    assert main(["score-csc", hyp, gold]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (report["n_sentences"], report["tp"], report["f_beta"]) == (1, 1, 1.0)


def test_crlf_files_give_the_bytes_of_lf_files(tmp_path, capsys):
    gold = "天汽很好\t天气很好\n# note\n他是学生生\t他是学生\n我们学习\t我们学习\n"
    hyp = "天气很好\n他是学生生\n我们学习\n"
    outputs = {}
    for end in ("\n", "\r\n"):
        folder = tmp_path / repr(end)[1:-1]
        folder.mkdir()
        gold_path, hyp_path, m2 = folder / "gold.tsv", folder / "hyp.txt", folder / "gold.m2"
        gold_path.write_bytes(gold.replace("\n", end).encode("utf-8"))
        hyp_path.write_bytes(hyp.replace("\n", end).encode("utf-8"))
        m2.write_bytes(_GOLD_EDITS.replace("\n", end).encode("utf-8"))
        cgc_hyp = _tsv(folder / "hyp.tsv", [("他是学生生", "他是学生"), ("天汽很号", "天汽很呺")])
        runs = [
            ["score-csc", str(hyp_path), str(gold_path)],
            ["extract-edits", str(gold_path)],
            ["score-cgc", cgc_hyp, str(m2)],
        ]
        outputs[end] = []
        for argv in runs:
            assert main(argv) == 0
            outputs[end].append(capsys.readouterr().out)
    assert outputs["\r\n"] == outputs["\n"]
    assert "\r" not in "".join(outputs["\n"])


@pytest.mark.parametrize(("normalize", "counts"), [("none", (1, 1, 1)), ("default", (2, 0, 0))])
def test_score_csc_drops_only_the_cr_of_a_crlf_ending(tmp_path, capsys, normalize, counts):
    # Line 1's hypothesis keeps one CR that its reference lacks; line 2's
    # reference keeps one too. Only the default policy strips them.
    gold = _write(tmp_path / "gold.tsv", "天汽\t天气\r\n天汽\t天气\r\r\n")
    hyp = _write(tmp_path / "hyp.txt", "天气\r\r\n天气\r\r\n")
    assert main(["score-csc", hyp, gold, "--normalize", normalize]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (report["tp"], report["fp"], report["fn"]) == counts


@pytest.mark.parametrize("stage1_rows", [[("天汽很好", "天气很好")], []], ids=["one-pair", "empty"])
def test_train_on_tiny_corpus_reports_empty_heldout(tmp_path, capsys, stage1_rows):
    # One pair rounds to an empty heldout slice; an empty corpus has one too.
    stage1 = _tsv(tmp_path / "s1.tsv", stage1_rows)
    stage2 = _tsv(tmp_path / "s2.tsv", [("我门学习", "我们学习")])
    model = tmp_path / "model.json"
    assert main(["train", "--stage1", stage1, "--stage2", stage2, "--out", str(model)]) == 0
    assert capsys.readouterr().out == (
        "stage-1 heldout objective: n/a (empty heldout slice)\n"
        "stage-2 heldout objective: n/a (empty heldout slice)\n"
        "mixing weight: 0.5\n"
    )
    assert load_model(str(model)).stage.value == "stage2"
    assert (tmp_path / "model.json.manifest.json").exists()


def test_align_json_payload(capsys):
    assert main(["align", "他是学生生", "他是学生"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["source"] == "他是学生生"
    assert payload["total_cost"] == 1.0
    kinds = [op["kind"] for op in payload["ops"]]
    assert kinds.count("match") == 4 and kinds.count("del") == 1
    assert payload["ops"][-1] == {"kind": "del", "src_index": 4, "tgt_index": 4}


def test_align_json_spells_out_the_codes(capsys):
    # Each op of the path SIMMMD with the cursor positions before it.
    assert main(["align", "他是学生生", "她们是学生"]) == 0
    steps = [
        ("sub", 0, 0), ("ins", 1, 1), ("match", 1, 2), ("match", 2, 3), ("match", 3, 4), ("del", 4, 5)
    ]
    payload = {
        "source": "他是学生生",
        "target": "她们是学生",
        "total_cost": 3.0,
        "ops": [{"kind": k, "src_index": i, "tgt_index": j} for k, i, j in steps],
    }
    assert capsys.readouterr().out == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


# A padded NFD source with half-width punctuation: "a" and U+0301 compose
# to "á" under NFC.
_PADDED_NFD = " 他说:a\u0301! "


@pytest.mark.parametrize(
    ("normalize", "source"),
    [
        ("default", "他说:\u00e1!"),
        ("none", _PADDED_NFD),
        ("widthfold", "他说：\u00e1！"),
    ],
)
def test_align_normalizes_under_each_policy(capsys, normalize, source):
    assert main(["align", _PADDED_NFD, "他说", "--normalize", normalize]) == 0
    assert json.loads(capsys.readouterr().out)["source"] == source


def test_normalize_choices_are_the_policy_values():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = [
        list(action.choices)
        for sub in commands.choices.values()
        for action in sub._actions
        if "--normalize" in action.option_strings
    ]
    assert choices == [[p.value for p in NormalizePolicy]] * len(commands.choices)


def test_align_out_and_manifest(tmp_path, capsys):
    out = tmp_path / "align.json"
    assert main(["align", "甲", "乙", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["total_cost"] == 1.0
    assert (tmp_path / "align.json.manifest.json").exists()


def test_version_and_bad_invocations(capsys):
    assert main(["--version"]) == 0
    assert "zhcorrect" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["no-such-command"]) == 2


_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _python(*args):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_import_leaves_the_process_pool_unimported():
    # Every command runs in one process, so none imports a process pool.
    done = _python(
        "-S",
        "-c",
        "import sys, zhcorrect.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing', 'logging'} & set(sys.modules)))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_train_on_repeated_pairs_leaves_logging_unimported(tmp_path):
    # Training keeps exact duplicates, within a file and across files, and
    # reports nothing about them.
    stage1 = _tsv(tmp_path / "stage1.tsv", [("天汽", "天气"), ("学生", "学生")])
    csc = _tsv(tmp_path / "csc.tsv", [("天汽", "天气"), ("天汽", "天气")])
    cgc = _tsv(tmp_path / "cgc.tsv", [("天汽", "天气")])
    model = tmp_path / "model.json"
    argv = ["train", "--stage1", stage1, "--stage2", csc, cgc, "--out", str(model)]
    done = _python(
        "-S",
        "-c",
        "import sys, zhcorrect.cli; "
        f"assert zhcorrect.cli.main({argv!r}) == 0; "
        "print('logging' in sys.modules)",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("False\n")
    assert model.exists()


@pytest.mark.parametrize("module", ["zhcorrect", "zhcorrect.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module, capsys):
    done = _python("-m", module, "--version")
    version = f"zhcorrect {zhcorrect.__version__}\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, version, "")
    # The process writes what main writes in-process and exits with its code.
    for argv in (["align", "天汽", "天气"], ["score-csc", "one-file"]):
        done = _python("-m", module, *argv)
        code = main(argv)
        captured = capsys.readouterr()
        assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
    # The process ends with os._exit: its artifact and manifest are whole.
    parallel = _tsv(tmp_path / "parallel.tsv", [("他是学生生", "他是学生"), ("天汽很号", "天气很好")])
    gold = tmp_path / "gold.m2"
    sidecar = tmp_path / "gold.m2.manifest.json"
    argv = ["extract-edits", parallel, "--out", str(gold)]
    done = _python("-m", module, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    written, manifest = gold.read_bytes(), json.loads(sidecar.read_text(encoding="utf-8"))
    assert main(argv) == 0
    assert written == gold.read_bytes() == _GOLD_EDITS.encode("utf-8")
    in_process = json.loads(sidecar.read_text(encoding="utf-8"))
    assert manifest.pop("wall_time_s") >= 0 and in_process.pop("wall_time_s") >= 0
    assert manifest == in_process


def test_main_leaves_the_collector_on_and_unfrozen(capsys):
    # main_entry turns the collector off for the command and ends the process
    # with os._exit. main, which tests and the benchmark's tracer call
    # in-process, must leave the collector on and nothing frozen.
    assert gc.isenabled() and gc.get_freeze_count() == 0
    assert main(["align", "天汽", "天气"]) == 0
    assert main(["--version"]) == 0
    assert main(["score-csc", "one-file"]) == 2
    assert gc.isenabled() and gc.get_freeze_count() == 0


def _collector_argvs(tmp_path, scale):
    """Each command's argv on make_suite inputs, scale times the smallest."""
    suite = make_suite(seed=scale, stage1_size=40 * scale, csc_size=20 * scale,
                       cgc_size=20 * scale, eval_size=10 * scale)
    stage1, csc, cgc, gold = (
        _suite_tsv(tmp_path, corpus, f"{name}{scale}.tsv")
        for name, corpus in (("stage1", suite.stage1), ("csc", suite.csc),
                             ("cgc", suite.cgc), ("gold", suite.eval_csc))
    )
    src = _write(tmp_path / f"src{scale}.txt", "".join(p.source + "\n" for p in suite.eval_csc.pairs))
    out = {name: str(tmp_path / f"{name}{scale}.out") for name in ("model", "fixed", "csc", "m2", "cgc")}
    return {
        "train": ["train", "--stage1", stage1, "--stage2", csc, cgc, "--out", out["model"]],
        "correct": ["correct", str(tmp_path / "model1.out"), src, "--out", out["fixed"]],
        "score-csc": ["score-csc", src, gold, "--out", out["csc"]],
        "extract-edits": ["extract-edits", cgc, "--out", out["m2"]],
        "score-cgc": ["score-cgc", cgc, out["m2"], "--out", out["cgc"]],
    }


def test_a_command_leaves_as_many_cycles_on_four_times_the_input(tmp_path, capsys):
    # main_entry runs a command with the collector off. That is safe only
    # while a command's cyclic garbage does not grow with its input: one
    # cycle per line would grow a CLI process without bound.
    argvs = {scale: _collector_argvs(tmp_path, scale) for scale in (1, 4)}
    for command in argvs[1]:  # in this order: correct reads train's model1.out
        unreachable = []
        for scale in (1, 4):
            gc.collect()
            gc.disable()
            try:
                assert main(argvs[scale][command]) == 0, capsys.readouterr().err
                unreachable.append(gc.collect())
            finally:
                gc.enable()
        assert unreachable[0] == unreachable[1], command
    capsys.readouterr()


# Each stdout that fails every write, with the errno it fails with.
_FAILED_WRITES = {"pipe": errno.EPIPE}
if sys.platform == "linux":
    _FAILED_WRITES["/dev/full"] = errno.ENOSPC


@pytest.mark.parametrize("stdout", sorted(_FAILED_WRITES))
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("command", ["align", "version", "extract-edits"])
def test_a_failed_write_to_stdout_exits_two_with_one_line(tmp_path, stdout, unbuffered, command):
    # A closed pipe or a full device, met by the command's own write, by
    # argparse's version text or by the flush before exit (buffered stdout
    # holds short outputs until then). extract-edits writes more than a
    # buffer holds.
    parallel = _tsv(tmp_path / "par.tsv", [("天汽很号", "天气很好")] * 2000)
    argv = {
        "align": ["align", "天汽", "天气"],
        "version": ["--version"],
        "extract-edits": ["extract-edits", parallel],
    }[command]
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if stdout == "pipe":
        read_end, target = os.pipe()
        os.close(read_end)
    else:
        target = os.open(stdout, os.O_WRONLY)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "zhcorrect", *argv],
            env=env, stdout=target, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(target)
    reason = os.strerror(_FAILED_WRITES[stdout])
    assert (done.returncode, done.stderr) == (2, f"error: cannot write stdout: {reason}\n")


@pytest.mark.skipif(sys.platform != "linux", reason="needs /dev/full")
def test_a_failing_stderr_keeps_the_exit_code(tmp_path, capsys):
    # Every write to /dev/full fails with ENOSPC: the message is lost, the
    # exit code and stdout are not.
    missing = str(tmp_path / "missing.txt")
    env = dict(os.environ, PYTHONPATH=_SRC)
    for code, argv in (
        (2, ["score-csc", missing, missing]),
        (0, ["align", "天汽", "天气"]),
        (2, ["--bogus"]),
    ):
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "zhcorrect", *argv],
                env=env, stdout=subprocess.PIPE, stderr=full, text=True, timeout=60,
            )
        assert main(argv) == code
        assert (done.returncode, done.stdout) == (code, capsys.readouterr().out)
    # A failed stdout is exit 2 even when its message cannot be written.
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "zhcorrect", "align", "天汽", "天气"],
            env=env, stdout=full, stderr=full, timeout=60,
        )
    assert done.returncode == 2


def _run_closing(redirect, *args):
    """sys.executable on args, started by sh with redirect (">&-", "2>&-")
    closing its stdout or stderr."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        ["sh", "-c", f'"$@" {redirect}', "sh", sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("command", ["align", "score-csc --out", "version"])
def test_a_closed_stdout_exits_two_with_one_line(tmp_path, gold_tsv, command):
    # Python's sys.stdout is None when the process starts with fd 1 closed.
    hyp = _write(tmp_path / "hyp.txt", "天气很好\n我们学习\n他是学生\n")
    argv = {
        "align": ["align", "天气", "天汽"],
        "score-csc --out": ["score-csc", hyp, gold_tsv, "--out", str(tmp_path / "o.json")],
        "version": ["--version"],
    }[command]
    for redirect in (">&-", ">&- 2>&-"):
        done = _run_closing(redirect, "-m", "zhcorrect", *argv)
        message = "error: cannot write stdout: Bad file descriptor\n"
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("" if "2>&-" in redirect else message)


def test_a_closed_stderr_drops_the_message_and_keeps_the_exit_code(tmp_path, gold_tsv):
    # Python's sys.stderr is None when the process starts with fd 2 closed,
    # and print, traceback and argparse then write to stdout.
    model = tmp_path / "m.json"
    save_model(initial_model(), str(model))
    inp = _write(tmp_path / "in.txt", "天气\n")
    internal_error = (
        "import sys, zhcorrect.cli as cli; "
        f"sys.argv[1:] = ['correct', {str(model)!r}, {inp!r}]; "
        "cli.load_model = lambda path: 1 / 0; cli.main_entry()"
    )
    for code, args in (
        (2, ["-m", "zhcorrect", "score-csc", str(tmp_path / "missing.txt"), gold_tsv]),
        (2, ["-m", "zhcorrect", "no-such-command"]),
        (1, ["-c", internal_error]),
    ):
        done = _run_closing("2>&-", *args)
        assert (done.returncode, done.stdout, done.stderr) == (code, "", "")
    # The same runs with stderr open write their messages there.
    done = _python("-c", internal_error)
    assert done.returncode == 1 and "ZeroDivisionError" in done.stderr


def test_internal_error_returns_one(tmp_path, monkeypatch, capsys):
    model = tmp_path / "m.json"
    save_model(initial_model(), str(model))
    inp = _write(tmp_path / "in.txt", "天气\n")
    import zhcorrect.cli as cli_module

    def boom(path):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli_module, "load_model", boom)
    assert main(["correct", str(model), str(inp)]) == 1
    assert "RuntimeError" in capsys.readouterr().err


def test_cli_import_leaves_dataclasses_traceback_and_synthetic_unimported():
    # Start-up is a large share of a short command, since every command is a
    # new interpreter. None of them is needed by a command that succeeds: the
    # records are namedtuples and slot classes, dataclasses would pull in
    # inspect, traceback is imported on exit 1 only, and no command imports
    # the synthetic suite.
    done = _python(
        "-S",
        "-c",
        "import sys, zhcorrect.cli; "
        "print(sorted({'dataclasses', 'inspect', 'traceback', 'zhcorrect.synthetic'} "
        "& set(sys.modules)))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    done = _python(
        "-c",
        "import zhcorrect; "
        "[getattr(zhcorrect, name) for name in zhcorrect.__all__]; "
        "from zhcorrect.synthetic import make_suite, SyntheticSuite; "
        "print(isinstance(make_suite(0, 4, 4, 4, 4), SyntheticSuite))",
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        zhcorrect.no_such_name


def test_all_lists_exactly_the_public_names_the_package_binds():
    bound = {
        name for name, value in vars(zhcorrect).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(zhcorrect.__all__) - {"__version__"} == bound
    assert len(zhcorrect.__all__) == len(set(zhcorrect.__all__))


def test_internal_error_prints_a_traceback_in_a_fresh_interpreter(monkeypatch, capsys):
    # A bug is no ZhcorrectError: exit 1 with a traceback, which main imports
    # only then. The process exits with the code and stdout of main in-process.
    done = _python(
        "-c",
        "import sys, zhcorrect.cli as cli\n"
        "def bug(src, tgt):\n"
        "    raise RuntimeError('bug')\n"
        "cli.align = bug\n"
        "sys.argv = ['zhcorrect', 'align', 'a', 'b']\n"
        "cli.main_entry()\n",
    )

    def bug(src, tgt):
        raise RuntimeError("bug")

    monkeypatch.setattr("zhcorrect.cli.align", bug)
    assert (done.returncode, done.stdout) == (main(["align", "a", "b"]), capsys.readouterr().out)
    assert done.returncode == 1
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert done.stderr.endswith("RuntimeError: bug\n")


@pytest.mark.parametrize(
    ("reference", "shown"),
    [("a|||b", "'|||b'"), ("a-NONE-c", "'-NONE-'"), ("ab|", "'|'")],
)
@pytest.mark.parametrize("out", [False, True])
def test_extract_edits_refuses_a_replacement_m2_cannot_hold(tmp_path, capsys, reference, shown, out):
    # A file it wrote would not read back: a replacement holding "|||" or
    # ending in "|" splits into other fields, and a literal "-NONE-" reads
    # back as a deletion. Exit 2 names the record by its position, and nothing
    # is written.
    parallel = _tsv(tmp_path / "par.tsv", [("甲乙", "甲乙"), ("abc", reference)])
    gold = tmp_path / "gold.m2"
    argv = ["extract-edits", parallel] + (["--out", str(gold)] if out else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: record 1, reference 0: replacement {shown} cannot be written to an M2 file\n"
    )
    assert not gold.exists() and sorted(os.listdir(tmp_path)) == ["par.tsv"]
