"""The four benchmark workloads: how their inputs are made, which CLI
commands they time, and how their outputs are checked.

Input generation runs in a child interpreter with ``PYTHONPATH=src`` and a
pinned ``PYTHONHASHSEED``::

    python perfbench/workloads.py WORKLOAD SEED OUTDIR

It writes the inputs into OUTDIR and prints one JSON object describing them
(sentence count and, where the generator knows them, the planted counts).
The rest of this module is stdlib-only and is imported by ``run.py``.

Why each workload exists (every later performance claim names one):

* ``train``   -- the mixing-weight grid (``dataset_objective``) and many
  short-pair ``align`` calls; decode and edits do nothing.
* ``correct`` -- ``decode`` over lines of 9-150 units; ``align`` does nothing.
  The mix of lengths exposes decode's cost growing with the prefix length.
* ``cgc``     -- few, large ``align`` DPs (lines of 60-200 units), plus the
  edits layer's write (M2 format) and read (M2 parse) paths.
* ``ingest``  -- normalization and parsing of many lines; the only workload
  with a large resident set.
"""

from __future__ import annotations

import json
import random
import sys
import unicodedata
from pathlib import Path

WORKLOADS = ("train", "correct", "cgc", "ingest")

# Sizes. A run repeats its workload's command sequence for --seconds, so an
# iteration is kept to a few seconds on a 2-CPU machine.
TRAIN_SCALE = 2  # x make_suite's default corpus sizes (2000 / 1000 / 1000)
CORRECT_LINES = 200  # each joins 1-16 eval sentences of 6-12 units
CGC_LINES = 300  # 60-200 units each, 1-4 planted errors
INGEST_LINES = 30_000  # 20-80 units each
# The ``correct`` model is trained on make_suite(CORRECT_MODEL_SEED) for every
# workload seed; only the lines it corrects vary with the seed. The confusion
# partners a model learns, and with them decode's work, vary by up to 8 %
# between training seeds, which would show as spread between seeds.
CORRECT_MODEL_SEED = 0

# One CLI process per command: the interpreter start is part of the cost a
# user pays, and ``os.wait4`` gives each process's peak resident set.
CLI_PREFIX = ("-c", "from zhcorrect.cli import main_entry; main_entry()")


def text_of(seq) -> str:
    """The text of a unit sequence, whether the package gives a str or a UnitSeq."""
    return seq if isinstance(seq, str) else seq.text


# ---------------------------------------------------------------------------
# Input generation (child side; imports the package)


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_training_corpora(suite, out: Path) -> None:
    for name, corpus in (("stage1", suite.stage1), ("csc", suite.csc), ("cgc", suite.cgc)):
        _write_lines(
            out / f"{name}.tsv",
            ("\t".join([text_of(p.source), *(text_of(r) for r in p.references)]) for p in corpus.pairs),
        )


_COMMON_CHARS = (
    "的了在有和这为上个国地以要就出会可也你对能而子那得于着下自之年过发后里用行所然家种"
    "事成方多经么去法如都同现当没动面起看定分还进小部其些主样理心她本前开因只从想实"
)


def _noise_pool(inventory, confusion) -> list[str]:
    """Common characters that never occur in the clean text or as a planted
    confusion, so a substitution with one of them is always a visible change."""
    taken = set("".join(inventory)) | set(confusion.values())
    return [c for c in _COMMON_CHARS if c not in taken]


def _stratified(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """count values spread evenly over [low, high], in random order. Every
    seed gets the same multiset, so the work of a run hardly depends on it."""
    values = [low + (high - low) * i // max(1, count - 1) for i in range(count)]
    rng.shuffle(values)
    return values


def _words_line(rng: random.Random, inventory, length: int) -> str:
    text = ""
    while len(text) < length:
        text += rng.choice(inventory)
    return text


def _gen_train(seed: int, out: Path) -> dict:
    from zhcorrect.synthetic import make_suite

    suite = make_suite(
        seed,
        stage1_size=2000 * TRAIN_SCALE,
        csc_size=1000 * TRAIN_SCALE,
        cgc_size=1000 * TRAIN_SCALE,
        eval_size=1,
    )
    _write_training_corpora(suite, out)
    return {"sentences": len(suite.stage1.pairs) + len(suite.csc.pairs) + len(suite.cgc.pairs)}


def _gen_correct(seed: int, out: Path) -> dict:
    from zhcorrect.synthetic import make_suite

    _write_training_corpora(make_suite(CORRECT_MODEL_SEED), out)
    rng = random.Random(seed)
    sizes = _stratified(rng, 1, 16, CORRECT_LINES)
    pairs = make_suite(seed, stage1_size=0, csc_size=0, cgc_size=0, eval_size=sum(sizes)).eval_csc.pairs
    sources, gold, start = [], [], 0
    for size in sizes:
        chunk = pairs[start : start + size]
        start += size
        source = "".join(text_of(p.source) for p in chunk)
        sources.append(source)
        gold.append(source + "\t" + "".join(text_of(p.references[0]) for p in chunk))
    _write_lines(out / "input.txt", sources)
    _write_lines(out / "gold.tsv", gold)
    return {"sentences": CORRECT_LINES}


def _gen_cgc(seed: int, out: Path) -> dict:
    from zhcorrect.synthetic import CONFUSION, WORD_INVENTORY

    rng = random.Random(seed)
    noise = _noise_pool(WORD_INVENTORY, CONFUSION)
    parallel, hyps, refs0, seen = [], [], [], set()
    lengths, error_counts = _stratified(rng, 60, 200, CGC_LINES), _stratified(rng, 1, 4, CGC_LINES)
    while len(parallel) < CGC_LINES:
        clean = _words_line(rng, WORD_INVENTORY, lengths[len(parallel)])
        n_errors = error_counts[len(parallel)]
        width = len(clean) // n_errors
        # One error per bin, away from the bin edges, so errors never touch.
        positions = [k * width + rng.randrange(2, width - 2) for k in range(n_errors)]
        # Each error is (position, clean piece, source piece, hypothesis piece).
        errors = []
        for pos in positions:
            c = clean[pos]
            wrong = rng.choice([x for x in noise if x != c])
            kind = rng.choice(("sub", "dup", "drop"))
            source_piece = {"sub": CONFUSION.get(c, wrong), "dup": c + c, "drop": ""}[kind]
            roll = rng.random()
            if roll < 0.6:
                hyp_piece = c
            elif roll < 0.85:
                hyp_piece = source_piece
            else:
                hyp_piece = {"sub": rng.choice([x for x in noise if x not in (c, source_piece)]),
                             "dup": c + wrong, "drop": wrong}[kind]
            errors.append((pos, c, source_piece, hyp_piece))

        def render(pick, skip_last=False):
            pieces, prev = [], 0
            for index, (pos, c, source_piece, hyp_piece) in enumerate(errors):
                piece = (c, source_piece, hyp_piece)[pick]
                if skip_last and index == len(errors) - 1:
                    piece = source_piece
                pieces.append(clean[prev:pos] + piece)
                prev = pos + 1
            pieces.append(clean[prev:])
            return "".join(pieces)

        source, hyp = render(1), render(2)
        if rng.random() < 0.15:
            # A spurious change on a clean unit before the first error.
            i = rng.randrange(0, positions[0] - 1)
            hyp = hyp[:i] + rng.choice([x for x in noise if x != hyp[i]]) + hyp[i + 1 :]
        if source in seen:
            continue
        seen.add(source)
        references = [clean]
        # About 30 % of lines get a second annotator who leaves the last
        # error alone; it needs two errors so that it still carries an edit.
        if n_errors >= 2 and rng.random() < 0.4:
            references.append(render(0, skip_last=True))
        parallel.append("\t".join([source, *references]))
        hyps.append(source + "\t" + hyp)
        refs0.append(source + "\t" + clean)
    _write_lines(out / "parallel.tsv", parallel)
    _write_lines(out / "hyp.tsv", hyps)
    _write_lines(out / "ref0.tsv", refs0)
    return {"sentences": CGC_LINES}


# Pinyin syllables whose tone marks NFC composes into one scalar.
_PINYIN = ("mā", "hǎo", "lǚ", "xiè", "nǐ", "zhōng", "wén")
_HALF_WIDTH = ",.!?;:"


def _gen_ingest(seed: int, out: Path) -> dict:
    """Score-csc inputs whose true TP/FP/FN the generator knows.

    Every line is a list of tokens. About 5 % carry a pinyin syllable, written
    composed in the gold file and decomposed in the hypothesis, so the counts
    hold only if NFC is applied. Another 5 % carry half-width punctuation,
    which the default policy keeps as it is.
    """
    from zhcorrect.synthetic import CONFUSION, WORD_INVENTORY

    rng = random.Random(seed)
    noise = _noise_pool(WORD_INVENTORY, CONFUSION)
    gold, hyps = [], []
    tp = fp = fn = 0

    def substitute(tokens, index, avoid):
        tokens = list(tokens)
        tokens[index] = rng.choice([x for x in noise if x not in avoid])
        return tokens

    for length in _stratified(rng, 20, 80, INGEST_LINES):
        clean = list(_words_line(rng, WORD_INVENTORY, length))
        cjk = list(range(len(clean)))
        special = rng.random()
        if special < 0.05:
            at = rng.randrange(1, len(clean))
            clean.insert(at, rng.choice(_PINYIN))
            cjk = [i for i in range(len(clean)) if i != at]
        elif special < 0.10:
            for at in sorted(rng.sample(range(1, len(clean)), rng.randint(1, 3)), reverse=True):
                clean.insert(at, rng.choice(_HALF_WIDTH))
            cjk = [i for i, t in enumerate(clean) if t not in _HALF_WIDTH]
        source, reference = list(clean), clean
        if rng.random() < 0.5:
            for i in rng.sample(cjk, rng.randint(1, 2)):
                source[i] = CONFUSION.get(clean[i]) or rng.choice([x for x in noise if x != clean[i]])
            roll = rng.random()
            if roll < 0.7:
                hyp, tp = reference, tp + 1
            elif roll < 0.9:
                hyp, fn = source, fn + 1
            else:
                i = rng.choice(cjk)
                hyp = substitute(reference, i, (source[i], reference[i]))
                fn, fp = fn + 1, fp + 1
        elif rng.random() < 0.1:
            i = rng.choice(cjk)
            hyp, fp = substitute(reference, i, (reference[i],)), fp + 1
        else:
            hyp = reference
        gold.append(unicodedata.normalize("NFC", "".join(source)) + "\t"
                    + unicodedata.normalize("NFC", "".join(reference)))
        hyps.append(unicodedata.normalize("NFD", "".join(hyp)))
    _write_lines(out / "gold.tsv", gold)
    _write_lines(out / "hyp.txt", hyps)
    return {"sentences": INGEST_LINES, "planted": {"tp": tp, "fp": fp, "fn": fn}}


GENERATORS = {"train": _gen_train, "correct": _gen_correct, "cgc": _gen_cgc, "ingest": _gen_ingest}


# ---------------------------------------------------------------------------
# Commands and checks (parent side; stdlib only)


def setup_commands(workload: str, seed: int) -> list[list[str]]:
    """CLI commands that finish set-up after the inputs are written."""
    if workload == "correct":
        return [["train", "--stage1", "in/stage1.tsv", "--stage2", "in/csc.tsv", "in/cgc.tsv",
                 "--seed", str(CORRECT_MODEL_SEED), "--out", "in/model.json"]]
    return []


def timed_commands(workload: str, seed: int) -> list[list[str]]:
    """The command sequence one timed iteration runs, in the workload directory."""
    return {
        "train": [["train", "--stage1", "in/stage1.tsv", "--stage2", "in/csc.tsv", "in/cgc.tsv",
                   "--seed", str(seed), "--out", "out/model.json"]],
        "correct": [["correct", "in/model.json", "in/input.txt", "--jobs", "1", "--out", "out/hyp.txt"],
                    ["score-csc", "out/hyp.txt", "in/gold.tsv", "--out", "out/csc.json"]],
        "cgc": [["extract-edits", "in/parallel.tsv", "--out", "out/gold.m2"],
                ["score-cgc", "in/hyp.tsv", "out/gold.m2", "--jobs", "1", "--out", "out/cgc.json"]],
        "ingest": [["score-csc", "in/hyp.txt", "in/gold.tsv", "--out", "out/ingest.json"]],
    }[workload]


# Checks get the workload directory, the generator's info, and a runner
# ``python(args) -> (exit code, stdout)`` that starts the interpreter in the
# workload directory with the benchmark's environment.
# Each returns a list of failure messages; an empty list means the check held.


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_train(wdir: Path, info: dict, python) -> list[str]:
    code, out = python(["-c", "import sys; from zhcorrect.model import load_model; "
                           "print(load_model(sys.argv[1]).stage.value)", "out/model.json"])
    if code != 0 or out.strip() != "stage2":
        return [f"train: model did not reload as stage2 (exit {code}, got {out.strip()!r})"]
    return []


def _check_correct(wdir: Path, info: dict, python) -> list[str]:
    inputs = (wdir / "in" / "input.txt").read_text(encoding="utf-8").split("\n")[:-1]
    outputs = (wdir / "out" / "hyp.txt").read_text(encoding="utf-8").split("\n")[:-1]
    if len(inputs) != len(outputs):
        return [f"correct: {len(outputs)} output lines for {len(inputs)} input lines"]
    bad = sum(len(a) != len(b) for a, b in zip(inputs, outputs))
    if bad:
        return [f"correct: {bad} output lines differ in length from their input"]
    return []


def _check_cgc(wdir: Path, info: dict, python) -> list[str]:
    failures = []
    report = _report(wdir / "out" / "cgc.json")
    if not (report["tp"] > 0 and report["fp"] > 0 and report["fn"] > 0):
        failures.append(f"cgc: expected non-zero tp/fp/fn, got {report['tp']}/{report['fp']}/{report['fn']}")
    # The gold references scored against the gold M2 must reach F0.5 = 1.0.
    code, _ = python([*CLI_PREFIX, "score-cgc", "in/ref0.tsv", "out/gold.m2", "--jobs", "1", "--out", "check/self.json"])
    if code != 0 or _report(wdir / "check" / "self.json")["f_beta"] != 1.0:
        failures.append(f"cgc: gold references do not score F0.5 = 1.0 against the gold M2 (exit {code})")
    return failures


def _check_ingest(wdir: Path, info: dict, python) -> list[str]:
    report = _report(wdir / "out" / "ingest.json")
    got = {k: report[k] for k in ("tp", "fp", "fn")}
    if got != info["planted"]:
        return [f"ingest: counts {got} differ from planted {info['planted']}"]
    return []


CHECKS = {"train": _check_train, "correct": _check_correct, "cgc": _check_cgc, "ingest": _check_ingest}


def quality(workload: str, wdir: Path, stdout: str) -> dict:
    """Deterministic quality guards, recorded with every run."""
    if workload == "train":
        for line in stdout.splitlines():
            if line.startswith("stage-2 heldout objective:"):
                return {"heldout_nll": float(line.split(":")[1])}
        return {}
    name = {"correct": ("csc.json", "csc_f1"), "cgc": ("cgc.json", "cgc_f05"), "ingest": ("ingest.json", "ingest_f1")}
    file, key = name[workload]
    return {key: _report(wdir / "out" / file)["f_beta"]}


if __name__ == "__main__":
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    outdir.mkdir(parents=True, exist_ok=True)
    print(json.dumps(GENERATORS[workload](seed, outdir), sort_keys=True))
