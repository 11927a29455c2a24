"""Batch commands: score-csc, score-cgc, train, correct, extract-edits.

Every command is deterministic given its inputs, flags, and seed. Whenever
a command writes an artifact via --out it also writes a sidecar
``<out>.manifest.json`` recording the command, a hash of the effective
configuration, sha256 digests of the inputs, the seed, the toolkit version,
and wall time. main owns a command's clock and exit code: 0 success, 2 usage
or data error (a failed write to stdout or a closed stdout included), 1
internal invariant violation. With stderr closed or failing, only the
message is lost.

The process behind ``zhcorrect`` and ``python -m zhcorrect`` (main_entry)
runs its command with the cyclic collector off and ends with os._exit once
stdout and stderr are flushed, so no collection and no interpreter teardown
walks the heap. atexit hooks therefore do not run in it, those of other
tools included (coverage's subprocess mode, for one). main leaves the
collector as it finds it and never exits: measure coverage in-process
through it, as the tests call it.
"""

from __future__ import annotations

import argparse
import errno
import gc
import hashlib
import json
import os
import sys
import time
from contextlib import closing, contextmanager, suppress
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO, TypeVar

from . import __version__
from .alignment import align, positions
from .artifacts import write_artifact
from .corpus import Corpus, iter_parallel, iter_plain_lines, parse_parallel
from .edits import MergePolicy, extract_edits, format_edit_records, parse_edit_file
from .errors import FormatError, UsageError, ZhcorrectError
from .metrics import ScoreReport, macro_average, score_cgc, score_csc
from .model import (
    DEFAULT_ORDER, DEFAULT_SMOOTHING_K,
    decode, dataset_objective, fit_stage, initial_model, load_model, save_model, stage_heldout,
)
from .textnorm import NormalizePolicy, units_of

_NORMALIZE_POLICIES = tuple(policy.value for policy in NormalizePolicy)
_MERGE_POLICIES = tuple(policy.value for policy in MergePolicy)

# The align JSON's name for each op code of an alignment path.
_OP_KINDS = {"M": "match", "S": "sub", "I": "ins", "D": "del"}

T = TypeVar("T")


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def _config_hash(options: dict) -> str:
    canon = json.dumps(options, sort_keys=True, ensure_ascii=True, default=str)
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _options_of(args: argparse.Namespace) -> dict:
    skip = {"func", "command", "started"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_manifest(args: argparse.Namespace, digests: dict[str, str]) -> None:
    """Write the <args.out>.manifest.json sidecar, given the digests of the
    inputs as read before the artifact (which may overwrite one) was written."""
    manifest = {
        "command": args.command,
        "config_hash": _config_hash(_options_of(args)),
        "inputs": digests,
        "seed": getattr(args, "seed", 0),
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - args.started, 6),
    }
    write_artifact(
        args.out + ".manifest.json",
        json.dumps(manifest, sort_keys=True, ensure_ascii=True, indent=2) + "\n",
    )


@contextmanager
def _opened(path: str) -> Iterator[TextIO]:
    """The UTF-8 text file at path, open for reading. A file that cannot be
    read is a usage error and one that is not UTF-8 a format error, wherever
    in the with block a read fails. Lines end only at line feeds: a lone
    carriage return stays inside its line."""
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as handle:
            yield handle
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8: {exc}") from None


def _read(path: str, parse: Callable[[TextIO], T]) -> T:
    """parse(handle) over the file at path, with _opened's errors."""
    with _opened(path) as handle:
        return parse(handle)


def _iter_read(path: str, parse: Callable[[TextIO], Iterator[T]]) -> Iterator[T]:
    """What parse(handle) yields over the file at path, with _opened's
    errors: the file is opened at the first item and closed after the last."""
    with _opened(path) as handle:
        yield from parse(handle)


def _open_corpus(path: str, fmt: str, policy: NormalizePolicy) -> Corpus:
    """The pairs of the parallel file at path."""
    return _read(path, partial(parse_parallel, format=fmt, policy=policy))


def _stdout_error(exc: OSError) -> UsageError:
    return UsageError(f"cannot write stdout: {exc.strerror or exc}")


def _print(text: str) -> None:
    """Write text to stdout. A write that fails (a closed pipe or fd 1, a full
    disk) is a UsageError, as a failed artifact write is."""
    if sys.stdout is None:  # the process started with fd 1 closed
        raise _stdout_error(OSError(errno.EBADF, os.strerror(errno.EBADF)))
    try:
        sys.stdout.write(text)
    except OSError as exc:
        raise _stdout_error(exc) from None


def _emit(args: argparse.Namespace, text: str, inputs: Sequence[str]) -> None:
    """Write text to stdout or, given --out, to that artifact and its manifest."""
    if args.out is None:
        _print(text)
    else:
        digests = {path: _sha256_file(path) for path in inputs}
        write_artifact(args.out, text)
        _write_manifest(args, digests)


def _table(report: ScoreReport) -> str:
    f_label = f"F{report.beta:g}"
    headers = ("dataset", "n", "precision", "recall", f_label)
    row = (
        report.dataset or "-",
        str(report.n_sentences),
        f"{report.precision:.4f}",
        f"{report.recall:.4f}",
        f"{report.f_beta:.4f}",
    )
    widths = [max(len(h), len(r)) for h, r in zip(headers, row)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    body = "  ".join(r.ljust(w) for r, w in zip(row, widths))
    return f"{head}\n{body}\n"


def _report_json(report: ScoreReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, ensure_ascii=False) + "\n"


def _finish_report(args: argparse.Namespace, report: ScoreReport, inputs: list[str]) -> None:
    _print(_table(report))
    _emit(args, _report_json(report), inputs)


def cmd_score_csc(args: argparse.Namespace) -> None:
    if args.macro:
        values = []
        for path in args.files:
            try:
                payload = _read(path, json.load)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise FormatError(f"{path}: not a report JSON: {exc}") from None
            value = payload.get("f_beta") if isinstance(payload, dict) else None
            if type(value) not in (int, float):
                raise FormatError(f"{path}: report JSON lacks a numeric f_beta field")
            values.append(value)
        _emit(args, f"Avg. F1 {macro_average(values):.4f}\n", args.files)
        return

    if len(args.files) != 2:
        raise UsageError("score-csc takes HYP_FILE GOLD_FILE (or --macro REPORT...)")
    hyp_path, gold_path = args.files
    items = _csc_items(hyp_path, gold_path, args.format, NormalizePolicy(args.normalize))
    report = score_csc(items, dataset=args.dataset or Path(gold_path).stem)
    _finish_report(args, report, [hyp_path, gold_path])


def _csc_items(
    hyp_path: str, gold_path: str, fmt: str, policy: NormalizePolicy
) -> Iterator[tuple[str, str, str]]:
    """(source, reference, hypothesis) of each gold pair, which must have one
    reference, and its hypothesis line, read from both files in one pass.
    The errors are those of reading the whole gold file and then the
    hypotheses: a hypothesis error waits until the gold file has been read
    to its end, and the hypotheses past the last pair are counted for the
    mismatch message."""
    gold = _iter_read(gold_path, partial(iter_parallel, format=fmt, policy=policy))
    hyps = _iter_read(hyp_path, partial(iter_plain_lines, policy=policy))
    with closing(gold), closing(hyps):
        n_pairs = n_hyps = 0
        hyp_error = None
        for source, references in gold:
            try:
                (reference,) = references
            except ValueError:
                raise FormatError(
                    f"gold pair {n_pairs}: {len(references)} references for one source; "
                    "score-csc reads one"
                ) from None
            n_pairs += 1
            try:
                # StopIteration too once the hypotheses have ended or failed.
                hypothesis = next(hyps)
            except StopIteration:
                continue
            except ZhcorrectError as exc:
                hyp_error = exc
                continue
            n_hyps += 1
            yield source, reference, hypothesis
        if hyp_error is not None:
            raise hyp_error
        n_hyps += sum(1 for _ in hyps)
    if n_hyps != n_pairs:
        raise UsageError(
            f"line count mismatch: {hyp_path} has {n_hyps} hypotheses, "
            f"{gold_path} has {n_pairs} pairs"
        )


def cmd_score_cgc(args: argparse.Namespace) -> None:
    policy = NormalizePolicy(args.normalize)
    hyp = _open_corpus(args.hyp_file, args.format, policy)
    for i, (_, hypotheses) in enumerate(hyp.pairs):
        if len(hypotheses) != 1:
            raise FormatError(
                f"hypothesis {i}: {len(hypotheses)} hypotheses for one source; "
                "score-cgc reads one"
            )
    gold = _read(args.gold_edits, parse_edit_file)
    report = score_cgc(
        [(source, hypothesis) for source, (hypothesis,) in hyp.pairs],
        gold,
        beta=args.beta,
        merge=MergePolicy(args.merge_policy),
        dataset=args.dataset or Path(args.gold_edits).stem,
    )
    _finish_report(args, report, [args.hyp_file, args.gold_edits])


def cmd_train(args: argparse.Namespace) -> None:
    policy = NormalizePolicy(args.normalize)
    stage1_corpus = _open_corpus(args.stage1, args.format, policy)
    # The stage-2 files' pairs in file order, repeats kept: they weight the counts.
    stage2 = [_open_corpus(path, args.format, policy).pairs for path in args.stage2]
    joint = Corpus(sum(stage2, ()))
    model0 = initial_model(order=args.order, smoothing_k=args.smoothing_k)
    model1 = fit_stage(model0, stage1_corpus, args.heldout_fraction, args.seed)
    model2 = fit_stage(model1, joint, args.heldout_fraction, args.seed)
    for number, model, corpus in ((1, model1, stage1_corpus), (2, model2, joint)):
        heldout = stage_heldout(corpus, args.heldout_fraction, args.seed)
        if heldout.pairs:
            objective = f"{dataset_objective(model, heldout):.6f}"
        else:
            objective = "n/a (empty heldout slice)"
        _print(f"stage-{number} heldout objective: {objective}\n")
    _print(f"mixing weight: {model2.mixing_weight:g}\n")
    digests = {path: _sha256_file(path) for path in [args.stage1, *args.stage2]}
    save_model(model2, args.out)
    _write_manifest(args, digests)


def cmd_correct(args: argparse.Namespace) -> None:
    model = load_model(args.model)
    if args.beam < 1:  # decode's check, made before an empty input skips decode
        raise UsageError(f"beam_width must be >= 1, got {args.beam}")
    policy = NormalizePolicy(args.normalize)
    lines = _iter_read(args.input, partial(iter_plain_lines, policy=policy))
    text = "".join(decode(model, line, beam_width=args.beam) + "\n" for line in lines)
    _emit(args, text, [args.model, args.input])


def cmd_align(args: argparse.Namespace) -> None:
    policy = NormalizePolicy(args.normalize)
    src, tgt = units_of(args.source, policy), units_of(args.target, policy)
    path = align(src, tgt)
    ops = [
        {"kind": _OP_KINDS[code], "src_index": i, "tgt_index": j}
        for code, i, j in positions(path, ".")
    ]
    # At unit costs the cost is the number of codes other than M.
    cost = float(len(path) - path.count("M"))
    payload = {"source": src, "target": tgt, "total_cost": cost, "ops": ops}
    _emit(args, json.dumps(payload, ensure_ascii=False, indent=2) + "\n", [])


def cmd_extract_edits(args: argparse.Namespace) -> None:
    policy = NormalizePolicy(args.normalize)
    merge = MergePolicy(args.merge_policy)
    corpus = _open_corpus(args.parallel, args.format, policy)
    records = []
    for pair in corpus.pairs:
        refs = tuple(extract_edits(pair.source, ref, merge) for ref in pair.references)
        records.append((pair.source, refs))
    _emit(args, format_edit_records(records), [args.parallel])


def _add_common(sub: argparse.ArgumentParser, *, fmt: bool = True, out: bool = True) -> None:
    if fmt:
        sub.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    sub.add_argument("--normalize", choices=_NORMALIZE_POLICIES, default="default")
    if out:
        sub.add_argument("--out", default=None, help="artifact path; adds a .manifest.json sidecar")


def _add_jobs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs", type=int, choices=(1,), default=1,
        help="the command runs in one process; 1, the only value, is accepted and sets nothing",
    )


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that its help and version text goes to
    stdout through _print: argparse drops a failed write without a word."""

    def _print_message(self, message: str, file: TextIO | None = None) -> None:
        if file is sys.stdout:
            _print(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zhcorrect",
        description="Correction toolkit: scoring, edit extraction, training, decoding.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser(
        "score-csc", help="sentence-level F1 of plain hypothesis lines against a parallel file"
    )
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--macro", action="store_true", help="average f_beta over report JSONs")
    p.add_argument("--dataset", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_score_csc)

    p = commands.add_parser(
        "score-cgc", help="edit-level F0.5 of a source+hypothesis parallel file against gold edits"
    )
    p.add_argument("hyp_file")
    p.add_argument("gold_edits")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--merge-policy", choices=_MERGE_POLICIES, default="maximal-runs")
    _add_jobs(p)
    p.add_argument("--dataset", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_score_cgc)

    p = commands.add_parser("train", help="fit the two curriculum stages and save the model")
    p.add_argument("--stage1", required=True, metavar="FILE")
    p.add_argument("--stage2", required=True, nargs="+", metavar="FILE")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--smoothing-k", type=float, default=DEFAULT_SMOOTHING_K)
    p.add_argument("--heldout-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model path; adds a .manifest.json sidecar")
    _add_common(p, out=False)
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("correct", help="decode plain input lines with a saved model")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument(
        "--beam", type=int, default=8,
        help="hypotheses kept per position, one per LM state (the LM context a step reads: "
        "the last order-1 units, mapped and padded; none at mixing weight 0, where one "
        "is kept): the one of least cost, ties going "
        "to the code-point-smaller text. Exact once every state fits, up to rounding: "
        "two costs of one state can tie later, and the tie-break may then favour the "
        "dropped one",
    )
    _add_jobs(p)
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_correct)

    p = commands.add_parser("extract-edits", help="turn a parallel file into a gold edit file")
    p.add_argument("parallel")
    p.add_argument("--merge-policy", choices=_MERGE_POLICIES, default="maximal-runs")
    _add_common(p)
    p.set_defaults(func=cmd_extract_edits)

    p = commands.add_parser("align", help="print the alignment between two sentences as JSON")
    p.add_argument("source")
    p.add_argument("target")
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_align)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        args.started = time.perf_counter()
        args.func(args)
        return 0
    except ZhcorrectError as exc:
        with suppress(OSError):  # a stderr that cannot be written keeps the exit code
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # imported only here: every other run would pay for it

        with suppress(OSError):
            traceback.print_exc()
        return 1


def main_entry() -> None:
    """The process: main() on sys.argv with the cyclic collector off, then
    exit with its code once both streams are flushed, skipping teardown."""
    if sys.stderr is None:  # fd 2 closed: print and argparse would fall back to stdout
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    # Nothing here needs the collector or the interpreter's teardown: every
    # command leaves the same ~400 unreachable objects (argparse's parser
    # graph) whatever its input size, write_artifact has closed every
    # artifact before main returns, and the package registers no atexit
    # handler. A train process skips 37 collections and about 2 ms of teardown.
    gc.disable()
    code = main()
    if sys.stdout is not None:  # None when the process started with fd 1 closed
        try:
            sys.stdout.flush()
        except OSError as exc:
            if code == 0:  # else main has reported an error, perhaps this one
                with suppress(OSError):
                    print(f"error: {_stdout_error(exc)}", file=sys.stderr)
                code = 2
    with suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main_entry()
