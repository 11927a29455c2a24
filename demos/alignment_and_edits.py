"""Walk one sentence pair through alignment, edit extraction, and the
gold-edit file format. Run from anywhere after `pip install -e .`."""

from zhcorrect import (
    MergePolicy,
    align,
    apply_edits,
    extract_edits,
    format_edit_records,
)
from zhcorrect.alignment import positions

src = "他是学生生"
tgt = "他是学生"

ops = align(src, tgt)
# At unit costs every code but M costs 1.
print(f"{src} -> {tgt}  (cost {len(ops) - ops.count('M')})")
print(f"  ops {ops}")
# Each code with the source and target index it sits at.
for code, i, j in positions(ops, "."):
    print(f"  {code} src[{i}] tgt[{j}]")

# extract_edits aligns the pair itself and reads the edits off those codes.
edits = extract_edits(src, tgt)
for e in edits.edits:
    repl = e.replacement or "(delete)"
    print(f"edit [{e.start},{e.end}) -> {repl}  kind={e.kind.value}")

print("applied:", apply_edits(src, edits))

# a messier pair: substitution next to an insertion merges into one edit
# under maximal-runs, stays two edits under none
src2, tgt2 = "他好", "你们好"
for policy in (MergePolicy.MAXIMAL_RUNS, MergePolicy.NONE):
    sets = extract_edits(src2, tgt2, policy)
    spans = [(e.start, e.end, e.replacement) for e in sets.edits]
    print(f"{policy.value}: {spans}")

# the same content as a gold edit file record
print()
print(format_edit_records([(src, [extract_edits(src, tgt)])]), end="")
