"""Score a toy system two ways: sentence-level F1 (spelling-style) and
edit-level F0.5 (grammar-style), then macro-average across datasets."""

import io

from zhcorrect import (
    extract_edits,
    format_edit_records,
    macro_average,
    parse_edit_file,
    score_cgc,
    score_csc,
)

rows = [
    # (source, reference, system output)
    ("天汽很好", "天气很好", "天气很好"),   # fixed
    ("他是学圣", "他是学生", "他是学牲"),   # tried, wrong
    ("我们吃饭", "我们吃饭", "我们吃饭"),   # clean, untouched
    ("工做很忙", "工作很忙", "工做很忙"),   # missed
]
report = score_csc(rows, dataset="toy-csc")
print(f"sentence level: P={report.precision:.4f} R={report.recall:.4f} "
      f"F1={report.f_beta:.4f} (tp={report.counts.tp} fp={report.counts.fp} "
      f"fn={report.counts.fn})")

# edit level needs gold edits; derive them from the references, then score
# the same outputs against them
gold_text = format_edit_records([(s, [extract_edits(s, r)]) for s, r, _ in rows])
print()
print(gold_text, end="")
gold = parse_edit_file(io.StringIO(gold_text))
hyp = [(s, h) for s, _, h in rows]
report = score_cgc(hyp, gold, dataset="toy-cgc")
print(f"edit level: P={report.precision:.4f} R={report.recall:.4f} "
      f"F0.5={report.f_beta:.4f}")

# cross-dataset summary is a plain unweighted mean
print()
print("macro over three datasets:", f"{macro_average([0.6340, 0.9360, 0.9864]):.4f}")
