"""Train the two-stage mixture corrector on the bundled synthetic suite and
decode its evaluation split. Takes a few seconds on one core."""

from zhcorrect.model import dataset_objective, decode, fit_stage, initial_model, stage_heldout
from zhcorrect.metrics import score_csc
from zhcorrect.synthetic import make_suite

suite = make_suite(seed=0)
print(f"stage-1 corpus {len(suite.stage1)} pairs, joint {len(suite.joint)}, "
      f"eval {len(suite.eval_csc)}")

# Each fit_stage call fits the stage after its starting model's, with that
# model's LM order and smoothing, tuning the mixing weight on a 10 % slice.
theta1 = fit_stage(initial_model(), suite.stage1)
theta2 = fit_stage(theta1, suite.joint)

heldout = stage_heldout(suite.joint, 0.1, 0)
print(f"joint heldout objective: stage1={dataset_objective(theta1, heldout):.4f} "
      f"stage2={dataset_objective(theta2, heldout):.4f}")
print(f"mixing weight after stage 2: {theta2.mixing_weight:g}")

items = []
for pair in suite.eval_csc.pairs:
    hyp = decode(theta2, pair.source)
    items.append((pair.source, pair.references[0], hyp))

report = score_csc(items, dataset="syn-eval")
print(f"decoded eval: P={report.precision:.4f} R={report.recall:.4f} "
      f"F1={report.f_beta:.4f}")

print()
print("a few corrections:")
shown = 0
for (src, ref, hyp) in items:
    if src != hyp and shown < 5:
        mark = "ok " if hyp == ref else "BAD"
        print(f"  {mark} {src} -> {hyp}")
        shown += 1
