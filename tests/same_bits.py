"""Print what training and decoding compute on make_suite(0), to compare
across Python versions.

Run as `python tests/same_bits.py`: it needs only the standard library and
the package under src/. It trains the two stages with fit_stage and prints
the stage-2 model file's sha256, the sha256 of decode's output on the
eval_csc lines at the trained mixing weight (0, one LM state) and at 0.35
(one state per LM tail), and the repr of each stage's held-out objectives
over its weight grid, one line each.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from zhcorrect.model import (  # noqa: E402
    DEFAULT_MIX_GRID,
    dataset_objective,
    decode,
    fit_stage,
    initial_model,
    save_model,
    stage_heldout,
)
from zhcorrect.synthetic import make_suite  # noqa: E402


def main() -> None:
    suite = make_suite(0)
    model = initial_model()
    for corpus in (suite.stage1, suite.joint):
        # fit_stage's own grid, scored on its own held-out slice: the table
        # does not depend on the weight the fitted model carries.
        grid = sorted(set(DEFAULT_MIX_GRID) | {model.mixing_weight})
        model = fit_stage(model, corpus)
        print(repr(dataset_objective(model, stage_heldout(corpus, 0.1, 0), grid)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, str(path))
        print(hashlib.sha256(path.read_bytes()).hexdigest())
    for weighted in (model, model._replace(mixing_weight=0.35)):
        lines = "".join(decode(weighted, pair.source) + "\n" for pair in suite.eval_csc.pairs)
        print(hashlib.sha256(lines.encode("utf-8")).hexdigest())


if __name__ == "__main__":
    main()
