"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py

They check that inputs depend on the seed and on nothing else, that every
output check catches a corrupted output, that the speed probe reports a rate
and stops, that the traced run covers names imported with ``from ...
import`` and that the reported self times plus ``cli.other_s`` add up to the
traced wall time, and that the benchmark refuses to run without the package
sources. They start real CLI processes and take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run as bench
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _scratch() -> Path:
    (HERE / "_work").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "_work"))


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        tmp = _scratch()
        try:
            for workload in workloads.WORKLOADS:
                digests = []
                for name, seed in (("a", 5), ("b", 5), ("c", 6)):
                    p = bench.spawn([str(HERE / "workloads.py"), workload, str(seed), name], tmp)
                    self.assertEqual(p.code, 0, p.stderr)
                    digests.append(bench.digest_dir(tmp / name))
                    shutil.rmtree(tmp / name)
                self.assertEqual(digests[0], digests[1], workload)
                self.assertEqual(digests[0].keys(), digests[2].keys(), workload)
                # The correct model's training data is the same for every seed.
                fixed = {"stage1.tsv", "csc.tsv", "cgc.tsv"} if workload == "correct" else set()
                for f in digests[0]:
                    self.assertEqual(digests[0][f] == digests[2][f], f in fixed, (workload, f))
        finally:
            shutil.rmtree(tmp)


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text, (path, old)
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def _report(path: Path, **changes) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    report.update(changes)
    path.write_text(json.dumps(report), encoding="utf-8")


def _drop_last_char_of_first_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[0] = lines[0][:-1]
    path.write_text("\n".join(lines), encoding="utf-8")


def _drop_last_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    path.write_text("\n".join(lines[:-2] + [""]), encoding="utf-8")


def _corrupt_m2(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    k = next(i for i, line in enumerate(lines) if line.startswith("A ") and "|||sub|||" in line)
    span, kind, _, ref = lines[k].split("|||")
    lines[k] = "|||".join((span, kind, "错", ref))
    path.write_text("\n".join(lines), encoding="utf-8")


# workload -> corruptions of its outputs, each of which its checks must catch.
CORRUPTIONS = {
    "train": [lambda d: _edit(d / "out" / "model.json", '"stage":"stage2"', '"stage":"stage1"')],
    "correct": [lambda d: _drop_last_char_of_first_line(d / "out" / "hyp.txt"),
                lambda d: _drop_last_line(d / "out" / "hyp.txt")],
    "cgc": [lambda d: _corrupt_m2(d / "out" / "gold.m2"), lambda d: _report(d / "out" / "cgc.json", fp=0)],
    "ingest": [lambda d: _report(d / "out" / "ingest.json", tp=0)],
}


class OutputChecks(unittest.TestCase):
    """Each workload's checks pass on real outputs and fail on corrupted ones."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = _scratch()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def _run(self, workload: str) -> bench.Run:
        run = bench.Run(workload, seed=2, seconds=0, trace=False, work=self.tmp)
        run.setup()
        run.iteration(traced=False)
        run.check()
        self.assertEqual(run.failures, [])
        return run

    def _assert_caught(self, workload: str) -> None:
        run = self._run(workload)
        pristine = run.rdir.parent / "pristine"
        shutil.copytree(run.rdir / "out", pristine)
        for corrupt in CORRUPTIONS[workload]:
            with self.subTest(workload=workload, corruption=corrupt):
                shutil.rmtree(run.rdir / "out")
                shutil.copytree(pristine, run.rdir / "out")
                corrupt(run.rdir)
                run.failures.clear()
                run.check()
                self.assertNotEqual(run.failures, [])

    def test_train(self):
        self._assert_caught("train")

    def test_correct(self):
        self._assert_caught("correct")

    def test_cgc(self):
        self._assert_caught("cgc")

    def test_ingest(self):
        self._assert_caught("ingest")

    def test_differing_outputs_are_reported(self):
        a = {"traced": False, "digests": {"out/x": "sha256:1", "stdout.0": "sha256:2"}}
        b = {"traced": True, "digests": {"out/x": "sha256:9", "stdout.0": "sha256:2"}}
        self.assertEqual(bench.differing_outputs([a, a]), [])
        self.assertEqual(len(bench.differing_outputs([a, a, b])), 1)
        self.assertIn("out/x", bench.differing_outputs([a, b])[0])


class Probe(unittest.TestCase):
    def test_rate_is_measured_and_the_probe_stops(self):
        result, rate = bench.probed(True, lambda: sum(range(10**6)))
        self.assertEqual(result, sum(range(10**6)))
        self.assertGreater(rate, 0.1)
        probe = bench.Probe()
        self.assertGreater(probe.stop(), 0.1)
        self.assertIsNotNone(probe.proc.poll())
        self.assertEqual(bench.probed(False, lambda: "done"), ("done", None))


class Spans(unittest.TestCase):
    def test_self_times_subtract_direct_children(self):
        spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("d", 5.0, 6.0, 0),
                 ("e", 11.0, 12.0, -1)]
        self.assertEqual(tracing.self_times(spans), [6.0, 2.0, 1.0, 1.0, 1.0])

    def test_traced_runs_cover_imported_names_and_add_up(self):
        tmp = _scratch()
        try:
            for workload in ("train", "cgc"):
                run = bench.Run(workload, seed=2, seconds=0, trace=True, work=tmp)
                run.setup()
                run.iteration(traced=False)
                traced = run.iteration(traced=True)
                run.check()
                self.assertEqual(run.failures, [], workload)
                layers = traced["layers"]
                # The reported self times plus cli.other_s cover the traced
                # wall time: no wrapped function's time goes unreported.
                reported = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".self_s")]
                self.assertAlmostEqual(sum(layers[n] for n in reported) + layers["cli.other_s"],
                                       layers["trace.wall_s"], places=6, msg=workload)
                # The traced wall fits inside the wall the parent measured.
                self.assertLessEqual(layers["trace.wall_s"], traced["wall_s"], workload)
                self.assertGreater(layers["cli.other_s"], layers["cli.startup_s"], workload)
                for f in sorted((run.rdir / "spans").iterdir()):
                    payload = json.loads(f.read_text(encoding="utf-8"))
                    self.assertTrue(all(t >= 0 for t in tracing.self_times(payload["spans"])), f)
                self.assertGreater(layers["alignment.align.calls"], 0)
                if workload == "train":
                    # cmd_train's own reporting calls come through the name
                    # cli imported; fit_stage's grid calls through model's.
                    spans = [json.loads(f.read_text(encoding="utf-8"))["spans"]
                             for f in (run.rdir / "spans").iterdir()][0]
                    objective = [s for s in spans if s[0] == "model.dataset_objective"]
                    self.assertTrue(any(s[3] < 0 for s in objective))
                    self.assertTrue(any(s[3] >= 0 and spans[s[3]][0] == "model.fit_stage" for s in objective))
                    self.assertGreater(layers["model.fit_stage.self_s"], 0)
                else:
                    # cgc aligns in cli (extract-edits) and in metrics (score-cgc).
                    self.assertEqual(layers["alignment.align.calls"], layers["edits.extract_edits.calls"])
                    self.assertGreater(layers["edits.parse_edit_file.self_s"], 0)
        finally:
            shutil.rmtree(tmp)

    def test_install_leaves_no_unwrapped_reference(self):
        code = (
            "import sys, tracing, zhcorrect.cli\n"
            "originals = {id(getattr(sys.modules['zhcorrect.' + m], f)) for m, fs in tracing.TARGETS.items() for f in fs}\n"
            "tracing.Tracer().install()\n"
            "left = [(n, a) for n, mod in list(sys.modules.items()) if n.startswith('zhcorrect')\n"
            "        for a, v in vars(mod).items() if id(v) in originals]\n"
            "print(left)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=bench.child_env(),
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(done.stdout.strip(), "[]")


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        spec = SPEC
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, bench.END_TO_END_UNITS)
        layer_names = set(tracing.iteration_metrics([])) | {"trace.overhead_frac"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, layer_names)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], tracing.unit(m["name"]))

    def test_refuses_to_run_without_package_sources(self):
        tmp = _scratch()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
                                   "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                                  timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
