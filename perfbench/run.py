"""zhcorrect benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {train,correct,cgc,ingest} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root. The benchmark pins itself, and so every
process it starts, to one CPU. Set-up generates the workload's inputs from
the seed (and, for ``correct``, trains its model through the CLI) three
times and reports the median. The timed loop then repeats the workload's CLI
command sequence, one fresh interpreter per command and one command at a
time (a closed loop with one client, ``--jobs 1``), until the next iteration
would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics. Each set-up and each timed
iteration runs beside the CPU speed probe (``probe.py``), and its time is the
CPU time of its processes rescaled to the probe's reference rate: the time it
takes on a CPU that runs the probe at ``REFERENCE_RATE``. This takes out the
speed changes of a shared host, which move wall time by up to half from one
minute to the next. Wall times are recorded and printed too.

``--trace 1`` alternates untraced iterations with traced ones, which run the
same commands in-process under ``tracing.py``, and reports per-layer metrics.
It runs without the probe, so its times are wall times.

Every output file (model, corrected lines, M2, score JSON) and every
command's stdout is hashed; all iterations, traced or not, must produce the
same bytes, and the workload's own output checks must hold. Each run appends
a full record (environment, every iteration, digests, quality guards) to
``perfbench/results/runs.jsonl``. The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RESULTS = HERE / "results" / "runs.jsonl"
NPROC = len(os.sched_getaffinity(0))  # before main() pins the process to one CPU
SETUPS = 3
# Probe rounds per CPU second that rescaled times refer to: about the
# median rate of the probe on the 2-vCPU Xeon VM the baseline was measured
# on, so that rescaled times there read about as CPU seconds.
REFERENCE_RATE = 300.0
# Environment variables the benchmark pins for every child interpreter.
PINNED = {"PYTHONHASHSEED": "0"}
UNSET = ("ZHCORRECT_JOBS", "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE")

END_TO_END_UNITS = {"cpu_ref_s": "s", "sents_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, set-up failed)."""


@dataclass
class Proc:
    code: int
    maxrss_mb: float
    cpu_s: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED, PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(args: list[str], cwd: Path, trace: tuple | None = None) -> Proc:
    """Run ``python ARGS`` in cwd and reap it with ``os.wait4`` for its peak RSS.

    With ``trace = (spans_out, workload, run_id)`` the CLI arguments run
    in-process under ``tracing.py`` instead.
    """
    logs = cwd / "logs"
    logs.mkdir(exist_ok=True)
    with open(logs / "stdout", "wb") as out, open(logs / "stderr", "wb") as err:
        argv = [sys.executable, *args]
        if trace is not None:
            spans_out, workload, run_id = trace
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans_out), repr(time.perf_counter()),
                    workload, run_id, "--", *args]
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        usage.ru_maxrss / 1024,
        usage.ru_utime + usage.ru_stime,
        (logs / "stdout").read_text(encoding="utf-8", errors="replace"),
        (logs / "stderr").read_text(encoding="utf-8", errors="replace"),
    )


class Probe:
    """The CPU speed probe, running beside the commands of one measured window."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")], stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.wait()
            raise BenchError(f"the CPU speed probe did not start (exit {self.proc.returncode})")

    def stop(self) -> float:
        """Stop the probe; return its rate over the window relative to REFERENCE_RATE."""
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=60)
        rounds, cpu_s = out.split()
        return int(rounds) / float(cpu_s) / REFERENCE_RATE

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def probed(enabled: bool, body):
    """Run body(); return (its result, the probe's relative rate over it or None)."""
    if not enabled:
        return body(), None
    probe = Probe()
    try:
        result = body()
        return result, probe.stop()
    finally:
        probe.kill()


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def digest_dir(directory: Path) -> dict[str, str]:
    """sha256 of every file under directory, except the CLI's manifests,
    which record wall time."""
    return {
        str(p.relative_to(directory)): sha256(p.read_bytes())
        for p in sorted(directory.rglob("*"))
        if p.is_file() and not p.name.endswith(".manifest.json")
    }


def combined_digest(digests: dict[str, str]) -> str:
    """One digest over a name -> digest map, to compare runs at a glance."""
    return sha256(json.dumps(digests, sort_keys=True).encode("utf-8"))


def commit_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def differing_outputs(iterations: list[dict]) -> list[str]:
    """One message per iteration whose output digests differ from the first's."""
    first = iterations[0]["digests"]
    messages = []
    for k, it in enumerate(iterations[1:], start=1):
        changed = sorted(n for n in first.keys() | it["digests"].keys() if first.get(n) != it["digests"].get(n))
        if changed:
            kind = "traced" if it["traced"] else "untraced"
            messages.append(f"iteration {k} ({kind}) outputs differ from iteration 0: {changed}")
    return messages


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path = WORK) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.wdir = work / workload
        # Failed commands and failed output checks, one message each.
        self.command_failures: list[str] = []
        self.check_failures: list[str] = []
        self.commands = 0
        self.iterations: list[dict] = []
        # Rescaled CPU seconds of each set-up (wall seconds with --trace 1).
        self.setup_s: list[float] = []
        self.info: dict = {}
        self.inputs: dict[str, str] = {}

    @property
    def failures(self) -> list[str]:
        return self.command_failures + self.check_failures

    def counts(self) -> tuple[int, int]:
        """(attempted, failed): every CLI command plus the output checks as one."""
        return self.commands + 1, len(self.command_failures) + bool(self.check_failures)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Generate the inputs (and train the ``correct`` model) SETUPS times
        over, timing each, or once with --trace 1, which does not report
        set-up time. The last set-up's files stay for the timed loop."""
        self.rdir = self.wdir / "run"

        def once() -> list[Proc]:
            shutil.rmtree(self.wdir, ignore_errors=True)
            self.rdir.mkdir(parents=True)
            procs = [spawn([str(HERE / "workloads.py"), self.workload, str(self.seed), "in"], self.rdir)]
            if procs[0].code != 0:
                raise BenchError(f"input generation failed (exit {procs[0].code}): {procs[0].stderr.strip()[-2000:]}")
            for args in workloads.setup_commands(self.workload, self.seed):
                procs.append(spawn([*workloads.CLI_PREFIX, *args], self.rdir))
                if procs[-1].code != 0:
                    raise BenchError(f"set-up command {args[0]} failed (exit {procs[-1].code}): "
                                     f"{procs[-1].stderr.strip()[-2000:]}")
            return procs

        for _ in range(1 if self.trace else SETUPS):
            start = time.perf_counter()
            procs, rate = probed(not self.trace, once)
            wall = time.perf_counter() - start
            self.setup_s.append(wall if rate is None else sum(p.cpu_s for p in procs) * rate)
        self.info = json.loads(procs[0].stdout)
        self.inputs = digest_dir(self.rdir / "in")

    # -- timed and traced iterations -----------------------------------------

    def iteration(self, traced: bool) -> dict:
        out = self.rdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        run_id = str(len(self.iterations))
        spans_dir = self.rdir / "spans"
        spans_dir.mkdir(exist_ok=True)
        procs, span_files, stdouts = [], [], {}

        def commands() -> None:
            for k, args in enumerate(workloads.timed_commands(self.workload, self.seed)):
                self.commands += 1
                if traced:
                    span_files.append(spans_dir / f"{run_id}.{k}.json")
                    p = spawn(args, self.rdir, trace=(span_files[-1], self.workload, run_id))
                else:
                    p = spawn([*workloads.CLI_PREFIX, *args], self.rdir)
                procs.append(p)
                stdouts[f"stdout.{k}.{args[0]}"] = sha256(p.stdout.encode("utf-8"))
                if p.code != 0:
                    last_line = (p.stderr.strip().splitlines() or [""])[-1]
                    self.command_failures.append(f"iteration {run_id}: {args[0]} exited {p.code}: {last_line}")
                    break

        start = time.perf_counter()
        _, rate = probed(not self.trace, commands)
        wall = time.perf_counter() - start
        cpu = sum(p.cpu_s for p in procs)
        record = {
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "probe_rate": rate,
            "cpu_ref_s": None if rate is None else cpu * rate,
            "peak_rss_mb": max(p.maxrss_mb for p in procs),
            "ok": all(p.code == 0 for p in procs),
            "digests": {**digest_dir(out), **stdouts},
            "stdout": procs[0].stdout,
        }
        if traced and record["ok"]:
            commands = [tracing.command_metrics(json.loads(f.read_text(encoding="utf-8"))) for f in span_files]
            record["layers"] = tracing.iteration_metrics(commands)
        self.iterations.append(record)
        return record

    def measure(self) -> None:
        start = time.perf_counter()
        kinds = (False, True) if self.trace else (False,)
        while True:
            lap = time.perf_counter()
            for traced in kinds:
                self.iteration(traced)
            now = time.perf_counter()
            if now - start + (now - lap) > self.seconds:
                break

    # -- checks and results --------------------------------------------------

    def check(self) -> None:
        """Compare the digests of all iterations, then run the workload's own
        checks on the outputs of the last one, if it completed."""
        good = [it for it in self.iterations if it["ok"]]
        if good:
            self.check_failures += differing_outputs(good)
        if not self.iterations or not self.iterations[-1]["ok"]:
            return

        def python(args):
            p = spawn(args, self.rdir)
            return p.code, p.stdout

        (self.rdir / "check").mkdir(exist_ok=True)
        self.check_failures += workloads.CHECKS[self.workload](self.rdir, self.info, python)

    def metrics(self) -> dict:
        plain = [it for it in self.iterations if not it["traced"] and it["ok"]]
        traced = [it["layers"] for it in self.iterations if it["traced"] and it["ok"]]
        if not plain or (self.trace and not traced):
            raise BenchError("no iteration completed: " + "; ".join(self.failures))
        if not self.trace:
            values = {
                "cpu_ref_s": statistics.median(it["cpu_ref_s"] for it in plain),
                "sents_per_s": statistics.median(self.info["sentences"] / it["cpu_ref_s"] for it in plain),
                "peak_rss_mb": max(it["peak_rss_mb"] for it in plain),
                "setup_s": statistics.median(self.setup_s),
            }
            return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        values = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        # The traced wall ends when the CLI's main returns, before the spans
        # are written out.
        values["trace.overhead_frac"] = values["trace.wall_s"] / statistics.median(it["wall_s"] for it in plain) - 1.0
        return {k: {"value": v, "unit": tracing.unit(k)} for k, v in sorted(values.items())}

    def record(self, result: dict) -> dict:
        last = self.iterations[-1] if self.iterations[-1]["ok"] else None
        return {
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "environment": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "machine": platform.machine(),
                "nproc": NPROC,
                "pinned_cpu": min(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
                "commit": commit_sha(),
                "pinned": {**PINNED, "PYTHONPATH": "src", "unset": list(UNSET)},
            },
            "info": self.info,
            "inputs": self.inputs,
            "inputs_sha256": combined_digest(self.inputs),
            "outputs_sha256": combined_digest(last["digests"]) if last else None,
            "setup_s": self.setup_s,
            "iterations": [{k: v for k, v in it.items() if k != "stdout"} for it in self.iterations],
            "quality": workloads.quality(self.workload, self.rdir, last["stdout"]) if last else {},
            "failures": self.failures,
            "result": result,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zhcorrect" / "cli.py").is_file():
        print(f"error: no zhcorrect sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    # One CPU for the benchmark and every process it starts: the probe and
    # the CLI share it and see the same host speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.setup()
        run.measure()
        run.check()
        metrics = run.metrics()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted, failed = run.counts()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = run.record(result)
    RESULTS.parent.mkdir(exist_ok=True)
    with open(RESULTS, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  python {record['environment']['python']}  "
          f"nproc {record['environment']['nproc']}  commit {record['environment']['commit']}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    for name, value in record["quality"].items():
        print(f"  {name:<36} {value:>16.6g} (quality guard)")
    plain = [it for it in run.iterations if not it["traced"] and it["ok"]]
    print(f"  {'wall_s (not rescaled)':<36} {statistics.median(it['wall_s'] for it in plain):>16.6g} s")
    print(f"  failed_frac {failed / attempted:.4g} ({failed} of {attempted})")
    for message in run.failures:
        print(f"  FAILED: {message}")
    print(f"inputs {record['inputs_sha256']}")
    print(f"outputs {record['outputs_sha256']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
