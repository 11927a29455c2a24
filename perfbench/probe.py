"""CPU speed probe: a fixed pure-Python loop, run beside the timed commands.

    python perfbench/probe.py

The CPUs of a shared virtual machine change speed by up to half over seconds
to minutes, as other tenants load the host, and the CLI's CPU time changes
with them. ``run.py`` pins itself, and so every process it starts, to one
CPU, and runs this loop there for the whole of each measured window. The
probe and the CLI then share that CPU in turns of a few milliseconds and are
slowed alike, so the probe's rate over the window measures the speed the
CLI ran at.

A round of the loop mixes the kinds of work the CLI does: integer
arithmetic, an edit-distance table built from lists, and tuples counted in a
dict. On the four workloads this mix tracked the CLI's CPU time about twice
as closely as arithmetic alone. It uses no package code, so a change to the
package cannot change the probe.

The probe prints ``ready``, runs rounds until SIGTERM, then prints the number
of rounds and its own CPU seconds.
"""

from __future__ import annotations

import random
import signal
import sys
import time

_rng = random.Random(0)
_A = "".join(chr(0x4E00 + _rng.randrange(300)) for _ in range(40))
_B = _A[:10] + "x" + _A[11:30] + _A[32:]
_WORDS = ["".join(chr(0x4E00 + _rng.randrange(3000)) for _ in range(_rng.randint(1, 4))) for _ in range(2000)]


def one_round() -> None:
    """About 3 ms of work, a third each of arithmetic, DP and tuple counting."""
    s = 0
    for i in range(10_000):
        s += i * i % 7
    prev = list(range(len(_B) + 1))
    for i, a in enumerate(_A, 1):
        cur = [i]
        for j, b in enumerate(_B, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a != b)))
        prev = cur
    counts: dict = {}
    for w in _WORDS:
        t = tuple(w)
        counts[t] = counts.get(t, 0) + 1


def main() -> int:
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    print("ready", flush=True)
    rounds, start = 0, time.process_time()
    while not stopped:
        one_round()
        rounds += 1
    print(rounds, time.process_time() - start, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
