"""Host-speed calibration: a fixed memory-bound loop timed between steps.

The benchmark's host is a shared machine whose speed drifts by up to 2x
over seconds to minutes, in process CPU time as well as in wall time:
other tenants contend for the cores, caches and memory the interpreter's
object graph lives in.  The calibration loop uses none of the
repository's code: it walks a 32 MB random cycle, far past any cache, and
does a little integer and dict work at each step, so that it slows with
memory contention as the jobs do (a cache-resident loop alone tracks
them worse: it mostly sees which core it landed on).  It runs in a child
process so that its table stays out of the benchmark process's peak RSS,
pinned with it to one core, and only while the benchmark process waits
for it, never beside a timed step.

Each end-to-end time is reported in *reference seconds*: the step's CPU
seconds times ``REF_S`` over the mean of the two samples taken before
and the two after it, i.e. what the step would have cost on a host where
one sample costs ``REF_S``.  A change to the program moves the step and
not the sample, so it moves the metric by the same share.

Run as a script, this module is that child: it answers each line on
stdin with the CPU seconds of one sample, and exits at end of input.
"""

from __future__ import annotations

import subprocess
import sys
import time
from array import array

#: CPU seconds of one sample on the reference host (a quiet core of the
#: 2-vCPU machine the benchmark was defined on, where samples read
#: 0.07-0.10 s): the unit of the scaled metrics.
REF_S = 0.08
#: Entries of the cycle: 32 MB of 8-byte indices.
ENTRIES = 1 << 22
#: Steps along the cycle per sample.
STEPS = 250_000


def _cycle(n: int) -> array:
    """``next[i]`` of one random cycle through all of ``range(n)``."""
    import numpy as np

    order = np.random.default_rng(1).permutation(n)
    nxt = np.empty(n, dtype=np.int64)
    nxt[order] = np.roll(order, -1)
    return array("q", nxt.tobytes())


def _chase(nxt: array) -> int:
    table: dict[int, int] = {}
    j = acc = 0
    for _ in range(STEPS):
        j = nxt[j]
        acc = (acc * 31 + j) & 0xFFFFF
        table[acc & 4095] = j
    return acc


def _serve() -> None:
    nxt = _cycle(ENTRIES)
    _chase(nxt)  # fault the table in before the first sample
    print("ready", flush=True)
    for _ in sys.stdin:
        c0 = time.process_time()
        _chase(nxt)
        print(time.process_time() - c0, flush=True)


class Calibrator:
    """The calibration child; ``sample()`` returns one sample's CPU seconds."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration child did not start")

    def sample(self) -> float:
        self.proc.stdin.write("s\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _serve()
