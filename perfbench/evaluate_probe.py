"""Time ``cmd_evaluate`` in a fresh process.

    python3 perfbench/evaluate_probe.py BENCH_DIR RUN_DIR OUT_DIR REPEATS

Imports and warms up the package (``warmup.py``), then calls
``cmd_evaluate`` REPEATS times, writing OUT_DIR/0, OUT_DIR/1, ..., and
prints as its last line one JSON object: the return codes, and per call the
wall seconds and the user CPU seconds corrected for the host's speed
(``clock.py``).

The ``ci`` workload times its evaluation this way, as a user runs
``evaluate`` after ``run``: in a process of its own, on each CPU in turn.
On a 2-vCPU shared VM a 0.3 s ``cmd_evaluate`` kept a speed of its own in
each process, so repeating it inside the benchmark's process steadied it
little: medians of 10 calls in 5 runs spread 23% of their median (IQR),
medians over 6 fresh processes 9%.

Only user CPU time counts here. Each call creates 121 files, and on that
VM the system time of a call grew from 0.015 s to 0.11 s over six
consecutive benchmark runs while its user time stayed within 0.24 to
0.27 s; with system time the runs spread 28%, without it 5%.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from warmup import pin_environment


def main(argv: list[str]) -> int:
    bench, run, out, repeats = argv[0], argv[1], Path(argv[2]), int(argv[3])
    pin_environment()
    import screeb.harness as harness

    import warmup
    from clock import SpeedClock, stamp

    warmup.warm_up()
    def user_time() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_utime

    codes, walls, seconds = [], [], []
    with SpeedClock() as clock:
        for i in range(repeats):
            u0, (w0, c0) = user_time(), stamp()
            codes.append(harness.cmd_evaluate(bench, run, str(out / str(i))))
            (w1, c1), u1 = stamp(), user_time()
            walls.append(w1 - w0)
            seconds.append(clock.seconds(w0, w1, c0, c1) * (u1 - u0) / (c1 - c0))
    print(json.dumps({"codes": codes, "wall": walls, "seconds": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
