"""Child-process runner for the benchmark.

Reads one JSON request per line on stdin ({"cmd", "cwd", "log",
"timeout"}), runs the command to completion and answers with one JSON line:
exit code, wall time from perf_counter, and CPU time and max RSS from the
child's rusage via wait4.

The benchmark starts this process before it loads any inputs and spawns
every stage through it. On Linux a child's max RSS starts from the RSS of
the process that spawned it, so spawning stages from the benchmark process
itself, which holds the workload's inputs, would report that process's
memory for every stage instead of the stage's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(request: dict) -> dict:
    with open(request["log"], "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(
            request["cmd"], cwd=request["cwd"], stdout=log, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
