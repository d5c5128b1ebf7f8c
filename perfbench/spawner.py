"""Start each benchmark child from a small process and report its rusage.

On exec, Linux folds the high-water RSS of the replaced process image into
the new program's `ru_maxrss`, so a child forked from the benchmark itself
reports at least the benchmark's own peak memory. This process stays small
and starts the children instead. It inherits the children's environment
and working directory, reads one request per line on stdin and writes one
reply per line on stdout:

    request: {"argv": [...], "stdout": FILE, "stderr": FILE, "timeout_s": N}
    reply:   {"code": N, "wall_s": S, "cpu_s": S, "maxrss_kb": N}

`wall_s` runs from fork to exit. A child still running after `timeout_s`
is killed. The process exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, request["timeout_s"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
