"""Starts the benchmark's child processes, one at a time, on request.

The benchmark process holds reference tables of up to a few hundred MB.  A
child started from it directly would report that process's peak resident
set as its own, since Linux carries the peak of the memory image an ``exec``
replaces into the new program's ``ru_maxrss``.  This small process, started
once per run, launches every child instead.

Protocol: one JSON request per stdin line, ``{"argv", "out", "err", "cwd",
"timeout"}``; one JSON reply per stdout line, ``{"rc", "wall_s", "cpu_s",
"rss_kb"}``.  Children inherit this process's environment.  A child still
running after ``timeout`` seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "wall_s": wall,
                 "cpu_s": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
