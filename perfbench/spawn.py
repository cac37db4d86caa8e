"""Run one command as a child process and print its cost as one JSON line.

    python3 perfbench/spawn.py STDOUT_FILE STDERR_FILE CMD [ARG...]

Prints {"wall_s", "cpu_s", "peak_rss_mb", "code"}: wall time from start to
reaping, user + sys CPU time and peak RSS from wait4. Linux carries the
peak-RSS mark of the process that spawns a program into the program's own
ru_maxrss, so the benchmark, whose own memory grows, starts every measured
run through this small process instead of directly.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    stdout, stderr, cmd = sys.argv[1], sys.argv[2], sys.argv[3:]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
    }))


if __name__ == "__main__":
    main()
