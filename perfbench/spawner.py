"""Starts the benchmark's timed processes on behalf of run.py.

A child's peak RSS (``ru_maxrss``) also counts the pages it shared with its
parent when it was forked, so a parent holding numpy and the generated inputs
would show up in every child's peak. run.py starts this small process before
it loads numpy, and asks it to run each invocation: one JSON request per line
on stdin, one JSON reply per line on stdout with the exit code, the wall time
and the peak RSS from ``os.wait4``. It exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        reply = {"code": os.waitstatus_to_exitcode(status), "wall": wall, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
