"""Start commands one at a time; report each one's outcome and peak memory.

    python3 bench/spawn.py

Reads one JSON request per line on stdin, {"cmd", "cwd", "env", "tmp",
"timeout"}, and writes one JSON reply per line on stdout, {"code",
"stdout", "stderr", "wall_s", "maxrss_kb"}. It exits when stdin closes.

The cli workload starts its commands through this small process because
Linux counts the resident memory of the process that spawns a child in the
child's ru_maxrss; spawned from here, a child's peak is its own.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time


def run(req: dict) -> dict:
    with tempfile.TemporaryFile(dir=req["tmp"]) as out, \
            tempfile.TemporaryFile(dir=req["tmp"]) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"code": proc.returncode, "stdout": out.read().decode(),
                "stderr": err.read().decode(), "wall_s": wall,
                "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
