"""Run one command; print its exit code, wall time and peak RSS as JSON.

    python3 -I -S bench/launch.py PROGRAM ARGS...

The benchmark starts the audits through this small, fresh process because a
child's ru_maxrss starts at the resident-set high-water mark of the process
that created it: spawned straight from the benchmark, which has numpy and
scipy loaded, every audit would read at least that much. The command's own
output goes to this process's standard error.
"""
import json
import os
import sys
import time

argv = sys.argv[1:]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(json.dumps({"code": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kb": usage.ru_maxrss}))
