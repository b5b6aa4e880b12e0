"""Run one command and report its wall time, peak RSS and exit code.

    python3 -I -S perfbench/spawn.py REPORT_PATH COMMAND ARG...

run.py starts every measured process through this launcher.  A process's
``ru_maxrss`` also counts the memory of the process that forked it (the
kernel keeps the larger of the two when the child execs), so a child forked
straight from run.py would report run.py's own footprint.  This launcher is
a bare interpreter (``-I -S``, standard library ``os``/``sys``/``time``
only), far smaller than any hyperhodge process, so the figure it reports is
the command's own.  The report, ``wall_s maxrss_kib exit_code``, is written
to REPORT_PATH; the command inherits stdin, stdout and stderr.
"""

import os
import sys
import time

report_path, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
pid = os.posix_spawnp(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(report_path, "w") as report:
    report.write(f"{wall!r} {usage.ru_maxrss} "
                 f"{os.waitstatus_to_exitcode(status)}\n")
