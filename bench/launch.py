"""Start one measured process; report its spawn time, peak RSS and exit code.

    python bench/launch.py <program> <arguments...>

Linux carries a parent's peak RSS over fork and exec into the child's
`ru_maxrss`, so a process started by `run.py`, which has numpy loaded,
could report run.py's peak instead of its own.  This stdlib-only
launcher stays small, so the process it starts reports its own.
The process inherits stdout; once it has exited the launcher prints

    launched <spawn perf_counter> <peak RSS KiB> <exit code>
"""

import os
import subprocess
import sys
import time


def main(argv: list[str]):
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(f"launched {start!r} {usage.ru_maxrss} {proc.returncode}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
