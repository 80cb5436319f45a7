"""Run one command and print its wall seconds, peak RSS (KiB) and exit code.

    python -S launch.py TIMEOUT_S STDOUT_FILE STDERR_FILE ARGV...

Linux starts a child's ``ru_maxrss`` at the RSS high-water mark of the
process that spawned it, so a child of the benchmark process would report
at least the benchmark's own peak (it holds generated inputs and gate
data). This launcher is a fresh interpreter without ``site`` that imports
almost nothing, so the figure it reads from ``os.wait4`` is the command's
own peak whenever that exceeds ~11 MiB. The clock runs from the spawn to
the command's exit; a command still running after TIMEOUT_S is killed.
"""

import os
import signal
import sys
import time


def main(argv):
    timeout, out_path, err_path, command = int(argv[0]), argv[1], argv[2], argv[3:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawnp(command[0], command, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda signum, frame: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    print(wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
