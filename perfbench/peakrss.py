"""Run a command and print its own peak RSS, in KiB.

    python3 -S perfbench/peakrss.py TIMEOUT_S PROGRAM [ARGS...]

Linux carries ru_maxrss over from the process a child was forked from,
so a child of the benchmark process reads at least the benchmark's own
RSS.  Started with -S, this launcher stays smaller than the Python
program it runs, so the figure is that program's.  The command's stdout
is discarded; the figure is the one line this prints.  A command still
running after TIMEOUT_S seconds is killed.  Exits with the command's
exit code.
"""

import os
import signal
import sys


def main() -> int:
    timeout_s, argv = int(sys.argv[1]), sys.argv[2:]
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout_s)
    _, status, usage = os.wait4(pid, 0)
    signal.alarm(0)
    print(usage.ru_maxrss)
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
