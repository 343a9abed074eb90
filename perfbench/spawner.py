"""Small helper process that starts, times and reaps the benchmark's children.

A child's ``ru_maxrss`` starts from the memory high-water mark of the
process that forked it, so children forked by the benchmark process itself,
which holds the generated corpus, would report that process's memory as
their own. This helper imports almost nothing and stays small, so the peak
RSS it reports for a child is the child's own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "env": {...}, "stderr": PATH, "timeout": SECONDS}``;
one JSON reply per line on stdout, ``{"seconds": ..., "exit_code": ..., "rss_mb": ...}``.
A child still running at the timeout is killed. On SIGTERM the running
child is killed and reaped before the helper exits; at end of input it exits.
"""

import json
import os
import signal
import sys
import time

running = None


def kill_running(*_args) -> None:
    if running is not None:
        try:
            os.kill(running, signal.SIGKILL)
        except ProcessLookupError:
            pass


def on_term(*_args) -> None:
    if running is not None:
        kill_running()
        try:
            os.waitpid(running, 0)
        except ChildProcessError:
            pass
    os._exit(128 + signal.SIGTERM)


def run(request: dict) -> dict:
    global running
    devnull = os.open(os.devnull, os.O_RDWR)
    err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(request["cwd"])
            os.dup2(devnull, 0)
            os.dup2(devnull, 1)
            os.dup2(err, 2)
            os.execve(request["argv"][0], request["argv"], request["env"])
        finally:
            os._exit(127)
    running = pid
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        _pid, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        running = None
        os.close(err)
        os.close(devnull)
    return {
        "seconds": time.perf_counter() - start,
        "exit_code": os.waitstatus_to_exitcode(status),
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    signal.signal(signal.SIGALRM, kill_running)
    signal.signal(signal.SIGTERM, on_term)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
