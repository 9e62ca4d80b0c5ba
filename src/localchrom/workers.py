"""Independent tasks over this process and forked workers: the package's one fork.

``run_tasks(tasks, k)`` runs ``tasks[r::k]`` in process r of k: r = 0 here,
every other r in a worker of its own, which marshals its results back through
its own pipe and exits 0 only once they are all written.  Here, after its own
tasks, this process runs those that no worker hands back whole: a failed
worker's (so that its exception surfaces here), a dead one's, and those of
every worker from the first that cannot be started (no pipe or no process to
spare).  No worker outlives the call, however it ends, and none returns into
the caller's stack.  A worker sees one usable CPU, so it never forks again, and
a task run here sees its CPUs less its live workers: one process per CPU.
"""

import marshal
import os
import signal

_in_worker = False  # set only in a forked worker, which exits when its tasks end
_live = 0  # workers this process has started and not yet reaped


def usable_cpus() -> int:
    """The CPUs this process may run on, less one per live worker of its own, and
    at least 1; 1 in a worker, and where that is unknown or ``os.fork`` is missing."""
    if _in_worker or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, len(os.sched_getaffinity(0)) - _live)


def run_tasks(tasks: list, k: int) -> tuple[list, int]:
    """Each zero-argument task's result, in task order, and the number of
    processes that ran them, at most ``k``.  Results must be marshallable."""
    global _in_worker, _live
    k = min(k, len(tasks)) or 1
    pids, pipes = {}, {}  # r -> its worker until reaped, and the read end of its pipe
    try:
        for r in range(1, k):
            try:
                read_end, write_end = os.pipe()
                pipes[r] = open(read_end, "rb")
                with open(write_end, "wb") as out:
                    pids[r] = os.fork()
                    _live += 1
                    if pids[r] == 0:  # the worker
                        _in_worker, status = True, 1
                        try:
                            marshal.dump([task() for task in tasks[r::k]], out)
                            out.flush()
                            status = 0
                        finally:
                            os._exit(status)
            except OSError:  # no pipe or process to spare: the tasks of r and on stay here
                break
        processes, results = 1 + len(pids), [None] * len(tasks)
        for r in range(k):
            handed = None
            if r in pids:
                payload = pipes[r].read()  # marshal.load would read in pieces, ten times slower
                _live -= 1
                _, status = os.waitpid(pids.pop(r), 0)
                if os.waitstatus_to_exitcode(status) == 0:
                    handed = marshal.loads(payload)
            results[r::k] = handed or [task() for task in tasks[r::k]]
        return results, processes
    finally:
        for pipe in pipes.values():
            pipe.close()
        for pid in pids.values():
            _live -= 1
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
