"""The one runner over forked workers, and verify-paper run through it."""

import errno
import json
import os
from fractions import Fraction as F

import pytest

from localchrom import report as rp
from localchrom import search, workers
from localchrom.cli import main


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _claims(report: rp.Report) -> list[tuple[str, str, str]]:
    return [(e.claim_id, e.status, e.detail) for e in report.entries]


def _processes(monkeypatch) -> list[int]:
    """The processes of each ``run_tasks`` call that ``verify_paper`` makes from now on."""
    counted = []

    def run_tasks(tasks, k):
        results, processes = workers.run_tasks(tasks, k)
        counted.append(processes)
        return results, processes

    monkeypatch.setattr(rp, "run_tasks", run_tasks)
    return counted


@pytest.fixture(scope="module")
def serial_claims() -> list[tuple[str, str, str]]:
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(rp, "usable_cpus", lambda: 1)
        counted = _processes(monkeypatch)
        claims = _claims(rp.verify_paper())
    assert counted == [1]
    assert len(claims) == 24 and {status for _, status, _ in claims} == {"PASS"}
    return claims


def test_tasks_run_round_robin_over_k_processes():
    caller = os.getpid()
    pids, processes = workers.run_tasks([os.getpid] * 7, 3)
    assert processes == 3
    assert [pid == caller for pid in pids] == [True, False, False] * 2 + [True]
    assert pids[1] == pids[4] != pids[2] == pids[5] and caller not in pids[1:3]
    _no_child_left()


def test_no_more_processes_than_tasks():
    assert workers.run_tasks([], 4) == ([], 1)
    assert workers.run_tasks([lambda: "a", lambda: "b"], 5) == (["a", "b"], 2)
    _no_child_left()


def test_a_worker_sees_one_usable_cpu():
    assert workers.run_tasks([workers.usable_cpus] * 2, 2)[0] == [workers.usable_cpus(), 1]
    _no_child_left()


@pytest.mark.parametrize("k", [2, 3])
def test_verify_paper_over_k_processes_is_the_serial_report(monkeypatch, serial_claims, k):
    monkeypatch.setattr(rp, "usable_cpus", lambda: k)
    counted = _processes(monkeypatch)
    assert _claims(rp.verify_paper()) == serial_claims
    assert counted == [k]
    _no_child_left()


def _no_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def _no_pipe():
    raise OSError(errno.EMFILE, "Too many open files")


@pytest.mark.parametrize("name, fails", [("fork", _no_fork), ("pipe", _no_pipe)])
def test_verify_paper_without_a_worker_is_the_serial_report(monkeypatch, serial_claims, name, fails):
    # no process or no file descriptor to spare: every claim runs here
    monkeypatch.setattr(rp, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, name, fails)
    counted = _processes(monkeypatch)
    assert _claims(rp.verify_paper()) == serial_claims
    assert counted == [1]
    _no_child_left()


def test_claims_of_a_worker_that_dies_mid_claim_run_here(monkeypatch, serial_claims):
    caller, build = os.getpid(), rp.build_claims

    def claims_with_a_death():
        claims = build()
        cid, fn = claims[-1]  # with k = 2, the worker's last claim, after 11 others

        def dies_in_a_worker():
            if os.getpid() != caller:
                os._exit(7)
            return fn()

        claims[-1] = (cid, dies_in_a_worker)
        return claims

    monkeypatch.setattr(rp, "build_claims", claims_with_a_death)
    monkeypatch.setattr(rp, "usable_cpus", lambda: 2)
    counted = _processes(monkeypatch)
    assert _claims(rp.verify_paper()) == serial_claims
    assert counted == [2]
    _no_child_left()


def test_a_search_in_a_worker_stays_in_one_process(monkeypatch):
    # every level would be split, but a worker never forks again
    monkeypatch.setattr(search, "SPLIT_MIN_PARENTS", 1)
    caller = os.getpid()

    def levels_by_process() -> str:
        levels = search.enumerate_extremal(5, F(1, 2)).levels
        return f"{'here' if os.getpid() == caller else 'worker'} {sorted({s.processes for s in levels})}"

    monkeypatch.setattr(rp, "build_claims", lambda: [("here", levels_by_process), ("there", levels_by_process)])
    monkeypatch.setattr(rp, "usable_cpus", lambda: 2)
    entries = rp.verify_paper().entries
    assert [e.detail for e in entries] == [f"here [{workers.usable_cpus()}]", "worker [1]"]
    _no_child_left()


def test_timeout_zero_skips_every_claim_in_every_process(monkeypatch, capsys):
    monkeypatch.setattr(rp, "usable_cpus", lambda: 2)
    counted = _processes(monkeypatch)
    assert main(["verify-paper", "--timeout", "0", "--format", "json"]) == 0
    claims = json.loads(capsys.readouterr().out)
    assert len(claims) == 24 and {c["status"] for c in claims} == {"SKIP"}
    assert counted == [2]
    _no_child_left()
