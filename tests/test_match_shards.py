"""Match shards: when ``run_matches`` forks, what reaches the caller when a
shard fails, and that OpenBLAS gets its thread count back and no child is
left either way.

Each test pins the usable CPU count through ``match._usable_cpus``; with two
jobs and two CPUs the caller plays the first job and one child the second.
"""

import os

import pytest

from gridleague import match
from gridleague.env import ScriptedPolicy
from gridleague.match import MatchJob, ScriptedAgent, run_matches

JOBS = [MatchJob(60 + i, "triton_toy", (ScriptedAgent("RUSH"), ScriptedAgent("ECON")),
                 max_steps=40) for i in range(2)]


class ScriptFault(Exception):
    pass


@pytest.mark.parametrize("cpus, blas, forks", [(1, True, 0), (2, False, 0), (2, True, 1)])
def test_forks_only_with_two_cpus_and_a_settable_openblas(monkeypatch, cpus, blas, forks):
    if blas and match._openblas_threads() is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    forked = []
    fork = os.fork

    def counting_fork():
        forked.append(1)
        return fork()

    monkeypatch.setattr(match, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counting_fork)
    if not blas:
        monkeypatch.setattr(match, "_openblas_threads", lambda: None)
    assert [r.job for r in run_matches(JOBS)] == JOBS
    assert len(forked) == forks


@pytest.mark.parametrize("fault, raised", [
    (None, None), ("caller", ScriptFault), ("child", ScriptFault), ("child exits", RuntimeError)])
def test_shard_failures_restore_blas_threads_and_leave_no_child(monkeypatch, fault, raised):
    blas = match._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    get_threads, set_threads, _ = blas
    caller, during = os.getpid(), []

    class Faulty(ScriptedPolicy):
        def act(self, obs):
            where = "caller" if os.getpid() == caller else "child"
            if where == "caller":
                during.append(get_threads())
            if fault == where:
                raise ScriptFault(where)
            if fault == "child exits" and where == "child":
                os._exit(3)
            return super().act(obs)

    monkeypatch.setattr(match, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(match, "ScriptedPolicy", Faulty)
    threads = get_threads()
    set_threads(2)      # not the shards' one, so that a count left at one shows
    try:
        if raised is None:
            assert [r.job for r in run_matches(JOBS)] == JOBS
        else:
            with pytest.raises(raised) as info:
                run_matches(JOBS)
            if fault == "child":
                assert "match shard 1 of 2 raised" in str(info.value.__cause__)
            elif fault == "child exits":
                assert "match shard 1 of 2 died with exit status 3" in str(info.value)
        assert during and set(during) == {1}
        assert get_threads() == 2
    finally:
        set_threads(threads)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
