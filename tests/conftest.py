"""Shared fixtures: a check that no test leaves a child process behind, a
call log that sees calls made in forked children, and the two ways
encoders.encode_samples can run (forked, one_cpu)."""

import json
import os

import pytest

from volalign import encoders as enc


@pytest.fixture(autouse=True)
def no_stray_children():
    """Fail a test that leaves a child of this process behind, live or un-reaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid == 0:
        pytest.fail("the test left a live child process")
    pytest.fail(f"the test left child {pid} un-reaped (wait status {status})")


class CallLog:
    """JSON values appended by this process and by the children it forks.
    Each value is one write to a file opened with O_APPEND, so the records
    of several processes never interleave within a line."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def append(self, value) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, (json.dumps(value) + "\n").encode("utf-8"))
        finally:
            os.close(fd)

    def values(self) -> list:
        return [json.loads(line) for line in self.path.read_text().splitlines()]


@pytest.fixture
def call_log(tmp_path):
    return CallLog(tmp_path / "calls.jsonl")


@pytest.fixture
def fork_log(monkeypatch, call_log):
    """A CallLog of the pids that os.fork returns to its callers, in any
    process."""
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            call_log.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return call_log


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs (os.sched_getaffinity), whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def forked(two_cpus, monkeypatch):
    """True, with every encoders.encode_samples call split across a forked
    child whatever its size (two usable CPUs, FORK_MIN_SAMPLES lowered to 1).
    A test class reruns its tests on one CPU in a subclass that overrides
    this fixture with one_cpu."""
    monkeypatch.setattr(enc, "FORK_MIN_SAMPLES", 1)
    return True


@pytest.fixture
def one_cpu(monkeypatch):
    """False, with one usable CPU: nothing forks, the ablation's probes
    neither."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    return False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in getattr(rep, "nodeid", ""):
                name = rep.nodeid.split("::")[-1]
                rows.append((name, outcome.upper()))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(rows):
            terminalreporter.write_line(f"{outcome:>6}  {name}")
