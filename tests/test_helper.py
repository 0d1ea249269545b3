"""The den^d helper process: same values as the inline chain, and bounded."""
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import zsig.arith as arith
from zsig.cli import main
from zsig.harness import ScanConfig, csv_text, run_scan
from zsig.orbit import iterate
from zsig.poly import X2DivisiblePoly

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is forked")

SRC = Path(__file__).resolve().parents[1] / "src"
DEEP = ("zsigmondy", "--poly=x^3+x^2", "--c=-5/3", "--horizon", "13")
# its golden file: the lines `$ zsig ...` and `exit 0`, then the stdout
DEEP_GOLDEN = Path(__file__).parent / "golden" / "zsigmondy_poly=x3+x2_c=-5over3_horizon_13.txt"


@pytest.fixture
def fresh(monkeypatch):
    """A process with no helper yet that may start one; whatever starts is stopped after."""
    monkeypatch.setattr(arith, "_helper", None)
    monkeypatch.setattr(arith, "_helper_off", False)
    monkeypatch.setattr(arith, "_usable_cpus", lambda: 2)
    replies = []
    real_reply = arith._power_reply

    def counting_reply(base, d):
        replies.append(base)
        return real_reply(base, d)

    monkeypatch.setattr(arith, "_power_reply", counting_reply)
    yield replies
    arith._no_helper()


def _plain(g, num, den):
    d = g.degree
    return sum(u * num**i * den ** (d - i) for i, u in enumerate(g.coeffs)), den**d


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    coeffs=st.integers(2, 5).flatmap(lambda d: st.lists(
        st.integers(-40, 40), min_size=d - 1, max_size=d - 1).filter(lambda cs: cs[-1])),
    num=st.integers(-(2**3000), 2**3000),
    twos=st.integers(0, 200),
    odd=st.integers(0, 2**2000).map(lambda m: 2 * m + 1),
    shape=st.sampled_from(("dyadic", "odd", "mixed")),
)
def test_helper_matches_the_inline_chain(fresh, monkeypatch, coeffs, num, twos, odd, shape):
    g = X2DivisiblePoly.from_coeffs([0, 0, *coeffs])
    den = {"dyadic": 1 << twos, "odd": odd, "mixed": odd << max(twos, 1)}[shape]
    inline = g.eval_int_pair(num, den)
    fresh.clear()
    with monkeypatch.context() as patch:
        patch.setattr(arith, "_HELPER_BITS", 1)
        assert g.eval_int_pair(num, den) == inline == _plain(g, num, den)
    # a power of two is a shift for mul, so it never goes to the helper
    assert fresh == ([] if den & (den - 1) == 0 else [den])


def test_replies_longer_than_a_pipe_buffer(fresh, monkeypatch):
    monkeypatch.setattr(arith, "_HELPER_BITS", 1)
    g = X2DivisiblePoly.parse("x^5-2*x^4+x^2")
    num, den = -(7**90_000), 3**150_000  # den^5 is 1.19 * 10^6 bits
    assert g.eval_int_pair(num, den) == _plain(g, num, den)
    assert fresh == [den]


@pytest.mark.parametrize("moment", ["before_request", "after_request"])
def test_killed_helper_falls_back_to_the_same_bytes(fresh, monkeypatch, capsys, moment):
    killed = []
    real_write = arith._write_ints

    def kill_once():
        # left unreaped, so that its pid stays its own until the owner reaps it
        if not killed:
            os.kill(arith._helper.pid, signal.SIGKILL)
            _wait_gone(arith._helper.pid)
            killed.append(1)

    def write(pipe, *values):
        if moment == "before_request":
            kill_once()
        real_write(pipe, *values)
        if moment == "after_request":
            kill_once()

    monkeypatch.setattr(arith, "_write_ints", write)
    assert main(list(DEEP)) == 0
    out = capsys.readouterr().out
    assert out == DEEP_GOLDEN.read_text(encoding="utf-8").split("\n", 2)[2]
    assert killed and arith._helper is None and arith._helper_off
    assert len(fresh) == (moment == "after_request")


def test_forked_child_never_writes_to_its_parents_helper(fresh, monkeypatch):
    monkeypatch.setattr(arith, "_HELPER_BITS", 1)
    g = X2DivisiblePoly.parse("2*x^3+x^2")
    assert g.eval_int_pair(5, 9) == _plain(g, 5, 9)
    helper = arith._helper
    assert helper is not None and fresh == [9]
    pid = os.fork()
    if pid == 0:
        try:
            arith._write_ints = lambda *args: os._exit(3)
            ok = g.eval_int_pair(7, 15) == _plain(g, 7, 15) and arith._helper is None
            os._exit(0 if ok else 1)
        finally:
            os._exit(2)
    assert os.waitpid(pid, 0)[1] == 0
    # the parent's pipes are still in step: its next reply is its own
    assert g.eval_int_pair(11, 21) == _plain(g, 11, 21)
    assert arith._helper is helper and fresh == [9, 21]


def test_scan_workers_start_no_helper(fresh, monkeypatch, tmp_path):
    monkeypatch.setattr(arith, "_HELPER_BITS", 1)
    config = ScanConfig(X2DivisiblePoly.parse("x^3+x^2"), 4, 3, horizon=6)
    serial = csv_text(run_scan(config))
    assert arith._helper is not None and fresh  # every odd den(c) step used it
    arith._no_helper()
    monkeypatch.setattr(arith, "_helper_off", False)
    # a helper forked by a worker would leave this file behind
    marker = tmp_path / "helper-started"
    monkeypatch.setattr(arith, "_serve", lambda requests, replies: marker.touch())
    parallel = csv_text(run_scan(ScanConfig(config.poly, 4, 3, horizon=6, parallelism=2)))
    assert parallel == serial
    assert not marker.exists()


def test_no_fork_while_another_thread_runs(fresh, monkeypatch):
    monkeypatch.setattr(arith, "_HELPER_BITS", 1)
    g = X2DivisiblePoly.parse("x^3+x^2")
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert g.eval_int_pair(2, 3) == _plain(g, 2, 3)
        assert arith._helper is None and fresh == []
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert g.eval_int_pair(2, 3) == _plain(g, 2, 3)
    assert arith._helper is not None and fresh == [3]


def test_benchmark_inputs_without_a_deep_odd_denominator_start_no_helper(fresh, monkeypatch):
    # survey grids stay under the threshold, and den(c) = 1 or 2 never leaves mul
    started = []
    monkeypatch.setattr(arith, "_running_helper", lambda: started.append(1))
    for text in ("x^3+x^2", "2*x^3+x^2"):
        run_scan(ScanConfig(X2DivisiblePoly.parse(text), 20, 6, horizon=8))
    g = X2DivisiblePoly.parse("x^3+x^2")
    for c in (3, -3, "1/2"):
        iterate(g, c, 13)
    assert started == []
    iterate(g, "-5/3", 13)
    assert started


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc")
def test_helper_keeps_only_its_pipes_and_ignores_sigint(fresh, monkeypatch):
    monkeypatch.setattr(arith, "_HELPER_BITS", 1)
    g = X2DivisiblePoly.parse("x^3+x^2")
    assert g.eval_int_pair(2, 3) == _plain(g, 2, 3)
    pid = arith._helper.pid
    fds = {int(fd): os.readlink(f"/proc/{pid}/fd/{fd}") for fd in os.listdir(f"/proc/{pid}/fd")}
    assert [fds.pop(fd) for fd in (0, 1, 2)] == [os.devnull] * 3
    assert len(fds) == 2 and all(target.startswith("pipe:") for target in fds.values())
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        ignored = next(int(line.split()[1], 16) for line in fh if line.startswith("SigIgn:"))
    assert ignored >> (signal.SIGINT - 1) & 1


def _gone(pid: int) -> bool:
    # exited: no process, or a zombie that its new parent has yet to reap
    if not os.path.isdir("/proc/self"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rpartition(")")[2].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def _wait_gone(pid: int) -> bool:
    deadline = time.monotonic() + 10
    while not _gone(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    return _gone(pid)


@pytest.mark.parametrize("ending", ["exit", "SIGKILL"])
def test_helper_ends_with_its_parent(ending):
    code = f"""
import os, signal, sys
import zsig.arith as arith
from zsig.poly import X2DivisiblePoly
arith._usable_cpus = lambda: 2
arith._HELPER_BITS = 1
assert X2DivisiblePoly.parse("x^3+x^2").eval_int_pair(2, 3) == (20, 27)
print(arith._helper.pid, flush=True)
if {ending!r} == "SIGKILL":
    os.kill(os.getpid(), signal.SIGKILL)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    # the helper's stdio is /dev/null, so the captured pipes reach end of file with the parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == (0 if ending == "exit" else -signal.SIGKILL), proc.stderr
    assert _wait_gone(int(proc.stdout))
