"""The helper process: den^d and split products equal to the inline ones, and bounded."""
import os
import random
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
    replies = []  # the arguments of each request whose reply was waited for
    real_reply = arith._reply

    def counting_reply(inline, *args):
        replies.append(args)
        return real_reply(inline, *args)

    monkeypatch.setattr(arith, "_reply", counting_reply)
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
    assert fresh == ([] if den & (den - 1) == 0 else [(den, g.degree)])


def test_replies_longer_than_a_pipe_buffer(fresh, monkeypatch):
    monkeypatch.setattr(arith, "_HELPER_BITS", 1)
    g = X2DivisiblePoly.parse("x^5-2*x^4+x^2")
    num, den = -(7**90_000), 3**150_000  # den^5 is 1.19 * 10^6 bits
    assert g.eval_int_pair(num, den) == _plain(g, num, den)
    assert fresh == [(den, 5)]  # no product splits while den^5 is on the helper


# long:short as a numerator over 4: squares (None), 1:1, 2:1 and past 3:1
SPLIT_SHAPES = st.sampled_from((None, 4, 8, 13, 20))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    short=st.integers(2, 3000),
    shape=SPLIT_SHAPES,
    signs=st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_products_are_the_plain_product(fresh, monkeypatch, short, shape, signs, seed):
    monkeypatch.setattr(arith, "_MUL_BITS", 2)
    monkeypatch.setattr(arith, "_HELPER_BITS", 2)
    rng = random.Random(seed)
    b = signs[1] * (rng.getrandbits(short) | 1 << (short - 1) | 1)
    if shape is None:
        a, product = b, b * b
    else:
        long = max(short * shape // 4, short)
        a = signs[0] * (rng.getrandbits(long) | 1 << (long - 1) | 1)
        product = a * b
    fresh.clear()
    assert arith.mul(a, b) == product
    assert len(fresh) == 1 and arith._helper is not None  # the helper took its part
    if shape is not None:
        assert arith.mul(b, a) == product and len(fresh) == 2


def test_squares_split_by_thirds(fresh, monkeypatch):
    # a = hi 2^h + lo with hi the top (na + 3) // 3 bits: the helper gets hi
    # and far = hi 2^h + 2 lo, at most 3 times hi's length, so that the pair
    # can take the transform; all ones carries far to na + 1 bits
    monkeypatch.setattr(arith, "_MUL_BITS", 2)
    monkeypatch.setattr(arith, "_HELPER_BITS", 2)
    rng = random.Random(3)
    for na in (3000, 3001, 3002):
        ones = (1 << na) - 1
        for a in (rng.getrandbits(na) | 1 << (na - 1), ones):
            for x in (a, -a):
                fresh.clear()
                assert arith.mul(x, x) == x * x, (na, abs(x) == ones, x < 0)
                [(hi, far)] = fresh
                assert hi.bit_length() == (na + 3) // 3, na
                assert far.bit_length() <= 3 * hi.bit_length(), na
                if abs(x) == ones:
                    assert far.bit_length() == na + 1


def test_powers_of_two_never_reach_the_helper(fresh, monkeypatch):
    def no_split(*args):
        raise AssertionError("a power of two reached the split")

    monkeypatch.setattr(arith, "_split", no_split)
    rng = random.Random(91)
    for bits in (arith._HELPER_BITS, 3 * arith._HELPER_BITS):
        power = 1 << bits
        other = rng.getrandbits(2 * bits) | 1 << (2 * bits - 1) | 1
        for p in (power, -power):
            for x in (other, -other, other >> bits):
                assert arith.mul(p, x) == p * x == arith.mul(x, p)
            assert arith.mul(p, p) == p * p
    assert arith._helper is None and fresh == []


@pytest.mark.parametrize("square", [True, False])
def test_helper_killed_during_a_split_gives_the_same_product(fresh, monkeypatch, square):
    killed = []
    real_write = arith._write_ints

    def write(pipe, *values):
        # stopped first, the helper cannot answer before the kill; the
        # request, 13 KB at most, fits in the pipe while it is stopped
        if not killed:
            os.kill(arith._helper.pid, signal.SIGSTOP)
        real_write(pipe, *values)
        if not killed:
            os.kill(arith._helper.pid, signal.SIGKILL)
            _wait_gone(arith._helper.pid)
            killed.append(1)

    monkeypatch.setattr(arith, "_write_ints", write)
    rng = random.Random(17)
    short = arith._HELPER_BITS
    b = rng.getrandbits(short) | 1 << (short - 1) | 1
    a = b if square else -(rng.getrandbits(2 * short) | 1 << (2 * short - 1))
    assert arith.mul(a, b) == a * b
    assert killed and len(fresh) == 1 and arith._helper is None and arith._helper_off
    assert arith.mul(a, b) == a * b and arith._helper is None  # inline from now on


def test_product_requests_inside_the_helper_run_inline(fresh, monkeypatch, tmp_path):
    # the helper itself may neither fork nor split: it serves with _helper_off
    # set, so a product request finds no helper even with the lock free
    monkeypatch.setattr(arith, "_HELPER_BITS", 2)
    marker = tmp_path / "forked"

    def no_fork():
        marker.touch()
        raise OSError("the helper forked")

    requests, replies = os.pipe(), os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(requests[1])
            os.close(replies[0])
            os.fork = no_fork
            arith._serve(requests[0], replies[1])
        finally:
            os._exit(0)
    os.close(requests[0])
    os.close(replies[1])
    rng = random.Random(5)
    x, y = rng.getrandbits(60_000) | 1, rng.getrandbits(30_000) | 1
    with os.fdopen(requests[1], "wb") as ask, os.fdopen(replies[0], "rb") as answer:
        arith._write_ints(ask, 0, x, y)
        assert arith._read_int(answer) == x * y
        arith._write_ints(ask, 0, y, y)
        assert arith._read_int(answer) == y * y
        arith._write_ints(ask, 3, y)
        assert arith._read_int(answer) == y**3
    assert os.waitpid(pid, 0)[1] == 0
    assert not marker.exists()


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
    assert helper is not None and fresh == [(9, 3)]
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
    assert arith._helper is helper and fresh == [(9, 3), (21, 3)]


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
    assert arith._helper is not None and fresh == [(3, 3)]


# (na, nb) of each product that iterate(x^3+x^2, c, 13) offers the idle
# helper: every one from 50000 bits on the shorter side, none while den^d
# is on the helper, and none that a power of two makes a shift
SPLITS = {
    "3": [(104273, 104273), (208546, 104273), (312819, 312819), (625637, 312819)],
    "-3": [(85996, 85996), (171991, 85996), (257986, 257986), (515971, 257986)],
    "1/2": [(66843, 66843), (133686, 66843), (200528, 200528), (401056, 200528)],
    "-5/3": [],
}
# the bit lengths of the arguments of each request the helper answers there:
# a square sends its top third and far, a pair the high half of its longer
# operand and the other one, and c = -5/3 sends den and d = 3 (2 bits)
REQUESTS = {
    "3": [(34758, 104273), (104273, 104273), (104274, 312819), (312819, 312819)],
    "-3": [(28666, 85996), (85996, 85996), (85996, 257986), (257986, 257986)],
    "1/2": [(22282, 66843), (66843, 66843), (66843, 200528), (200528, 200528)],
    "-5/3": [(93591, 2), (280772, 2)],
}


def test_benchmark_inputs_split_where_pinned(fresh, monkeypatch):
    # the survey grids stay under the threshold: no helper starts; the deep
    # orbits split their big products, and c = -5/3 keeps its helper on den^d
    for text in ("x^3+x^2", "2*x^3+x^2"):
        run_scan(ScanConfig(X2DivisiblePoly.parse(text), 20, 6, horizon=8))
    assert arith._helper is None and fresh == []
    offered = []
    real_split = arith._split

    def split(a, b, na, nb):
        offered.append((na, nb))
        return real_split(a, b, na, nb)

    monkeypatch.setattr(arith, "_split", split)
    g = X2DivisiblePoly.parse("x^3+x^2")
    for c, pinned in SPLITS.items():
        offered.clear()
        fresh.clear()
        iterate(g, c, 13)
        assert offered == pinned, c
        assert [tuple(v.bit_length() for v in args) for args in fresh] == REQUESTS[c], c
    assert arith._helper is not None


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
