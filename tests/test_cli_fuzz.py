"""Random command lines on small chains: every one ends in a documented exit
code, with no traceback, within a few seconds."""

import json
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ehrenfest import cli

EXIT_CODES = {0, 2, 3, 4, 5}
SECONDS = 5

#: explicit target files: symmetric, asymmetric, and malformed in every way the parser meets
EXPLICIT = {
    "symmetric.json": "[[1, 1], [2, 2]]",
    "asymmetric.json": "[[1, 1], [1, 2], [2, 1]]",
    "duplicates.json": "[[1, 1], [1, 1]]",
    "empty.json": "[]",
    "scalar.json": "5",
    "flat.json": "[1, 2]",
    "null.json": "null",
    "object.json": '{"a": [1]}',
    "not-json.json": "[[1, 1",
}

_junk_state = st.one_of(
    st.lists(st.integers(-1, 5), max_size=5).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", " ", "x", "1,,2", "1;2", "1/2", "1.5"]),
)
_junk_set = st.one_of(
    _junk_state.map("singleton:{}".format),
    st.tuples(_junk_state, _junk_state).map(lambda p: "pair:({});({})".format(*p)),
    st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(lambda t: "count:{}:{}".format(*t)),
    st.sampled_from(sorted(EXPLICIT) + ["missing.json"]).map("explicit:@{{dir}}/{}".format),
    st.sampled_from(["bogus", "count:x", "count:1:2:3", "pair:(1,2)", "singleton:", "explicit:nopath"]),
)
_U = ["1/2", "1", "2", "3/7", "5"]
_LAMBDA = ["0", "0.5", "1", "2.5", "700"]


def _pick(draw, valid, junk):
    """Mostly a well-formed value, so that calls get past parsing; now and then a malformed one."""
    return draw(junk) if draw(st.integers(0, 7)) == 5 else draw(valid)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["exact", "oracle", "simulate", "compare", "network-check", "identities"]))
    if command == "identities":
        # the upper bounds are 16 urns and 24 balls: a valid draw stays small, a junk one lies outside
        urns = _pick(draw, st.integers(2, 3), st.one_of(st.integers(-1, 1), st.integers(17, 10**6)))
        balls = _pick(draw, st.integers(1, 2), st.one_of(st.integers(-1, 0), st.integers(25, 10**6)))
        return [command, "--max-urns", str(urns), "--max-balls", str(balls)]
    n = _pick(draw, st.integers(2, 4), st.integers(-1, 1))
    m = _pick(draw, st.integers(1, 4), st.integers(-1, 0))
    argv = [command, "--N", str(n), "--M", str(m)]
    if command == "network-check":
        return argv
    state = st.lists(st.integers(1, max(n, 1)), min_size=max(m, 0), max_size=max(m, 0)).map(
        lambda xs: ",".join(map(str, xs))
    )
    valid_set = st.one_of(
        state.map("singleton:{}".format),
        st.tuples(state, state).map(lambda p: "pair:({});({})".format(*p)),
        st.integers(0, max(m, 0)).map("count:{}".format),
        st.tuples(st.integers(0, max(m, 0)), st.integers(1, max(n, 1))).map(lambda t: "count:{}:{}".format(*t)),
        st.sampled_from(["diagonal", "distinct", "explicit:@{dir}/symmetric.json",
                         "explicit:@{dir}/asymmetric.json"]),
    )
    argv += [f"--start={_pick(draw, state, _junk_state)}", f"--set={_pick(draw, valid_set, _junk_set)}"]
    grids = {
        "--u": ",".join(_pick(draw, st.lists(st.sampled_from(_U), max_size=3),
                              st.lists(st.sampled_from(["0", "-1", "1/0", "abc", ""]), min_size=1, max_size=2))),
        "--lambda": ",".join(_pick(draw, st.lists(st.sampled_from(_LAMBDA), max_size=3),
                                   st.lists(st.sampled_from(["-1", "inf", "nan", "701", "1e5", "x"]),
                                            min_size=1, max_size=2))),
    }
    if command == "simulate":
        # simulate reads one grid, its mode's own; the other one is a junk draw
        mode = draw(st.sampled_from(["discrete", "ctmc"]))
        own, other = ("--u", "--lambda") if mode == "ctmc" else ("--lambda", "--u")
        argv += ["--mode", mode, f"{own}={grids[own]}", *_pick(draw, st.just([]), st.just([f"{other}={grids[other]}"]))]
    else:
        argv += [f"{flag}={grid}" for flag, grid in grids.items()]
        argv += ["--digits", str(_pick(draw, st.integers(1, 40),
                                       st.sampled_from([-8, -7, -1, 0, 1001, 20_000, 10**9]))),
                 "--order", str(_pick(draw, st.integers(1, 5), st.sampled_from([-1, 0, 33, 300, 10**6])))]
    if command in ("oracle", "compare"):
        # 256 >= 4**4, so every valid chain reaches the oracle's quotient solves; the cap's bound is 2**18
        argv += ["--cap", str(_pick(draw, st.just(256), st.one_of(st.integers(-1, 255),
                                                                  st.integers(2**18 + 1, 10**12))))]
    if command in ("simulate", "compare"):
        argv += ["--replicas", str(_pick(draw, st.integers(1, 200), st.sampled_from([-1, 0, 10**7 + 1, 10**12]))),
                 "--seed", str(draw(st.integers(0, 3)))]
    if command == "simulate":
        argv += ["--max-steps", str(_pick(draw, st.sampled_from([50, 10_000_000]), st.sampled_from([0, 1])))]
    return argv


@pytest.fixture(scope="module")
def explicit_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("explicit")
    for name, text in EXPLICIT.items():
        (path / name).write_text(text)
    return path


class Overtime(BaseException):
    """Raised by the interval timer inside a call that ran too long."""


def _overtime(signum, frame):
    raise Overtime(f"call ran longer than {SECONDS} s")


@pytest.mark.filterwarnings("ignore:.*step cap")
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argv=command_lines())
def test_random_command_lines_exit_cleanly(explicit_dir, capsys, argv):
    argv = [a.replace("{dir}", str(explicit_dir)) for a in argv]
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    started = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - started
    out, err = capsys.readouterr()
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    assert elapsed < SECONDS
    if code == 0:
        json.loads(out)
