"""The CLI's stream contract, over every command and every way an output
stream can fail.

Each entry runs ``wellpi.cli.main`` in a fresh ``python -W error``, as the
console script does (``sys.exit(main())``), so a traceback or an exception
ignored at interpreter exit would show on stderr.  A stdout where every write
fails is exit 2 with one stderr line, a closed pipe is exit 141 with nothing
on stderr, and a failing stderr leaves the exit code and stdout of a clean
run.  A rejected input writes no stdout, so it keeps its exit 2 and its one
error line on every stdout sink.  ``start_children`` runs every child, at
most ``os.cpu_count()`` at a time; each is still its own interpreter.
"""

import functools
import itertools
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np
import pytest

import wellpi

from helpers import write_measurements
from test_fitting import fit_params

PIPE = subprocess.PIPE
SRC = str(Path(wellpi.__file__).resolve().parent.parent)

# argv, run where meas.csv lies; the exit code and stderr line count of a clean run
COMMANDS = {
    "pi": (["pi"], 0, 0),
    "sweep": (["sweep", "--axis", "q_over_h", "--log-range", "1e-6,1,200"], 0, 0),
    "table": (["table", "1"], 0, 1),
    "fit": (["fit", "meas.csv"], 0, 0),
    "validate": (["validate"], 0, 0),
    "help": (["--help"], 0, 0),
    "version": (["--version"], 0, 0),
    "pi-bad-s": (["pi", "--s", "2"], 2, 1),
}
MODES = ("buffered", "unbuffered")
LONG_SWEEP = ["sweep", "--axis", "q_over_h", "--log-range", "1e-6,1,2000"]
OUTPUT_PATHS = {"pi": ["pi", "--out"], "sweep": ["sweep", "--axis", "s", "--values", "0.5", "--out"],
                "table": ["table", "1", "--out"], "fit": ["fit", "meas.csv", "--emit-model"]}
MISSING = "missing/out.csv"


def _fresh_cli(argv, mode, cwd):
    """Arguments of subprocess.run or Popen that run ``wellpi.cli.main`` on
    ``argv`` in a fresh interpreter in ``cwd``; its stdout is buffered unless
    ``mode`` is "unbuffered"."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if mode == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    code = f"import sys; sys.path.insert(0, {SRC!r}); from wellpi.cli import main; sys.exit(main())"
    return {"args": [sys.executable, "-W", "error", "-c", code, *argv], "env": env, "cwd": cwd}


def _run(run, stdout=PIPE):
    # each sink gives the child's (exit code, stdout, stderr); a stream not piped back is b""
    proc = subprocess.run(**run, stdout=stdout, stderr=PIPE, timeout=120)
    return proc.returncode, proc.stdout or b"", proc.stderr


def _redirected(redirect):
    # a closed fd is None in the interpreter; /dev/full fails every write
    return lambda run: _run({**run, "args": ["sh", "-c", f'exec "$@" {redirect}', "sh", *run["args"]]})


def _reader_gone(run):
    # the read end is closed before the child starts, so its first write finds no reader
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "wb") as stdout:
        return _run(run, stdout=stdout)


def _reader_of_100_bytes(run):
    # after 100 bytes of a 2000-point sweep the command is blocked in a write that
    # the pipe takes only in part, which an unbuffered stdout must not count as done
    with subprocess.Popen(**run, stdout=PIPE, stderr=PIPE) as proc:
        got = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    return proc.returncode, got, err


SINKS = {
    "stdout-dev-full": _redirected(">/dev/full"),
    "stdout-closed": _redirected(">&-"),
    "reader-gone": _reader_gone,
    "stderr-dev-full": _redirected("2>/dev/full"),
    "stderr-closed": _redirected("2>&-"),
}


@functools.cache
def start_children():
    """Start every child of this module on a pool of ``os.cpu_count()``
    threads, in a new directory that holds meas.csv; return the directory and
    a future of (exit code, stdout, stderr) per (command, sink, mode).

    conftest.py calls this once the session has selected a test of this
    module, so that the children run beside the in-process tests.
    """
    workdir = tempfile.TemporaryDirectory(prefix="wellpi-streams-")
    write_measurements(Path(workdir.name, "meas.csv"), fit_params(), np.geomspace(1e-9, 1e-6, 20))
    jobs = {}
    for (name, (argv, _, _)), mode in itertools.product(COMMANDS.items(), MODES):
        jobs[name, "clean", mode] = argv, _run, mode
        for sink, run in SINKS.items():
            jobs[name, sink, mode] = argv, run, mode
        jobs["long-sweep", "read-100", mode] = LONG_SWEEP, _reader_of_100_bytes, mode
    for name, argv in OUTPUT_PATHS.items():
        jobs[name, "missing-dir", "buffered"] = [*argv, MISSING], _run, "buffered"
    pool = ThreadPoolExecutor(os.cpu_count())
    futures = {key: pool.submit(run, _fresh_cli(argv, mode, workdir.name))
               for key, (argv, run, mode) in jobs.items()}
    pool.shutdown(wait=False)
    return workdir, futures


@pytest.fixture(scope="module")
def children():
    workdir, futures = start_children()
    yield futures
    wait(futures.values())
    workdir.cleanup()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("sink", SINKS)
@pytest.mark.parametrize("command", COMMANDS)
def test_stream_failure(children, command, sink, mode):
    code, out, err = children[command, sink, mode].result()
    clean_code, clean_out, clean_err = children[command, "clean", mode].result()
    assert (clean_code, clean_err.count(b"\n")) == COMMANDS[command][1:]
    if sink.startswith("stderr"):
        # the messages are lost, and the command's own code and output stand
        assert (code, out) == (clean_code, clean_out)
    elif clean_code:
        # nothing was written to stdout, so nothing failed there
        assert (code, err) == (clean_code, clean_err)
    elif sink == "stdout-dev-full":
        # that line alone: no traceback, and no exception ignored at interpreter exit
        assert code == 2
        assert err.startswith(b"error: cannot write to stdout: ") and err.count(b"\n") == 1
    else:
        assert (code, err) == (141, b"")


@pytest.mark.parametrize("mode", MODES)
def test_stdout_closed_mid_write_exits_141(children, mode):
    code, out, err = children["long-sweep", "read-100", mode].result()
    assert (code, len(out), err) == (141, 100, b"")


@pytest.mark.parametrize("command", OUTPUT_PATHS)
def test_unwritable_output_path_is_a_config_error(children, command):
    code, _, err = children[command, "missing-dir", "buffered"].result()
    assert code == 2
    assert err.startswith(f"error: cannot write '{MISSING}'".encode()) and err.count(b"\n") == 1
