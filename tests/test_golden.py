"""Golden output: the CLI's stdout for a fixed command set, as sha256
digests recorded in ``golden.json``.

The determinism tests show that one build repeats itself; these digests
show that a change to the arithmetic leaves every printed byte as it was.
The inputs of the ``apply`` commands are the small polynomials in
``golden_inputs/``: hook basis elements of QI_1 at n = 3 and n = 4, and
polynomials with mixed denominators and negative coefficients in one,
three and four variables.

To record the digests of the current build (only when an output change is
intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasiinv
from quasiinv.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden.json"
INPUTS = HERE / "golden_inputs"

COMMANDS = [
    "basis --n 3 --m 1 --j 2",
    "basis --n 4 --m 2 --j 3 --verify",
    "basis --n 4 --m 1 --j 4 --format text",
    "basis --n 5 --m 1 --j 2 --verify --format text",
    "apply --op lm --m 1 --in {inputs}/hook4.json",
    "apply --op lm --m 1 --in {inputs}/hook3.json --format text",
    "apply --op lm --m 0 --in {inputs}/mixed4.json --format text",
    "apply --op lm --m 1 --in {inputs}/mixed3.json",
    "apply --op delta2 --m 1 --in {inputs}/hook3.json",
    "apply --op delta2 --m 1 --in {inputs}/hook3.json --format text",
    "apply --op perm --sigma (1,3,2) --in {inputs}/mixed3.json",
    "apply --op perm --sigma (1,4)(2,3) --in {inputs}/mixed4.json --format text",
    "apply --op gamma --shape 2,1 --j 3 --in {inputs}/mixed3.json",
    "apply --op gamma --shape 2,1 --j 2 --in {inputs}/mixed3.json --format text",
    "apply --op gamma --tableau [[1,3],[2,4]] --in {inputs}/mixed4.json",
    "apply --op gamma --tableau [[1,2,4],[3]] --in {inputs}/mixed4.json --format text",
    "detcheck --m 2 --format text",
    "detcheck --m 1",
    "detcheck --m 0",
    "detcheck --m 4",
    "detcheck --m 4 --format text",
    "oracle --n 3 --m 1 --d 5",
    "verify --suite groupalgebra --n 4 --seed 1",
    "verify --suite all --n 3 --m 1",
    "hilbert --n 4 --m 1 --D 7 --oracle --format text",
    "hilbert --n 3 --m 2 --D 9",
    "verify --suite thm-main --n 4 --m 1 --seed 1",
    "verify --suite groupalgebra --n 5 --seed 1",
    "verify --suite groupalgebra --n 2 --seed 0",
    "verify --suite groupalgebra --n 3 --seed 2",
    "apply --op perm --sigma 1 --in {inputs}/mixed1.json",
    "verify --suite groupalgebra --n 6 --seed 1",
    "basis --n 5 --m 2 --j 3 --verify",
    "verify --suite hook --n 5 --m 2",
    "verify --suite lm --n 5 --m 2",
]


def _argv(command: str) -> list:
    return command.format(inputs=INPUTS.resolve()).split(" ")


def _run(command: str):
    """(exit code, sha256 of stdout) of one command line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_argv(command))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _record():
    golden = {}
    for command in COMMANDS:
        code, digest = _run(command)
        golden[command] = {"exit": code, "stdout_sha256": digest}
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden_digest(golden, command):
    code, digest = _run(command)
    assert {"exit": code, "stdout_sha256": digest} == golden[command]


@pytest.mark.parametrize("command", COMMANDS)
def test_process_stdout_matches_golden_digest(golden, command):
    # the command as its own process, which ends through os._exit once its
    # output is flushed: a byte lost at exit would change the digest; run
    # from the directory holding the package, with stdout buffered
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-m", "quasiinv", *_argv(command)],
                          capture_output=True, cwd=Path(quasiinv.__file__).parents[1],
                          env=env)
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert {"exit": proc.returncode, "stdout_sha256": digest} == golden[command]
    assert proc.stderr == b""


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
