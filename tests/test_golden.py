"""Golden CLI transcripts: dumps, a step transcript, verify verdicts and ASTs.

Each case runs one ``minisol`` command in process and compares its exit
code and its standard output byte for byte with ``tests/golden/<name>.out``.
A golden file is exactly what the command prints, so one is regenerated
by running the command from the repository root with its output
redirected, for example::

    PYTHONPATH=src python -m minisol run samples/adder.lls --entry add \
        --arg a=2 --arg b=3 > tests/golden/run-adder.out
"""

from pathlib import Path

import pytest

from minisol.cli import cli_main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

WALLET = ["samples/wallet.lls", "--entry", "wallet", "--spec", "samples/wallet_pre.spec",
          "--arg", "privilegeOpen=0", "--arg", "privilegeClose=3", "--now", "4"]

# name -> (argv, expected exit code)
CASES = {
    "run-wallet-throw": (["run", *WALLET, "--msg-value", "1000000000000000000"], 0),
    "run-spin-gas200": (["run", "samples/spin.lls", "--entry", "spin", "--gas", "200"], 0),
    "run-adder": (["run", "samples/adder.lls", "--entry", "add",
                   "--arg", "a=2", "--arg", "b=3"], 0),
    "run-clamp": (["run", "samples/clamp.lls", "--entry", "clamp", "--arg", "limit=9"], 0),
    "run-empty": (["run", "samples/empty.lls"], 0),
    "run-calls": (["run", "samples/calls.lls", "--entry", "main"], 0),
    "run-guarded": (["run", "samples/guarded.lls", "--entry", "main"], 0),
    "step-wallet-5": (["step", *WALLET, "--max-steps", "5"], 0),
    "verify-wallet-no-in-time": (["verify", "samples/wallet.lls",
                                  "--spec", "samples/no_in_time.spec", "--json"], 0),
    "verify-branchy": (["verify", "tests/golden/branchy.lls",
                        "--spec", "tests/golden/branchy.spec", "--json"], 1),
    "verify-branchy-concolic": (["verify", "tests/golden/branchy.lls",
                                 "--spec", "tests/golden/branchy.spec", "--mode", "concolic",
                                 "--arg", "a=0", "--arg", "b=1", "--arg", "c=3", "--json"], 1),
    "emit-ast-wallet": (["emit-ast", "samples/wallet.lls"], 0),
    "emit-ast-branchy": (["emit-ast", "tests/golden/branchy.lls"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name, capsys, monkeypatch):
    argv, expected_rc = CASES[name]
    monkeypatch.chdir(ROOT)
    rc = cli_main(list(argv))
    out = capsys.readouterr().out
    assert rc == expected_rc
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


# Usage transcripts: help texts and argument errors, which argparse prints
# before any command runs. A golden holds both streams, as
# ``--- stdout\n<stdout>--- stderr\n<stderr>``, printed at COLUMNS=80.
# name -> (argv, expected exit code)
USAGE_CASES = {
    "usage-help": (["-h"], 0),
    **{f"usage-help-{cmd}": ([cmd, "-h"], 0)
       for cmd in ("run", "step", "verify", "typecheck", "emit-ast", "oracle")},
    "usage-no-arguments": ([], 2),
    "usage-unknown-command": (["frobnicate", "samples/empty.lls"], 2),
    "usage-unknown-flag": (["run", "samples/empty.lls", "--frob", "1"], 2),
    "usage-missing-file": (["run"], 2),
    "usage-bad-gas": (["run", "samples/empty.lls", "--gas", "lots"], 2),
    "usage-bad-k": (["run", "samples/empty.lls", "--k", "0"], 2),
    "usage-bad-mode": (["verify", "samples/wallet.lls", "--spec", "samples/no_in_time.spec",
                        "--mode", "fast"], 2),
}


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_usage_transcript(name, capsys, monkeypatch):
    argv, expected_rc = USAGE_CASES[name]
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    rc = cli_main(list(argv))
    captured = capsys.readouterr()
    assert rc == expected_rc
    assert (f"--- stdout\n{captured.out}--- stderr\n{captured.err}"
            == (GOLDEN / f"{name}.out").read_text(encoding="utf-8"))
