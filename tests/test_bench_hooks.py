"""The benchmark's tracer still finds and counts minisol's layer functions.

``perfbench/tracer.py`` wraps functions by module and name and reads the
statement kind from ``exec_statement``'s ``head``, which the dispatch
loop passes by keyword. A
refactor that renames, moves or re-signatures any of them breaks the
benchmark's per-layer report; this test runs one ``run`` and one
``verify`` job under the tracer, as the benchmark does, to catch that.
"""

import importlib
from pathlib import Path

import pytest

from minisol.cli import cli_main

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cli", "parser", "binder", "specfile", "runner", "engine", "stmts",
           "exprs", "memory", "values")


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("tracer")


def test_tracer_hooks_cover_run_and_verify(tracer_module, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    mods = {name: importlib.import_module(f"minisol.{name}") for name in MODULES}
    tracer = tracer_module.Tracer()
    missing = tracer.install(mods)
    try:
        run_rc = cli_main(["run", "samples/spin.lls", "--entry", "spin", "--gas", "200"])
        verify_rc = cli_main(["verify", "samples/wallet.lls",
                              "--spec", "samples/no_in_time.spec", "--json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (run_rc, verify_rc) == (0, 0)
    assert missing == []
    assert tracer.unlisted_kinds() == []
    values = tracer.layer_values()
    assert values["stmts.exec_statement.LoopWhile.calls"] > 0
    assert values["engine.explore.paths"] == 1
    assert mods["stmts"].exec_statement.__module__ == "minisol.stmts"  # uninstalled


TWO_FORKS = """\
contract Forks {
    uint a;
    uint b;
    uint r = 0;
    function f() public {
        if (a < 1) { r += 1; }
        if (b < 1) { r += 2; }
    }
}
"""


def test_each_fork_dispatches_its_if_once(tracer_module, capsys, tmp_path):
    # Two independent symbolic ifs: the root forks at the first, each child
    # at the second. A fork hands both continuations to its children, so no
    # child dispatches the forking if again.
    (tmp_path / "forks.lls").write_text(TWO_FORKS, encoding="utf-8")
    (tmp_path / "forks.spec").write_text(
        "entry f\nsym a : int 0..1\nsym b : int 0..1\npost unchanged a\n", encoding="utf-8")
    mods = {name: importlib.import_module(f"minisol.{name}") for name in MODULES}
    tracer = tracer_module.Tracer()
    assert tracer.install(mods) == []
    try:
        rc = cli_main(["verify", str(tmp_path / "forks.lls"),
                       "--spec", str(tmp_path / "forks.spec"), "--json"])
    finally:
        tracer.uninstall()
    assert rc == 0, capsys.readouterr()
    values = tracer.layer_values()
    assert values["engine.explore.paths"] == 4
    assert values["stmts.exec_statement.If.calls"] == 3
