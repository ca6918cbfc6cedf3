"""Command-line interface, exercised in process through cli_main, and in a
fresh interpreter where the module entry points or stderr are checked."""

import argparse
import json
import os
import subprocess
import sys
import time
from functools import cached_property
from pathlib import Path

import pytest

from minisol import memory as gm
from minisol import exprs, stmts
from minisol.cli import build_arg_parser, cli_main, parse_command_line
from minisol.symbolic import SymOp

WALLET = "samples/wallet.lls"
PRE = "samples/wallet_pre.spec"
SPEC = "samples/no_in_time.spec"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    rc = cli_main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_module(module, *argv):
    """Run ``python -m module argv...`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestRun:
    def test_wallet_concrete_run_prints_throw_dump(self, capsys):
        rc, out, _err = run_cli(
            capsys, "run", WALLET, "--entry", "wallet", "--spec", PRE,
            "--arg", "privilegeOpen=0", "--arg", "privilegeClose=3",
            "--now", "4", "--msg-value", "1000000000000000000")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 100
        assert lines[99].split("\t")[4] == "bool:true"  # raised throw flag

    def test_empty_program_prints_initial_dump(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "run", "samples/empty.lls")
        assert rc == 0
        assert len(out.strip().splitlines()) == 100

    def test_json_output(self, capsys):
        rc, out, _ = run_cli(
            capsys, "run", WALLET, "--entry", "wallet", "--spec", PRE,
            "--arg", "privilegeOpen=0", "--arg", "privilegeClose=3",
            "--now", "4", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert "dump" in doc

    def test_missing_file_fails_cleanly(self, capsys):
        rc, _out, err = run_cli(capsys, "run", "no_such_file.lls")
        assert rc == 3
        assert "error" in err

    def test_dump_to_file(self, capsys, tmp_path):
        target = tmp_path / "dump.txt"
        rc, out, _ = run_cli(capsys, "run", "samples/empty.lls",
                             "--dump", str(target))
        assert rc == 0
        assert len(target.read_text().strip().splitlines()) == 100

    def test_json_and_dump_file_render_the_dump_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        render = gm.dump
        monkeypatch.setattr(gm, "dump", lambda sigma: calls.append(sigma) or render(sigma))
        target = tmp_path / "dump.txt"
        rc, out, _ = run_cli(capsys, "run", "samples/empty.lls", "--json",
                             "--dump", str(target))
        assert (rc, len(calls)) == (0, 1)
        assert target.read_text() == json.loads(out)["dump"] + "\n"

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(_sigma):
            raise MemoryError
        monkeypatch.setattr(gm, "dump", exhausted)
        rc, out, err = run_cli(capsys, "run", "samples/empty.lls")
        assert (rc, out, err) == (3, "", "error: out of memory\n")
        rc, out, _ = run_cli(capsys, "run", "samples/empty.lls", "--json")
        assert rc == 3
        assert [json.loads(line) for line in out.splitlines()] == [
            {"status": "error", "diagnostic": "out of memory"}]

    @pytest.mark.parametrize("argv", [["step", WALLET, "--entry", "wallet"],
                                      ["verify", WALLET, "--spec", SPEC]])
    def test_only_run_takes_a_dump_file(self, capsys, tmp_path, argv):
        target = tmp_path / "dump.txt"
        rc, _out, err = run_cli(capsys, *argv, "--dump", str(target))
        assert rc == 2
        assert "unrecognized arguments: --dump" in err
        assert not target.exists()


class TestVerify:
    def test_static_wallet_verified(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", WALLET, "--spec", SPEC, "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "verified"
        assert doc["paths"] == 1

    def test_wallet_verify_walks_as_many_payloads_at_any_memory_size(self, capsys,
                                                                     monkeypatch):
        # The judge searches only the blocks a path changed, so a larger
        # store costs the verify no more payload walks.
        from minisol import engine
        walk, calls = engine._walk, []

        def counted(p):
            calls.append(p)
            return walk(p)
        monkeypatch.setattr(engine, "_walk", counted)
        counts = []
        for size in ("100", "10000"):
            calls.clear()
            rc, out, _ = run_cli(capsys, "verify", WALLET, "--spec", SPEC, "--mem-size", size)
            assert (rc, out) == (0, "verified\n")
            counts.append(len(calls))
        assert counts[0] == counts[1] < 100

    def test_a_post_over_the_store_walks_as_many_payloads_at_any_memory_size(
            self, capsys, monkeypatch, tmp_path):
        # ``holds`` searches the final store for symbols when ``a[w]`` stops
        # it; each distinct block is walked once, and free blocks share one.
        from minisol import engine
        walk, calls = engine._walk, []

        def counted(p):
            calls.append(p)
            return walk(p)
        monkeypatch.setattr(engine, "_walk", counted)
        program, spec = tmp_path / "a.lls", tmp_path / "a.spec"
        program.write_text("contract S { uint[3] a; uint w; function f() public { a[1] = 0; } }\n")
        spec.write_text("entry f\nsym w : int 0..2\npost a[w] == 0\n")
        counts = []
        for size in ("100", "10000"):
            calls.clear()
            rc, out, _ = run_cli(capsys, "verify", str(program), "--spec", str(spec),
                                 "--mem-size", size)
            assert (rc, out) == (1, "refuted (witness: {'w': 0}): "
                                    "postcondition fails under {'w': 0}\n")
            counts.append(len(calls))
        assert counts[0] == counts[1] < 100

    @pytest.mark.parametrize("cond, error", [
        ("10 / d > 100", "condition ((10 / d) > 100)"),
        ("d / 0 > 1", "condition ((d / 0) > 1)"),
    ])
    def test_branch_condition_failing_at_zero_is_an_error_as_in_a_run(self, capsys, tmp_path,
                                                                      cond, error):
        program, spec = tmp_path / "s.lls", tmp_path / "s.spec"
        program.write_text("contract S { uint r = 0; uint d; function f() public { "
                           f"if ({cond}) {{ r = 1; }} }} }}\n")
        spec.write_text("entry f\nsym d : int 0..3\npost r == 0\n")
        rc, out, _ = run_cli(capsys, "verify", str(program), "--spec", str(spec))
        assert (rc, out) == (
            3, f"error (witness: {{'d': 0}}): {error} fails to evaluate under {{'d': 0}}\n")
        rc, _, err = run_cli(capsys, "run", str(program), "--entry", "f", "--arg", "d=0")
        assert (rc, err) == (3, "execution failed: branch condition failed to evaluate\n")

    @pytest.mark.parametrize("body, post, error", [
        # The division's tree does not survive to the final state.
        ("r = 10 / d; r = 0;", "r == 0",
         "assignment right side (10 / d) fails to evaluate under {'d': 0}: division by zero"),
        ("r = 10 / d; throw;", "throw-state",
         "assignment right side (10 / d) fails to evaluate under {'d': 0}: division by zero"),
        ("g(10 / d);", "r == 0",
         "call argument (10 / d) fails to evaluate under {'d': 0}: division by zero"),
        ("r = d % d; r = 1;", "r == 1",
         "assignment right side (d % d) fails to evaluate under {'d': 0}: modulo by zero"),
    ])
    def test_value_dividing_at_zero_is_an_error_as_in_a_run(self, capsys, tmp_path,
                                                            body, post, error):
        program, spec = tmp_path / "s.lls", tmp_path / "s.spec"
        program.write_text("contract S { uint r = 0; uint d; "
                           "function g(uint x) public { x = 0; } "
                           f"function f() public {{ {body} }} }}\n")
        spec.write_text(f"entry f\nsym d : int 0..3\npost {post}\n")
        rc, out, _ = run_cli(capsys, "verify", str(program), "--spec", str(spec), "--json")
        doc = json.loads(out)
        assert (rc, doc["status"], doc["paths"], doc["diagnostic"]) == (3, "error", 2, error)
        rc, _, err = run_cli(capsys, "run", str(program), "--entry", "f", "--arg", "d=0")
        what = error.partition(" (")[0]
        assert (rc, err) == (3, f"execution failed: {what} failed to evaluate\n")

    @pytest.mark.parametrize("domain, verdict", [
        ("0..3", (3, "error", 2, "assignment right side (0 + (10 / d)) fails to evaluate "
                                 "under {'d': 0}: division by zero")),
        ("1..3", (0, "verified", 1, "")),
    ])
    def test_loop_dividing_on_each_iteration_forks_once(self, capsys, tmp_path, domain,
                                                        verdict):
        # The path condition holds d != 0 after the first iteration, so the
        # later ones fork nothing.
        program, spec = tmp_path / "s.lls", tmp_path / "s.spec"
        program.write_text("contract S { uint r = 0; uint i = 0; uint d; function f() public "
                           "{ while (i < 3) { r = r + 10 / d; i = i + 1; } } }\n")
        spec.write_text(f"entry f\nsym d : int {domain}\npost i == 3\n")
        rc, out, _ = run_cli(capsys, "verify", str(program), "--spec", str(spec), "--json")
        doc = json.loads(out)
        assert (rc, doc["status"], doc["paths"], doc.get("diagnostic", "")) == verdict

    def test_one_dispatchs_guards_make_one_partition(self, capsys, tmp_path):
        # Both divisors' guards split the models once: the first model that
        # fails either one, {d: 0, e: 0}, ends on the one error path and, as a
        # run under it fails too, is its witness. A split guard by guard would
        # give three paths and name {d: 0, e: 1}.
        program, spec = tmp_path / "s.lls", tmp_path / "s.spec"
        program.write_text("contract S { uint r = 0; uint d; uint e; function f() public "
                           "{ r = 10 / (e - 1) + 10 / d; r = 0; } }\n")
        spec.write_text("entry f\nsym d : int 0..3\nsym e : int 0..3\npost r == 0\n")
        rc, out, _ = run_cli(capsys, "verify", str(program), "--spec", str(spec), "--json")
        doc = json.loads(out)
        assert (rc, doc["paths"], doc["witness"], doc["diagnostic"]) == (
            3, 2, {"d": 0, "e": 0}, "assignment right side ((10 / (e - 1)) + (10 / d)) fails "
                                    "to evaluate under {'d': 0, 'e': 0}: division by zero")

    def test_concolic_wallet_verified(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", WALLET, "--spec", SPEC, "--mode", "concolic",
            "--arg", "privilegeOpen=0", "--arg", "privilegeClose=3",
            "--arg", "now=4")
        assert rc == 0
        assert out.strip() == "verified"

    def test_refuted_property_exits_one(self, capsys, tmp_path):
        # claim "limit always ends at 5": small inputs stay untouched
        bad = tmp_path / "bad.spec"
        bad.write_text(
            "entry clamp\n"
            "sym limit : int 0..9\n"
            "post limit == 5\n")
        rc, out, _ = run_cli(capsys, "verify", "samples/clamp.lls",
                             "--spec", str(bad), "--json")
        assert rc == 1
        doc = json.loads(out)
        assert doc["status"] == "refuted"
        assert doc["witness"]["limit"] < 5

    def test_verified_clamp_property(self, capsys, tmp_path):
        good = tmp_path / "good.spec"
        good.write_text(
            "entry clamp\n"
            "sym limit : int 6..9\n"
            "post limit == 5\n")
        rc, out, _ = run_cli(capsys, "verify", "samples/clamp.lls",
                             "--spec", str(good), "--json")
        assert rc == 0
        assert json.loads(out)["status"] == "verified"

    def test_usage_error_exit_two(self, capsys):
        assert cli_main(["verify", WALLET]) == 2
        capsys.readouterr()

    def test_symbolic_flag_declares_symbols(self, capsys, tmp_path):
        # constraints range over declared symbols and literals; the
        # seeded globals appear as the literal window bounds here
        spec = tmp_path / "flag.spec"
        spec.write_text(
            "entry wallet\n"
            "set privileges[msg.sender] = true\n"
            "set indexes[msg.sender] = 19\n"
            "set privilegeOpen = 0\n"
            "set privilegeClose = 3\n"
            "require (now < 0) || (now > 3)\n"
            "post throw-state\n")
        rc, out, _ = run_cli(capsys, "verify", WALLET, "--spec", str(spec),
                             "--symbolic", "now:int:0..7", "--json")
        assert rc == 0
        assert json.loads(out)["status"] == "verified"

    @pytest.mark.parametrize("sym_lines, flags, message", [
        ("", ["limit:int:5..1"], "empty range for symbol 'limit'"),
        ("", ["limit:int"], "needs a finite range"),
        ("", ["9x:int:0..3"], "bad symbol name '9x'"),
        ("sym limit : int 0..9\nsym limit : int 0..3\n", [], "symbol 'limit' declared twice"),
        ("sym limit : int 0..9\n", ["limit:int:0..3"], "symbol 'limit' declared twice"),
    ], ids=["empty-range", "int-without-range", "bad-name", "two-sym-lines", "line-and-flag"])
    def test_bad_symbol_declaration_is_one_error_line(self, capsys, tmp_path,
                                                      sym_lines, flags, message):
        spec = tmp_path / "sym.spec"
        spec.write_text("entry clamp\n" + sym_lines + "post limit == 5\n")
        argv = ["verify", "samples/clamp.lls", "--spec", str(spec)]
        for flag in flags:
            argv += ["--symbolic", flag]
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_require_naming_undeclared_symbol_is_error(self, capsys, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text(
            "entry clamp\n"
            "sym limit : int 0..9\n"
            "require mystery > 3\n"
            "post limit == 5\n")
        rc, out, _ = run_cli(capsys, "verify", "samples/clamp.lls",
                             "--spec", str(spec), "--json")
        assert rc == 3
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert "mystery" in doc["diagnostic"]

    def test_symbolic_division_by_zero_is_error_verdict(self, tmp_path):
        prog = tmp_path / "div.lls"
        prog.write_text(
            "contract D {\n    uint d;\n    uint r;\n    uint s = 7;\n"
            "    function f() public { r = 10 / d; }\n}\n")
        spec = tmp_path / "div.spec"
        spec.write_text("entry f\nsym d : int 0..3\npost unchanged s\n")
        proc = run_module("minisol", "verify", str(prog), "--spec", str(spec),
                          "--json")
        assert proc.returncode == 3
        doc = json.loads(proc.stdout)
        assert doc["status"] == "error"
        assert "division by zero" in doc["diagnostic"]
        assert "'d': 0" in doc["diagnostic"]
        assert "Traceback" not in proc.stderr

    def test_a_deep_symbolic_tree_ends_without_a_traceback(self, tmp_path):
        # 1200 iterations nest ``r + d`` 1200 deep, past Python's recursion
        # limit once the tree is evaluated. Whatever the verdict, it reaches
        # the user as an exit code and one JSON record.
        prog = tmp_path / "deep.lls"
        prog.write_text("contract S { uint r = 0; uint i = 0; uint d; function f() public "
                        "{ while (i < 1200) { r = r + d; i = i + 1; } } }\n")
        spec = tmp_path / "deep.spec"
        spec.write_text("entry f\nsym d : int 1..3\npost r == 0\n")
        proc = run_module("minisol", "verify", str(prog), "--spec", str(spec),
                          "--gas", "100000", "--k", "100000", "--json")
        assert proc.returncode in (0, 1, 3)
        assert "Traceback" not in proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 1 and "status" in json.loads(lines[0])

    def test_failed_run_json_is_one_error_record(self, capsys, tmp_path):
        prog = tmp_path / "div.lls"
        prog.write_text(
            "contract D {\n    uint d;\n    uint r;\n"
            "    function f() public { r = 10 / d; }\n}\n")
        rc, out, err = run_cli(capsys, "run", str(prog), "--entry", "f",
                               "--arg", "d=0", "--json")
        assert rc == 3
        lines = out.strip().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc == {"status": "error",
                       "diagnostic": "assignment right side failed to evaluate"}
        assert err == "execution failed: assignment right side failed to evaluate\n"

    def test_assigning_a_mapping_typechecks_and_fails_at_run_time(self, capsys, tmp_path):
        prog = tmp_path / "maps.lls"
        prog.write_text("contract M {\n    mapping(uint => uint) m;\n"
                        "    mapping(uint => uint) n;\n"
                        "    function f() public { m = n; }\n}\n")
        assert run_cli(capsys, "typecheck", str(prog))[0] == 0
        rc, _out, err = run_cli(capsys, "run", str(prog), "--entry", "f")
        assert rc == 3
        assert err == "execution failed: cannot assign into a mapping head\n"

    def test_caught_error_under_json_is_one_error_record(self, capsys):
        rc, out, err = run_cli(capsys, "run", WALLET, "--entry", "nosuch", "--json")
        assert rc == 3
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"status": "error",
                                        "diagnostic": "no function named 'nosuch'"}
        assert err == "error: no function named 'nosuch'\n"

    def test_negative_literal_must_fit_in_int64(self, capsys, tmp_path):
        prog = tmp_path / "neg.lls"
        prog.write_text("contract N {\n    int z = -18446744073709551615;\n}\n")
        rc, out, err = run_cli(capsys, "run", str(prog), "--json")
        msg = "integer literal -18446744073709551615 does not fit in int64 (line 2, column 13)"
        assert rc == 3
        assert json.loads(out) == {"status": "error", "diagnostic": msg}
        assert err == f"error: {msg}\n"
        prog.write_text("contract N {\n    int z = -9223372036854775808;\n}\n")
        rc, out, _err = run_cli(capsys, "run", str(prog))
        assert rc == 0
        assert "2\toccupy\tpublic\t90\tint:i64:-9223372036854775808\n" in out

    def test_literal_takes_the_integer_type_of_its_target(self, capsys, tmp_path):
        prog = tmp_path / "u8.lls"
        prog.write_text("contract S { uint8 u; function f() public { u = 5; u += 1; } }\n")
        rc, out, _err = run_cli(capsys, "run", str(prog), "--entry", "f")
        assert rc == 0
        assert "2\toccupy\tpublic\t90\tint:u8:6\n" in out

    def test_literal_out_of_its_target_range_is_positioned_error(self, capsys, tmp_path):
        prog = tmp_path / "u8.lls"
        prog.write_text("contract S {\n    uint8 u = 300;\n}\n")
        rc, out, err = run_cli(capsys, "run", str(prog))
        assert rc == 3
        assert out == ""
        assert err == "error: integer literal 300 does not fit in uint8 (line 2, column 15)\n"

    def test_symbolic_mapping_key_is_named_error(self, capsys, tmp_path):
        prog = tmp_path / "symkey.lls"
        prog.write_text(
            "contract M {\n    mapping(uint => uint) m;\n    uint k;\n"
            "    function f() public { m[k] = 5; }\n}\n")
        spec = tmp_path / "symkey.spec"
        spec.write_text("entry f\nsym k : int 0..3\npost throw-state\n")
        rc, out, _ = run_cli(capsys, "verify", str(prog), "--spec", str(spec))
        assert rc == 3
        assert out.strip() == ("error: mapping key k is symbolic; "
                               "symbolic mapping keys are unsupported")

    def test_wallet_wide_domains_within_budget(self, capsys, tmp_path):
        wide = tmp_path / "wide.spec"
        wide.write_text(Path(SPEC).read_text(encoding="utf-8").replace("0..7", "0..31"))
        start = time.process_time()
        rc, out, _ = run_cli(capsys, "verify", WALLET, "--spec", str(wide), "--json")
        elapsed = time.process_time() - start
        assert rc == 0
        doc = json.loads(out)
        assert (doc["status"], doc["paths"]) == ("verified", 1)
        assert elapsed < 5.0

    def test_wallet_verify_concretizes_no_state(self, capsys, monkeypatch):
        # The one throw path's obligation is decided on the symbolic states.
        from minisol import engine

        calls = []
        real = engine.concretize

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(engine, "concretize", counting)
        rc, out, _ = run_cli(capsys, "verify", WALLET, "--spec", SPEC, "--json")
        assert (rc, json.loads(out)["status"]) == (0, "verified")
        assert calls == []

    def test_wallet_wide_domains_verify_within_a_quarter_second(self, capsys, tmp_path):
        wide = tmp_path / "wide.spec"
        wide.write_text(Path(SPEC).read_text(encoding="utf-8").replace("0..7", "0..31"))
        start = time.process_time()
        rc, out, _ = run_cli(capsys, "verify", WALLET, "--spec", str(wide), "--json")
        elapsed = time.process_time() - start
        assert (rc, json.loads(out)["status"]) == (0, "verified")
        assert elapsed <= 0.25


# ---------------------------------------------------------------------------
# Division guards are checked only at a statement that divides (the mark
# ``syntax.divides_by_nonliteral`` computes); a stored tree was checked when
# it was stored.

@pytest.fixture
def guard_walks(monkeypatch):
    """One entry per ``SymOp.guards`` computed while the test runs."""
    walks, compute = [], SymOp.guards.func

    def counted(tree):
        walks.append(tree)
        return compute(tree)
    guards = cached_property(counted)
    guards.__set_name__(SymOp, "guards")
    monkeypatch.setattr(SymOp, "guards", guards)
    return walks


def test_a_program_that_never_divides_computes_no_guards(capsys, tmp_path, guard_walks):
    # A walk of every symbolic dispatch's trees for divisions once cost
    # branchy's verify about a tenth of its time, and short benchmark runs
    # did not show it.
    spec = tmp_path / "branchy.spec"
    spec.write_text(Path("tests/golden/branchy.spec").read_text(encoding="utf-8")
                    .replace("post r == 0", "post unchanged s"))
    rc, out, _ = run_cli(capsys, "verify", "tests/golden/branchy.lls", "--spec", str(spec))
    assert (rc, out, guard_walks) == (0, "verified\n", [])


def test_a_loop_that_divides_computes_guards(capsys, tmp_path, guard_walks):
    program, spec = tmp_path / "s.lls", tmp_path / "s.spec"
    program.write_text("contract S { uint r = 0; uint i = 0; uint d; function f() public "
                       "{ while (i < 3) { r = r + 10 / d; i = i + 1; } } }\n")
    spec.write_text("entry f\nsym d : int 0..3\npost i == 3\n")
    rc, _, _ = run_cli(capsys, "verify", str(program), "--spec", str(spec))
    assert rc == 3 and guard_walks


def test_the_division_probes_fail_when_no_statement_is_marked(capsys, tmp_path, monkeypatch):
    # A mark that marks nothing lets each probe's division by zero pass
    # unchecked, so every probe must fail: the probes pin the mark.
    monkeypatch.setattr(stmts, "divides_by_nonliteral", lambda _node: False)
    probes = (TestVerify.test_branch_condition_failing_at_zero_is_an_error_as_in_a_run,
              TestVerify.test_value_dividing_at_zero_is_an_error_as_in_a_run)
    cases = [(probe, args) for probe in probes for args in probe.pytestmark[0].args[1]]
    assert len(cases) == 6
    for probe, args in cases:
        with pytest.raises(AssertionError):
            probe(TestVerify(), capsys, tmp_path, *args)
    program, spec = tmp_path / "s.lls", tmp_path / "s.spec"
    program.write_text("contract S { uint r = 0; uint d; function f() public { "
                       "if (10 / d > 100) { r = 1; } } }\n")
    spec.write_text("entry f\nsym d : int 0..3\npost r == 0\n")
    assert run_cli(capsys, "verify", str(program), "--spec", str(spec))[:2] == (
        0, "verified\n")


# ---------------------------------------------------------------------------
# An integer operator's closure applies the operator itself to concrete
# operands; ``eval_bop`` is the route of every other operand.

COUNT_LOOP = """contract Count { uint n = 0; uint i = 0; uint k = 0;
    function count() public { while (i < k) { n += 1; i += 1; } } }
"""


@pytest.fixture
def bop_calls(monkeypatch):
    """One entry per ``exprs.eval_bop`` call made while the test runs."""
    calls, real = [], exprs.eval_bop

    def counted(*args):
        calls.append(args[0])
        return real(*args)
    monkeypatch.setattr(exprs, "eval_bop", counted)
    return calls


def test_a_concrete_counting_loop_never_calls_eval_bop(capsys, tmp_path, bop_calls):
    # Boxing each `+` and `<` through eval_bop's type guards was the largest
    # own-time function of a counting run.
    program = tmp_path / "count.lls"
    program.write_text(COUNT_LOOP)
    rc, out, _ = run_cli(capsys, "run", str(program), "--entry", "count", "--arg", "k=20",
                         "--gas", "200")
    assert (rc, out.count("\tint:u64:20\n"), bop_calls) == (0, 3, [])


def test_symbolic_operands_take_eval_bops_route(capsys, bop_calls):
    rc, out, _ = run_cli(capsys, "verify", "tests/golden/branchy.lls",
                         "--spec", "tests/golden/branchy.spec")
    assert (rc, out.split(" ")[0]) == (1, "refuted") and bop_calls


def test_the_count_probe_fails_when_every_closure_falls_back(capsys, tmp_path, bop_calls,
                                                            monkeypatch):
    def falling_back(op, left, right):
        return lambda K, sigma, env: (
            exprs.eval_bop(op, left(K - 1, sigma, env), right(K - 1, sigma, env))
            if K > 1 else None)

    def literal_falling_back(op, left, rhs):
        return lambda K, sigma, env: (
            exprs.eval_bop(op, left(K - 1, sigma, env), rhs) if K > 2 else None)
    monkeypatch.setattr(exprs, "_concrete_bop", falling_back)
    monkeypatch.setattr(exprs, "_concrete_literal_bop", literal_falling_back)
    with pytest.raises(AssertionError):
        test_a_concrete_counting_loop_never_calls_eval_bop(capsys, tmp_path, bop_calls)
    assert sorted(set(bop_calls)) == ["+", "<"]


@pytest.mark.parametrize("module", ["minisol", "minisol.cli"])
def test_module_entry_point_verifies_wallet(module):
    proc = run_module(module, "verify", WALLET, "--spec", SPEC, "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "verified"


class TestStep:
    def test_bounded_stepping_prints_dumps(self, capsys):
        rc, out, _ = run_cli(
            capsys, "step", WALLET, "--entry", "wallet", "--spec", PRE,
            "--arg", "privilegeOpen=0", "--arg", "privilegeClose=3",
            "--now", "4", "--max-steps", "3")
        assert rc == 0
        assert out.count("-- step") == 3

    def test_step_runs_to_throw_without_limit(self, capsys, monkeypatch):
        import sys
        monkeypatch.setattr(sys.stdin, "isatty", lambda: False)
        rc, out, _ = run_cli(
            capsys, "step", WALLET, "--entry", "wallet", "--spec", PRE,
            "--arg", "privilegeOpen=0", "--arg", "privilegeClose=3",
            "--now", "4")
        assert rc == 0
        assert "throw" in out


class TestTypecheckAndAst:
    def test_typecheck_ok(self, capsys):
        rc, out, _ = run_cli(capsys, "typecheck", WALLET)
        assert rc == 0
        assert out.strip() == "ok"

    def test_typecheck_rejects_bad_program(self, capsys, tmp_path):
        bad = tmp_path / "bad.lls"
        bad.write_text("contract C { uint x; function f() public { x = true; } }")
        rc, _out, err = run_cli(capsys, "typecheck", str(bad))
        assert rc == 3
        assert "error" in err

    def test_emit_ast_round_trip(self, capsys, tmp_path):
        from minisol.binder import bind_addresses
        from minisol.parser import parse_source
        from minisol.syntax import program_from_data

        target = tmp_path / "ast.json"
        rc, _out, _err = run_cli(capsys, "emit-ast", WALLET,
                                 "--dump", str(target))
        assert rc == 0
        doc = json.loads(target.read_text())
        reloaded = program_from_data(doc["program"])
        bound = bind_addresses(parse_source(open(WALLET).read()), 100)
        assert reloaded == bound.decls
        assert doc["bindings"]["wallet"] == bound.bindings["wallet"].index


    @pytest.mark.parametrize("source, message", [
        ("contract C { uint x; function f() public { x = 1; } "
         "function g() public { f(1); } }", "call arity 1 != 0"),
        ("contract C { uint c; modifier m(uint a) { modifier_ok = true; } "
         "function f() public m { c = 1; } }", "call arity 0 != 1"),
    ], ids=["function", "modifier"])
    def test_every_call_is_checked_for_arity(self, capsys, tmp_path, source, message):
        src = tmp_path / "s.lls"
        src.write_text(source)
        rc, out, err = run_cli(capsys, "typecheck", str(src))
        assert (rc, out) == (3, "")
        assert err.splitlines() == [f"error: {message}"]

    def test_emit_ast_writes_a_modifier_as_a_function_returning_bool(self, capsys):
        rc, out, _ = run_cli(capsys, "emit-ast", "samples/guarded.lls")
        assert rc == 0
        doc = json.loads(out)
        [below] = [s for s in doc["program"] if s.get("name") == doc["bindings"]["below"]]
        assert below["kind"] == "fun"
        assert (below["modifiers"], below["returns"]) == ([], [{"kind": "bool"}])
        assert [p["type"]["kind"] for p in below["params"]] == ["int"]

    def test_type_error_names_struct_types(self, capsys, tmp_path):
        src = tmp_path / "s.lls"
        src.write_text("contract S { uint r; address b; function f() public { r = b; } }")
        rc, out, err = run_cli(capsys, "typecheck", str(src))
        assert rc == 3
        assert out == ""
        assert err.splitlines() == ["error: assignment type mismatch: uint64 != address"]

    def test_assigning_a_member_function_is_a_type_error(self, capsys, tmp_path):
        # only a call statement calls; a function member is not a uint value
        src = tmp_path / "s.lls"
        src.write_text("contract S { uint x; function f() public { x = msg.sender.send; } }")
        for command in ("typecheck", "run"):
            rc, out, err = run_cli(capsys, command, str(src))
            assert rc == 3
            assert out == ""
            assert err.startswith("error: assignment type mismatch: uint64 != fid(")

    def test_call_inside_an_expression_is_a_positioned_bind_error(self, capsys, tmp_path):
        src = tmp_path / "s.lls"
        src.write_text("contract S { uint x;\n"
                       "  function seven() public returns (uint) { return 7; }\n"
                       "  function f() public { x = seven(); } }\n")
        rc, out, err = run_cli(capsys, "typecheck", str(src))
        assert rc == 3
        assert out == ""
        assert err.splitlines() == [
            "error: a call is a statement of its own and cannot appear inside an "
            "expression (line 3, column 34)"]

    def test_emit_ast_lowers_for_to_while_ending_with_the_post_step(self, capsys, tmp_path):
        src = tmp_path / "for.lls"
        src.write_text("contract S { uint i; uint s; function f() public "
                       "{ for (i = 0; i < 3; i = i + 1) { s += i; } } }")
        rc, out, _ = run_cli(capsys, "emit-ast", str(src))
        assert rc == 0
        init, loop = json.loads(out)["program"][-1]["body"][:2]
        assert init["kind"] == "assign" and loop["kind"] == "while"
        assert [s["kind"] for s in loop["body"]] == ["assign", "assign"]
        post = loop["body"][-1]
        assert post["lhs"] == init["lhs"]  # i = i + 1
        assert post["rhs"]["op"] == "+" and post["rhs"]["right"]["value"]["value"] == 1


class TestSourceForms:
    """Source forms that no sample or benchmark job runs."""

    def test_declared_modifier_admits_the_function(self, capsys, tmp_path):
        src = tmp_path / "mod.lls"
        src.write_text("contract S { uint r; modifier ok() { modifier_ok = true; }\n"
                       "  function f() public ok { r = 1; } }\n")
        rc, out, _ = run_cli(capsys, "run", str(src), "--entry", "f")
        assert rc == 0
        assert out.splitlines()[2].split("\t")[4] == "int:u64:1"  # r

    @pytest.mark.parametrize("init, value, r", [("", 1, "int:u64:1"), (" = 1", 3, "undef")])
    def test_modifier_reads_the_state_of_each_call(self, capsys, tmp_path, init, value, r):
        src = tmp_path / "mod.lls"
        src.write_text(f"contract S {{ uint a{init}; uint r;\n"
                       "  modifier small() { if (a < 2) { modifier_ok = true; } }\n"
                       "  function f() public small { r = 1; } }\n")
        rc, out, _ = run_cli(capsys, "run", str(src), "--entry", "f", "--arg", f"a={value}")
        assert rc == 0
        lines = out.splitlines()
        assert lines[3].split("\t")[4] == r
        assert lines[99].split("\t")[4] == ("bool:true" if r == "undef" else "bool:false")
        spec = tmp_path / "mod.spec"
        spec.write_text("entry f\nsym a : int 0..3\npost r == 1\n")
        rc, out, _ = run_cli(capsys, "verify", str(src), "--spec", str(spec), "--json")
        assert rc == 1
        doc = json.loads(out)
        assert (doc["status"], doc["witness"], doc["paths"]) == ("refuted", {"a": 2}, 2)

    @pytest.mark.parametrize("value, r, thrown", [(3, "int:u64:1", "bool:false"),
                                                  (1, "undef", "bool:true")])
    def test_modifier_argument_may_be_written(self, capsys, tmp_path, value, r, thrown):
        src = tmp_path / "arg.lls"
        src.write_text("contract S { uint r;\n"
                       "  modifier gt(uint x) { if (x > 1) { modifier_ok = true; } }\n"
                       "  function f(uint y) public gt(y) { r = 1; } }\n")
        rc, out, _ = run_cli(capsys, "run", str(src), "--entry", "f", "--arg", f"y={value}")
        assert rc == 0
        lines = out.splitlines()
        assert (lines[2].split("\t")[4], lines[99].split("\t")[4]) == (r, thrown)

    @pytest.mark.parametrize("body, rc, r, thrown", [
        ("modifier_ok = true; return true;", 0, "int:u64:1", "bool:false"),
        ("return true;", 0, "undef", "bool:true"),
        ("r = 2; modifier_ok = true; return true;", 3, None, None)])
    def test_modifier_may_return(self, capsys, tmp_path, body, rc, r, thrown):
        # The return fills the modifier's own return slot, discarded like its flag.
        src = tmp_path / "ret.lls"
        src.write_text("contract S { uint r;\n"
                       f"  modifier m() {{ {body} }}\n"
                       "  function f() public m { r = 1; } }\n")
        code, out, err = run_cli(capsys, "run", str(src), "--entry", "f")
        assert code == rc
        if r is None:
            assert err == "execution failed: modifier touched memory outside its flag\n"
        else:
            lines = out.splitlines()
            assert (lines[2].split("\t")[4], lines[99].split("\t")[4]) == (r, thrown)

    def test_undeclared_modifier_is_a_positioned_bind_error(self, capsys, tmp_path):
        src = tmp_path / "mod.lls"
        src.write_text("contract S { uint r;\n  function f() public nope { r = 1; } }\n")
        rc, out, err = run_cli(capsys, "run", str(src), "--entry", "f")
        assert rc == 3
        assert out == ""
        assert err.splitlines() == ["error: unknown modifier 'nope' (line 2, column 3)"]

    @pytest.mark.parametrize("k, rc, r", [(9, 0, "int:u64:36"), (8, 3, None)])
    def test_k_bounds_a_deep_expression(self, capsys, tmp_path, k, rc, r):
        # Seven nested additions: one level each, and two for the innermost literal.
        src = tmp_path / "deep.lls"
        src.write_text("contract S { uint r;\n  function f() public "
                       "{ r = 1 + (2 + (3 + (4 + (5 + (6 + (7 + 8)))))); } }\n")
        code, out, err = run_cli(capsys, "run", str(src), "--entry", "f", "--k", str(k))
        assert code == rc
        if r is None:
            assert (out, err) == ("", "execution failed: assignment right side failed "
                                      "to evaluate\n")
        else:
            assert out.splitlines()[2].split("\t")[4] == r

    def test_member_call_on_a_copied_address(self, capsys, tmp_path):
        src = tmp_path / "send.lls"
        src.write_text("contract S { uint r; address safe; function f() public "
                       "{ safe = msg.sender; safe.send(1); r = 1; } }")
        rc, out, _ = run_cli(capsys, "run", str(src), "--entry", "f")
        assert rc == 0
        lines = out.splitlines()
        assert lines[2].split("\t")[4] == "int:u64:1"  # r
        assert lines[3].split("\t")[4].startswith("struct:")  # safe holds the copy


class TestOracleCommand:
    def test_report_clean(self, capsys):
        rc, out, _ = run_cli(capsys, "oracle", "--count", "20", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["total"] == 20
        assert doc["divergences"] == []


class TestEntryArguments:
    def test_named_entry_arguments_fill_parameters(self, capsys):
        rc, out, _ = run_cli(capsys, "run", "samples/adder.lls",
                             "--entry", "add", "--arg", "a=2", "--arg", "b=3")
        assert rc == 0
        line = out.strip().splitlines()[2]  # block of `out`
        assert line.split("\t")[4] == "int:u64:5"

    def test_missing_entry_argument_fails(self, capsys):
        rc, _out, err = run_cli(capsys, "run", "samples/adder.lls",
                                "--entry", "add", "--arg", "a=2")
        assert rc == 3
        assert "missing argument" in err

    def test_unknown_argument_fails(self, capsys):
        rc, _out, err = run_cli(capsys, "run", "samples/adder.lls",
                                "--entry", "add", "--arg", "a=1",
                                "--arg", "b=2", "--arg", "zz=3")
        assert rc == 3

    @pytest.mark.parametrize("params, ptype", [
        ("address a", "address"), ("P[2] a", "P[2]"),
        ("mapping(uint => P) a", "mapping(uint64=>P)")])
    def test_entry_argument_of_another_type_names_parameter_and_type(self, capsys, tmp_path,
                                                                     params, ptype):
        src = tmp_path / "param.lls"
        src.write_text("contract S { struct P { uint v; } uint r; "
                       f"function f({params}) public {{ r = 1; }} }}\n")
        rc, out, err = run_cli(capsys, "run", str(src), "--entry", "f", "--arg", "a=5")
        assert rc == 3
        assert out == ""
        assert err.splitlines() == [
            f"error: entry argument 'a' has type {ptype}: an entry argument must be "
            "a bool or an integer"]

    @pytest.mark.parametrize("argv, message", [
        (["--entry", "add", "--arg", "a=99999999999999999999999", "--arg", "b=2"],
         "integer 99999999999999999999999 does not fit in uint64"),
        (["--entry", "add", "--arg", "a=-1", "--arg", "b=2"],
         "integer -1 does not fit in uint64"),
        (["--arg", "out=-1"], "integer -1 does not fit in uint64"),
    ], ids=["oversized-parameter", "negative-parameter", "negative-global"])
    def test_integer_outside_the_target_type_is_an_error(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, "run", "samples/adder.lls", *argv)
        assert rc == 3
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_set_line_outside_the_target_type_is_an_error(self, capsys, tmp_path):
        spec = tmp_path / "wrap.spec"
        spec.write_text("set out = 18446744073709551616\n")
        rc, out, err = run_cli(capsys, "run", "samples/adder.lls", "--spec", str(spec))
        assert rc == 3
        assert out == ""
        assert err.splitlines() == [
            "error: integer 18446744073709551616 does not fit in uint64"]

    @pytest.mark.parametrize("source, spec_text, argv, message", [
        ("contract S { uint x = 1 / 0; function f() public { x = 2; } }\n", "", ["--entry", "f"],
         "declarations failed to execute: assignment right side failed to evaluate"),
        ("contract A { uint[2] a; function f() public { } }\n", "set a[5] = 1\n", [],
         "seed write to 'a[5]' failed: assignment target has no address"),
    ], ids=["declarations", "seed-write"])
    def test_a_failing_setup_run_is_an_error_with_its_reason(self, capsys, tmp_path, source,
                                                             spec_text, argv, message):
        prog, spec = tmp_path / "setup.lls", tmp_path / "setup.spec"
        prog.write_text(source)
        spec.write_text(spec_text)
        rc, out, err = run_cli(capsys, "run", str(prog), "--spec", str(spec), *argv)
        assert rc == 3
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("values, accepted", [
        (("255", "-128"), True), (("0", "127"), True),
        (("256", "0"), False), (("-1", "0"), False),
        (("0", "128"), False), (("0", "-129"), False),
    ])
    def test_small_targets_accept_exactly_their_range(self, capsys, tmp_path, values,
                                                       accepted):
        src = tmp_path / "small.lls"
        src.write_text("contract S {\n    uint8 u;\n    int8 i;\n"
                       "    function f(uint8 a, int8 b) public { u = a; i = b; }\n}\n")
        rc, out, err = run_cli(capsys, "run", str(src), "--entry", "f",
                               "--arg", f"a={values[0]}", "--arg", f"b={values[1]}")
        if accepted:
            assert rc == 0
            payloads = [line.split("\t")[4] for line in out.splitlines()[2:4]]  # u, i
            assert payloads == [f"int:u8:{values[0]}", f"int:i8:{values[1]}"]
        else:
            assert rc == 3
            assert "does not fit in " in err

    def test_array_element_seed_write(self, capsys, tmp_path):
        src = tmp_path / "arr.lls"
        src.write_text("contract S { uint[3] a; }\n")
        rc, out, _ = run_cli(capsys, "run", str(src), "--arg", "a[1]=5")
        assert rc == 0
        assert out.splitlines()[3].split("\t")[4] == "int:u64:5"  # a[1]

    @pytest.mark.parametrize("target", ["m[1][2]", "a", "msg.value"],
                             ids=["over-indexed-mapping", "whole-array", "field"])
    def test_seed_target_without_a_type_names_the_accepted_forms(self, capsys, tmp_path,
                                                                 target):
        src = tmp_path / "arr.lls"
        src.write_text("contract S { uint[3] a; mapping(uint => uint) m; }\n")
        rc, out, err = run_cli(capsys, "run", str(src), "--arg", f"{target}=5")
        assert rc == 3
        assert out == ""
        assert err.splitlines() == [
            f"error: cannot seed {target!r}: a seed write needs a bool or integer "
            "variable, a fully indexed array element or a mapping entry"]

    @pytest.mark.parametrize("ltype, dumped", [("uint8", "int:u8:3"), ("uint", "int:u64:3")])
    def test_literal_operand_takes_the_other_operands_type(self, capsys, tmp_path, ltype,
                                                           dumped):
        src = tmp_path / "lit.lls"
        src.write_text(f"contract S {{ {ltype} u = 1; function f() public "
                       "{ u = u + 1; if (u < 5) { u += 1; } } }\n")
        rc, out, _ = run_cli(capsys, "run", str(src), "--entry", "f")
        assert rc == 0
        assert out.splitlines()[2].split("\t")[4] == dumped  # u

    @pytest.mark.parametrize("ltype, dumped", [("int", "int:i64:-2"), ("int8", "int:i8:-2")])
    def test_literal_beside_arithmetic_takes_its_type(self, capsys, tmp_path, ltype, dumped):
        src = tmp_path / "lit.lls"
        src.write_text(f"contract S {{ {ltype} x = 3; uint r; function f() public "
                       "{ if (x - 1 < 0) { r = 1; } else { r = 2; } x = -x + 1; } }\n")
        rc, out, _ = run_cli(capsys, "run", str(src), "--entry", "f")
        assert rc == 0
        lines = out.splitlines()
        assert [lines[2].split("\t")[4], lines[3].split("\t")[4]] == [dumped, "int:u64:2"]

    def test_literal_beside_arithmetic_outside_its_type_is_an_error(self, capsys, tmp_path):
        src = tmp_path / "lit.lls"
        src.write_text("contract S { uint8 u = 3; function f() public "
                       "{ if (u * 2 < 300) { u = 0; } } }\n")
        rc, out, err = run_cli(capsys, "run", str(src), "--entry", "f")
        assert rc == 3
        assert out == ""
        assert err.splitlines() == [
            "error: integer literal 300 does not fit in uint8 (line 1, column 61)"]

    def test_literal_operand_outside_the_other_operands_type_is_an_error(self, capsys,
                                                                         tmp_path):
        src = tmp_path / "lit.lls"
        src.write_text("contract S { uint8 u = 1; function f() public { u = u + 300; } }\n")
        rc, out, err = run_cli(capsys, "run", str(src), "--entry", "f")
        assert rc == 3
        assert out == ""
        assert err.splitlines() == [
            "error: integer literal 300 does not fit in uint8 (line 1, column 57)"]

    def test_global_write_via_arg(self, capsys):
        # an --arg naming a global (not a parameter) seeds that block
        rc, out, _ = run_cli(
            capsys, "run", WALLET, "--entry", "wallet", "--spec", PRE,
            "--arg", "privilegeOpen=0", "--arg", "privilegeClose=3",
            "--arg", "now=4", "--msg-value", "1000000000000000000")
        assert rc == 0
        assert out.strip().splitlines()[99].split("\t")[4] == "bool:true"

    def test_global_write_via_arg_without_entry(self, capsys):
        # with no entry to run, an --arg still seeds the global it names
        rc, out, _ = run_cli(capsys, "run", WALLET, "--arg", "now=5")
        assert rc == 0
        assert out.strip().splitlines()[0].split("\t")[4] == "int:u64:5"

    def test_exhausted_address_space_names_no_fake_position(self, capsys):
        # the implicit `now` global has no source position to report
        rc, out, err = run_cli(capsys, "run", "samples/adder.lls", "--mem-size", "0")
        assert rc == 3
        assert out == ""
        assert err.splitlines() == ["error: address space exhausted; raise --mem-size"]

    def test_unknown_global_without_entry_fails(self, capsys):
        rc, out, err = run_cli(capsys, "run", WALLET, "--arg", "zz=5")
        assert rc == 3
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("target, message", [
        ("zz", "unknown identifier 'zz'"),
        ("a[", "unexpected end of input"),
    ], ids=["bind-error", "parse-error"])
    def test_unresolvable_target_names_no_position(self, capsys, target, message):
        # a position inside the target's own text would read as one in the program
        rc, out, err = run_cli(capsys, "run", WALLET, "--arg", f"{target}=5")
        assert rc == 3
        assert out == ""
        assert err.splitlines() == [f"error: cannot resolve {target!r}: {message}"]


_MSG_VALUE_STORE = "contract S { uint r; function f() public { r = msg.value; } }\n"


class TestMessageFlags:
    """``--now``, ``--sender`` and ``--msg-value`` fill ``uint64`` blocks,
    so a value outside that range is refused as an ``--arg`` value is."""

    @pytest.mark.parametrize("flag, value", [
        ("--msg-value", "-1"), ("--msg-value", "18446744073709551616"),
    ], ids=["negative", "oversized"])
    def test_msg_value_outside_uint64_is_an_error(self, capsys, tmp_path, flag, value):
        src = tmp_path / "value.lls"
        src.write_text(_MSG_VALUE_STORE)
        rc, out, err = run_cli(capsys, "run", str(src), "--entry", "f", flag, value)
        assert (rc, out) == (3, "")
        assert err.splitlines() == [f"error: {flag}: integer {value} does not fit in uint64"]

    def test_now_outside_uint64_is_an_error(self, capsys, tmp_path):
        src = tmp_path / "value.lls"
        src.write_text(_MSG_VALUE_STORE)
        rc, out, err = run_cli(capsys, "run", str(src), "--entry", "f", "--now", "-3")
        assert (rc, out) == (3, "")
        assert err.splitlines() == ["error: --now: integer -3 does not fit in uint64"]

    def test_sender_outside_uint64_is_an_error(self, capsys, tmp_path):
        src = tmp_path / "value.lls"
        src.write_text(_MSG_VALUE_STORE)
        rc, out, err = run_cli(capsys, "verify", str(src), "--spec", SPEC, "--entry", "f",
                               "--sender", "-2", "--json")
        assert rc == 3
        assert json.loads(out) == {"status": "error", "diagnostic":
                                   "--sender: integer -2 does not fit in uint64"}
        assert err.splitlines() == ["error: --sender: integer -2 does not fit in uint64"]

    def test_the_uint64_bounds_themselves_are_accepted(self, capsys, tmp_path):
        src = tmp_path / "value.lls"
        src.write_text(_MSG_VALUE_STORE)
        rc, out, _err = run_cli(capsys, "run", str(src), "--entry", "f", "--now", "0",
                                "--sender", "0", "--msg-value", "18446744073709551615")
        assert rc == 0
        assert out.splitlines()[2].split("\t")[4] == "int:u64:18446744073709551615"  # r


class TestBudgetFlags:
    """A budget that cannot run is a usage error that names its flag and bound."""

    @pytest.mark.parametrize("argv, message", [
        (["run", "samples/empty.lls", "--k", "0"], "argument --k: must be at least 1, got 0"),
        (["run", "samples/empty.lls", "--gas", "-1"],
         "argument --gas: must be at least 0, got -1"),
        (["step", WALLET, "--entry", "wallet", "--max-steps", "-1"],
         "argument --max-steps: must be at least 0, got -1"),
        (["oracle", "--count", "0"], "argument --count: must be at least 1, got 0"),
        (["oracle", "--count", "-1"], "argument --count: must be at least 1, got -1"),
    ], ids=["k", "gas", "max-steps", "oracle-count-zero", "oracle-count-negative"])
    def test_budget_below_its_bound_is_a_usage_error(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.splitlines()[-1] == f"minisol {argv[0]}: error: {message}"

    def test_the_bounds_themselves_are_accepted(self, capsys):
        rc, _out, _err = run_cli(capsys, "run", "samples/empty.lls", "--k", "1", "--gas", "0")
        assert rc == 0
        rc, out, _err = run_cli(capsys, "step", WALLET, "--entry", "wallet",
                                "--max-steps", "0")
        assert (rc, out) == (0, "")


TYPED = """\
contract P {
    int x = 0;
    int y = 0;
    uint8 u = 0;
    uint8 one = 1;
    uint w = 0;
    bool t;
    mapping(uint => uint) m;
    uint[3] a;
    uint r = 0;
    function f() public {
        if (x < y) { r = 1; }
        if (u < one) { r = r + 2; }
    }
}
"""


ZERO_A = "set a[0] = 0\nset a[1] = 0\nset a[2] = 0\n"


class TestSpecTypes:
    """A symbol takes the type of the block it names, and ``require`` and
    ``post`` lines are the program's own typed boolean expressions."""

    @staticmethod
    def verify(capsys, tmp_path, spec_text, *flags):
        src, spec = tmp_path / "typed.lls", tmp_path / "typed.spec"
        src.write_text(TYPED)
        spec.write_text("entry f\n" + spec_text)
        return run_cli(capsys, "verify", str(src), "--spec", str(spec), *flags)

    def test_signed_and_narrow_symbols_branch(self, capsys, tmp_path):
        rc, out, _ = self.verify(capsys, tmp_path, "sym x : int 0..2\nsym y : int -1..1\n"
                                 "sym u : int 0..3\npost r < 4\n", "--json")
        assert rc == 0
        assert json.loads(out) == {"status": "verified", "paths": 4, "witness": {},
                                   "diagnostic": ""}

    @pytest.mark.parametrize("post, status, witness", [
        ("x <= 0", "verified", {}), ("x != 0", "refuted", {"x": 0}),
        ("x != -2", "refuted", {"x": -2}), ("x > -3", "verified", {}),
    ])
    def test_require_keeps_the_models_of_signed_arithmetic(self, capsys, tmp_path, post,
                                                           status, witness):
        # x - 1 < 0 over -2..2 holds for x in {-2, -1, 0} in int64.
        rc, out, _ = self.verify(capsys, tmp_path, "sym x : int -2..2\nrequire x - 1 < 0\n"
                                 f"post {post}\n", "--json")
        doc = json.loads(out)
        assert (rc, doc["status"], doc["witness"]) == (int(status == "refuted"), status,
                                                       witness)
        assert "vacuous" not in doc["diagnostic"]

    @pytest.mark.parametrize("spec_text, message", [
        ("sym w : int -1..0\n", "symbol 'w': domain -1..0 does not fit in uint64"),
        ("sym u : int 0..256\n", "symbol 'u': domain 0..256 does not fit in uint8"),
        ("sym x : int -9223372036854775809..0\n",
         "symbol 'x': domain -9223372036854775809..0 does not fit in int64"),
        ("sym t : int 0..1\n", "symbol 't' of kind int names a block of type bool"),
        ("sym w : bool\n", "symbol 'w' of kind bool names a block of type uint64"),
        ("sym m : int 0..1\n",
         "symbol 'm' of kind int names a block of type mapping(uint64=>uint64)"),
        ("sym q : int 0..1\n", "cannot resolve 'q': unknown identifier 'q'"),
        ("sym t : bool\npost t == 1\n",
         "line 3: comparison == over unequal types bool and uint64"),
        ("sym x : int 0..1\nrequire mystery > 3\n", "line 3: unknown identifier 'mystery'"),
        ("sym x : int 0..1\nrequire x + 1\n",
         "line 3: a spec expression must be a bool, not int64"),
        ("post r == -1\n", "line 2: integer literal -1 does not fit in uint64"),
    ], ids=["uint-domain", "uint8-domain", "int64-domain", "int-on-bool", "bool-on-uint",
            "int-on-mapping", "unknown-block", "bool-post-int", "unknown-in-require",
            "int-require", "literal-outside-post"])
    def test_spec_that_does_not_fit_the_program_is_an_error(self, capsys, tmp_path,
                                                             spec_text, message):
        rc, out, err = self.verify(capsys, tmp_path, spec_text + "post throw-state\n")
        assert (rc, out) == (3, "")
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("value, message", [
        ("-1", "integer -1 does not fit in uint64"),
        ("3", "symbol 'w': value 3 is outside its domain 0..2"),
        ("true", "expected an integer, got True"),
    ])
    def test_concolic_value_outside_the_symbol_is_an_error(self, capsys, tmp_path, value,
                                                          message):
        rc, out, err = self.verify(capsys, tmp_path, "sym w : int 0..2\npost r == 2\n",
                                   "--mode", "concolic", "--arg", f"w={value}")
        assert (rc, out) == (3, "")
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("require, flags, rc, expected", [
        ("w > 2", (), 0, "verified: vacuous: precondition unsatisfiable"),
        ("m[w] == 0", (), 0, "verified: vacuous: precondition unsatisfiable"),
        ("w > 0", ("--mode", "concolic", "--arg", "w=0"), 3,
         "error: concolic assignment violates the precondition"),
        ("w > 0", ("--mode", "concolic", "--arg", "w=1"), 0, "verified"),
    ], ids=["unsatisfiable", "missing-keys", "concolic-false", "concolic-true"])
    def test_require_decides_the_models(self, capsys, tmp_path, require, flags, rc,
                                        expected):
        # m holds no key, so m[w] fails to evaluate, and is false, under every model.
        spec = f"sym w : int 0..2\nrequire {require}\npost r == 2\n"
        assert self.verify(capsys, tmp_path, spec, *flags)[:2] == (rc, expected + "\n")

    @pytest.mark.parametrize("spec_text, status, witness", [
        ("set m[1] = 0\nsym w : int 0..2\nrequire m[w] == 0\npost w == 1\n", "verified", {}),
        ("set m[1] = 0\nsym w : int 0..2\nrequire m[w] == 0\npost w != 1\n", "refuted",
         {"w": 1}),
        (ZERO_A + "sym w : int 0..2\nrequire a[w] == 0\npost r == 2\n", "verified", {}),
        (ZERO_A + "sym w : int 0..2\npost a[w] == 0\n", "verified", {}),
        (ZERO_A + "sym w : int 0..3\npost a[w] == 0\n", "refuted", {"w": 3}),
        ("sym w : int 0..2\npost a[w] == 0\n", "refuted", {"w": 0}),
    ], ids=["require-key", "require-key-witness", "require-element", "post-element",
            "post-element-out-of-range", "post-element-undefined"])
    def test_symbolic_index_or_key_is_read_per_model(self, capsys, tmp_path, spec_text,
                                                     status, witness):
        # A read under a symbolic index or key is evaluated on the state
        # concretized under each model; where it fails there, as on an
        # index out of range or an element never written, it is false.
        rc, out, _ = self.verify(capsys, tmp_path, spec_text, "--json")
        doc = json.loads(out)
        assert (rc, doc["status"], doc["witness"]) == (int(status == "refuted"), status,
                                                       witness)
        assert "vacuous" not in doc["diagnostic"]

    @pytest.mark.parametrize("post", ["r == 2", "r != 2"])
    def test_a_false_require_without_symbols_is_vacuous(self, capsys, tmp_path, post):
        rc, out, _ = self.verify(capsys, tmp_path, f"require a[1] == 0\npost {post}\n")
        assert (rc, out) == (0, "verified: vacuous: precondition unsatisfiable\n")

    def test_concolic_value_inside_the_domain_runs(self, capsys, tmp_path):
        rc, out, _ = self.verify(capsys, tmp_path, "sym w : int 0..2\npost r == 2\n",
                                 "--mode", "concolic", "--arg", "w=2")
        assert (rc, out) == (0, "verified\n")

    def test_a_post_operator_that_fails_is_false_under_the_model(self, capsys, tmp_path):
        # r / w fails at w = 0, as a require would: refuted, and the
        # concrete replay agrees.
        rc, out, _ = self.verify(capsys, tmp_path, "set u = 1\nset r = 2\nsym w : int 0..2\n"
                                 "post r / w == 1\n", "--json")
        doc = json.loads(out)
        assert (rc, doc["status"], doc["witness"]) == (1, "refuted", {"w": 0})

    @pytest.mark.parametrize("post, status", [
        ("r == 0", "verified"), ("!t", "verified"), ("t == false", "verified"),
        ("r == 1 || r == 2", "refuted"), ("w + 1 == 1 && r != 2", "verified"),
    ])
    def test_posts_are_boolean_expressions(self, capsys, tmp_path, post, status):
        # u starts at 1 here, so no branch is taken and t stays false.
        rc, out, _ = self.verify(capsys, tmp_path, f"set u = 1\nset t = false\npost {post}\n",
                                 "--json")
        assert (rc, json.loads(out)["status"]) == (int(status == "refuted"), status)


UNCHANGED = """\
contract U {
    uint[4] a;
    uint[2][2] b;
    mapping(uint => uint) m;
    uint k;
    uint r;
    function f() public { a[2] = 7; }
    function g() public { b[1][0] = 3; }
    function h() public { m[k] = 5; r = 1; }
}
"""


class TestUnchangedPosts:
    """``post unchanged`` finds its variable as ``set`` and ``sym`` do, and
    covers every block of an array."""

    @staticmethod
    def verify(capsys, tmp_path, spec_text):
        src, spec = tmp_path / "unchanged.lls", tmp_path / "unchanged.spec"
        src.write_text(UNCHANGED)
        spec.write_text(spec_text)
        return run_cli(capsys, "verify", str(src), "--spec", str(spec))

    @pytest.mark.parametrize("entry, name, rc, out", [
        ("f", "a", 1, "refuted: postcondition fails under {}\n"),
        ("g", "b", 1, "refuted: postcondition fails under {}\n"),
        ("h", "a", 0, "verified\n"),
        ("h", "b", 0, "verified\n"),
        ("f", "r", 0, "verified\n"),
        ("h", "r", 1, "refuted: postcondition fails under {}\n"),
    ])
    def test_an_array_is_unchanged_only_if_every_block_is(self, capsys, tmp_path, entry,
                                                          name, rc, out):
        assert self.verify(capsys, tmp_path,
                           f"entry {entry}\npost unchanged {name}\n")[:2] == (rc, out)

    @pytest.mark.parametrize("spec_text, message", [
        ("entry f\npost unchanged f\n", "line 2: cannot resolve 'f': unknown identifier 'f'"),
        ("entry f\npost unchanged f.__ret\n",
         "line 2: cannot resolve 'f.__ret': unknown identifier 'f'"),
        ("set m[1] = 3\nset k = 1\nentry h\npost unchanged m\n",
         "line 4: post unchanged cannot name the mapping 'm'"),
        ("entry f\npost unchanged a[2]\n",
         "line 2: post unchanged needs a variable name, not 'a[2]'"),
    ], ids=["function", "return-slot", "mapping", "element"])
    def test_a_name_that_is_no_variable_is_a_spec_error(self, capsys, tmp_path, spec_text,
                                                        message):
        rc, out, err = self.verify(capsys, tmp_path, spec_text)
        assert (rc, out) == (3, "")
        assert err.splitlines() == [f"error: {message}"]


class TestBranchyExpressionPosts:
    @pytest.mark.parametrize("post, expected", [
        ("r < 16", "verified\n"),
        ("r < 8", "refuted (witness: {'a': 3, 'b': 0, 'c': 2}): "
                  "postcondition fails under {'a': 3, 'b': 0, 'c': 2}\n"),
    ])
    def test_branchy_expression_post(self, capsys, tmp_path, post, expected):
        spec = tmp_path / "branchy.spec"
        spec.write_text("entry f\nsym a : int 0..3\nsym b : int 0..3\nsym c : int 0..3\n"
                        f"post {post}\n")
        rc, out, _ = run_cli(capsys, "verify", "tests/golden/branchy.lls", "--spec", str(spec))
        assert (rc, out) == (int(post == "r < 8"), expected)


class TestSelectiveModeCli:
    def test_selective_mode_is_a_usage_error(self, capsys):
        # the old selective mode is gone and the CLI keeps no alias for it
        rc, out, _ = run_cli(capsys, "verify", WALLET, "--spec", SPEC,
                             "--mode", "selective", "--json")
        assert rc == 2
        assert out == ""


class TestArgumentParsing:
    def test_a_command_builds_only_its_own_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        rc, _out, _err = run_cli(capsys, "run", "samples/empty.lls")
        assert rc == 0
        assert built == ["minisol run"]

    @pytest.mark.parametrize("argv", [
        ["run", WALLET, "--entry", "wallet", "--arg", "a=1", "--arg", "b=2", "--gas", "7"],
        ["step", WALLET, "--max-steps", "3", "--json"],
        ["verify", WALLET, "--spec", SPEC, "--mode", "concolic", "--symbolic", "x:uint:0..3"],
        ["typecheck", WALLET, "--mem-size", "50"],
        ["emit-ast", WALLET, "--dump", "out.json"],
        ["oracle", "--count", "3", "--seed", "9"],
    ])
    def test_command_parser_parses_as_the_full_parser(self, argv):
        assert parse_command_line(argv) == build_arg_parser().parse_args(argv)


def _assign_to(lhs: str) -> str:
    return f'{{"program": [{{"kind": "assign", "lhs": {lhs}, "rhs": null}}]}}'


def _declare_as(ltype: str, addr: str = "0") -> str:
    decl = f'{{"kind": "var", "addr": {addr}, "type": {ltype}}}'
    return f'{{"program": [{{"kind": "var", "access": null, "decl": {decl}}}]}}'


UINT = '{"kind": "int", "width": 64, "signed": false}'
TRUE = '{"kind": "const", "value": {"kind": "vbool", "bit": true}}'


class TestOracleAstInput:
    def test_emitted_core_program_checks_clean(self, capsys, tmp_path):
        # a core-subset program serialized through the interchange format
        from minisol.proggen import generate_program
        from minisol.syntax import program_to_data

        doc = {"mem_size": 64, "program": program_to_data(generate_program(7))}
        path = tmp_path / "prog.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = run_cli(capsys, "oracle", "--ast", str(path), "--json")
        assert rc == 0
        assert json.loads(out) == {"total": 1, "divergences": []}

    @pytest.mark.parametrize("text, message", [
        ("{not json", "Expecting property name"),
        ('{"program": [{"kind": "nope"}]}', "unknown statement kind 'nope'"),
        ('{"program": [{"kind": "while", "body": []}]}', "missing field 'cond'"),
        ('{"mem_size": "x", "program": []}', "mem_size 'x' is not an integer"),
        # kinds of syntax forms that no binder output holds
        (_assign_to('{"kind": "con", "addr": 0}'), "unknown expr kind 'con'"),
        (_assign_to('{"kind": "par", "addr": 0}'), "unknown expr kind 'par'"),
        (_assign_to('{"kind": "modifier"}'), "unknown expr kind 'modifier'"),
        (_declare_as('{"kind": "eaddr", "addr": null}'), "unknown type kind 'eaddr'"),
        (_declare_as('{"kind": "unit"}'), "unknown type kind 'unit'"),
        # a for loop and a single-value return have no statement form of their own
        ('{"program": [{"kind": "for"}]}', "unknown statement kind 'for'"),
        ('{"program": [{"kind": "return"}]}', "unknown statement kind 'return'"),
        # nor has a modifier: it is a function that returns one bool
        ('{"program": [{"kind": "modifier"}]}', "unknown statement kind 'modifier'"),
        # decodable documents whose fields have the wrong JSON type or an ill-typed value
        ('{"program": [{"kind": "var", "access": null, "decl": null}]}',
         "var.decl: expected an object, got null"),
        (f'{{"program": [{{"kind": "while", "cond": {TRUE}, "body": null}}]}}',
         "while.body: expected a list, got null"),
        (f'{{"program": [{{"kind": "if", "cond": {TRUE}, "then": null, "orelse": []}}]}}',
         "if.then: expected a list, got null"),
        (_declare_as(f'{{"kind": "array", "length": 0, "element": {UINT}}}'),
         "array dimensions must be positive"),
        (_declare_as('{"kind": "int", "width": "w", "signed": false}'),
         "int.width: expected an integer, got a string"),
        (_declare_as('{"kind": "int", "width": 0, "signed": false}'),
         "unsupported integer width 0"),
        (_declare_as(UINT, '"x"'), "var.addr: expected an integer, got a string"),
        (_declare_as(UINT, "1.5"), "var.addr: expected an integer, got a number"),
        ('{"program": [{"kind": "returns", "values": [{"kind": "const", "value": '
         '{"kind": "vint", "value": "7", "width": 64, "signed": false}}]}]}',
         "vint.value: expected an integer, got a string"),
    ], ids=["not-json", "unknown-kind", "missing-field", "bad-mem-size",
            "con", "par", "modifier-expr", "eaddr", "unit", "for", "return", "modifier",
            "null-decl", "null-body", "null-then", "zero-length", "string-width",
            "zero-width", "string-addr", "float-addr", "string-value"])
    def test_malformed_document_is_one_error_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc, out, err = run_cli(capsys, "oracle", "--ast", str(path))
        assert rc == 3
        assert out == ""
        assert err.startswith(f"error: {path}: malformed AST document: ")
        assert err.count("\n") == 1
        assert message in err
        rc, out, _ = run_cli(capsys, "oracle", "--ast", str(path), "--json")
        assert rc == 3
        assert [json.loads(line)["status"] for line in out.splitlines()] == ["error"]

    def test_out_of_subset_document_reported(self, capsys, tmp_path):
        from minisol.binder import bind_addresses
        from minisol.parser import parse_source
        from minisol.syntax import program_to_data

        bound = bind_addresses(parse_source(open(WALLET).read()), 100)
        doc = {"mem_size": 100, "program": program_to_data(bound.decls)}
        path = tmp_path / "wallet.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = run_cli(capsys, "oracle", "--ast", str(path), "--json")
        assert rc == 3
        assert "core subset" in json.loads(out)["divergences"][0]["detail"]
        # a declaration the relational side writes as one block: an array
        # (of any length) or a mapping is outside the subset it models
        for ltype in (f'{{"kind": "array", "length": 2, "element": {UINT}}}',
                      f'{{"kind": "array", "length": 1000000000, "element": {UINT}}}',
                      f'{{"kind": "map", "key": {UINT}, "value": {UINT}}}'):
            path.write_text(_declare_as(ltype))
            rc, out, _ = run_cli(capsys, "oracle", "--ast", str(path), "--json")
            assert rc == 3
            assert json.loads(out)["divergences"] == [
                {"index": 0, "detail": "program outside core subset", "first_step": -1}]
