"""Command-line interface, exercised in process through cli_main, and in a
fresh interpreter where the module entry points or stderr are checked."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from minisol.cli import cli_main

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


class TestVerify:
    def test_static_wallet_verified(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", WALLET, "--spec", SPEC, "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "verified"
        assert doc["paths"] == 1

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

    def test_caught_error_under_json_is_one_error_record(self, capsys):
        rc, out, err = run_cli(capsys, "run", WALLET, "--entry", "nosuch", "--json")
        assert rc == 3
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"status": "error",
                                        "diagnostic": "no function named 'nosuch'"}
        assert err == "error: no function named 'nosuch'\n"

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

    def test_unknown_global_without_entry_fails(self, capsys):
        rc, out, err = run_cli(capsys, "run", WALLET, "--arg", "zz=5")
        assert rc == 3
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestSelectiveModeCli:
    def test_selective_mode_is_a_usage_error(self, capsys):
        # segment summaries are a library feature; the CLI has no alias
        rc, out, _ = run_cli(capsys, "verify", WALLET, "--spec", SPEC,
                             "--mode", "selective", "--json")
        assert rc == 2
        assert out == ""


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
    ], ids=["not-json", "unknown-kind", "missing-field", "bad-mem-size"])
    def test_malformed_document_is_one_error_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc, out, err = run_cli(capsys, "oracle", "--ast", str(path))
        assert rc == 3
        assert out == ""
        assert err.startswith(f"error: {path}: malformed AST document: ")
        assert err.count("\n") == 1
        assert message in err

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
