"""Surface parser and binder."""

import glob
import itertools
import json
from pathlib import Path

import pytest

from minisol.binder import BindError, bind_addresses
from minisol.cli import cli_main
from minisol.parser import (
    MAX_NESTING,
    EBin,
    EId,
    ENum,
    EUn,
    ParseError,
    SAssign,
    SCallStmt,
    SFunDecl,
    SIf,
    SReturn,
    SThrow,
    SVarDecl,
    lex,
    parse_expr_text,
    parse_source,
)
from minisol.syntax import (
    Econst,
    Fun,
    If,
    Vfield,
    Vmap,
    program_from_data,
    program_to_data,
)

WALLET = open("samples/wallet.lls", encoding="utf-8").read()
SOURCES = sorted(glob.glob("samples/*.lls")) + ["tests/golden/branchy.lls"]


class TestParse:
    def test_empty_input_is_empty_program(self):
        assert parse_source("").contracts == []

    def test_wallet_parses(self):
        sp = parse_source(WALLET)
        assert len(sp.contracts) == 1
        c = sp.contracts[0]
        assert c.name == "IcoController"
        funs = [m for m in c.members if isinstance(m, SFunDecl)]
        assert [f.name for f in funs] == ["wallet"]

    def test_guard_statement_shape(self):
        src = """
        contract C {
            uint public now_;
            function f() public {
                if (now < now_ || now > now_) { throw; }
            }
        }
        """
        sp = parse_source(src)
        body = sp.contracts[0].members[-1].body
        guard = body[0]
        assert isinstance(guard, SIf)
        assert guard.cond.op == "||"
        assert guard.cond.left.op == "<"
        assert isinstance(guard.then[0], SThrow)
        assert guard.orelse == []

    def test_unbalanced_brace_reports_position(self):
        src = "contract C {\n  uint x;\n"
        with pytest.raises(ParseError) as err:
            parse_source(src)
        assert err.value.line == 3

    @pytest.mark.parametrize("parse, text, message", [
        (parse_source, "contract C {\n uint a = ", "unexpected end of input (line 2, column 11)"),
        (parse_source, "contract C {\n uint a;",
         "expected a contract member, found end of input (line 2, column 9)"),
        (parse_expr_text, "a[", "unexpected end of input (line 1, column 3)"),
        (parse_expr_text, "f(a", "expected ')', found end of input (line 1, column 4)"),
    ], ids=["program-expression", "program-member", "expression", "expression-close"])
    def test_truncated_input_names_the_end_of_input(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_source("contract C { uint § x; }")

    def test_declaration_with_initializer(self):
        src = "contract C { function f() public { uint x = 3; x = x + 1; } }"
        body = parse_source(src).contracts[0].members[0].body
        assert isinstance(body[0], SVarDecl)
        assert body[0].init is not None
        assert isinstance(body[1], SAssign)

    def test_compound_assignment(self):
        src = "contract C { uint x; function f() public { x += 2; } }"
        stmt = parse_source(src).contracts[0].members[1].body[0]
        assert stmt.op == "+="

    def test_member_call_statement(self):
        src = "contract C { address safe; function f() public { safe.send(1); } }"
        stmt = parse_source(src).contracts[0].members[1].body[0]
        assert isinstance(stmt, SCallStmt)

    def test_expression_parser_standalone(self):
        e = parse_expr_text("(a < b) || c")
        assert e.op == "||"

    def test_modifier_attachment_on_function(self):
        src = """
        contract C {
            modifier only() { modifier_ok = true; }
            function f() public only { ; }
        }
        """
        fn = parse_source(src).contracts[0].members[1]
        assert fn.modifiers == [("only", [])]


def shape(e) -> str:
    """A surface expression with its grouping made explicit."""
    if isinstance(e, EBin):
        return f"({shape(e.left)} {e.op} {shape(e.right)})"
    if isinstance(e, EUn):
        return f"({e.op} {shape(e.operand)})"
    if isinstance(e, ENum):
        return str(e.value)
    return e.name


# One operator per precedence level, loosest first.
LEVELS = ["||", "&&", "<", "+", "*"]


class TestPinnedSyntax:
    def test_token_positions_across_comments_tabs_and_crlf(self):
        src = "contract C {\r\n\tuint x; // note\r\n  /* two\r\n\tlines */ x =\t1;\n}"
        assert [(t.kind, t.text, t.line, t.col) for t in lex(src)] == [
            ("keyword", "contract", 1, 1), ("ident", "C", 1, 10), ("op", "{", 1, 12),
            ("ident", "uint", 2, 2), ("ident", "x", 2, 7), ("op", ";", 2, 8),
            ("ident", "x", 4, 11), ("op", "=", 4, 13), ("num", "1", 4, 15),
            ("op", ";", 4, 16), ("op", "}", 5, 1), ("eof", "", 5, 2),
        ]

    @pytest.mark.parametrize("lo,hi", list(itertools.combinations(LEVELS, 2)))
    def test_each_pair_of_levels_groups_by_precedence(self, lo, hi):
        assert shape(parse_expr_text(f"a {lo} b {hi} c")) == f"(a {lo} (b {hi} c))"
        assert shape(parse_expr_text(f"a {hi} b {lo} c")) == f"((a {hi} b) {lo} c)"

    @pytest.mark.parametrize("ops", [("||", "||"), ("&&", "&&"), ("+", "-"),
                                     ("-", "+"), ("*", "/"), ("/", "%")])
    def test_left_associativity(self, ops):
        one, two = ops
        assert shape(parse_expr_text(f"a {one} b {two} c")) == f"((a {one} b) {two} c)"

    def test_comparisons_and_unary_operands(self):
        assert shape(parse_expr_text("a + 1 <= b * 2 && !c || d != e % 3")) == \
            "((((a + 1) <= (b * 2)) && (! c)) || (d != (e % 3)))"
        assert shape(parse_expr_text("-(a) - - - 2")) == "((neg a) - 2)"

    def test_negative_literal_folds_with_positions(self):
        assert parse_expr_text("a - -3") == EBin(
            "-", EId("a", (1, 1)), ENum(-3, (1, 5)), (1, 3))

    @pytest.mark.parametrize("text,col", [("a < b < c", 7), ("a == b < c", 8)])
    def test_comparisons_do_not_associate(self, text, col):
        with pytest.raises(ParseError) as err:
            parse_expr_text(text)
        assert str(err.value) == f"trailing input '<' (line 1, column {col})"
        src = "contract A { uint x; function f() public {\n  x = " + text + ";\n} }"
        with pytest.raises(ParseError) as err:
            parse_source(src)
        assert str(err.value) == f"expected ';', found '<' (line 2, column {col + 6})"
        assert (err.value.line, err.value.col) == (2, col + 6)


def assigning(expr: str) -> str:
    return "contract A { uint x; function f() public {\n  x = " + expr + "; } }"


class TestLimits:
    def test_nesting_limit_counts_parentheses(self):
        deepest = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
        assert parse_source(assigning(deepest))
        with pytest.raises(ParseError) as err:
            parse_source(assigning("(" + deepest + ")"))
        assert str(err.value) == (f"expression nested more than {MAX_NESTING} levels deep "
                                  f"(line 2, column {6 + MAX_NESTING + 2})")

    def test_nesting_limit_counts_tree_depth(self):
        # n terms grouped to the left make a tree n nodes deep.
        deepest = " + ".join(["1"] * MAX_NESTING)
        assert parse_expr_text(deepest)
        with pytest.raises(ParseError) as err:
            parse_expr_text(deepest + " + 1")
        assert (err.value.line, err.value.col) == (1, 1)
        assert "nested more than" in str(err.value)

    def test_deepest_expression_runs(self, tmp_path, capsys):
        # "1 + (" n times: n additions, n + 1 nodes deep.
        n = MAX_NESTING - 1
        path = tmp_path / "deep.lls"
        path.write_text(assigning("1 + (" * n + "1" + ")" * n), encoding="utf-8")
        assert cli_main(["run", str(path), "--entry", "f"]) == 0
        assert f"int:u64:{n + 1}\n" in capsys.readouterr().out
        assert cli_main(["emit-ast", str(path)]) == 0

    def test_too_deep_expression_is_one_error_record(self, tmp_path, capsys):
        path = tmp_path / "deep.lls"
        path.write_text(assigning("(" * 120 + "1" + ")" * 120), encoding="utf-8")
        assert cli_main(["run", str(path), "--entry", "f", "--json"]) == 3
        captured = capsys.readouterr()
        msg = f"expression nested more than {MAX_NESTING} levels deep (line 2, column 108)"
        assert captured.err == f"error: {msg}\n"
        assert json.loads(captured.out) == {"status": "error", "diagnostic": msg}

    def test_statement_nesting_limit(self, tmp_path, capsys):
        def nested(n):
            return ("contract A {\n  uint x = 0;\n  function f() public {\n"
                    + "if (x == 0) {\n" * n + "x = 1;\n" + "}\n" * n + "  }\n}\n")
        path = tmp_path / "nested.lls"
        path.write_text(nested(MAX_NESTING), encoding="utf-8")
        assert cli_main(["run", str(path), "--entry", "f"]) == 0
        assert "\tint:u64:1\n" in capsys.readouterr().out
        with pytest.raises(ParseError) as err:
            parse_source(nested(MAX_NESTING + 1))
        assert (err.value.line, err.value.col) == (4 + MAX_NESTING, 1)
        path.write_text(nested(400), encoding="utf-8")
        assert cli_main(["run", str(path), "--entry", "f", "--json"]) == 3
        captured = capsys.readouterr()
        msg = (f"statements nested more than {MAX_NESTING} levels deep "
               f"(line {4 + MAX_NESTING}, column 1)")
        assert captured.err == f"error: {msg}\n"
        assert json.loads(captured.out) == {"status": "error", "diagnostic": msg}

    def test_else_if_counts_as_nested(self):
        chain = "if (x == 0) { x = 1; }" + " else if (x == 0) { x = 1; }" * MAX_NESTING
        with pytest.raises(ParseError) as err:
            parse_source("contract A { uint x; function f() public {\n" + chain + "\n} }")
        assert "statements nested more than" in str(err.value)
        assert parse_source("contract A { uint x; function f() public {\n"
                            + chain.rpartition(" else")[0] + "\n} }")

    def test_unterminated_block_comment(self):
        with pytest.raises(ParseError) as err:
            parse_source("contract A {\n  uint x; /* no end\n}\n")
        assert str(err.value) == "unterminated comment (line 2, column 11)"

    @pytest.mark.parametrize("literal", ["18446744073709551616", "-18446744073709551616",
                                         "99999999999999999999999"])
    def test_integer_literal_must_fit_in_uint64(self, literal):
        src = "contract A {\n  uint y = " + literal + ";\n}"
        with pytest.raises(BindError) as err:
            bind_addresses(parse_source(src), 64)
        assert str(err.value) == (f"integer literal {literal} does not fit in uint64 "
                                  "(line 2, column 12)")

    @pytest.mark.parametrize("width", [12, 4, 264])
    def test_integer_width_must_be_a_multiple_of_8_within_8_to_256(self, width):
        with pytest.raises(BindError) as err:
            bind_addresses(parse_source(f"contract A {{ uint{width} y; }}"), 64)
        assert str(err.value).startswith(f"unsupported integer width {width} ")

    def test_largest_integer_literal_is_accepted(self):
        src = "contract A { uint y = 18446744073709551615; }"
        assert bind_addresses(parse_source(src), 64).bindings["y"]


class TestBinder:
    def test_consecutive_global_addresses(self):
        src = "contract C { uint a; uint b; }"
        bound = bind_addresses(parse_source(src), 64)
        # block 0 is the built-in timestamp, block 1 the contract
        assert bound.bindings["a"].index == 2
        assert bound.bindings["b"].index == 3

    def test_wallet_identifiers_bound(self):
        bound = bind_addresses(parse_source(WALLET), 100)
        for name in ("privilegeOpen", "privilegeClose", "privilegeQuota",
                     "ordinaryOpen", "ordinaryClose", "ordinaryQuota",
                     "RATE_PRIVILEGE", "RATE_ORDINARY", "TOKEN_TARGET_AMOUNT",
                     "subscription", "safe", "privileges", "indexes",
                     "deposits", "wallet"):
            assert name in bound.bindings, name
        locals_ = [f"wallet.{n}" for n in
                   ("index", "open", "close", "quota", "rate",
                    "partlimit", "totallimit", "finallimit")]
        for name in locals_:
            assert name in bound.bindings, name

    def test_no_two_identifiers_share_an_address(self):
        bound = bind_addresses(parse_source(WALLET), 100)
        indices = [a.index for a in bound.bindings.values()]
        assert len(indices) == len(set(indices))

    def test_binder_determinism(self):
        one = bind_addresses(parse_source(WALLET), 100)
        two = bind_addresses(parse_source(WALLET), 100)
        assert {k: v.index for k, v in one.bindings.items()} == \
            {k: v.index for k, v in two.bindings.items()}
        assert one.decls == two.decls

    def test_duplicate_identifier_rejected(self):
        src = "contract C { uint a; bool a; }"
        with pytest.raises(BindError):
            bind_addresses(parse_source(src), 64)

    def test_address_space_exhaustion(self):
        src = "contract C { " + " ".join(f"uint v{i};" for i in range(40)) + " }"
        with pytest.raises(BindError):
            bind_addresses(parse_source(src), 32)

    def test_mapping_access_lowering(self):
        src = """
        contract C {
            mapping(address => bool) privileges;
            function f() public {
                if (privileges[msg.sender]) { ; }
            }
        }
        """
        bound = bind_addresses(parse_source(src), 64)
        fn = next(s for s in bound.decls if isinstance(s, Fun))
        guard = fn.body[0]
        assert isinstance(guard, If)
        assert isinstance(guard.cond, Econst)
        assert isinstance(guard.cond.value, Vmap)
        key = guard.cond.value.keys[0]
        assert isinstance(key.value, Vfield)

    def test_for_loop_desugars_init_outside(self):
        src = """
        contract C {
            uint i; uint s;
            function f() public {
                for (i = 0; i < 3; i = i + 1) { s += i; }
            }
        }
        """
        bound = bind_addresses(parse_source(src), 64)
        fn = next(s for s in bound.decls if isinstance(s, Fun))
        from minisol.syntax import Assign, Ebop, LoopWhile, Vint
        assert isinstance(fn.body[0], Assign)
        assert isinstance(fn.body[1], LoopWhile)
        # the body is the source body followed by the post step i = i + 1
        assert len(fn.body[1].body) == 2
        assert fn.body[1].body[-1] == Assign(fn.body[0].lhs, Ebop(
            "+", fn.body[0].lhs, Econst(Vint(1))))

    def test_array_global_claims_its_run(self):
        src = "contract C { uint[2][2] grid; uint after_; }"
        bound = bind_addresses(parse_source(src), 64)
        # grid occupies 6 blocks starting after now+contract
        assert bound.bindings["grid"].index == 2
        assert bound.bindings["after_"].index == 8


class TestAstRoundTrip:
    @pytest.mark.parametrize("path", SOURCES, ids=lambda p: Path(p).stem)
    def test_emit_and_reload_identical(self, path):
        bound = bind_addresses(parse_source(Path(path).read_text(encoding="utf-8")), 100)
        payload = json.dumps(program_to_data(bound.decls))
        again = program_from_data(json.loads(payload))
        assert again == bound.decls

    def test_a_document_with_the_retired_null_fields_loads_the_same_program(self):
        # Documents emitted before Vmap.next and Vfield.args were deleted
        # carry "next": null in each vmap node and "args": null in each
        # vfield node; reading ignores fields that FORMAT does not name.
        bound = bind_addresses(parse_source(WALLET), 100)
        data = program_to_data(bound.decls)
        retired = {"vmap": "next", "vfield": "args"}
        added = []

        def add_retired_fields(x):
            if isinstance(x, dict):
                if x.get("kind") in retired:
                    x[retired[x["kind"]]] = None
                    added.append(x["kind"])
                x = list(x.values())
            if isinstance(x, list):
                for item in x:
                    add_retired_fields(item)

        add_retired_fields(data)
        assert (added.count("vmap"), added.count("vfield")) == (8, 15)
        assert program_from_data(json.loads(json.dumps(data))) == bound.decls

    def test_reload_typechecks(self):
        from minisol.stdlib import standard_library
        from minisol.syntax import (StructDecl, Tbool, Tstruct, TypeContext,
                                    typecheck_stmt)
        from minisol import memory as gm

        bound = bind_addresses(parse_source(WALLET), 100)
        again = program_from_data(program_to_data(bound.decls))
        ctx = TypeContext()
        for stmt in standard_library(100):
            if isinstance(stmt, StructDecl):
                ctx.structs[stmt.type_addr] = tuple(stmt.members)
            elif isinstance(stmt, Fun):
                ctx.functions[stmt.name] = (None, tuple(stmt.returns))
        names = gm.reserved_addresses(100)
        ctx.vars[names["msg"]] = Tstruct(names["0xmsg"])
        ctx.vars[names["0xmodifier"]] = Tbool()
        typecheck_stmt(again, ctx)


class TestMoreSurfaceForms:
    def test_else_if_chain(self):
        src = """
        contract C {
            uint x;
            function f() public {
                if (x == 0) { x = 1; } else if (x == 1) { x = 2; } else { x = 3; }
            }
        }
        """
        bound = bind_addresses(parse_source(src), 64)
        fn = next(s for s in bound.decls if isinstance(s, Fun))
        outer = fn.body[0]
        assert isinstance(outer, If)
        assert isinstance(outer.orelse[0], If)
        assert len(outer.orelse[0].orelse) == 1

    def test_multi_value_return(self):
        src = """
        contract C {
            function two() public returns (uint, bool) { return (1, true); }
        }
        """
        bound = bind_addresses(parse_source(src), 64)
        fn = next(s for s in bound.decls if isinstance(s, Fun))
        from minisol.syntax import Returns
        assert isinstance(fn.body[0], Returns)
        assert len(fn.body[0].values) == 2

    @pytest.mark.parametrize("text, shapes", [
        ("(1 + 2) * 3", ["((1 + 2) * 3)"]), ("(a, b)", ["a", "b"]), ("(a)", ["a"]),
        ("(a) + (b)", ["(a + b)"]), ("a, (b)", ["a", "b"])])
    def test_return_parentheses(self, text, shapes):
        src = "contract C { function f() public {\n return " + text + ";\n} }"
        ret = parse_source(src).contracts[0].members[0].body[0]
        assert isinstance(ret, SReturn)
        assert [shape(v) for v in ret.values] == shapes

    @pytest.mark.parametrize("text, message", [
        ("(a, b) * 3", "expected ';', found '*' (line 2, column 16)"),
        ("()", "unexpected token ')' (line 2, column 10)")])
    def test_return_parentheses_errors(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_source("contract C { function f() public {\n return " + text + ";\n} }")
        assert str(err.value) == message

    def test_for_without_init_and_post(self):
        src = """
        contract C {
            uint i;
            function f() public { for (; i < 2; ) { i = i + 1; } }
        }
        """
        bound = bind_addresses(parse_source(src), 64)
        fn = next(s for s in bound.decls if isinstance(s, Fun))
        from minisol.syntax import Assign, LoopWhile
        loop = fn.body[0]
        assert isinstance(loop, LoopWhile)
        assert len(loop.body) == 1 and isinstance(loop.body[0], Assign)  # no post step

    def test_spec_file_errors(self):
        from minisol.specfile import SpecError, parse_spec
        import pytest as _pytest
        for bad in ("sym x : int", "set foo", "post nonsense here",
                    "frobnicate y", "sym x : int 9..1"):
            with _pytest.raises(SpecError):
                parse_spec(bad)

    def test_if_without_else_gets_skip_arm(self):
        src = """
        contract C {
            uint now_;
            function f() public {
                if (now < now_ || now > now_) { throw; }
            }
        }
        """
        bound = bind_addresses(parse_source(src), 64)
        fn = next(s for s in bound.decls if isinstance(s, Fun))
        guard = fn.body[0]
        assert isinstance(guard, If)
        from minisol.syntax import Ebop, Snil, Throw
        assert isinstance(guard.cond, Ebop) and guard.cond.op == "||"
        assert isinstance(guard.then[0], Throw)
        assert len(guard.orelse) == 1 and isinstance(guard.orelse[0], Snil)
