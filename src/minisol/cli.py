"""Command-line interface.

    minisol run FILE --entry NAME [--arg N=V]... [--spec FILE] ...
    minisol step FILE --entry NAME [--max-steps N] ...
    minisol verify FILE --spec FILE [--mode static|concolic] ...
    minisol typecheck FILE
    minisol emit-ast FILE [--dump FILE]
    minisol oracle [--count N] [--seed N]

``verify`` explores every assignment of the declared symbols that
satisfies the spec's ``require`` lines; ``--mode concolic`` instead pins
the symbols to their ``--arg`` values and runs that one concrete path.

A command builds only its own argument parser. The parser of every
command is built only to print the top-level help or a usage error that
names no single command, so each text reads the same either way.

Exit codes: 0 success/verified, 1 refuted, 2 usage, 3 parse, type or
internal failure, or out of memory. With ``--json`` a command that fails
this way still prints one record, ``{"status": "error", "diagnostic": ...}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import memory as gm
from .binder import BindError, bind_addresses
from .engine import PathState, step, verify_triple
from .memory import MemoryConfigError
from .parser import ParseError, parse_source
from .runner import (
    RunnerError,
    build_world,
    compile_posts,
    entry_program,
    make_pre,
    spec_expr,
)
from .specfile import SpecError, SpecFile, parse_literal, parse_spec, parse_symbol_decl
from .stmts import drive
from .syntax import LTypeError, Tuint, int_fits, program_to_data, type_text
from .values import BlockInfo

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_FAILURE = 3

_UINT64 = Tuint()


def _int_at_least(lo: int):
    """An argparse type: an integer no less than ``lo``. It is named ``int``,
    so that a non-integer reads ``invalid int value``, as with plain ``int``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _common_flags(p: argparse.ArgumentParser, dump: bool = False):
    p.add_argument("file", help="source program (.lls)")
    p.add_argument("--gas", type=_int_at_least(0), default=10000,
                   help="statement budget for the entry program (default 10000)")
    p.add_argument("--k", type=_int_at_least(1), default=1000, dest="k",
                   help="recursion budget for value/expression evaluation")
    p.add_argument("--mem-size", type=int, default=gm.DEFAULT_MEMORY_SIZE,
                   help="number of memory blocks (default 100)")
    p.add_argument("--entry", default=None, help="entry function name")
    p.add_argument("--arg", action="append", default=[], metavar="NAME=VALUE",
                   help="entry argument or global seed value")
    p.add_argument("--spec", default=None, help="property spec file (.spec)")
    p.add_argument("--now", type=int, default=0, help="block timestamp")
    p.add_argument("--sender", type=int, default=1, help="sender id")
    p.add_argument("--msg-value", type=int, default=0, help="message value")
    if dump:  # only run writes a dump
        p.add_argument("--dump", default=None, metavar="FILE",
                       help="write the final memory dump to FILE")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _step_flags(p: argparse.ArgumentParser):
    _common_flags(p)
    p.add_argument("--max-steps", type=_int_at_least(0), default=None)


def _verify_flags(p: argparse.ArgumentParser):
    _common_flags(p)
    p.add_argument("--mode", choices=("static", "concolic"), default="static")
    p.add_argument("--symbolic", action="append", default=[],
                   metavar="NAME:kind[:lo..hi]",
                   help="declare a symbolic input (alternative to sym lines)")


def _typecheck_flags(p: argparse.ArgumentParser):
    p.add_argument("file")
    p.add_argument("--mem-size", type=int, default=gm.DEFAULT_MEMORY_SIZE)
    p.add_argument("--json", action="store_true")


def _emit_ast_flags(p: argparse.ArgumentParser):
    p.add_argument("file")
    p.add_argument("--mem-size", type=int, default=gm.DEFAULT_MEMORY_SIZE)
    p.add_argument("--dump", default=None, metavar="FILE")


def _oracle_flags(p: argparse.ArgumentParser):
    p.add_argument("--count", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument("--ast", default=None, metavar="FILE",
                   help="check one emitted AST document instead of the random corpus")
    p.add_argument("--json", action="store_true")


def _load(path: str, mem_size: int):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return bind_addresses(parse_source(text), mem_size)


def _parse_args(pairs) -> list:
    """The ``(name, literal)`` pair of each ``--arg NAME=VALUE``."""
    parsed = []
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq:
            raise RunnerError(f"--arg needs NAME=VALUE, got {pair!r}")
        parsed.append((name, parse_literal(value)))
    return parsed


def _binfo(ns) -> BlockInfo:
    """The chain context the flags give. Each value fills a ``uint64``
    block, so it must fit one, as an ``--arg`` value must fit its block."""
    for flag, value in (("--now", ns.now), ("--sender", ns.sender),
                        ("--msg-value", ns.msg_value)):
        if not int_fits(value, _UINT64):
            raise RunnerError(f"{flag}: integer {value} does not fit in {type_text(_UINT64)}")
    return BlockInfo(now=ns.now, sender=gm.Address(ns.sender), msg_value=ns.msg_value, gas_price=0)


def _prepare(ns):
    """Load the program and the spec, and build the entry call.

    Returns (bound, spec, prog, global_writes); ``prog`` is None when
    neither --entry nor the spec names an entry.
    """
    bound = _load(ns.file, ns.mem_size)
    spec = SpecFile()
    if ns.spec:
        with open(ns.spec, encoding="utf-8") as fh:
            spec = parse_spec(fh.read())
    entry, pairs = ns.entry or spec.entry, _parse_args(ns.arg)
    if entry is None:
        return bound, spec, None, pairs
    prog, global_writes = entry_program(bound, entry, pairs)
    return bound, spec, prog, global_writes


def _emit_dump(ns, text: str) -> None:
    if ns.dump:
        with open(ns.dump, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_run(ns) -> int:
    bound, spec, prog, global_writes = _prepare(ns)
    world = build_world(bound, ns.gas, _binfo(ns), sets=spec.sets,
                        arg_writes=global_writes)
    final = world.sigma
    if prog is not None:
        run = drive(ns.k, world.sigma, world.env, world.sigma, prog)
        final = run.final()
    if final is None:
        diagnostic = run.reason
        print("execution failed: " + diagnostic, file=sys.stderr)
        if ns.json:
            print(json.dumps({"status": "error", "diagnostic": diagnostic}))
        return EXIT_FAILURE
    text = gm.dump(final)
    if ns.json:
        print(json.dumps({"status": "ok", "dump": text}))
    if ns.dump or not ns.json:
        _emit_dump(ns, text)
    return EXIT_OK


def cmd_step(ns) -> int:
    bound, spec, prog, global_writes = _prepare(ns)
    if prog is None:
        print("step needs --entry", file=sys.stderr)
        return EXIT_USAGE
    world = build_world(bound, ns.gas, _binfo(ns), sets=spec.sets,
                        arg_writes=global_writes)
    ps = PathState(world.sigma, world.env, (), tuple(prog), world.sigma)
    interactive = sys.stdin.isatty() and ns.max_steps is None
    count = 0
    while ps.remaining and ps.sigma is not None:
        if ns.max_steps is not None and count >= ns.max_steps:
            break
        if interactive:
            try:
                line = input(f"step {count}> ")
            except EOFError:
                break
            if line.strip() in ("q", "quit"):
                break
        ps = step(ps, K=ns.k)
        count += 1
        print(f"-- step {count}: {ps.note or 'ok'} (gas {ps.env.gas})")
        if ps.sigma is not None:
            print(gm.dump(ps.sigma))
        if ps.note.startswith(("stuck", "halted", "finished")):
            break
    return EXIT_OK


def cmd_verify(ns) -> int:
    if not ns.spec:
        print("verify needs --spec", file=sys.stderr)
        return EXIT_USAGE
    bound, spec, prog, global_writes = _prepare(ns)
    if prog is None:
        print("verify needs an entry (spec `entry` line or --entry)", file=sys.stderr)
        return EXIT_USAGE
    symbols = list(spec.symbols)
    for flag in ns.symbolic:
        name, _, rest = flag.partition(":")
        try:
            symbols.append(parse_symbol_decl(name, rest.replace(":", " "), symbols))
        except SpecError as exc:
            raise SpecError(f"--symbolic {flag}: {exc}") from exc
    concolic = None
    if ns.mode == "concolic":
        sym_names = {s.name for s in symbols}
        concolic = {n: v for n, v in global_writes if n in sym_names}
        global_writes = [(n, v) for n, v in global_writes if n not in sym_names]
    pre = make_pre(bound, ns.gas, _binfo(ns), sets=spec.sets,
                   arg_writes=global_writes, symbols=symbols)
    post = compile_posts(bound, spec.posts)
    verdict = verify_triple(pre, prog, post, symbols=symbols,
                            require=[spec_expr(bound, *r) for r in spec.requires],
                            K=ns.k, concolic=concolic)
    payload = {
        "status": verdict.status,
        "paths": len(verdict.paths),
        "witness": {k: v for k, v in (verdict.witness or {}).items()},
        "diagnostic": verdict.diagnostic,
    }
    if ns.json:
        print(json.dumps(payload))
    else:
        print(verdict.status
              + (f" (witness: {verdict.witness})" if verdict.witness else "")
              + (f": {verdict.diagnostic}" if verdict.diagnostic else ""))
    if verdict.status == "verified":
        return EXIT_OK
    if verdict.status == "refuted":
        return EXIT_REFUTED
    return EXIT_FAILURE


def cmd_typecheck(ns) -> int:
    _load(ns.file, ns.mem_size)
    if ns.json:
        print(json.dumps({"status": "ok"}))
    else:
        print("ok")
    return EXIT_OK


def cmd_emit_ast(ns) -> int:
    bound = _load(ns.file, ns.mem_size)
    doc = {
        "mem_size": bound.mem_size,
        "bindings": {name: addr.index for name, addr in sorted(bound.bindings.items())},
        "program": program_to_data(bound.decls),
    }
    _emit_dump(ns, json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_oracle(ns) -> int:
    from .oracle import GAS, check_simulation, run_report
    if ns.ast:
        from .stdlib import fresh_memory, standard_library
        from .syntax import TypeContext, program_from_data, typecheck_stmt
        from .values import initial_env
        try:
            with open(ns.ast, encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                doc = {"program": doc}
            prog = program_from_data(doc["program"])
            mem_size = doc.get("mem_size", gm.DEFAULT_MEMORY_SIZE)
            if not isinstance(mem_size, int):
                raise ValueError(f"mem_size {mem_size!r} is not an integer")
            # checked as a bound program is, after the library's declarations
            typecheck_stmt([*standard_library(mem_size), *prog], TypeContext())
        except (ValueError, KeyError, TypeError, LTypeError) as exc:
            what = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise RunnerError(f"{ns.ast}: malformed AST document: {what}") from exc

        def make_state(_idx):
            sigma = fresh_memory(mem_size)
            return sigma, initial_env(GAS, sigma.addr_of("0xglobal"))

        report = check_simulation([prog], make_state)
    else:
        report = run_report(count=ns.count, seed=ns.seed)
    if ns.json:
        print(json.dumps({
            "total": report.total,
            "divergences": [{"index": d.index, "detail": d.detail,
                             "first_step": d.first_step}
                            for d in report.divergences],
        }))
    else:
        print(f"checked {report.total} programs, "
              f"{len(report.divergences)} divergence(s)")
        for d in report.divergences:
            print(f"  program {d.index}: {d.detail} (first step {d.first_step})")
    return EXIT_OK if report.ok else EXIT_FAILURE


# name -> (help text, flag adder, handler), in the order help lists them
_COMMANDS = {
    "run": ("concrete execution, prints the final dump", partial(_common_flags, dump=True),
            cmd_run),
    "step": ("single-step execution with dumps", _step_flags, cmd_step),
    "verify": ("check a Hoare triple from a spec file", _verify_flags, cmd_verify),
    "typecheck": ("parse, bind and typecheck only", _typecheck_flags, cmd_typecheck),
    "emit-ast": ("emit the typed program as JSON", _emit_ast_flags, cmd_emit_ast),
    "oracle": ("differential relational/executable report", _oracle_flags, cmd_oracle),
}


def build_arg_parser() -> argparse.ArgumentParser:
    """The parser of every command, as subparsers of ``minisol``."""
    ap = argparse.ArgumentParser(prog="minisol")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _handler) in _COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_text))
    return ap


def parse_command_line(argv) -> argparse.Namespace:
    """Parse ``argv`` with the parser of the command it names, alone.

    The command's flag adder builds it, as it builds the command's
    subparser in ``build_arg_parser``, so it parses the same way. The full
    parser is built only when ``argv`` names no command or leaves arguments
    unrecognized: its help text and its ``minisol: error: unrecognized
    arguments`` are the ones to print.
    """
    if argv and argv[0] in _COMMANDS:
        ap = argparse.ArgumentParser(prog=f"minisol {argv[0]}")
        _COMMANDS[argv[0]][1](ap)
        ns, extras = ap.parse_known_args(argv[1:])
        if not extras:
            ns.command = argv[0]
            return ns
    return build_arg_parser().parse_args(argv)


def cli_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = parse_command_line(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    try:
        return _COMMANDS[ns.command][2](ns)
    except (ParseError, BindError, LTypeError, SpecError, RunnerError,
            MemoryConfigError, OSError, RecursionError, MemoryError) as exc:
        diagnostic = "out of memory" if isinstance(exc, MemoryError) else str(exc)
        print(f"error: {diagnostic}", file=sys.stderr)
        if getattr(ns, "json", False):
            print(json.dumps({"status": "error", "diagnostic": diagnostic}))
        return EXIT_FAILURE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
