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

Exit codes: 0 success/verified, 1 refuted, 2 usage, 3 parse, type or
internal failure. With ``--json`` a command that fails this way still
prints one record, ``{"status": "error", "diagnostic": ...}``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import memory as gm
from .binder import BindError, bind_addresses
from .engine import PathState, step, verify_triple
from .engine import interpret
from .memory import MemoryConfigError
from .parser import ParseError, parse_source
from .runner import (
    RunnerError,
    build_world,
    compile_posts,
    entry_program,
    make_pre,
)
from .specfile import SpecError, SpecFile, parse_literal, parse_spec, parse_symbol_decl
from .syntax import LTypeError, program_to_data
from .values import BlockInfo

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_FAILURE = 3


def _common_flags(p: argparse.ArgumentParser, needs_file: bool = True):
    if needs_file:
        p.add_argument("file", help="source program (.lls)")
    p.add_argument("--gas", type=int, default=10000,
                   help="statement budget for the entry program (default 10000)")
    p.add_argument("--k", type=int, default=1000, dest="k",
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
    p.add_argument("--dump", default=None, metavar="FILE",
                   help="write the final memory dump to FILE")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="minisol")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="concrete execution, prints the final dump")
    _common_flags(run)

    stp = sub.add_parser("step", help="single-step execution with dumps")
    _common_flags(stp)
    stp.add_argument("--max-steps", type=int, default=None)

    ver = sub.add_parser("verify", help="check a Hoare triple from a spec file")
    _common_flags(ver)
    ver.add_argument("--mode", choices=("static", "concolic"), default="static")
    ver.add_argument("--symbolic", action="append", default=[],
                     metavar="NAME:kind[:lo..hi]",
                     help="declare a symbolic input (alternative to sym lines)")

    tyc = sub.add_parser("typecheck", help="parse, bind and typecheck only")
    tyc.add_argument("file")
    tyc.add_argument("--mem-size", type=int, default=gm.DEFAULT_MEMORY_SIZE)
    tyc.add_argument("--json", action="store_true")

    ast = sub.add_parser("emit-ast", help="emit the typed program as JSON")
    ast.add_argument("file")
    ast.add_argument("--mem-size", type=int, default=gm.DEFAULT_MEMORY_SIZE)
    ast.add_argument("--dump", default=None, metavar="FILE")

    orc = sub.add_parser("oracle", help="differential relational/executable report")
    orc.add_argument("--count", type=int, default=100)
    orc.add_argument("--seed", type=int, default=20240601)
    orc.add_argument("--ast", default=None, metavar="FILE",
                     help="check one emitted AST document instead of the random corpus")
    orc.add_argument("--json", action="store_true")
    return ap


def _load(path: str, mem_size: int):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return bind_addresses(parse_source(text), mem_size)


def _split_args(pairs, entry_params):
    """Partition --arg values into entry arguments and global writes."""
    entry_args = {}
    global_writes = []
    names = {p[0] for p in entry_params}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq:
            raise RunnerError(f"--arg needs NAME=VALUE, got {pair!r}")
        lit = parse_literal(value)
        if name in names:
            entry_args[name] = lit
        else:
            global_writes.append((name, lit))
    return entry_args, global_writes


def _binfo(ns) -> BlockInfo:
    return BlockInfo(number=0, now=ns.now, sender=gm.Address(ns.sender),
                     msg_value=ns.msg_value, gas_price=0)


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
    entry = ns.entry or spec.entry
    if entry is None:
        return bound, spec, None, _split_args(ns.arg, ())[1]
    rec = bound.functions.get(entry)
    if rec is None:
        raise RunnerError(f"no function named {entry!r}")
    entry_args, global_writes = _split_args(ns.arg, rec.params)
    prog, leftover = entry_program(bound, entry, entry_args)
    if leftover:
        raise RunnerError(f"unused entry arguments: {sorted(leftover)}")
    return bound, spec, prog, global_writes


def _emit_dump(ns, sigma) -> None:
    text = gm.dump(sigma)
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
        final = interpret(ns.k, world.sigma, world.env, world.fenv, prog, world.ctx)
    if final is None:
        diagnostic = "; ".join(world.ctx.diagnostics[-3:])
        print("execution failed: " + diagnostic, file=sys.stderr)
        if ns.json:
            print(json.dumps({"status": "error", "diagnostic": diagnostic}))
        return EXIT_FAILURE
    if ns.json:
        print(json.dumps({"status": "ok", "dump": gm.dump(final)}))
    if ns.dump or not ns.json:
        _emit_dump(ns, final)
    return EXIT_OK


def cmd_step(ns) -> int:
    bound, spec, prog, global_writes = _prepare(ns)
    if prog is None:
        print("step needs --entry", file=sys.stderr)
        return EXIT_USAGE
    world = build_world(bound, ns.gas, _binfo(ns), sets=spec.sets,
                        arg_writes=global_writes)
    world.ctx.sigma_init = world.sigma
    ps = PathState(world.sigma, world.env, world.fenv, (), tuple(prog), world.ctx)
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
                            require=spec.requires, K=ns.k, concolic=concolic)
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
    text = json.dumps(doc, indent=2)
    if ns.dump:
        with open(ns.dump, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_oracle(ns) -> int:
    from .oracle import check_simulation, run_report
    if ns.ast:
        from .stdlib import fresh_memory
        from .syntax import program_from_data
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
        except (ValueError, KeyError, TypeError) as exc:
            what = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise RunnerError(f"{ns.ast}: malformed AST document: {what}") from exc

        def make_state(_idx):
            sigma = fresh_memory(mem_size)
            env = initial_env(2000, sigma.addr_of("0xglobal"))
            return sigma, env, env

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


_COMMANDS = {
    "run": cmd_run,
    "step": cmd_step,
    "verify": cmd_verify,
    "typecheck": cmd_typecheck,
    "emit-ast": cmd_emit_ast,
    "oracle": cmd_oracle,
}


def cli_main(argv=None) -> int:
    ap = build_arg_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    try:
        return _COMMANDS[ns.command](ns)
    except (ParseError, BindError, LTypeError, SpecError, RunnerError,
            MemoryConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(ns, "json", False):
            print(json.dumps({"status": "error", "diagnostic": str(exc)}))
        return EXIT_FAILURE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
