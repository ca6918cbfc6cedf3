"""Seeded jobs for the minisol benchmark, each with its own reference answer.

A job is one ``minisol`` command line, run in-process through
``minisol.cli.cli_main``. Every workload hands out its jobs in rounds of
``ROUND`` jobs. The job sizes in a round follow a fixed ladder, so every
seed sees the same spread of sizes; the seed chooses the order, which
symbol gets which domain, the domain offsets and the generated code. A
fixed ladder keeps the median and the 90th percentile of a run from
moving with the luck of the draw.

Each job carries the exit code and the answer the benchmark expects.
They come from plain Python models of the generated programs, never
from minisol.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

ROUND = 10                # jobs per round: every ladder level twice

# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = ("wallet-verify", "branchy-verify", "count-run-m100", "count-run-m10k")

# Each round holds every level of a workload's size ladder twice. With five
# levels the median of a run falls inside the middle level and the 90th
# percentile inside the top one, not on a step between two levels, where
# noise would move it by a whole step.
LEVELS = 5
# Domain sizes (values per symbol) per level. A wallet job's cost follows
# its count of satisfying assignments, which for unequal sizes moves by a
# fifth with the order of the sizes over the symbols; equal sizes leave the
# seed the domain offset, which does not change the count.
WALLET_SIZES = (3, 4, 5, 6, 7)
# The seed permutes each branchy triple over the symbols.
BRANCHY_SIZES = ((3, 3, 3), (3, 4, 4), (4, 4, 5), (4, 5, 5), (5, 5, 6))
BRANCHY_IFS = (6, 7, 8, 9, 10)
# A branchy job's cost grows with its path count, which varies threefold
# between random programs of one level. Each level draws programs until
# the path count is within PATHS // 16 + 1 of its target, the median path
# count of random programs of that level.
BRANCHY_PATHS = (8, 12, 18, 23, 32)
# Refuted jobs stop at the first failing path, so they are cheap; keeping
# them on the two lowest levels leaves the middle and top levels unchanged.
BRANCHY_REFUTED_LEVELS = (0, 1)
COUNT_KS = (150, 350, 550, 750, 950)
COUNT_JITTER = 25         # k is drawn within +-COUNT_JITTER of its level

WALLET_SYMBOLS = ("privilegeOpen", "privilegeClose", "now")

COUNT_SOURCE = """\
contract Count {
    uint n = 0;
    uint i = 0;
    uint k = 0;
    function count() public {
        while (i < k) { n += 1; i += 1; }
    }
}
"""


@dataclass
class Job:
    """One command line with the inputs it reads and its expected answer."""
    workload: str
    index: int                  # position in the seed's job sequence
    params: dict
    program: str                # source text of the program the job runs
    argv: list                  # arguments after ``minisol``; "@key" names a file
    files: dict                 # file key -> text, written before the job runs
    expect_rc: int
    expect: dict                # reference answer, checked by ``check``
    mem_size: int = 100
    gas: int = 10000
    arg_writes: list = field(default_factory=list)

    def resolve(self, paths: dict) -> list:
        return [str(paths[a[1:]]) if a.startswith("@") else a for a in self.argv]

    def check(self, rc, out: str) -> str | None:
        """None if the command's exit code and output match the reference."""
        if rc != self.expect_rc:
            return f"exit code {rc}, expected {self.expect_rc}"
        if self.workload.startswith("count-run"):
            return _check_count(self, out)
        return _check_verdict(self, out)


# ---------------------------------------------------------------------------
# wallet-verify

def _wallet_spec(domains: dict) -> str:
    lines = ["# Outside the application window the wallet must discard the call.",
             "entry wallet",
             "set privileges[msg.sender] = true",
             "set indexes[msg.sender] = 19"]
    lines += [f"sym {name} : int {lo}..{hi}" for name, (lo, hi) in domains.items()]
    lines += ["require (now < privilegeOpen) || (now > privilegeClose)",
              "post throw-state"]
    return "\n".join(lines) + "\n"


def wallet_reference(domains: dict) -> dict:
    """Model of the wallet for a privileged sender.

    The only branch on a symbol before the wallet throws is the window
    check ``now < open || now > close``; a call that throws leaves the
    entry snapshot plus the throw flag, which is what throw-state asks.
    """
    ranges = [range(lo, hi + 1) for lo, hi in domains.values()]
    outcomes = set()
    for po, pc, now in itertools.product(*ranges):
        if not (now < po or now > pc):
            continue  # excluded by the require line
        outcomes.add(now < po or now > pc)
    if outcomes != {True}:
        raise AssertionError(f"wallet model leaves the window check for {domains}")
    return {"status": "verified", "paths": len(outcomes)}


def _levels(rng) -> list:
    """The ladder levels of one round, each twice, in seeded order."""
    levels = list(range(LEVELS)) * (ROUND // LEVELS)
    rng.shuffle(levels)
    return levels


def _wallet_round(root: Path, seed: int, rnd: int) -> list:
    rng = random.Random(f"wallet-verify/{seed}/{rnd}")
    sample = root / "samples" / "wallet.lls"
    program = sample.read_text(encoding="utf-8")
    jobs = []
    for i, level in enumerate(_levels(rng)):
        lo = rng.randrange(0, 5)
        domains = {name: (lo, lo + WALLET_SIZES[level] - 1) for name in WALLET_SYMBOLS}
        spec = _wallet_spec(domains)
        jobs.append(Job(
            workload="wallet-verify", index=rnd * ROUND + i,
            params={"domains": domains}, program=program,
            argv=["verify", str(sample), "--spec", "@spec", "--json"],
            files={"spec": spec},
            expect_rc=0, expect=wallet_reference(domains)))
    return jobs


# ---------------------------------------------------------------------------
# branchy-verify

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq, "!=": operator.ne}


def _operand(rng, syms, top, allow_const):
    """(symbol or None, added constant); a lone constant only if allowed."""
    kind = rng.choice(("sym", "sym+k", "k") if allow_const else ("sym", "sym+k"))
    if kind == "k":
        return None, rng.randrange(0, top + 1)
    return rng.choice(syms), (rng.randrange(1, 4) if kind == "sym+k" else 0)


def _operand_text(op):
    sym, k = op
    if sym is None:
        return str(k)
    return f"{sym} + {k}" if k else sym


def _operand_value(op, asg):
    sym, k = op
    return (asg[sym] if sym is not None else 0) + k


def branchy_conditions(rng, n_ifs: int, top: int) -> list:
    conds = []
    for _ in range(n_ifs):
        left = _operand(rng, ("a", "b", "c"), top, allow_const=False)
        right = _operand(rng, [s for s in "abc" if s != left[0]], top, allow_const=True)
        conds.append((left, rng.choice(tuple(_OPS)), right))
    return conds


def branchy_source(conds) -> str:
    body = "".join(f"        if ({_operand_text(l)} {op} {_operand_text(r)}) "
                   f"{{ r += {1 << j}; }}\n"
                   for j, (l, op, r) in enumerate(conds))
    return ("contract Branchy {\n    uint a;\n    uint b;\n    uint c;\n"
            "    uint r = 0;\n    uint s = 7;\n    function f() public {\n"
            + body + "    }\n}\n")


def branchy_r(conds, asg) -> int:
    """The final value of ``r`` under one assignment, in plain Python."""
    return sum(1 << j for j, (l, op, r) in enumerate(conds)
               if _OPS[op](_operand_value(l, asg), _operand_value(r, asg)))


def branchy_reference(conds, domains: dict, post: str) -> dict:
    """Verdict and path count: one path per distinct branch-outcome vector."""
    ranges = [range(lo, hi + 1) for lo, hi in domains.values()]
    results = {branchy_r(conds, dict(zip(domains, v))) for v in itertools.product(*ranges)}
    # r's bits are the branch outcomes, so distinct r values are distinct paths.
    refuted = post == "r == 0" and any(results)
    return {"status": "refuted" if refuted else "verified", "paths": len(results)}


def _branchy_round(seed: int, rnd: int) -> list:
    rng = random.Random(f"branchy-verify/{seed}/{rnd}")
    levels = _levels(rng)
    # One job of each refuted level gets the refutable post.
    refuted = {levels.index(level) for level in BRANCHY_REFUTED_LEVELS}
    jobs = []
    for i, level in enumerate(levels):
        triple = rng.sample(BRANCHY_SIZES[level], 3)
        domains = {s: (0, size - 1) for s, size in zip("abc", triple)}
        n_ifs, target = BRANCHY_IFS[level], BRANCHY_PATHS[level]
        post = "r == 0" if i in refuted else "unchanged s"
        while True:
            conds = branchy_conditions(rng, n_ifs, max(triple))
            expect = branchy_reference(conds, domains, post)
            if abs(expect["paths"] - target) <= target // 16 + 1:
                break
        spec = "entry f\n" + "".join(f"sym {s} : int {lo}..{hi}\n"
                                     for s, (lo, hi) in domains.items()) + f"post {post}\n"
        expect.update(domains=domains, conds=conds)
        source = branchy_source(conds)
        jobs.append(Job(
            workload="branchy-verify", index=rnd * ROUND + i,
            params={"domains": domains, "ifs": n_ifs, "post": post}, program=source,
            argv=["verify", "@lls", "--spec", "@spec", "--json"],
            files={"lls": source, "spec": spec},
            expect_rc=1 if expect["status"] == "refuted" else 0, expect=expect))
    return jobs


def _check_verdict(job: Job, out: str) -> str | None:
    try:
        got = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"output is not a JSON verdict: {out[:200]!r}"
    want = job.expect
    if got.get("status") != want["status"] or got.get("paths") != want["paths"]:
        return (f"got {got.get('status')} with {got.get('paths')} paths, "
                f"expected {want['status']} with {want['paths']}")
    witness = got.get("witness") or {}
    if want["status"] == "verified":
        return None if not witness else f"verified with a witness {witness}"
    domains = want["domains"]
    if set(witness) != set(domains):
        return f"witness {witness} does not name exactly {sorted(domains)}"
    if any(not lo <= witness[s] <= hi for s, (lo, hi) in domains.items()):
        return f"witness {witness} is outside the domains {domains}"
    if branchy_r(want["conds"], witness) == 0:
        return f"witness {witness} gives r == 0 in the reference"
    return None


# ---------------------------------------------------------------------------
# count-run-m100 / count-run-m10k

def _count_round(workload: str, seed: int, rnd: int) -> list:
    # Both count workloads draw from one stream, so they run the same k values.
    rng = random.Random(f"count-run/{seed}/{rnd}")
    ks = [COUNT_KS[level] + rng.randint(-COUNT_JITTER, COUNT_JITTER)
          for level in _levels(rng)]
    mem_size = 100 if workload == "count-run-m100" else 10_000
    jobs = []
    for i, k in enumerate(ks):
        gas = 3 * k + 100
        jobs.append(Job(
            workload=workload, index=rnd * ROUND + i,
            params={"k": k, "mem_size": mem_size, "gas": gas}, program=COUNT_SOURCE,
            argv=["run", "@lls", "--entry", "count", "--arg", f"k={k}",
                  "--gas", str(gas), "--mem-size", str(mem_size)],
            files={"lls": COUNT_SOURCE},
            expect_rc=0, expect={"n": k, "i": k, "k": k},
            mem_size=mem_size, gas=gas, arg_writes=[("k", k)]))
    return jobs


_MEMBERS = re.compile(r"\tcontract:\w+:members\[([^\]]*)\]")


def _check_count(job: Job, out: str) -> str | None:
    lines = out.splitlines()
    if len(lines) != job.mem_size:
        return f"dump has {len(lines)} lines, expected {job.mem_size}"
    m = _MEMBERS.search(out)
    if m is None:
        return "dump has no contract block"
    where = dict(member.split("@") for member in m.group(1).split(","))
    for name, value in job.expect.items():
        fields = lines[int(where[name])].split("\t")
        if fields[-1] != f"int:u64:{value}":
            return f"{name} is {fields[-1]}, expected int:u64:{value}"
    return None


# ---------------------------------------------------------------------------

def make_round(root: Path, workload: str, seed: int, rnd: int) -> list:
    """The ``rnd``-th round of ``ROUND`` jobs of a workload under a seed."""
    if workload == "wallet-verify":
        return _wallet_round(root, seed, rnd)
    if workload == "branchy-verify":
        return _branchy_round(seed, rnd)
    return _count_round(workload, seed, rnd)


def param_ranges() -> dict:
    """The per-job parameter ranges, for the result stamp."""
    k = [COUNT_KS[0] - COUNT_JITTER, COUNT_KS[-1] + COUNT_JITTER]
    return {
        "wallet-verify": {"domain_sizes": WALLET_SIZES, "domain_offset": [0, 4]},
        "branchy-verify": {"domain_sizes": BRANCHY_SIZES, "ifs": BRANCHY_IFS,
                           "paths": BRANCHY_PATHS, "refuted_levels": BRANCHY_REFUTED_LEVELS},
        "count-run-m100": {"k": k, "mem_size": 100},
        "count-run-m10k": {"k": k, "mem_size": 10_000},
    }
