"""Single-site mutation run over the arithmetic core and the CLI of qminv (stdlib only).

    python tools/mutate.py

Each mutant changes one site of ``arith``, ``exactalg``, ``quotloc``,
``invariants`` or ``cli`` by one entry of a fixed catalogue:

* binary operators: ``+ <-> -``, ``* <-> //``, ``/ -> *``, ``% -> //``,
  ``** -> *`` (in expressions and augmented assignments);
* comparisons: ``< <-> <=``, ``> <-> >=``, ``== <-> !=``, ``in <-> not in``,
  ``is <-> is not``;
* integer constants: ``n -> n + 1``;
* unary operators: drop ``-`` or ``not``.

F-string message text is not mutated.  Every mutant is written into one
temporary copy of the checkout this script sits in (``TMPDIR`` decides
where) and judged by two detectors, one subprocess at a time:

1. the golden CLI corpus (``tests/test_golden_cli.py::CASES``, the
   ``selfcheck`` case included) replayed in-process against
   ``tests/golden``, in the order of ``CASES``, up to the first case whose
   stdout, stderr, exit code or ``--out`` file differs; that module
   imports no pytest, so each mutant's replay starts fast;
2. the tier-1 test suite, on the mutants stage 1 left alive.

A detector that fails, raises or runs past its time limit kills the
mutant.  Each stage's limit is ``max(10 s, 5 x its clean run)``: five
times the unmutated tree's own time on the machine that runs it, so the
limit follows the machine's speed, and never under 10 s, so that a stage
1 whose clean run takes about 1 s is not cut short by a pause of a few
seconds on a busy machine.  On a 2-vCPU machine a mutant that loops for
ever dies after about 10 s in stage 1, and after about 50 s in stage 2,
whose clean run takes about 10 s.  The unmutated modules are
round-tripped through ``ast.unparse`` and must pass both stages first;
otherwise the run aborts with exit 2.
The report, ``tools/mutants.txt``, lists the score, then each survivor
with the reason recorded for it in ``REASONS`` below, then as ``STALE``
each reason whose key names no mutant of the current source; the run
exits 1 if a survivor has no reason or a reason is stale.  The score
leaves the explained (equivalent) survivors out of the denominator, so
deleting killed code cannot lower it; the raw counts follow on their own
line, then killed / all per module, with the stage-1 kills in brackets.  After the survivors, a
``stage 2 kills:`` section names each mutant that only the tier-1 suite
killed, the faults a user with the CLI and ``selfcheck`` alone would not
see, and under it the first test that failed on it: the test that must
stay while no other detector catches that fault.  To score another checkout,
run its own copy of this script.  A run took 3.2 to 4.6 minutes on a
2-vCPU machine with Python 3.11, so it is not part of tier-1.
"""

from __future__ import annotations

import ast
import copy
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = ROOT / "tools" / "mutants.txt"
MODULES = ("arith", "exactalg", "quotloc", "invariants", "cli")

BINOP_SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult,
    ast.Mod: ast.FloorDiv,
    ast.Pow: ast.Mult,
}
COMPARE_FLIPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
}

# the golden CLI corpus, selfcheck included, replayed in-process up to its
# first failing case
STAGE1 = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "tests")
from test_golden_cli import CASES, GOLDEN, run_case
for name, argv in CASES.items():
    with tempfile.TemporaryDirectory() as tmp:
        if run_case(argv, Path(tmp) / "out.json") != json.loads((GOLDEN / (name + ".json")).read_text("utf-8")):
            sys.exit("golden case " + name)
"""
STAGE2 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
FAILED_LINE = re.compile(r"FAILED (\S+?(?:\[.*?\])?)(?: - |$)")

# Parents shown around a mutated constant, so that "1 -> 2" has a context.
CONTEXTS = (ast.expr, ast.Assign, ast.AugAssign, ast.Return)

MEMORY_LIMIT = 2 << 30  # bytes of address space per detector process

# Why each survivor is harmless, keyed as ``mutants`` names the mutant.
REASONS = {
    "arith.canonical_u_choice: u2 = (1 - a * u1) // r -> u2 = (2 - a * u1) // r":
        "equivalent: a*u1 = 1 mod r, so 1 - a*u1 is a multiple of r, and adding"
        " 1 < r to it leaves the floor quotient unchanged",
    "exactalg.QSeries.exp: range(1, n + 1) -> range(1, n + 2)":
        "equivalent: the extra term self**(n+1)/(n+1)! starts at q**(n+1),"
        " because the constant term is 0, so it is zero at truncation n",
    "exactalg.sigma_sieve: range(1, order + 1) -> range(1, order + 2)":
        "equivalent: the extra k = order + 1 has the empty inner loop"
        " range(1, order // k + 1) = range(1, 1)",
}


def _catalogue(node):
    """Yield one function per mutation of the catalogue that applies to node."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOP_SWAPS:
        def swap(node=node):
            new = copy.deepcopy(node)
            new.op = BINOP_SWAPS[type(node.op)]()
            return new
        yield swap
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE_FLIPS:
                def flip(node=node, i=i):
                    new = copy.deepcopy(node)
                    new.ops[i] = COMPARE_FLIPS[type(node.ops[i])]()
                    return new
                yield flip
    if isinstance(node, ast.Constant) and type(node.value) is int:
        yield lambda node=node: ast.copy_location(ast.Constant(node.value + 1), node)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
        yield lambda node=node: node.operand


def _argument_name(parent, child) -> str | None:
    """The name that child is the value of: a keyword argument's or a default's."""
    if isinstance(parent, ast.keyword):
        return parent.arg
    if isinstance(parent, ast.arguments):
        positional = parent.posonlyargs + parent.args
        pairs = [
            *zip(positional[len(positional) - len(parent.defaults):], parent.defaults),
            *zip(parent.kwonlyargs, parent.kw_defaults),
        ]
        for arg, default in pairs:
            if default is child:
                return arg.arg
    return None


class _Sites(ast.NodeTransformer):
    """Number the mutation sites of a module in a fixed order.

    With ``target`` set, the site of that number is replaced by its mutant,
    and ``context`` is the node whose source text shows the change: the
    site itself, or for a bare constant the whole expression or simple
    statement around it.  The value of a keyword argument or a default is
    shown as ``name=value``.
    """

    def __init__(self, target: int | None = None):
        self.target = target
        self.sites: list[tuple[int, str]] = []  # (line, enclosing scope)
        self.scope: list[str] = []
        self.stack: list[ast.AST] = []
        self.context = self.before = None

    def visit(self, node):
        self.stack.append(node)
        try:
            return super().visit(node)
        finally:
            self.stack.pop()

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        return node

    visit_FunctionDef = visit_ClassDef = _scoped

    def visit_JoinedStr(self, node):
        return node

    def generic_visit(self, node):
        super().generic_visit(node)
        for mutate in _catalogue(node):
            index = len(self.sites)
            self.sites.append((node.lineno, ".".join(self.scope) or "<module>"))
            if index == self.target:
                new = self.context = mutate()
                shown = node
                top = len(self.stack) - 1
                if isinstance(node, ast.Constant):
                    # the transformer puts the mutant into its parents in place
                    while isinstance(self.stack[top - 1], CONTEXTS):
                        top -= 1
                    if self.stack[top] is not node:
                        shown = self.context = self.stack[top]
                name = _argument_name(self.stack[top - 1], self.stack[top])
                if name is not None:
                    shown = ast.keyword(arg=name, value=shown)
                    self.context = ast.keyword(arg=name, value=self.context)
                self.before = ast.unparse(shown)
                return new
        return node


def count_sites(source: str) -> list[tuple[int, str]]:
    sites = _Sites()
    sites.visit(ast.parse(source))
    return sites.sites


def mutant_source(source: str, target: int) -> tuple[str, str, str]:
    """The mutated module, and the changed code before and after."""
    sites = _Sites(target)
    tree = sites.visit(ast.parse(source))
    return ast.unparse(tree), sites.before, ast.unparse(sites.context)


def mutants(sources: dict[str, str]):
    """Yield (module, line, key, mutated source) for every mutant in a fixed order.

    The key names the change as "module.scope: before -> after", with " #n"
    added for the n-th identical change in one scope.
    """
    seen = Counter()
    for module in MODULES:
        for index, (line, scope) in enumerate(count_sites(sources[module])):
            text, before, after = mutant_source(sources[module], index)
            key = f"{module}.{scope}: {before} -> {after}"
            seen[key] += 1
            if seen[key] > 1:
                key += f" #{seen[key]}"
            yield module, line, key, text


def stale_reasons(keys) -> list[str]:
    """The ``REASONS`` keys, in their order, that name none of the mutant keys given."""
    keys = set(keys)
    return [key for key in REASONS if key not in keys]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_detector(args: list[str], cwd: Path, timeout: float) -> str | None:
    """Run one detector process; None if it passes, else why it failed.

    Why is the node id of the first test pytest reports ``FAILED``, or
    else the exit code and the last line of output.
    """
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        preexec_fn=_limit_memory, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout"
    if proc.returncode == 0:
        return None
    lines = out.decode(errors="replace").strip().splitlines()
    # pytest's summary line "FAILED <nodeid> - <message>" names the killing test;
    # a parametrize id in brackets may hold " - " itself
    failed = [m[1] for m in map(FAILED_LINE.match, lines) if m]
    return failed[0] if failed else f"exit {proc.returncode}: {lines[-1] if lines else ''}"


def copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in ("src", "tests", "bench", "tools"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    # the test suite runs the README's library example
    shutil.copy2(ROOT / "README.md", dest / "README.md")


def main() -> int:
    sources = {m: (ROOT / "src" / "qminv" / f"{m}.py").read_text() for m in MODULES}
    with tempfile.TemporaryDirectory(prefix="qminv-mutate-") as tmp:
        work = Path(tmp)
        copy_checkout(work)
        paths = {m: work / "src" / "qminv" / f"{m}.py" for m in MODULES}
        baseline = {m: ast.unparse(ast.parse(s)) for m, s in sources.items()}
        for m, text in baseline.items():
            paths[m].write_text(text)

        timeouts = []
        for stage in (["-c", STAGE1], STAGE2):
            start = time.perf_counter()
            failure = run_detector(stage, work, timeout=600)
            if failure:
                print(f"unmutated tree fails {stage[:2]}: {failure}", file=sys.stderr)
                return 2
            timeouts.append(max(10.0, 5 * (time.perf_counter() - start)))

        plan = list(mutants(sources))
        killed = Counter()  # (module, stage) -> mutants killed
        survivors, stage2 = [], []
        for n, (module, line, key, text) in enumerate(plan, 1):
            paths[module].write_text(text)
            verdict = None
            for stage, detector in ((1, ["-c", STAGE1]), (2, STAGE2)):
                failure = run_detector(detector, work, timeouts[stage - 1])
                if failure:
                    killed[module, stage] += 1
                    if stage == 2:
                        stage2.append((module, line, key, failure))
                    verdict = f"killed by stage {stage} ({failure})"
                    break
            paths[module].write_text(baseline[module])
            if verdict is None:
                survivors.append((module, line, key))
                verdict = "SURVIVED"
            print(f"[{n}/{len(plan)}] {module}:{line} {key}  {verdict}", file=sys.stderr, flush=True)

    staged = Counter()
    for (_, stage), n in killed.items():
        staged[stage] += n
    total, dead = len(plan), staged[1] + staged[2]
    planned = Counter(module for module, *_ in plan)
    alive = Counter(module for module, _, _ in survivors)
    unexplained = [key for _, _, key in survivors if key not in REASONS]
    stale = stale_reasons(key for _, _, key, _ in plan)
    scored = total - (len(survivors) - len(unexplained))
    lines = [
        "# Single-site mutation run over src/qminv/{" + ",".join(MODULES) + "}.py.",
        "# Regenerate with: python tools/mutate.py",
        f"score: {dead}/{scored} killed ({100 * dead / scored:.1f} %), explained equivalents left out",
        f"raw: {dead}/{total} mutants killed, {total - scored} explained as equivalent",
        "per module (killed/all [stage 1]): "
        + ", ".join(f"{m} {planned[m] - alive[m]}/{planned[m]} [{killed[m, 1]}]" for m in MODULES),
        f"stage 1 (golden CLI corpus, selfcheck included): {staged[1]} killed",
        f"stage 2 (tier-1 suite on the stage-1 survivors): {staged[2]} killed",
        f"survivors: {len(survivors)}, unexplained: {len(unexplained)}, stale reasons: {len(stale)}",
        "",
    ]
    for module, line, key in survivors:
        lines.append(f"{module}.py:{line} {key}")
        lines.append(f"    {REASONS.get(key, 'UNEXPLAINED')}")
    for key in stale:
        lines.append(f"STALE {key}")
        lines.append(f"    {REASONS[key]}")
    lines += ["", "stage 2 kills:"]
    for module, line, key, failure in stage2:
        lines.append(f"{module}.py:{line} {key}")
        lines.append(f"    killed by {failure}")
    REPORT.write_text("\n".join(lines) + "\n")
    print("\n".join(lines[2:8]), file=sys.stderr)
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
