"""Check-deletion audit: does a test fail when any one check is deleted or
moved by one?

The script makes two kinds of mutant, each a copy of the tree with one edit
in one of the qesp_lab modules engine, wire, sadb, crypto, config, cli,
netsim and classifier:

* a deleted check: one `raise` statement, or one `return False` guard in
  SecurityAssociation.replay_check_and_update, replaced by `pass`;
* a boundary mutant: one ordering operator swapped with its neighbour
  (`<` and `<=`, `>` and `>=`), so the check lets one value more or one
  fewer through.

It runs the module's focused test modules on each mutant with `-x`; a
mutant they do not kill then runs the whole suite with `-x`.  A mutant the
whole suite does not kill is a survivor: the check is either redundant or
pinned by no test.  A boundary mutant listed in EQUIVALENT, with the reason
it cannot change behaviour, is reported but not run.

Run it as:

    python3 tests/check_deletion_audit.py

It prints one line per mutant and then the survivors, and exits 1 if any
survive; it stops before any mutant if an EQUIVALENT entry names none.
Hypothesis runs with seed 0 and no saved examples, so a run is repeatable;
a check that only rare random inputs reach can survive it though a lucky
random run kills it, and wants a test of its own.

It works in one temporary copy of src/, tests/, docs/, README.md and
pyproject.toml, which it removes afterwards; the checkout is never written.
Before any mutation the whole suite must pass on the copy, so a test that
already fails there cannot pass off a mutant as killed.  Each mutant takes a few
seconds, or about half a minute when it reaches the whole suite; CHANGES.md
gives the measured time of the last full run.  The mutants are found and
written with the standard library's ast and tokenize modules alone.
"""

from __future__ import annotations

import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "docs", "README.md", "pyproject.toml")
# Each auditable module and the test modules that aim at it.
FOCUSED = {
    "engine": ["tests/test_engine.py"],
    "wire": ["tests/test_wire.py"],
    "sadb": ["tests/test_sadb.py"],
    "crypto": ["tests/test_crypto.py"],
    "config": ["tests/test_config.py"],
    "cli": ["tests/test_cli.py"],
    "netsim": ["tests/test_netsim.py", "tests/test_config.py"],
    "classifier": ["tests/test_classifier.py", "tests/test_hotpath.py"],
}
# Functions whose `return False` statements are checks too.
GUARD_FUNCTIONS = {"replay_check_and_update"}
# The boundary swap of each ordering operator.
FLIPPED = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
# Boundary mutants that cannot change behaviour, by module and the source
# text of the comparison, each with the reason.
EQUIVALENT = {
    ("engine", "total > 0xFFFF"):
        "every encapsulated datagram is a multiple of 4 bytes, so never 65535",
    ("wire", "total_length > n"):
        "it sits inside `if total_length != n`, so the two are never equal",
    ("sadb", "shift >= REPLAY_WINDOW"):
        "at shift 64 both branches leave the bitmap 1",
}
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")


def check_sites(source: str) -> list[ast.stmt]:
    """Every raise statement in source, and every `return False` inside a
    function named in GUARD_FUNCTIONS, in source order."""
    tree = ast.parse(source)
    sites = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef) and function.name in GUARD_FUNCTIONS:
            sites += [node for node in ast.walk(function) if isinstance(node, ast.Return)
                      and isinstance(node.value, ast.Constant) and node.value.value is False]
    return sorted(sites, key=lambda node: (node.lineno, node.col_offset))


def mutate(source: str, node: ast.stmt) -> str:
    """source with the statement at node replaced by `pass`; every other
    character stays where it was.  ast's column offsets count UTF-8 bytes,
    so the lines are cut as bytes."""
    lines = source.encode().splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    joined = lines[first][:node.col_offset] + b"pass" + lines[last][node.end_col_offset:]
    mutant = (b"".join(lines[:first]) + joined + b"".join(lines[last + 1:])).decode()
    ast.parse(mutant)  # the replacement must leave valid Python
    return mutant


def boundary_sites(source: str) -> list[tuple[int, int, str, str]]:
    """Every ordering operator in source, in source order, as (line, UTF-8
    byte column, operator, source text of the comparison it makes)."""
    tokens = {}  # (line, byte column) -> operator, for every ordering operator
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.OP and token.string in FLIPPED:
            line, col = token.start
            tokens[line, len(token.line[:col].encode())] = token.string
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for left, op, right in zip(operands, node.ops, operands[1:]):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                # the first ordering operator after the left operand is op
                line, col = min(key for key in tokens
                                if (left.end_lineno, left.end_col_offset) <= key)
                text = " ".join((ast.get_source_segment(source, left), tokens[line, col],
                                 ast.get_source_segment(source, right)))
                sites.append((line, col, tokens[line, col], text))
    return sorted(sites)


def flip(source: str, site: tuple[int, int, str, str]) -> str:
    """source with the ordering operator at site swapped by FLIPPED."""
    line, col, op, _ = site
    lines = source.encode().splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(op)] == op.encode()
    lines[line - 1] = text[:col] + FLIPPED[op].encode() + text[col + len(op):]
    mutant = b"".join(lines).decode()
    ast.parse(mutant)  # the swap must leave valid Python
    return mutant


def mutants(module: str, source: str) -> list[tuple[str, str | None]]:
    """(description, mutant source) for every mutant of module, deleted checks
    first; the source is None for a mutant listed in EQUIVALENT."""
    lines = source.splitlines()
    found = [(f"{module}.py:{node.lineno}: {lines[node.lineno - 1].strip()}",
              mutate(source, node)) for node in check_sites(source)]
    for site in boundary_sites(source):
        line, _, op, text = site
        where = f"{module}.py:{line}: {text} -> {FLIPPED[op]}"
        found.append((where, None if (module, text) in EQUIVALENT else flip(source, site)))
    return found


def passes(tree: Path, targets: list[str]) -> bool:
    """Whether pytest, run in tree on targets (all tests if empty), passes."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no examples carry over
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, *PYTEST, *targets], cwd=tree, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return result.returncode == 0


def audit(tree: Path) -> list[str]:
    """Run every mutant of every module in FOCUSED in tree; return the
    survivors."""
    probe = subprocess.run([sys.executable, "-c", "import qesp_lab; print(qesp_lab.__file__)"],
                           cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                           capture_output=True, text=True, check=True)
    if not Path(probe.stdout.strip()).is_relative_to(tree):
        sys.exit(f"qesp_lab imports from {probe.stdout.strip()}, not the copy")
    sites = {(module, text) for module in FOCUSED for *_, text in boundary_sites(
        (tree / "src" / "qesp_lab" / f"{module}.py").read_text())}
    if set(EQUIVALENT) - sites:
        sys.exit(f"EQUIVALENT entries that name no mutant: {sorted(set(EQUIVALENT) - sites)}")
    for module in FOCUSED:
        if not passes(tree, FOCUSED[module]):
            sys.exit(f"{' '.join(FOCUSED[module])} fail before any mutation")
    if not passes(tree, []):
        sys.exit("the whole suite fails before any mutation")

    survivors = []
    for module in FOCUSED:
        path = tree / "src" / "qesp_lab" / f"{module}.py"
        original = path.read_text()
        try:
            for where, mutant in mutants(module, original):
                if mutant is None:
                    print(f"{'EQUIVALENT':27} {where}", flush=True)
                    continue
                path.write_text(mutant)
                if not passes(tree, FOCUSED[module]):
                    verdict = "killed by the focused tests"
                elif not passes(tree, []):
                    verdict = "killed by the whole suite"
                else:
                    verdict = "SURVIVED"
                    survivors.append(where)
                print(f"{verdict:27} {where}", flush=True)
        finally:
            path.write_text(original)
    return survivors


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="check-deletion-audit-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        survivors = audit(tree)
    print(f"\n{len(survivors)} survivor(s)")
    for where in survivors:
        print(f"  {where}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
