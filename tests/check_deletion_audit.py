"""Check-deletion audit: does a test fail when any one check is deleted?

For each `raise` statement in the qesp_lab modules engine, wire, sadb,
crypto, config, cli and netsim, and each `return False` guard in
SecurityAssociation.replay_check_and_update, the script makes a mutant: a
copy of the tree with that one statement replaced by `pass`.  It runs the
module's focused test modules on the mutant with `-x`; a mutant
they do not kill then runs the whole suite with `-x`.  A mutant the whole
suite does not kill is a survivor: the check is either redundant or pinned
by no test.

Run it as:

    python3 tests/check_deletion_audit.py

It prints one line per mutant and then the survivors, and exits 1 if any
survive.  Hypothesis runs with seed 0 and no saved examples, so a run is
repeatable; a check that only rare random inputs reach can survive it
though a lucky random run kills it, and wants a test of its own.

It works in one temporary copy of src/, tests/, docs/ and pyproject.toml,
which it removes afterwards; the checkout is never written.  Before any
mutation the whole suite must pass on the copy, so a test that already
fails there cannot pass off a mutant as killed.  Each mutant takes a few
seconds, or about half a minute when it reaches the whole suite; CHANGES.md
gives the measured time of the last full run.  The mutants are found and
written with the standard library's ast module alone.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "docs", "pyproject.toml")
# Each auditable module and the test modules that aim at it.
FOCUSED = {
    "engine": ["tests/test_engine.py"],
    "wire": ["tests/test_wire.py"],
    "sadb": ["tests/test_sadb.py"],
    "crypto": ["tests/test_crypto.py"],
    "config": ["tests/test_config.py"],
    "cli": ["tests/test_cli.py"],
    "netsim": ["tests/test_netsim.py", "tests/test_config.py"],
}
# Functions whose `return False` statements are checks too.
GUARD_FUNCTIONS = {"replay_check_and_update"}
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
    for module in FOCUSED:
        if not passes(tree, FOCUSED[module]):
            sys.exit(f"{' '.join(FOCUSED[module])} fail before any mutation")
    if not passes(tree, []):
        sys.exit("the whole suite fails before any mutation")

    survivors = []
    for module in FOCUSED:
        path = tree / "src" / "qesp_lab" / f"{module}.py"
        original = path.read_text()
        lines = original.splitlines()
        try:
            for node in check_sites(original):
                where = f"{module}.py:{node.lineno}: {lines[node.lineno - 1].strip()}"
                path.write_text(mutate(original, node))
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
