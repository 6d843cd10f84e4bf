"""The check-deletion audit script's mutation step."""

from __future__ import annotations

import ast

import check_deletion_audit as audit


def test_mutate_cuts_by_byte_offsets_past_non_ascii_text():
    source = 'def f(t):\n    if t:\n        raise ValueError("t ≤ 5 µs")  # ≤\n    return t\n'
    (site,) = audit.check_sites(source)
    assert audit.mutate(source, site) == source.replace('raise ValueError("t ≤ 5 µs")', "pass")


def ordering_ops(source):
    return [type(op).__name__ for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) for op in node.ops]


def test_flip_writes_valid_python_with_exactly_one_operator_swapped():
    source = ('def f(a, b, c):\n'
              '    if "µ ≤" != c and 0 <= a < b and (b\n'
              '            > c):  # a > b\n'
              '        return "<"\n'
              '    return a >= c\n')
    sites = audit.boundary_sites(source)
    assert [(op, text) for _, _, op, text in sites] == [
        ("<=", "0 <= a"), ("<", "a < b"), (">", "b > c"), (">=", "a >= c")]
    before = ordering_ops(source)
    swapped = {"Lt": "LtE", "LtE": "Lt", "Gt": "GtE", "GtE": "Gt"}
    for site in sites:
        after = ordering_ops(audit.flip(source, site))
        changed = [i for i, (old, new) in enumerate(zip(before, after)) if old != new]
        assert len(after) == len(before) and len(changed) == 1
        assert after[changed[0]] == swapped[before[changed[0]]]
        growth = len(audit.FLIPPED[site[2]]) - len(site[2])
        assert len(audit.flip(source, site)) == len(source) + growth


def test_equivalent_mutants_are_listed_and_not_built():
    source = "def g(total):\n    if total > 0xFFFF:\n        raise ValueError\n"
    (deleted, kept), (boundary, skipped) = audit.mutants("engine", source)
    assert "raise ValueError" in deleted and "pass" in kept
    assert (boundary, skipped) == ("engine.py:2: total > 0xFFFF -> >=", None)
