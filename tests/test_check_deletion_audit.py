"""The check-deletion audit script's mutation step."""

from __future__ import annotations

import check_deletion_audit as audit


def test_mutate_cuts_by_byte_offsets_past_non_ascii_text():
    source = 'def f(t):\n    if t:\n        raise ValueError("t ≤ 5 µs")  # ≤\n    return t\n'
    (site,) = audit.check_sites(source)
    assert audit.mutate(source, site) == source.replace('raise ValueError("t ≤ 5 µs")', "pass")
