"""Replay pinned CLI invocations against their recorded output.

Each line of ``data/cli_records.jsonl`` holds an ``argv``, its exit status and
the records it printed.  Keys, strings, ints and bools must match exactly;
floats to 1e-12 relative (scale ``max(1, |x|)``), so a different BLAS does not
flake.  When a change to the records is intended, regenerate the file with
``PYTHONPATH=src python tests/test_cli_records.py``; it prints every path that
changes beyond that tolerance as ``old -> new`` before it rewrites the file,
and keeps each pinned value that the new run matches within it, so the
file's diff shows only the printed changes.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from afspectral import cli

DATA = Path(__file__).parent / "data" / "cli_records.jsonl"
CASES = [json.loads(line) for line in DATA.read_text().splitlines()]


def _mismatches(got, want, path="$"):
    """Every difference between two parsed JSON values, as ``want -> got`` lines."""
    if type(got) is not type(want):
        return [f"{path}: {want!r} -> {got!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(want)} -> {sorted(got)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(want)} -> {len(got)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and abs(got - want) <= 1e-12 * max(1.0, abs(got), abs(want)):
        return []
    return [] if got == want else [f"{path}: {want!r} -> {got!r}"]


def _pinned(got, want):
    """``got``, keeping every part of ``want`` that it matches within the float tolerance."""
    if not _mismatches(got, want):
        return want
    if isinstance(got, dict) and isinstance(want, dict) and sorted(got) == sorted(want):
        return {k: _pinned(got[k], want[k]) for k in got}
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [_pinned(g, w) for g, w in zip(got, want)]
    return got


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)]
)
def test_cli_records_match(case):
    code, records = _run(case["argv"])
    assert code == case["exit"]
    assert _mismatches(records, case["records"]) == []


if __name__ == "__main__":
    lines = []
    for i, case in enumerate(CASES):
        code, records = _run(case["argv"])
        old = {"exit": case["exit"], "records": case["records"]}
        new = {"exit": code, "records": records}
        for change in _mismatches(new, old):
            print(f"{i:02d}-{case['argv'][0]} {change}")
        lines.append(json.dumps({"argv": case["argv"], **_pinned(new, old)}, sort_keys=True))
    DATA.write_text("\n".join(lines) + "\n")
