"""Line ledger: which lines of ``src/repro`` the test suite executes.

Record, as a pytest plugin::

    PYTHONPATH=src python -m pytest -p tests.line_ledger

The plugin traces every line under ``src/repro`` that runs in the pytest
process and in every process forked from it (the harness's
``runner._Child``).  Each process writes the lines it saw to one file
under ``.line_ledger/`` at the repository root when it ends: the pytest
process when the session ends, a forked child from a wrapper over
``os._exit`` (children leave through it, which skips ``atexit``).  A
child killed by a signal writes nothing.  A code object stops being
line-traced once all of its lines have run, but any active trace
function still makes Python code about ten times slower, so tests
marked ``wall_clock`` (a time budget is what they check) run untraced.

Report::

    python -m tests.line_ledger

lists every executable line that no traced process ran and that
``tests/line_ledger_allow.txt`` does not excuse, and exits 1 if there
is one.  The allowlist is keyed by file and stripped line text, not by
line number, so unrelated edits do not churn it; every entry sits under
a ``reason:`` header.  Entries that excuse no unexecuted line are
reported as stale.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
LEDGER_DIR = ROOT / ".line_ledger"
ALLOWLIST = Path(__file__).resolve().parent / "line_ledger_allow.txt"

_SRC_PREFIX = str(SRC) + os.sep

# -- recording ------------------------------------------------------------

#: id(code object) -> (the code object, its executable lines, lines not
#: yet run), for code under ``src/repro``.  Keyed by id because hashing a
#: code object hashes its contents; the entry keeps the object alive, so
#: its id is not reused.
_codes: Dict[int, Tuple[object, frozenset, Set[int]]] = {}
_real_exit = os._exit


def _code_lines(code) -> frozenset:
    return frozenset(line for _, _, line in code.co_lines() if line)


def _trace_call(frame, event, arg):
    code = frame.f_code
    entry = _codes.get(id(code))
    if entry is None:
        if not code.co_filename.startswith(_SRC_PREFIX):
            return None
        lines = _code_lines(code)
        entry = _codes[id(code)] = (code, lines, set(lines))
    pending = entry[2]
    if not pending:
        return None
    discard = pending.discard

    def trace_line(frame, event, arg):
        if event == "line":
            discard(frame.f_lineno)
            if not pending:
                frame.f_trace_lines = False
        return trace_line

    return trace_line


def _executed() -> Dict[str, Set[int]]:
    lines: Dict[str, Set[int]] = {}
    for code, all_lines, pending in list(_codes.values()):
        ran = all_lines - pending
        if ran:
            lines.setdefault(code.co_filename, set()).update(ran)
    return lines


def _flush() -> None:
    """Write this process's executed lines to a new file in the ledger."""
    try:
        fd, _ = tempfile.mkstemp(prefix=f"{os.getpid()}-", suffix=".lines", dir=LEDGER_DIR)
    except OSError:
        return  # the ledger directory is gone: the session is over
    with os.fdopen(fd, "w") as out:
        for filename, ran in sorted(_executed().items()):
            relative = Path(filename).relative_to(ROOT).as_posix()
            out.write(f"{relative}\t{','.join(map(str, sorted(ran)))}\n")


def _exit(status):
    sys.settrace(None)
    _flush()
    _real_exit(status)


def pytest_load_initial_conftests(early_config, parser, args):
    """Start tracing before the conftests import ``repro``."""
    shutil.rmtree(LEDGER_DIR, ignore_errors=True)
    LEDGER_DIR.mkdir()
    os._exit = _exit
    threading.settrace(_trace_call)
    sys.settrace(_trace_call)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Run ``wall_clock`` tests untraced: tracing makes code several times
    slower, which breaks their time budgets, not their logic."""
    if item.get_closest_marker("wall_clock") is None:
        yield
        return
    sys.settrace(None)
    threading.settrace(None)
    try:
        yield
    finally:
        threading.settrace(_trace_call)
        sys.settrace(_trace_call)


def pytest_unconfigure(config):
    replaced = sys.gettrace() is not _trace_call
    sys.settrace(None)
    threading.settrace(None)
    os._exit = _real_exit
    _flush()
    if replaced:
        sys.stderr.write("line ledger: the tracer was replaced during the run; the ledger is incomplete\n")


# -- report ---------------------------------------------------------------


def executable_lines(path: Path) -> Set[int]:
    """Line numbers that carry bytecode in the module at ``path``."""
    lines: Set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= _code_lines(code)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def recorded_lines(directory: Path = LEDGER_DIR) -> Dict[str, Set[int]]:
    """Union of every process's executed lines, by repository-relative path."""
    lines: Dict[str, Set[int]] = {}
    for part in sorted(directory.glob("*.lines")):
        for row in part.read_text().splitlines():
            relative, _, numbers = row.partition("\t")
            lines.setdefault(relative, set()).update(int(n) for n in numbers.split(",") if n)
    return lines


def parse_allowlist(text: str) -> Dict[Tuple[str, str], str]:
    """``(path, stripped line) -> reason`` from the allowlist's text.

    Blank lines and ``#`` comments are skipped; ``reason: ...`` sets the
    reason for the entries that follow; an entry is ``path: line text``.
    """
    entries: Dict[Tuple[str, str], str] = {}
    reason = ""
    for number, row in enumerate(text.splitlines(), 1):
        row = row.strip()
        if not row or row.startswith("#"):
            continue
        if row.startswith("reason:"):
            reason = row[len("reason:") :].strip()
            if not reason:
                raise ValueError(f"allowlist line {number}: empty reason")
            continue
        path, sep, line = row.partition(": ")
        if not sep or not line:
            raise ValueError(f"allowlist line {number}: expected 'path: line text'")
        if not reason:
            raise ValueError(f"allowlist line {number}: entry before any 'reason:' header")
        entries[path, line.strip()] = reason
    return entries


def unexecuted(
    executed: Dict[str, Set[int]], root: Path = ROOT
) -> Iterator[Tuple[str, int, str]]:
    """``(path, number, stripped text)`` of each executable line not run."""
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        ran = executed.get(relative, set())
        text = path.read_text().splitlines()
        for number in sorted(executable_lines(path) - ran):
            yield relative, number, text[number - 1].strip()


def main() -> int:
    if not LEDGER_DIR.is_dir() or not any(LEDGER_DIR.glob("*.lines")):
        print(f"no ledger under {LEDGER_DIR.relative_to(ROOT)}: run pytest -p tests.line_ledger first")
        return 2
    allowed = parse_allowlist(ALLOWLIST.read_text())
    executed = recorded_lines()
    missed: List[Tuple[str, int, str]] = []
    used: Set[Tuple[str, str]] = set()
    excused = 0
    for relative, number, text in unexecuted(executed):
        if (relative, text) in allowed:
            used.add((relative, text))
            excused += 1
        else:
            missed.append((relative, number, text))
    total = sum(len(executable_lines(p)) for p in SRC.rglob("*.py"))
    for relative, number, text in missed:
        print(f"{relative}:{number}: {text}")
    for relative, text in sorted(set(allowed) - used):
        print(f"stale allowlist entry (no unexecuted line matches): {relative}: {text}")
    print(
        f"{total} executable lines; {excused + len(missed)} not run: "
        f"{excused} allowlisted, {len(missed)} unlisted"
    )
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
