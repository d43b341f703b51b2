"""The line ledger's allowlist and report, without a traced run.

The traced run itself (``pytest -p tests.line_ledger``) is too slow for
tier-1; these checks keep the committed allowlist well formed between
runs.
"""

from __future__ import annotations

import pytest

from tests import line_ledger


@pytest.fixture(scope="module")
def allowlist():
    return line_ledger.parse_allowlist(line_ledger.ALLOWLIST.read_text())


def test_every_entry_names_a_line_of_its_file(allowlist):
    missing = []
    for path, text in allowlist:
        source = line_ledger.ROOT / path
        lines = {line.strip() for line in source.read_text().splitlines()} if source.is_file() else ()
        if text not in lines:
            missing.append(f"{path}: {text}")
    assert not missing


def test_no_compiler_optimization_line_is_excused(allowlist):
    assert not [path for path, _ in allowlist if path.endswith(("optimizer.py", "inliner.py"))]


@pytest.mark.parametrize(
    "text, error",
    [
        ("src/repro/x.py: pass\n", "before any 'reason:'"),
        ("reason:\nsrc/repro/x.py: pass\n", "empty reason"),
        ("reason: why\nsrc/repro/x.py\n", "expected 'path: line text'"),
    ],
)
def test_malformed_allowlist_rejected(text, error):
    with pytest.raises(ValueError, match=error):
        line_ledger.parse_allowlist(text)


def test_unexecuted_lists_lines_no_process_ran(tmp_path):
    module = tmp_path / "src" / "repro" / "m.py"
    module.parent.mkdir(parents=True)
    module.write_text("def f(x):\n    if x:\n        return 1\n    return 2\n")
    executable = line_ledger.executable_lines(module)
    assert executable == {1, 2, 3, 4}
    ran = {"src/repro/m.py": {1, 2, 4}}
    assert list(line_ledger.unexecuted(ran, tmp_path)) == [("src/repro/m.py", 3, "return 1")]


def test_recorded_lines_union_processes(tmp_path):
    (tmp_path / "1-a.lines").write_text("src/repro/m.py\t1,2\n")
    (tmp_path / "2-b.lines").write_text("src/repro/m.py\t2,4\nsrc/repro/n.py\t7\n")
    assert line_ledger.recorded_lines(tmp_path) == {
        "src/repro/m.py": {1, 2, 4},
        "src/repro/n.py": {7},
    }
