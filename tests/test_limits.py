import ast
from pathlib import Path

import pytest

import limits
from cli_golden import run

ROOT = Path(__file__).resolve().parents[1]


def _limit_constants():
    """``module.NAME`` of every public module-level ``MAX_*`` in ``src/ordtop``."""
    for path in sorted((ROOT / "src" / "ordtop").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                    yield f"{path.stem}.{target.id}"


def test_every_limit_has_a_row_and_a_readme_entry_and_none_is_the_clis():
    constants = set(_limit_constants())
    assert len(constants) >= 15, sorted(constants)
    rows = {row.constant for row in limits.ROWS} - {None}
    assert rows == constants, (sorted(constants - rows), sorted(rows - constants))
    readme = (ROOT / "README.md").read_text()
    assert [c for c in sorted(constants) if f"`{c}`" not in readme] == []
    assert [c for c in constants if c.startswith("cli.")] == []


# each row's refused calls, under its index and its first refused argv; its accepted side runs only in a fresh
# process, the one that the time and memory bounds are for
_REFUSING = {f"{i}-{' '.join(limits.argv(row, row.refuse[0]))[:60]}": row
             for i, row in enumerate(limits.ROWS) if row.refuse}


@pytest.mark.parametrize("row", list(_REFUSING.values()), ids=list(_REFUSING))
def test_refused_in_process(row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # no time or memory: the bounds are a fresh process's
    lines = limits.check(row._replace(accept=None), lambda argv, seconds: (*run(argv), 0, 0))
    assert [line for line in lines if not line.endswith(" ok")] == []
