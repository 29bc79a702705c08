from pathlib import Path

# ROADMAP item 5: the line budget of src/bddsets
BUDGET = 2_863
SRC_PKG = Path(__file__).parent.parent / "src" / "bddsets"


def test_src_stays_within_its_line_budget():
    # every line of every module, counted as bench/run.py's src_lines does
    lines = {}
    for path in SRC_PKG.glob("*.py"):
        with path.open(encoding="utf-8") as fh:
            lines[path.name] = sum(1 for _ in fh)
    assert sum(lines.values()) <= BUDGET, lines
