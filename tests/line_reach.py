"""List the lines of `src/dcopt` that the tier-1 tests never run.

    python tests/line_reach.py [pytest args...]

Runs pytest in this process (by default on the whole `tests/` tree) under a
stdlib `sys.settrace` line tracer limited to `src/dcopt`, then prints every
executable line no test reached, by file, and their count. A line is
executable when some instruction of the module's compiled code carries it
(the `def` line of a function body does not count: entering a function
reports no event for it). Subprocesses and process-pool workers are not
traced, so code that runs only there (`__main__.py`, run by `python -m
dcopt`) is listed as unreached. The coverage package is not used.

Exits 1 if the tests fail or if more lines are unreached than RECORDED, so
the count can only go down; lower RECORDED when it does.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dcopt"

# unreached lines at the last count of the full tier-1 run
RECORDED = 9


def executable_lines(path: Path) -> set[int]:
    """Lines that carry an instruction of the file's code, bodies' def lines excluded."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        body = code.co_name != "<module>"
        lines.update(n for _, _, n in code.co_lines()
                     if n and not (body and n == code.co_firstlineno))
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - reached.get(str(path), set()))
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {', '.join(map(str, missed))}")
    print(f"unreached lines: {total} (recorded: {RECORDED})")
    if code != 0:
        return 1
    if total > RECORDED:
        print("more lines are unreached than recorded", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
