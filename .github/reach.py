"""Run the tier-1 suite in this process under a line trace, and fail when a
``raise`` statement under ``src/surfshape/`` never runs and is not listed in
NOT_RAISED with the reason it stays.

    PYTHONPATH=src python .github/reach.py [pytest arguments]

The suite's ``surfshape`` hypothesis profile is derandomized, so the result
repeats. A raise in a forked share is seen too: a share that fails in a child
runs again in this process.
"""
import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "surfshape"

# file:line of each raise that no test reaches, with the reason it stays
NOT_RAISED = {
    "chi2.py:60": "defensive: the Newton iteration has settled within its 100 steps on every df tried",
    "synth.py:277": "defensive: 12 planted modes build at resolution 2, the smallest allowed",
}


def raise_lines() -> dict[str, tuple[str, range]]:
    """Each raise statement under SOURCE, as file:line, with its file and lines."""
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                found[f"{path.name}:{node.lineno}"] = (str(path), range(node.lineno, node.end_lineno + 1))
    return found


def main(args) -> int:
    executed, ours = set(), {}

    def on_line(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:  # the package's files, however the import path spelled them
            ours[name] = Path(name).resolve().parent == SOURCE
        return on_line if ours[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines, raises = {(str(Path(name).resolve()), line) for name, line in executed}, raise_lines()
    never = [key for key, (path, span) in raises.items() if not any((path, n) in lines for n in span)]
    unlisted, stale = sorted(set(never) - set(NOT_RAISED)), sorted(set(NOT_RAISED) - set(never))
    for key in unlisted:
        print(f"reach: {key}: raise never runs in tier-1 and is not listed in .github/reach.py")
    for key in stale:
        print(f"reach: {key}: listed in .github/reach.py, but it runs or is no raise")
    print(f"reach: {len(raises) - len(never)} of {len(raises)} raise statements run")
    return int(status) or int(bool(unlisted or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
