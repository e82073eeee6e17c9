"""The lines of ``src/`` that no run reaches.

Runs ``splitcouple run`` (``cli.main``) on each shipped ``configs/*.cfg`` and
on each workload config of ``perfbench/workloads.py`` (at benchmark seed 1),
under a line tracer set with ``sys.settrace``.  The tracer follows a split
run's forked children: a fork hook re-arms it in the child, and the child's
``os._exit`` first writes the lines it reached to a file that this process
merges.  Tracing starts before the package is imported, so module-level lines
count as reached.  Then it prints
every line of ``src/splitcouple`` that holds code, is not part of a ``raise``
statement, and ran in no run, as ``path:line: source``, and their count.

pytest does not collect this file.  Run it from the repository root:

    python tests/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitcouple"


def _code_lines(code) -> set[int]:
    """Lines that hold bytecode of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _raise_lines(tree: ast.AST) -> set[int]:
    return {line for node in ast.walk(tree) if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def _runs() -> list[tuple[str, str]]:
    """(name, config text) of every shipped config, then of every workload
    config at benchmark seed 1."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS  # stdlib only

    runs = [(path.stem, path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "configs").glob("*.cfg"))]
    runs += [(f"{workload}/{spec.name}", spec.text(1))
             for workload, specs in WORKLOADS.items() for spec in specs]
    return runs


def main() -> int:
    prefix = str(PACKAGE) + "/"
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.path.insert(0, str(ROOT / "src"))
    runs = _runs()
    work = tempfile.TemporaryDirectory()
    children = Path(work.name) / "children"  # one file of reached lines a forked child
    children.mkdir()
    real_exit = os._exit

    def exit_child(code):
        sys.settrace(None)
        with open(children / f"{os.getpid()}.txt", "w", encoding="utf-8") as fh:
            fh.writelines(f"{line} {path}\n" for path, line in reached)
        real_exit(code)

    os.register_at_fork(after_in_child=lambda: sys.settrace(tracer))
    os._exit = exit_child
    sys.settrace(tracer)
    try:
        from splitcouple import cli

        for i, (name, text) in enumerate(runs):
            cfg = Path(work.name) / f"{i}.cfg"
            cfg.write_text(text, encoding="utf-8")
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(cfg), "--out", str(Path(work.name) / str(i))])
            print(f"# {name}: exit {code}, {time.perf_counter() - start:.2f} s",
                  file=sys.stderr)
    finally:
        sys.settrace(None)
        os._exit = real_exit
    for child in children.iterdir():
        for entry in child.read_text(encoding="utf-8").splitlines():
            line, path = entry.split(" ", 1)
            reached.add((path, int(line)))
    print(f"# {len(list(children.iterdir()))} forked children merged", file=sys.stderr)
    work.cleanup()

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = _code_lines(compile(text, str(path), "exec")) - _raise_lines(ast.parse(text))
        source = text.splitlines()
        for line in sorted(lines):
            if (str(path), line) not in reached:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} lines reached by no run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
