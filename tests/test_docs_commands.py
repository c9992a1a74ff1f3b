"""Parse every documented ``python -m repro`` command.

README.md and each ``docs/*.md`` page show command lines in fenced
blocks.  Each one must still be accepted by the real argument parser,
so a renamed or deleted flag cannot linger in the docs.  ``\\``
continuations are joined and trailing ``# …`` comments dropped;
synopsis lines with ``<…>`` or ``[…]`` placeholders are skipped.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
PREFIX = "python -m repro "

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```[ \t]*$", re.MULTILINE | re.DOTALL)
_PLACEHOLDER = re.compile(r"<[^>]*>|\[[^\]]*\]")


def documented_commands() -> list[tuple[str, list[str]]]:
    """``("file:line", argv)`` for every concrete command in a fenced
    block, ``argv`` being what follows ``python -m repro``."""
    found = []
    for path in DOC_FILES:
        text = path.read_text(encoding="utf-8")
        for match in _FENCE.finditer(text):
            first = text.count("\n", 0, match.start(1)) + 1
            lines = match.group(1).split("\n")
            index = 0
            while index < len(lines):
                where = f"{path.relative_to(REPO_ROOT)}:{first + index}"
                line = lines[index]
                while line.rstrip().endswith("\\") and index + 1 < len(lines):
                    index += 1
                    line = line.rstrip()[:-1] + " " + lines[index].strip()
                index += 1
                if PREFIX not in line:
                    continue
                argv = shlex.split(line[line.index(PREFIX) + len(PREFIX):],
                                   comments=True)
                if not _PLACEHOLDER.search(" ".join(argv)):
                    found.append((where, argv))
    return found


COMMANDS = documented_commands()


def test_commands_are_collected():
    files = {where.split(":")[0] for where, _ in COMMANDS}
    assert {"README.md", "docs/scaling.md", "docs/service.md"} <= files


@pytest.mark.parametrize("argv", [argv for _, argv in COMMANDS],
                         ids=[where for where, _ in COMMANDS])
def test_documented_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"python -m repro {shlex.join(argv)} is refused: "
                    f"{capsys.readouterr().err.strip()}")
