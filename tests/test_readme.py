"""The README's examples run as shown: the Library snippet and every CLI example that shows its output."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pwenum.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text: str) -> list[str]:
    """The fenced blocks of the text, in order, without their fences."""
    return re.findall(r"^```[a-z]*\n(.*?)^```$", text, flags=re.M | re.S)


def _cli_examples() -> list[tuple[str, str]]:
    """(command, output) for each `pwenum` line of the CLI section's first block followed by output lines."""
    examples, lines = [], _blocks(_section("CLI"))[0].splitlines()
    for i, line in enumerate(lines):
        if line.startswith("pwenum "):
            shown = []
            for after in lines[i + 1 :]:
                if not after or after.startswith("pwenum "):
                    break
                shown.append(after)
            if shown:
                examples.append((line, "\n".join(shown) + "\n"))
    return examples


def test_the_library_snippet_prints_what_the_readme_shows():
    snippet, shown = _blocks(_section("Library"))[:2]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    assert out.getvalue() == shown


def test_the_readme_shows_the_output_of_four_cli_examples():
    assert [cmd.split()[1] for cmd, _ in _cli_examples()] == ["enum", "enum", "verify", "fuzz"]


@pytest.mark.parametrize("command, shown", _cli_examples(), ids=lambda value: value.split("\n")[0])
def test_a_cli_example_prints_what_the_readme_shows(command, shown):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(shlex.split(command)[1:]) == 0
    assert out.getvalue() == shown
