"""Every command in the README's "Command line" block that shows its output
(the `# ...` lines right under it) prints exactly those lines."""

import shlex
from pathlib import Path

import pytest

from fanocheck.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list:
    """(argv, output lines) for each shown command, in README order."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = iter(block.split("```", 1)[0].splitlines())
    examples, output = [], None
    for line in lines:
        while line.endswith("\\"):
            line = line[:-1] + next(lines)
        if line.startswith("fanocheck "):
            output = []
            examples.append((shlex.split(line)[1:], output))
        elif line.startswith("# ") and output is not None:
            output.append(line[2:])
        else:
            output = None  # a blank line ends the output; later comments are prose
    return [(argv, out) for argv, out in examples if out]


EXAMPLES = readme_examples()


def test_examples_found():
    assert len(EXAMPLES) == 10


@pytest.mark.parametrize("argv,expected", EXAMPLES,
                         ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(EXAMPLES)])
def test_readme_example(argv, expected, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == expected
    assert captured.err == ""
