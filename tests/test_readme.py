"""README's library example runs and its CLI block matches the parser, so a
public name or a flag cannot vanish unnoticed."""
import re
from pathlib import Path

from tavat import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]


def test_library_entry_points_block_runs():
    block = re.search(r"```python\n(.*?)```", section("## Library entry points"),
                      re.DOTALL).group(1)
    exec(compile(block, f"{README}:library-entry-points", "exec"), {})


def cli_block_flags() -> list[tuple[str, str, str | None]]:
    """(subcommand, flag, the word after it) for every flag in the CLI block."""
    block = re.search(r"```\n(.*?)```", section("## CLI"), re.DOTALL).group(1)
    shown = []
    # an indented line continues the command above it
    for line in re.sub(r"\n\s+", " ", block).splitlines():
        command = line.split()[1]
        for flag, word in re.findall(r"(--[\w-]+)(?: ([^\s\[\]-][^\s\[\]]*))?", line):
            shown.append((command, flag, word or None))
    return shown


def test_cli_block_flags_are_accepted_with_their_choices():
    _, commands = cli._build_parser()
    shown = cli_block_flags()
    assert {command for command, _, _ in shown} == set(commands)
    for command, flag, word in shown:
        actions = commands[command]._option_string_actions
        assert flag in actions, f"README shows tavat {command} {flag}; its parser has no such flag"
        if word and "|" in word:
            assert word.split("|") == list(actions[flag].choices), (command, flag)
    assert ("train", "--mode", "|".join(cli.MODES)) in shown
