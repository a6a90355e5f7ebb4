"""Every CLI line and every commented library result in the README, run as
written."""

import re
import shlex
from pathlib import Path

import pytest

from flagcohom import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
COMMANDS = [line.split(maxsplit=1)[1] for line in README.splitlines() if line.startswith("flagcohom ")]
# a JSON block whose fence names a file: ```json tower.json
CONFIGS = dict(re.findall(r"```json (\S+)\n(.*?)```", README, re.S))


def test_readme_names_its_commands_and_configs():
    assert len(COMMANDS) == 9
    assert sorted(CONFIGS) == ["bundle.json", "pushout.json", "tower.json"]
    assert {c for line in COMMANDS for c in re.findall(r"\S+\.json", line)} == set(CONFIGS)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_cli_line_exits_0(command, tmp_path, monkeypatch, capsys):
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(command)) == 0, capsys.readouterr().err


def test_readme_library_results():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    source, expected = [], []
    for line in block.splitlines():
        code, sep, comment = line.partition("  # ")
        if sep:
            source.append(f"_results.append(str({code.strip()}))")
            expected.append(comment.strip())
        else:
            source.append(line)
    namespace = {"_results": []}
    exec("\n".join(source), namespace)
    assert expected == ["[1, 0, 1, 0, 2, 0, 1, 0, 1]", "['c1^2', 'c2']", "2*c1*c2",
                        "(1-t^4)(1-t^6)/(1-t^2)(1-t^2)", "['c1^4', '-c1*g + g^2']",
                        "1, 0, 2, 0, 2, 0, 2, 0, 1, 0, 0"]
    assert namespace["_results"] == expected
