"""The README's library example and CLI usage lines run as written, so a
renamed function or a stale flag there fails here."""

import pathlib
import re
import shlex

import pytest

from bb84eve import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)
USAGE = [
    line
    for line in re.search(r"## CLI\n.*?```sh\n(.*?)```", README, re.S)[1].splitlines()
    if line.startswith("bb84eve ")
]


def test_readme_library_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(example, {})
    assert "ThresholdResult(curve='minconc'" in capsys.readouterr().out


@pytest.mark.parametrize("line", USAGE)
def test_readme_usage_line_exits_0(tmp_path, line):
    # as written, but with its --out file in tmp_path
    words = shlex.split(line)
    argv = [str(tmp_path / w) if flag == "--out" else w for flag, w in zip(words, words[1:])]
    assert cli.main(argv) == 0
    assert len(list(tmp_path.iterdir())) == argv.count("--out")
