import re
import shlex
from pathlib import Path

from viloss import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_first_python_example_runs(capsys):
    # the public-API example trains and prints the baseline's and the
    # re-weighted model's test metrics
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.count("mape=") == 2


def test_command_line_examples_parse(tmp_path, monkeypatch):
    # every `viloss ...` command of the "Command line" block, continuations
    # joined, parses against the CLI as it is; the @file examples read the
    # manifest of the README's train run and the README's own run.args,
    # written to the working directory
    text = README.read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    args_file = re.search(r"```text\n(# run\.args.*?)```", text, re.S).group(1)
    (tmp_path / "run.args").write_text(args_file)
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    assert [words[0] for words in commands] == ["viloss"] * 8
    parser = cli.build_parser()
    train = parser.parse_args(commands[3][1:])
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "manifest.txt").write_text(train.parser.format_manifest(train))
    parsed = [parser.parse_args(words[1:]) for words in commands]
    assert "@run/manifest.txt" in commands[5] and "@run.args" in commands[6]
    assert vars(parsed[5]) == {**vars(train), "out_dir": "run2/"}
    assert vars(parsed[6]) == {**vars(train), "out_dir": "run3/"}
