import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_first_python_example_runs(capsys):
    # the public-API example trains and prints the baseline's and the
    # re-weighted model's test metrics
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.count("mape=") == 2
