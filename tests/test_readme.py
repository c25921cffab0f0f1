"""README's library quickstart runs as printed, shortened to one epoch, so a
change to the public API breaks this test rather than the docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_source() -> str:
    text = README.read_text()
    section = text.split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library quickstart'"
    source, count = re.subn(r"epochs=\d+", "epochs=1", match.group(1))
    assert count == 1, "expected one epochs= argument in the quickstart"
    return source


def test_library_quickstart_runs(capsys):
    exec(compile(quickstart_source(), str(README), "exec"), {})
    accuracy = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= accuracy <= 1.0
