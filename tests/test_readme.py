"""README's library quickstart runs as printed, shortened to one epoch, and
its config table names every config key, so a change to the public API
breaks these tests rather than the docs."""

import dataclasses
import re
from pathlib import Path

from spikeff.cli import ExperimentConfig

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


def test_config_table_names_every_key():
    section = README.read_text().split("## Config file format", 1)[1]
    section = section.split("\n## ", 1)[0]
    keys = [key for line in section.splitlines() if line.startswith("| `")
            for key in re.findall(r"`(\w+)`", line.split("|")[1])]
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(keys) == sorted(fields)
