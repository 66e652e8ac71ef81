"""Every experiment script under scripts/, and every python block of the README, runs to
completion in-process."""

import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
README = ROOT / "README.md"


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_exits_zero(tmp_path, monkeypatch, capsys, script):
    # a script that writes files takes its output directory as the first argument
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path / "out")])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(script), run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
