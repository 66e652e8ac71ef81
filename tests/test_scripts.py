"""Every experiment script under scripts/ runs to completion in-process."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_exits_zero(tmp_path, monkeypatch, capsys, script):
    # a script that writes files takes its output directory as the first argument
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path / "out")])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(script), run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out
