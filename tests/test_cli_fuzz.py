"""The CLI's error contract under hostile input.

Whatever the config holds, a run ends with an exit code in {0, 2, 3, 4},
and stderr is empty on success, else exactly one JSON error line carrying
that code: never a traceback. Three sources of input: arbitrary bytes,
arbitrary JSON documents, and each shipped config with one field (nested
ones included) replaced by a value from a fixed hostile set, or deleted.
A config path that is a directory and an output directory that cannot be
created exit 2 with a message naming the path. Counts past the
point budget are refused before anything is allocated, so values like
1e12 cost nothing; every drawn case runs in well under a second.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from nmcollide.cli import MODES, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# 10**400 is an integer past the largest double, 5e-324 the smallest subnormal: a tau_max there
# gives a grid spacing that rounds to 0
HOSTILE = (None, True, "x", [], {}, -1, 0, 1e12, 1e300, 10**400, 5e-324)
DELETE = object()


def _field_paths(obj: dict, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


def _mutated(config: dict, path: tuple, value) -> dict:
    out = json.loads(json.dumps(config))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


SHIPPED = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(CONFIGS.glob("*.json"))}
MUTATIONS = [(name, path) for name, config in SHIPPED.items() for path in _field_paths(config)]
FIELDS = sorted({path[-1] for _, path in MUTATIONS} | {"mode"})

# Arbitrary JSON whose object keys are often real field names; integers stay
# small, so that a document that does get past the checks runs small.
_leaves = (st.none() | st.booleans() | st.integers(-3, 64) | st.floats() | st.text(max_size=4)
           | st.sampled_from(MODES + ("sweep",)))
_documents = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), inner, max_size=6),
    max_leaves=12,
)


def _main(argv: list) -> tuple:
    """Exit code and stderr lines of one CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _run_bytes(subcommand: str, data: bytes) -> tuple:
    """Exit code and stderr lines of one CLI run on a config file holding these bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(data)
        return _main([subcommand, str(path), "--output-dir", str(Path(tmp) / "out")])


def _run(subcommand: str, document) -> tuple:
    """Exit code and stderr lines of one CLI run on a config file holding document."""
    return _run_bytes(subcommand, json.dumps(document).encode("utf-8"))


def _assert_contract(code, lines):
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == code


def test_every_shipped_config_is_mutated():
    assert len(SHIPPED) >= 7
    assert {"mode", "collision", "output_path"} <= set(FIELDS)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MUTATIONS), st.sampled_from(HOSTILE + (DELETE,)))
def test_single_field_mutation_of_a_shipped_config(mutation, value):
    name, path = mutation
    subcommand = "sweep" if name == "sweep" else "run"
    _assert_contract(*_run(subcommand, _mutated(SHIPPED[name], path, value)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("run", "sweep", "certify")), _documents)
def test_arbitrary_json(subcommand, document):
    _assert_contract(*_run(subcommand, document))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("run", "sweep", "certify")), st.binary(max_size=64))
def test_arbitrary_bytes(subcommand, data):
    _assert_contract(*_run_bytes(subcommand, data))


def _assert_refused_naming(result, path):
    code, lines = result
    _assert_contract(code, lines)
    assert code == 2
    assert repr(str(path)) in json.loads(lines[0])["error"]["message"]


def test_config_that_is_not_utf8(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'\xff\xfe{"mode": 1}')
    _assert_refused_naming(_main(["run", str(path), "--output-dir", str(tmp_path / "out")]), path)


def test_directory_as_config(tmp_path):
    _assert_refused_naming(_main(["run", str(tmp_path), "--output-dir", str(tmp_path / "out")]),
                           tmp_path)


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
@pytest.mark.parametrize("via", ["option", "config"])
def test_output_directory_that_cannot_be_created(tmp_path, below, via):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker / "out" if below else blocker
    config = dict(SHIPPED["jc_closed_form"], output_path=str(out))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["run", str(path)] + (["--output-dir", str(out)] if via == "option" else [])
    _assert_refused_naming(_main(argv), out)
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"
