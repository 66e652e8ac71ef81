"""The CLI's error contract under hostile input.

Whatever the config holds, a run ends with an exit code in {0, 2, 3, 4},
and stderr is empty on success, else exactly one JSON error line carrying
that code: never a traceback. Two sources of input: arbitrary JSON
documents, and each shipped config with one field (nested ones included)
replaced by a value from a fixed hostile set, or deleted. Counts past the
point budget are refused before anything is allocated, so values like
1e12 cost nothing; every drawn case runs in well under a second.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from nmcollide.cli import MODES, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HOSTILE = (None, True, "x", [], {}, -1, 0, 1e12, 1e300)
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


def _run(subcommand: str, document) -> tuple:
    """Exit code and stderr lines of one CLI run on a config file holding document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([subcommand, str(path), "--output-dir", str(Path(tmp) / "out")])
    return code, err.getvalue().splitlines()


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
