"""Same outputs: every shipped config's written files against one committed record.

``outputs.json`` holds, for each ``configs/*.json``, the SHA-256 of each
file its run writes other than ``manifest.json`` (which carries a timing),
and a fingerprint of its ``results.csv``: the row count, the blank cells of
each column, and each column's sum (``math.fsum``, exact to the last bit)
and largest magnitude, stored as doubles that read back to the same bits.

The bytes depend on numpy's version, its BLAS and the CPU kernels it picks.
On the platform the record was made on (numpy's version, its BLAS, the SIMD
extensions numpy found, the machine and its libc) the digests and the
fingerprints must match exactly, so no change of any written byte passes
there. Elsewhere only the fingerprint applies: the row and blank counts
exactly, each column sum to within 1e-12 * max(rows, |sum|), and each
largest magnitude to within 1e-12 * max(1, |value|).

A change that moves outputs on purpose rewrites the record, and says which
files moved and why:

    PYTHONPATH=src python tests/test_outputs.py
"""

import hashlib
import json
import math
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nmcollide.cli import main

RECORD = Path(__file__).resolve().parent / "outputs.json"
CONFIGS = sorted((RECORD.parent.parent / "configs").glob("*.json"))
RTOL = 1e-12


def _platform() -> dict:
    """What the written bytes depend on besides the code: numpy, its BLAS, the CPU and libc."""
    build = np.show_config(mode="dicts")
    blas = build.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "simd": build.get("SIMD Extensions", {}).get("found"),
            "machine": platform.machine(), "libc": " ".join(platform.libc_ver())}


def _fingerprint(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    columns = list(zip(*(line.split(",") for line in lines)))
    values = [[float(cell) for cell in column if cell] for column in columns]
    return {"rows": len(lines), "blank": [column.count("") for column in columns],
            "sum": [math.fsum(v) for v in values],
            "max_abs": [max(map(abs, v), default=0.0) for v in values]}


def _run(config: Path, out: Path) -> dict:
    """The digests and the results.csv fingerprint of one shipped config's run into out."""
    mode = json.loads(config.read_text(encoding="utf-8")).get("mode", "sweep")
    subcommand = mode if mode in ("sweep", "certify") else "run"
    assert main([subcommand, str(config), "--output-dir", str(out)]) == 0
    written = sorted(p for p in out.iterdir() if p.name != "manifest.json")
    return {"files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written},
            "results.csv": _fingerprint(out / "results.csv")}


def _record() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_the_record_covers_every_shipped_config():
    assert sorted(_record()["configs"]) == [p.stem for p in CONFIGS]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_outputs_match_the_record(tmp_path, config):
    record = _record()
    seen, recorded = _run(config, tmp_path), record["configs"][config.stem]
    if record["platform"] == _platform():
        assert seen == recorded
        return
    assert sorted(seen["files"]) == sorted(recorded["files"])
    got, want = seen["results.csv"], recorded["results.csv"]
    assert (got["rows"], got["blank"]) == (want["rows"], want["blank"])
    for a, b in zip(got["sum"], want["sum"]):
        assert abs(a - b) <= RTOL * max(want["rows"], abs(b))
    for a, b in zip(got["max_abs"], want["max_abs"]):
        assert abs(a - b) <= RTOL * max(1.0, abs(b))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = {p.stem: _run(p, Path(tmp) / p.stem) for p in CONFIGS}
    RECORD.write_text(json.dumps({"platform": _platform(), "configs": runs}, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {RECORD} for {len(runs)} configs")
