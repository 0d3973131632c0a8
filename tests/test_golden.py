"""SHA-256 digests of every output of the six shipped configs.

`tests/golden/shipped.json` maps each config to the digests of the files
its command writes through `beamctl.cli.main`.  A change that claims to
leave the numbers alone must keep them; a change that moves numbers on
purpose regenerates the file and lists, in CHANGES.md, each digest that
changed and by how much its numbers moved.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py

from the repository root; it prints each `<config>/<file>` whose digest
differs from the file it replaces.
"""

import hashlib
import json
from pathlib import Path

from beamctl.cli import main as cli_main

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden" / "shipped.json"
JOBS = (
    ("check", "check_zero"),
    ("gramian", "gramian_n8"),
    ("steer", "steer_linear"),
    ("simulate", "simulate_demo"),
    ("approx", "approx_bounded"),
    ("exact", "exact_benchmark"),
)


def shipped_digests(out: Path) -> dict[str, dict[str, str]]:
    digests = {}
    for cmd, name in JOBS:
        job_out = out / name
        config = ROOT / "configs" / f"{name}.yaml"
        assert cli_main([cmd, "--config", str(config), "--out", str(job_out)]) == 0
        digests[name] = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(job_out.iterdir())
        }
    return digests


def test_shipped_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = shipped_digests(tmp_path)
    assert sorted(got) == sorted(golden)
    for name in golden:
        assert got[name] == golden[name], f"{name}: outputs differ from {GOLDEN.name}"


def changed_digests(old: dict, new: dict) -> list[str]:
    """`<config>/<file>` for each digest that differs, appears or disappears."""
    return [
        f"{name}/{fname}"
        for name in sorted(set(old) | set(new))
        for fname in sorted(set(old.get(name, {})) | set(new.get(name, {})))
        if old.get(name, {}).get(fname) != new.get(name, {}).get(fname)
    ]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = shipped_digests(Path(tmp))
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for entry in changed_digests(old, digests):
        print(entry)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
