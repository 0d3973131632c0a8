"""SHA-256 digests of every output of the six shipped configs.

`tests/golden/shipped.json` maps each config to the digests of the files
its command writes through `beamctl.cli.main`.  A change that claims to
leave the numbers alone must keep them; a change that moves numbers on
purpose regenerates the file and lists, in CHANGES.md, each digest that
changed and by how much its numbers moved.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py [--against DIR]

from the repository root; it prints each `<config>/<file>` whose digest
differs from the file it replaces.  `--against DIR` compares with the
outputs of another tree instead, laid out as `DIR/<config>/<file>`: it
lists the files whose digests differ from those and prints, after each
CSV or report, the largest relative change of each column or entry that
moved (the largest absolute change over the column's largest magnitude in
DIR).  `--out DIR` writes the outputs there and only prints, leaving
`shipped.json` alone; run with another tree's sources, it makes such a
directory:

    git archive PARENT | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/test_golden.py --out /tmp/parent-out
    PYTHONPATH=src python tests/test_golden.py --against /tmp/parent-out
"""

import hashlib
import json
from pathlib import Path

import numpy as np

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


def output_digests(out: Path) -> dict[str, dict[str, str]]:
    """Digests of the outputs under `out`, laid out as `<config>/<file>`."""
    return {
        job.name: {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in job.iterdir()}
        for job in sorted(out.iterdir())
    }


def shipped_digests(out: Path) -> dict[str, dict[str, str]]:
    for cmd, name in JOBS:
        config = ROOT / "configs" / f"{name}.yaml"
        assert cli_main([cmd, "--config", str(config), "--out", str(out / name)]) == 0
    return output_digests(out)


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


def _numbers(path: Path) -> dict[str, np.ndarray]:
    """The numeric columns of an output CSV, or the numeric entries of a `key = value` report."""
    if path.suffix == ".csv":
        table = np.genfromtxt(path, delimiter=",", names=True)
        return {col: np.atleast_1d(table[col]) for col in table.dtype.names}
    numbers = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        try:
            numbers[key] = np.array([float(value)])
        except ValueError:
            pass
    return numbers


def number_changes(old_file: Path, new_file: Path) -> list[tuple[str, float]]:
    """(column or entry, largest relative change) for each one whose numbers moved."""
    old, new = _numbers(old_file), _numbers(new_file)
    changes = []
    for col in [*old, *(c for c in new if c not in old)]:
        a, b = old.get(col), new.get(col)
        if a is None or b is None or a.shape != b.shape:
            changes.append((col, float("inf")))
            continue
        moved = ~((a == b) | (np.isnan(a) & np.isnan(b)))
        if moved.any():
            diff = np.abs(b - a)[moved].max()
            scale = np.nanmax(np.abs(a))
            changes.append((col, float(diff / scale) if scale > 0 else float(diff)))
    return changes


def main(argv=None) -> None:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Regenerate tests/golden/shipped.json.")
    parser.add_argument("--out", type=Path, help="write the outputs here; keep shipped.json")
    parser.add_argument("--against", type=Path, help="outputs of another tree to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        digests = shipped_digests(out)
        if args.against is not None:
            old = output_digests(args.against)
        else:
            old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        for entry in changed_digests(old, digests):
            print(entry)
            pair = () if args.against is None else (args.against / entry, out / entry)
            if pair and entry.endswith((".csv", ".txt")) and all(f.exists() for f in pair):
                for col, rel in number_changes(*pair):
                    print(f"    {col}: {rel:.3g}")
    if args.out is None:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
