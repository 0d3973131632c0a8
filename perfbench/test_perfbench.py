"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
import vanloan  # noqa: E402
import workloads  # noqa: E402
from beamctl import cli  # noqa: E402
from beamctl.config import parse_config  # noqa: E402
from beamctl.semigroup import ModelParams  # noqa: E402
from beamctl.spectral import StateZ  # noqa: E402


def _spans(*rows):
    return [tracing.Span(i, name, parent, "job", start, end) for i, (name, parent, start, end) in enumerate(rows)]


def test_self_times_on_synthetic_tree():
    spans = _spans(
        ("cli.main", None, 0, 100),
        ("a", 0, 10, 40),
        ("b", 1, 20, 30),
        ("c", 0, 50, 90),
    )
    selfs = tracing.self_times(spans)
    assert selfs == {0: 30, 1: 20, 2: 10, 3: 40}
    assert tracing.inconsistent_roots(spans, selfs) == []


def test_overlapping_children_break_consistency():
    spans = _spans(
        ("cli.main", None, 0, 100),
        ("a", 0, 10, 60),
        ("b", 0, 50, 90),
    )
    selfs = tracing.self_times(spans)
    assert selfs[0] == 20  # the union [10, 90] is covered once
    assert tracing.inconsistent_roots(spans, selfs) == [0]


def _steer(tmp_path, traced=False):
    out = tmp_path / ("traced" if traced else "plain")
    argv = ["steer", "--config", str(ROOT / "configs" / "steer_linear.yaml"), "--out", str(out)]
    if traced:
        tr = tracing.Tracer()
        with tr.installed():
            assert cli.main(argv) == 0
        return out, tr
    assert cli.main(argv) == 0
    return out, None


def test_gate_passes_and_flags_perturbed_steer(tmp_path):
    out, _ = _steer(tmp_path)
    assert gate.check("steer", 0, out, "steer_linear") == []

    report = out / "steer_linear_report.txt"
    text = report.read_text()
    key = "terminal_error_relative = "
    lines = [key + "0.001" if line.startswith(key) else line for line in text.splitlines()]
    report.write_text("\n".join(lines) + "\n")
    assert any("relative error" in p for p in gate.check("steer", 0, out, "steer_linear"))
    report.write_text(text)

    control = out / "steer_linear_control.csv"
    lines = control.read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = "nan"
    lines[5] = ",".join(fields)
    control.write_text("\n".join(lines) + "\n")
    assert any("nan" in p for p in gate.check("steer", 0, out, "steer_linear"))
    assert gate.check("steer", 3, out, "steer_linear") == ["exit code 3"]


def test_gate_flags_growing_approx_error(tmp_path):
    (tmp_path / "a_approx.csv").write_text(
        "sigma,terminal_error,bound_estimate\n0.08,0.01,0.04\n0.04,0.02,0.03\n"
    )
    problems = gate.check("approx", 0, tmp_path, "a")
    assert any("grows" in p for p in problems)
    (tmp_path / "a_approx.csv").write_text("sigma,terminal_error,bound_estimate\n0.08,0.05,0.04\n")
    assert any("not under bound" in p for p in gate.check("approx", 0, tmp_path, "a"))


def test_gate_exact_first_ratio_must_be_nan(tmp_path):
    (tmp_path / "e_report.txt").write_text("command = exact\nterminal_error = 1e-12\ncontraction_lhs = 0.7\n")
    good = "iter,sup_diff,ratio\n1,42.0,nan\n2,0.04,0.001\n"
    (tmp_path / "e_iterations.csv").write_text(good)
    assert gate.check("exact", 0, tmp_path, "e") == []
    (tmp_path / "e_iterations.csv").write_text(good.replace("0.04,0.001", "0.04,0.9"))
    assert any("ratio" in p for p in gate.check("exact", 0, tmp_path, "e"))
    (tmp_path / "e_iterations.csv").write_text(good.replace("0.04,0.001", "0.04,nan"))
    assert gate.check("exact", 0, tmp_path, "e")


def test_seed0_configs_equal_shipped():
    generated = workloads.generate("shipped", 0).configs
    shipped = {p.stem: p.read_text() for p in (ROOT / "configs").glob("*.yaml")}
    assert generated == shipped


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_are_replayable_and_valid(name, tmp_path):
    a, b = workloads.generate(name, 3), workloads.generate(name, 3)
    assert a == b
    assert a.configs != workloads.generate(name, 4).configs
    for config, text in a.configs.items():
        path = tmp_path / f"{config}.yaml"
        path.write_text(text)
        parse_config(path)
    assert {j.config for j in a.jobs} == set(a.configs)


def test_vanloan_matches_semigroup_under_zero_control():
    p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=8, T=1.0, r=0.25)
    rng = np.random.default_rng(7)
    z0 = StateZ(rng.uniform(-0.2, 0.2, 8), rng.uniform(-0.9, 0.9, 8))
    assert vanloan.zero_control_tolerance(p, 0.0, 1.0) == 1e-12
    assert vanloan.zero_control_error(p, z0, 0.0, 1.0, 2000) <= 1e-12


def test_tracing_leaves_outputs_and_modules_unchanged(tmp_path):
    import beamctl.synthesis

    before = beamctl.synthesis.integrate_mild
    plain, _ = _steer(tmp_path)
    traced, tr = _steer(tmp_path, traced=True)
    assert beamctl.synthesis.integrate_mild is before
    assert gate.digest(plain) == gate.digest(traced)
    m = tracing.layer_metrics(tr)
    assert m["control.build_gramian_set.calls"] == 1
    assert m["dynamics.integrate_mild.calls"] == 0
    assert m["control.simpson_nodes"] > 0
    assert tracing.inconsistent_roots(tr.spans, tracing.self_times(tr.spans)) == []
