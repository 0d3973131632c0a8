"""The names the benchmark tracer in `perfbench/` looks up on the package.

The tracer wraps functions and counts methods by (module, name) at run
time, so a rename or removal here would break `perfbench/run.py --trace 1`
without failing any other test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from beamctl import control, dynamics, reporting, synthesis
from beamctl.config import parse_config
from beamctl.semigroup import ModelParams

ROOT = Path(__file__).parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, name", [(m, f) for m, f, _ in tracer.TRACED])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"beamctl.{module}"), name))


@pytest.mark.parametrize("module, cls, method", tracer.COUNTED)
def test_counted_method_resolves(module, cls, method):
    assert callable(getattr(getattr(importlib.import_module(f"beamctl.{module}"), cls), method))


@pytest.mark.parametrize("writer", [reporting.write_csv, reporting.write_report])
def test_file_writers_take_the_path_first(writer):
    # `tracer._file_attrs` sizes the file named by argument 0, or `path`.
    first = next(iter(inspect.signature(writer).parameters.values()))
    assert first.name == "path"
    assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_simpson_node_count_reads_the_default_step():
    p = ModelParams(c=1.0, d=1.0, k=1.0, n_modes=8, T=1.0, r=0.25)
    assert control.default_gramian_step(8, 0.0, 1.0, p) > 0.0
    # The tracer calls it with the arguments of `mode_gramian(n, t0, t1, p)`.
    assert tracer.simpson_nodes(8, 0.0, 1.0, p) > tracer.simpson_nodes(1, 0.0, 1.0, p) > 0


def test_pullback_tail_is_read_from_the_switch_mark():
    # `tracer._pullback_attrs` takes the switch node to be the last marked
    # node of the switched control and counts the tail from it to T.
    cfg = parse_config(ROOT / "configs" / "approx_bounded.yaml")
    spec = cfg.problem
    traj = dynamics.integrate_mild(spec).trajectory
    args = (traj, 0.04, cfg.zstar, spec)
    u_s = synthesis.pullback_control(*args)
    assert tracer._pullback_attrs(tracer.Tracer(), args, {}, u_s) == {"tail_steps": 80}
    assert list(u_s.left_values) == [spec.n_steps - 80]


def test_exact_integrations_go_through_the_traced_name(monkeypatch):
    # The tracer wraps `synthesis.integrate_mild`; the warm starts of the
    # exact driver must reach it there, or the trace loses their calls,
    # sweeps and steps and books their source evaluations to the driver.
    cfg = parse_config(ROOT / "configs" / "exact_benchmark.yaml")
    calls = []
    real = synthesis.integrate_mild

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((kwargs.get("warm") is not None, result.picard_iterations))
        return result

    monkeypatch.setattr(synthesis, "integrate_mild", counted)
    out = synthesis.exact_fixed_point(cfg.problem, cfg.zstar, cfg.tol, cfg.max_iter)
    # The first iterate is the linear steering control, and the chord steps
    # of the history iteration need 2 sweeps or fewer for each integration.
    assert len(out.iterations) == 5
    assert [warm for warm, _ in calls] == [False] + [True] * 5
    # The inner solves are only as tight as the outer change needs: 10
    # history sweeps where solving each to `picard_tol` takes 15.
    assert sum(sweeps for _, sweeps in calls) == 10
