"""beamctl benchmark: seeded workloads, per-command wall time, layer trace.

    python3 perfbench/run.py --workload shipped --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --scaling          # opt-in n_modes / n_steps series
    python3 -m pytest -q perfbench              # the benchmark's self-tests

A run is one fresh Python process and a closed loop with one client: jobs
go back to back through ``beamctl.cli.main``, in process, each writing to
its own temporary directory, with BLAS pinned to one thread.  The workload
(see ``workloads.py``) is generated from ``--seed``; beamctl only receives
the generated YAML files, which are saved beside the results so any job can
be rerun with the plain CLI.

One pass runs every job of the workload once (timed as ``wall_s``) and then
repeats the sub-0.1 s jobs so their per-command medians are steady.  Passes
repeat until ``--seconds`` is used up, to the nearest whole pass.  Every job
goes through the correctness gate (``gate.py``) and gets a SHA-256 of its
outputs; all executions of a job must produce the same digest.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes (``tracer.py``) and
prints the per-layer metrics of the traced passes, the tracing overhead and
``steer_miss_rel``; the traced digests must equal the untraced ones.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The full record (environment, seed, git state, digests, per-job
and per-command timings, spans) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS thread keeps the load within
# the two cores the benchmark is sized for, and makes timings repeatable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_SETUP_SNIPPET = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import beamctl
from beamctl.config import parse_config
for path in sys.argv[2:]:
    parse_config(path)
print(time.perf_counter() - t)
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def load_beamctl():
    """Import beamctl from this checkout's src/, never from site-packages."""
    package = SRC / "beamctl"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no beamctl sources at {package}")
    sys.path.insert(0, str(SRC))
    import beamctl
    import beamctl.cli

    if Path(beamctl.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported beamctl from {beamctl.__file__}, not from {package}")
    return beamctl.cli


def measure_setup(config_paths: list[Path]) -> list[float]:
    """Import beamctl and parse every config, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), *map(str, config_paths)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip().splitlines()[-1:]}")
        samples.append(float(proc.stdout.strip()))
    return samples


def summarize(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(samples)
    out = {"n": n, "median": statistics.median(samples), "tail": None}
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            out["tail"] = {"p": p, "value": float(np.percentile(samples, p))}
            break
    return out


def environment() -> dict:
    import numpy as np

    info = {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        cfg = None
    if cfg:
        deps = cfg.get("Build Dependencies", {})
        info["blas"] = deps.get("blas")
        info["lapack"] = deps.get("lapack")
        info["cpu_features"] = cfg.get("SIMD Extensions")
    return info


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=60
        )

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    if head.returncode != 0 or status.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


class Bench:
    """One workload run: the jobs, their outputs, and every measurement."""

    def __init__(self, cli, workload, config_dir: Path, tmp: Path):
        from beamctl.config import parse_config

        self.cli = cli
        self.workload = workload
        self.tmp = tmp
        self.paths = {name: config_dir / f"{name}.yaml" for name in workload.configs}
        self.prefix = {name: parse_config(path).prefix for name, path in self.paths.items()}
        self.digests: dict[str, set[str]] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.steer_miss: dict[str, float] = {}
        self.vanloan_self_check: dict[str, float] = {}
        self._runs = 0

    def _execute(self, job, tracer=None) -> tuple[float, int | None, Path]:
        self._runs += 1
        out = self.tmp / f"job{self._runs}"
        argv = [job.command, "--config", str(self.paths[job.config]), "--out", str(out)]
        if tracer is not None:
            tracer.job = f"{self._runs}:{job.name}"
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            self.problems.append(f"{job.name}: {traceback.format_exc()}")
            code = None
        return time.perf_counter() - start, code, out

    def _judge(self, job, code, out: Path) -> None:
        import gate

        self.attempted += 1
        problems = gate.check(job.command, code, out, self.prefix[job.config]) if out.exists() else [
            f"exit code {code}, no outputs"
        ]
        if not problems:
            seen = self.digests.setdefault(job.name, set())
            seen.add(gate.digest(out))
            if len(seen) > 1:
                problems = ["outputs differ from an earlier execution of the same job"]
            elif job.command == "steer" and job.name not in self.steer_miss:
                self._steer_miss(job, out)
        if problems:
            self.failed += 1
            self.problems.extend(f"{job.name}: {p}" for p in problems)
        shutil.rmtree(out, ignore_errors=True)

    def _steer_miss(self, job, out: Path) -> None:
        import vanloan
        import yaml
        from beamctl.config import parse_config

        prefix = self.prefix[job.config]
        resolved = yaml.safe_load((out / f"{prefix}_resolved_config.yaml").read_text())
        self.steer_miss[job.name] = vanloan.steer_miss_rel(out / f"{prefix}_control.csv", resolved)
        cfg = parse_config(self.paths[job.config])
        p = cfg.params
        z0 = cfg.z0 if cfg.z0 is not None else cfg.zstar
        err = vanloan.zero_control_error(p, z0, cfg.t0, p.T, int(round((p.T - cfg.t0) / cfg.problem.h)))
        self.vanloan_self_check[job.name] = err
        tol = vanloan.zero_control_tolerance(p, cfg.t0, p.T)
        if not err <= tol:
            self.problems.append(f"{job.name}: Van Loan reference misses apply_semigroup by {err:.3e} > {tol:.1e}")

    def run_pass(self, tracer=None) -> dict:
        """Every job once (wall_s); untraced passes then repeat the short jobs."""
        jobs = self.workload.jobs
        rounds = 1 if tracer is not None else max(j.reps for j in jobs)
        times: list[dict[str, float]] = []
        wall = 0.0
        for r in range(rounds):
            todo = [j for j in jobs if r < j.reps]
            results = []
            start = time.perf_counter()
            for job in todo:
                results.append((job, *self._execute(job, tracer)))
            if r == 0:
                wall = time.perf_counter() - start
            for job, _, code, out in results:
                self._judge(job, code, out)
            times.append({job.name: dt for job, dt, _, _ in results})
        return {"traced": tracer is not None, "wall_s": wall, "job_s": times}


def command_samples(passes: list[dict], jobs) -> dict[str, list[float]]:
    """Per-command wall time: the summed time of its jobs, per round that ran them all."""
    out: dict[str, list[float]] = {}
    for cmd in dict.fromkeys(j.command for j in jobs):
        names = [j.name for j in jobs if j.command == cmd]
        for p in passes:
            for rnd in p["job_s"]:
                if all(n in rnd for n in names):
                    out.setdefault(cmd, []).append(sum(rnd[n] for n in names))
    return out


def run_workload(args) -> tuple[dict, dict]:
    import workloads

    workload = workloads.generate(args.workload, args.seed)
    cli = load_beamctl()

    out_dir = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    config_dir = out_dir / "configs"
    config_dir.mkdir(parents=True)
    for name, text in workload.configs.items():
        (config_dir / f"{name}.yaml").write_text(text)
    tmp = out_dir / "tmp"
    tmp.mkdir()

    setup = measure_setup([config_dir / f"{n}.yaml" for n in workload.configs])
    bench = Bench(cli, workload, config_dir, tmp)

    import tracer as tracing

    passes: list[dict] = []
    traced_layers: list[dict] = []
    spans: list[dict] = []
    consistency_failures = 0
    by_command = None
    start = time.perf_counter()
    durations = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            t0 = time.perf_counter()
            if traced:
                tr = tracing.Tracer()
                with tr.installed():
                    passes.append(bench.run_pass(tr))
                traced_layers.append(tracing.layer_metrics(tr))
                bad = tracing.inconsistent_roots(tr.spans, tracing.self_times(tr.spans))
                consistency_failures += len(bad)
                by_command = by_command or tracing.by_command(tr)
                spans.extend(s.as_dict() | {"pass": len(passes) - 1} for s in tr.spans)
            else:
                passes.append(bench.run_pass())
            durations.append(time.perf_counter() - t0)
            if len(passes) == 1:
                # Peak of set-up plus one pass: later passes only add
                # allocator churn, and their number varies from run to run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            complete = not args.trace or len(passes) >= 2
            if complete and elapsed + 0.5 * statistics.median(durations) >= args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    wall = summarize([p["wall_s"] for p in untraced])
    commands = {c: summarize(s) for c, s in command_samples(untraced, workload.jobs).items()}
    if consistency_failures:
        bench.problems.append(f"{consistency_failures} command spans whose self times do not sum to their duration")

    end_to_end = {
        "wall_s": wall["median"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "git": git_state(),
        "jobs": [{"name": j.name, "command": j.command, "config": f"configs/{j.config}.yaml", "reps": j.reps}
                 for j in workload.jobs],
        "digests": {name: sorted(d) for name, d in bench.digests.items()},
        "setup_s_samples": setup,
        "wall_s": wall,
        "commands_s": commands,
        "passes": passes,
        "end_to_end": end_to_end,
        "failed_ratio": bench.failed / max(bench.attempted, 1),
        "steer_miss_rel": bench.steer_miss,
        "vanloan_zero_control_rel_error": bench.vanloan_self_check,
        "problems": bench.problems,
    }
    if args.trace:
        per_layer = {k: statistics.median(m[k] for m in traced_layers) for k in traced_layers[0]}
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        per_layer["trace.overhead_s"] = traced_wall - wall["median"]
        per_layer["steer_miss_rel"] = max(bench.steer_miss.values(), default=0.0)
        record["per_layer"] = per_layer
        record["by_command"] = by_command
        record["span_consistency_failures"] = consistency_failures
        (out_dir / "spans.json").write_text(json.dumps(spans))
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    summary = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
    }
    return record, summary


LAYER_UNITS = {".calls": "count", ".bytes": "bytes", "_us": "us", "_ratio": "ratio", "_rel": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true", help="run the n_modes / n_steps scaling series")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        if args.scaling:
            import scaling

            load_beamctl()
            series = scaling.run()
            RESULTS.mkdir(exist_ok=True)
            (RESULTS / "scaling.json").write_text(json.dumps(series, indent=1) + "\n")
            print(json.dumps(series))
            return 0
        if not args.workload:
            raise BenchError("--workload is required")
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload '{args.workload}' (known: {', '.join(workloads.WORKLOADS)})")
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
        record, summary = run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in record["per_layer"].items()}
        if record["by_command"]:
            for cmd, counts in record["by_command"].items():
                print(f"# {cmd}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in record["end_to_end"].items()}
        for cmd, s in record["commands_s"].items():
            tail = f", p{s['tail']['p']:g} {s['tail']['value']:.4f} s" if s["tail"] else ""
            print(f"# {cmd}_s: median {s['median']:.4f} s over {s['n']} samples{tail}")
        print(f"# failed_ratio: {record['failed_ratio']}")
        for job, miss in record["steer_miss_rel"].items():
            print(f"# steer_miss_rel[{job}]: {miss:.6e}")
    for problem in record["problems"]:
        print(f"# problem: {problem.strip()}")
    for name, m in metrics.items():
        print(f"# {name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
