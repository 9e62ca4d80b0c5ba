"""Benchmark of localchrom: one workload per run, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the repository root.  The program is imported from ``src/`` as one
caller in a closed loop, single process and single thread.  With ``--trace 0``
passes repeat until the next one would end after ``--seconds`` (at least
one), and the end-to-end metrics of BENCHMARK.json are reported; their times
are calibrated to the host's speed (see speed.py).  With
``--trace 1`` one untraced and one traced pass run, and the per-layer metrics
are reported.  The last line of standard output is the JSON result; the lines
before it start with ``#``.  Outputs go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from checks import Ops, self_test
from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups per untraced run: setup_s is their median.  Some run after the
# passes, so that the samples span the run and not one moment of it.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2


def _import_program():
    """A fresh import of the package, so each set-up pays for it."""
    for key in [k for k in sys.modules if k == "localchrom" or k.startswith("localchrom.")]:
        del sys.modules[key]
    lc = importlib.import_module("localchrom")
    importlib.import_module("localchrom.report")
    return lc


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "LOCALCHROM_THREADS": os.environ.get("LOCALCHROM_THREADS"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def _untraced(workload, ctx, ops, seconds: float) -> tuple[dict, dict]:
    passes, walls = [], []
    start = perf_counter()
    while True:
        with SpeedProbe() as probe:
            workload.run(ctx, ops)
        passes.append(probe.calibrated)
        walls.append(probe.wall)
        if perf_counter() - start + median(walls) > seconds:
            break
    return {"run_s": median(passes)}, {"run_s": passes, "run_wall_s": walls}


def _traced(workload, ctx, ops, out_dir: Path, tag: str) -> tuple[dict, dict]:
    with SpeedProbe() as untraced:
        workload.run(ctx, ops)
    tracer = Tracer()
    tracer.install()
    try:
        # The probe's samples fall inside spans: each span's times include
        # about 1.5% of probe work, in proportion to its length.
        with SpeedProbe() as traced:
            origin = perf_counter()
            info = workload.run(ctx, ops, tracer)
    finally:
        tracer.uninstall()
    traced_s = traced.wall
    if workload.counts is not None:
        info.update(workload.counts(ctx, ops, info))
    summary = tracer.summary(traced_s)
    tracer.write(out_dir / f"spans-{tag}.csv.gz", origin)
    values = _layer_values(summary, info)
    values["trace_overhead_ratio"] = traced.calibrated / untraced.calibrated
    values["layer_coverage"] = summary["coverage"]
    detail = {"untraced_s": untraced.calibrated, "untraced_wall_s": untraced.wall,
              "traced_s": traced.calibrated, "traced_wall_s": traced_s, "info": info, "trace": summary}
    return values, detail


def _layer_values(summary: dict, info: dict) -> dict:
    fns = summary["functions"]
    values = {}
    for name, f in fns.items():
        for key in ("calls", "busy_s", "self_s"):
            values[f"{name}.{key}"] = f[key]
    nb = fns["structure.neighbourhood_is_bipartite"]
    values["structure.neighbourhood_is_bipartite.reject_ratio"] = (
        nb["false_returns"] / nb["calls"] if nb["calls"] else 0
    )
    values["homomorphism.subgraph_embeddings.yields"] = fns["homomorphism.subgraph_embeddings"]["yields"]
    values["colouring.k_colourable.raised"] = fns["colouring.k_colourable"]["raised"]
    values["simplex.solve_lp.tableau_cells"] = summary["tableau_cells"]
    weighting_s = fns["weighting.optimal_weighting"]["busy_s"]
    values["weighting.lp_share"] = (
        fns["simplex.solve_lp"]["busy_s"] / weighting_s if weighting_s else 0
    )
    values.update(info)
    return values


def _select(declared: list[dict], values: dict) -> dict:
    """Exactly the declared metrics; a metric a workload does not reach is 0."""
    known = {m["name"] for m in declared}
    unknown = sorted(set(values) - known)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    missed = self_test()
    if missed:
        print(f"self-test: corrupted answers not counted as failed: {missed}", file=sys.stderr)
        return 3
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = _environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup_samples, setup_walls = [], []

    def setup():
        with SpeedProbe() as probe:
            lc = _import_program()
            with open(HERE / "golden.json") as fh:
                golden = json.load(fh)
            ctx = workload.setup(lc, args.seed, golden, out_dir)
        setup_samples.append(probe.calibrated)
        setup_walls.append(probe.wall)
        return ctx

    ops = Ops()
    if args.trace:
        values, detail = _traced(workload, setup(), ops, out_dir, tag)
        values["failed_ratio"] = ops.failed / ops.attempted
        metrics = _select(spec["per_layer"], values)
    else:
        for _ in range(SETUPS_BEFORE):
            ctx = setup()
        values, detail = _untraced(workload, ctx, ops, args.seconds)
        for _ in range(SETUPS_AFTER):
            setup()
        values["setup_s"] = median(setup_samples)
        values["peak_rss_mb"] = _peak_rss_mb()
        metrics = _select(spec["end_to_end"], values)
    env["LOCALCHROM_THREADS_in_run"] = os.environ.get("LOCALCHROM_THREADS")
    detail["setup_s"] = setup_samples
    detail["setup_wall_s"] = setup_walls

    result = {
        "correct": ops.wrong == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, env=env, failures=ops.failures, detail=detail)
    with open(out_dir / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# {args.workload}: seed {args.seed}, trace {args.trace}, env {json.dumps(env)}")
    print(f"# setup samples (s): {[round(s, 4) for s in setup_samples]}, wall {[round(s, 4) for s in setup_walls]}")
    if not args.trace:
        print(f"# passes: {len(detail['run_s'])}, run_s samples: {[round(s, 3) for s in detail['run_s']]}, "
              f"wall {[round(s, 3) for s in detail['run_wall_s']]}")
    for f in ops.failures:
        print(f"# failed {f['item']}: {f['kind']}: {f['detail']}")
    print(f"# {ops.attempted - ops.failed}/{ops.attempted} operations ok, {ops.wrong} wrong")
    shown = {name: m for name, m in metrics.items() if m["value"] or not args.trace}
    for name, m in shown.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    if len(shown) < len(metrics):
        print(f"# {len(metrics) - len(shown)} per-layer metrics not reached by this workload read 0")
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    rows = []
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__)), "--workload", w["name"], "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {w['name']}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((w["name"], result))
    print("#")
    print(f"# {'workload':16} {'ok/attempted':>13} {'correct':>8}  metrics")
    summary = ("failed_ratio", "layer_coverage", "trace_overhead_ratio")
    for name, r in rows:
        shown = ", ".join(f"{k} = {v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items()
                          if not args.trace or k in summary)
        print(f"# {name:16} {r['attempted'] - r['failed']:>6}/{r['attempted']:<6} {str(r['correct']):>8}  {shown}")
    return status


def main(argv=None) -> int:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "localchrom" / "__init__.py").is_file():
        print(f"program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
