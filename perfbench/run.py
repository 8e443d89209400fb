"""Benchmark entry point.

    python3 perfbench/run.py --workload {ensemble,clicks,cli,all} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the workload runs untraced for S seconds and the result
carries the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the
traced run is made instead: one fixed-size traced pass of every workload,
whose spans give the per-layer metrics of every module (it does not depend
on ``--workload`` or ``--seconds``).  Inputs derive from the seed only.  The
last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are a
readable table and the run's provenance.  Exits 2 when the package sources
or BENCHMARK.json are missing, 1 when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, workloads  # noqa: E402


class BenchError(RuntimeError):
    """A worker or set-up process failed, so no result can be given."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def run_worker(task, run_dir, **kwargs):
    workdir = Path(run_dir) / task
    workdir.mkdir(parents=True, exist_ok=True)
    spec = json.dumps({"task": task, "kwargs": {**kwargs, "workdir": str(workdir)}})
    rc, _, _, out, err = common.run_python(["-m", "perfbench.worker", spec],
                                           run_dir, task)
    if rc != 0:
        raise BenchError(f"{task} exited with {rc}:\n{err[-3000:]}")
    return common.last_json_line(out)


def setup_times(name, sizes, run_dir):
    """Median-ready set-up times: one untimed warm-up import, then the reps."""
    code = workloads.setup_code(name, sizes)
    times = []
    for i in range(sizes["setup_reps"] + 1):
        rc, _, _, out, err = common.run_python(["-c", code], run_dir,
                                               f"setup-{name}-{i}")
        if rc != 0:
            raise BenchError(f"set-up of {name} exited with {rc}:\n{err[-3000:]}")
        if i:
            times.append(float(out.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# untraced and traced runs
# ---------------------------------------------------------------------------

def measure(name, seed, seconds, sizes, run_dir):
    setup = setup_times(name, sizes, run_dir)
    res = run_worker(f"{name}.measure", run_dir, seed=seed, seconds=seconds,
                     sizes=sizes)
    metrics = {"setup_s": common.median(setup), "work_per_s": res.pop("work_per_s"),
               "peak_rss_mb": res.pop("peak_rss_mb")}
    return metrics, {**res, "setup_samples": setup}


def traced_sweep(seed, sizes, run_dir, run_id):
    ref = run_worker("ensemble.reference", run_dir, seed=seed,
                     sizes=sizes["ensemble"])
    parts = [run_worker("ensemble.traced", run_dir, seed=seed,
                        sizes=sizes["ensemble"], run_id=run_id,
                        ref_digests=ref["digests"]),
             run_worker("clicks.traced", run_dir, seed=seed, sizes=sizes["clicks"],
                        run_id=run_id),
             run_worker("cli.traced", run_dir, seed=seed, sizes=sizes["cli"],
                        run_id=run_id)]
    metrics = {}
    for part in parts:
        metrics.update(part["metrics"])
    metrics.update({
        "simulator.traces_per_s_2t": ref["traces_per_s"],
        "simulator.thread_scaling":
            ref["traces_per_s"] / metrics["simulator.traces_per_s_1t"],
        "simulator.rss_1t_mb": parts[0]["peak_rss_mb"],
        "simulator.rss_2t_mb": ref["peak_rss_mb"],
        "trace.spans": float(sum(part["spans"] for part in parts)),
    })
    details = {"attempted": sum(p["attempted"] for p in parts),
               "failed": sum(p["failed"] for p in parts),
               "failures": [f for p in parts for f in p["failures"]]}
    return metrics, details


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def last_level_cache():
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind != "Instruction" and (best is None or int(level) > best[0]):
            best = (int(level), _read(index / "size"))
    return f"L{best[0]} {best[1]}" if best else None


def git_commit():
    head = _read(common.ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(common.ROOT / ".git" / ref)
    if commit is None:
        for line in (_read(common.ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def provenance(args, sizes):
    sources = sorted(common.PACKAGE.glob("*.py"))
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "last_level_cache": last_level_cache(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        "source_sha256": common.file_digest(sources),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "threads": {"ensemble": sizes["ensemble"]["threads"],
                    "clicks": workloads.CLICKS_THREADS,
                    "cli": sizes["cli"]["threads"]},
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_table(title, metrics, units, details, work_name=None):
    print(title)
    for name in units:
        print(f"  {name:<40} {metrics[name]:<14.6g} {units[name]}")
    if work_name:
        alias, unit = workloads.WORK_UNITS[work_name]
        print(f"  {alias:<40} {metrics['work_per_s']:<14.6g} {unit}")
    frac = details["failed"] / max(details["attempted"], 1)
    print(f"  {'failed_frac':<40} {frac:<14.6g} 1 "
          f"({details['failed']} of {details['attempted']} operations)")
    for failure in details["failures"]:
        print(f"  FAILED {failure}")
        print(f"FAILED {failure}", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes=None):
    """Run the benchmark; ``sizes`` overrides workload sizes (for tests)."""
    args = parse_args(argv)
    if not (common.PACKAGE / "__init__.py").is_file():
        print(f"no package sources at {common.PACKAGE}", file=sys.stderr)
        return 2
    try:
        bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sizes = {name: {**workloads.SIZES[name], **(sizes or {}).get(name, {})}
             for name in workloads.NAMES}
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir = common.WORK / run_id
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            metrics, details = traced_sweep(args.seed, sizes, run_dir, run_id)
            print_table("traced run (all workloads, 1-thread ensemble pass)",
                        metrics, units, details)
            runs = {"trace": (metrics, details)}
        else:
            base = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            names = workloads.NAMES if args.workload == "all" else (args.workload,)
            runs, units, metrics = {}, {}, {}
            for name in names:
                wl_metrics, details = measure(name, args.seed, args.seconds,
                                              sizes[name], run_dir)
                print_table(f"workload {name}", wl_metrics, base, details, name)
                runs[name] = (wl_metrics, details)
                prefix = f"{name}." if len(names) > 1 else ""
                for key, unit in base.items():
                    units[prefix + key] = unit
                    metrics[prefix + key] = wl_metrics[key]
        missing = [n for n in units if n not in metrics
                   or not math.isfinite(metrics[n])]
        if missing:
            raise BenchError(f"metrics missing or not finite: {missing}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        results = common.WORK / "results"
        results.mkdir(exist_ok=True)
        spans = run_dir / "spans.jsonl"
        if spans.exists():
            shutil.move(str(spans), str(results / f"{run_id}-spans.jsonl"))
        shutil.rmtree(run_dir, ignore_errors=True)

    prov = provenance(args, sizes)
    attempted = sum(d["attempted"] for _, d in runs.values())
    failed = sum(d["failed"] for _, d in runs.values())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}
    (results / f"{run_id}.json").write_text(json.dumps(
        {"provenance": prov, "result": result,
         "details": {k: d for k, (_, d) in runs.items()}}, indent=1))
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
