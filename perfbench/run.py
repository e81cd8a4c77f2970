"""roughdyn benchmark: end-to-end runs of the CLI pipelines, and a traced run
that splits them into per-layer numbers.

    python3 perfbench/run.py --workload solve|dynamics|drivers|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (it imports ``src/roughdyn``).  One
pass is a fresh interpreter (perfbench/child.py) that imports roughdyn,
resolves its configs and runs the workload's pipeline once, so imports,
BLAS warm-up and the fBm factor cache are paid once per pass, as a CLI user
pays them.  Passes run one after another (closed loop, no concurrency)
until the next would end more than ``--seconds`` after the run began;
pass i of a run uses the input seed ``1000 * seed + i``.  BLAS threads are
capped at the CPU count.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: medians over
passes, and for ``setup_s`` over passes plus extra set-up-only passes.
Set-up and op times are scaled to a nominal host speed measured by a
reference loop in the same pass (see child.py); the unscaled medians are
printed too and kept in the run record.
``--trace 1`` first runs one untraced pass, then repeats the same input
traced.  Its report files must match the untraced pass byte for byte, and
its exact counts must repeat across traced passes; per-layer times are
medians over the traced passes.  The last line of stdout is the JSON
result; a per-run record, with the environment, goes to
``.perfbench_out/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0
# metrics that must repeat exactly across traced passes of one input
EXACT_UNITS = ("count", "bytes")
PASS_KEYS = ("pass_s", "setup_raw_s", "setup_s", "wall_raw_s", "wall_s",
             "peak_rss_mb", "reference_s", "ops")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _nproc():
    return len(os.sched_getaffinity(0))


def _commit():
    """HEAD commit of a git checkout, read without running git; None when
    the checkout is not a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _source_digest():
    """sha256 over the files of src/, which identifies the code measured
    also where there is no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Runs passes of one workload in child interpreters."""

    def __init__(self, workload, run_dir, deadline):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.n = 0
        threads = str(_nproc())
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )

    def run(self, seed, trace=False, setup_only=False):
        """One pass; returns the child's result with its own wall time."""
        pass_dir = os.path.join(self.run_dir, f"pass{self.n}")
        self.n += 1
        out = os.path.join(pass_dir, "out")
        os.makedirs(out)
        job = os.path.join(pass_dir, "job.json")
        with open(job, "w") as fh:
            json.dump(
                {"workload": self.workload, "seed": seed, "out": out,
                 "trace": trace, "setup_only": setup_only},
                fh,
            )
        t0 = time.perf_counter()
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), job],
            env=self.env, cwd=ROOT, timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"pass exited with code {proc.returncode}")
        result = _load_json(os.path.join(pass_dir, "RESULT.json"))
        result["pass_s"] = time.perf_counter() - t0
        shutil.rmtree(pass_dir)
        return result


def _loop(t0, seconds, first, more):
    """Run passes while the next one, estimated by the last, ends within
    `seconds` of t0; `first` passes always run."""
    passes = []
    while len(passes) < first or (
        time.perf_counter() - t0 + passes[-1]["pass_s"] <= seconds
    ):
        passes.append(more(len(passes)))
    return passes


def run_workload(workload, seed, seconds, trace, bench):
    t0 = time.perf_counter()
    run_dir = os.path.join(OUT, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(workload, run_dir, time.monotonic() + CHILD_TIMEOUT_S)
    env = {
        "nproc": _nproc(),
        "blas_threads": int(runner.env["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }
    problems = []
    raw = {}
    if not trace:
        probes = [runner.run(1000 * seed, setup_only=True) for _ in range(SETUP_PROBES)]
        passes = _loop(t0, seconds, 1, lambda i: runner.run(1000 * seed + i))
        setups = [p["setup_s"] for p in probes + passes]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        raw = {
            "setup_s": statistics.median(p["setup_raw_s"] for p in probes + passes),
            "wall_s": statistics.median(p["wall_raw_s"] for p in passes),
        }
        specs = bench["end_to_end"]
    else:
        plain = runner.run(1000 * seed)
        passes = _loop(t0, seconds, 2, lambda i: runner.run(1000 * seed, trace=True))
        for p in passes:
            if p["digests"] != plain["digests"]:
                problems.append("traced report files differ from the untraced pass")
        values = {}
        for name in passes[0]["layers"]:
            vals = [p["layers"][name] for p in passes]
            values[name] = statistics.median(vals)
        values["trace.wall_s"] = statistics.median(p["wall_raw_s"] for p in passes)
        # on speed-scaled times: host drift exceeds the tracing overhead
        values["trace.overhead_s"] = passes[0]["wall_s"] - plain["wall_s"]
        for op in passes[0]["ops"]:
            values[f"op.{op['op']}.s"] = statistics.median(
                o["raw_s"] for p in passes for o in p["ops"] if o["op"] == op["op"]
            )
        specs = bench["per_layer"]
        exact = [m["name"] for m in specs if m["unit"] in EXACT_UNITS]
        for name in exact:
            if len({p["layers"][name] for p in passes}) != 1:
                problems.append(f"{name} differs between traced passes")
        passes = [plain] + passes
    shutil.rmtree(run_dir, ignore_errors=True)

    ops = [o for p in passes for o in p["ops"]]
    failed = sum(1 for o in ops if not o["ok"])
    metrics = {}
    for m in specs:
        name = m["name"]
        if name not in values and not name.startswith("op."):
            raise KeyError(f"metric {name} is not measured")
        # an op of another workload's pipeline reads 0
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": m["unit"]}
    env.update(passes[0]["env"])
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "problems": problems, "result": result, "unscaled_medians": raw,
        "passes": [{k: p[k] for k in PASS_KEYS} for p in passes],
    }
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    with open(os.path.join(OUT, "records", f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def main(argv=None):
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    meta_path = os.path.join(HERE, "MAP.json")
    bench = _load_json(bench_path)
    meta = _load_json(meta_path)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "roughdyn", "__init__.py")):
        print("no roughdyn source under ./src: run from the root of a checkout",
              file=sys.stderr)
        return 2

    todo = names if args.workload == "all" else [args.workload]
    summary = {}
    for name in todo:
        seed = meta["workloads"][name]["default_seed"] if args.seed is None else args.seed
        result, record = run_workload(name, seed, args.seconds, bool(args.trace), bench)
        print(json.dumps({"workload": name, "seed": seed, "env": record["env"],
                          "problems": record["problems"]}))
        for mname, m in result["metrics"].items():
            print(f"{name:9s} {mname:40s} {m['value']:14.6g} {m['unit']}")
        for mname, v in record["unscaled_medians"].items():
            print(f"{name:9s} {mname + ' (unscaled)':40s} {v:14.6g} s")
        print(f"{name:9s} {'error_rate':40s} {result['failed'] / result['attempted']:14.6g} ratio")
        summary[name] = result
    print(json.dumps(summary[todo[0]] if args.workload != "all" else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
