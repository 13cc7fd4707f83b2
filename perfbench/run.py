"""Benchmark of `dephwit`: four workloads, checked results, one JSON line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/``. A run
measures set-up in fresh processes, then repeats whole rounds of the
workload (see `workloads.py`) until ``--seconds`` have passed, checking
every result. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics from a run under `tracer.Tracer`. The line before it is the run's
record: environment, commit and counts. Results files go to
``.perfbench_out/`` under the root.
"""

from __future__ import annotations

import os

# pinned before numpy loads; the probes inherit them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import filecmp
import hashlib
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

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("linalg", "states", "dephasing", "randmat", "witness", "config", "cli")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def commit() -> dict:
    """The git commit when the root is a checkout, and a hash of the sources."""
    head = None
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            name = head[5:]
            loose = git / name
            if loose.is_file():
                head = loose.read_text().strip()
            else:
                packed = (git / "packed-refs").read_text().splitlines()
                head = next(line.split()[0] for line in packed if line.endswith(" " + name))
    except (OSError, StopIteration):
        head = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dephwit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": head, "src_sha256": digest.hexdigest()}


def source_lines() -> dict:
    lines = {m: len((SRC / "dephwit" / f"{m}.py").read_text().splitlines()) for m in MODULES}
    out = {f"{m}.src_lines": n for m, n in lines.items()}
    out["src.lines"] = sum(len(p.read_text().splitlines()) for p in (SRC / "dephwit").glob("*.py"))
    return out


class Calibration:
    """Fixed Python and numpy work, independent of dephwit, timed after
    every measured interval.

    Other tenants of a shared machine slow the program in bursts of seconds
    to minutes, and they slow this kernel alike. `scale` gives the factor
    that turns the interval just measured into its length on a machine
    where the kernel takes ``REFERENCE_S``, from the kernel's times on both
    sides of it. The kernel allocates nothing, so the allocator state a
    workload leaves behind does not change its time.
    """

    REFERENCE_S = 0.01

    def __init__(self):
        g = np.random.default_rng(12345)
        stack = g.standard_normal((32, 12, 12)) + 1j * g.standard_normal((32, 12, 12))
        self._stack = stack
        self._hermitian = stack + np.conj(np.swapaxes(stack, -1, -2))
        self._product = np.empty_like(stack)
        self._vector = g.standard_normal(250_000)
        self._buffer = np.empty_like(self._vector)
        self.seconds()  # the first pass pays for lazy set-up in numpy
        self.times = [self.seconds()]

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(6):
            np.matmul(self._stack, self._hermitian, out=self._product)
        total = 0.0
        for i in range(30_000):
            total += (i % 7) * 0.5
        for _ in range(8):
            np.multiply(self._vector, self._vector, out=self._buffer)
            self._buffer += 1.0
            np.sqrt(self._buffer, out=self._buffer)
            total += float(self._buffer.sum())
        return time.perf_counter() - start

    def scale(self) -> float:
        """Factor for the interval since the previous call."""
        self.times.append(self.seconds())
        return self.REFERENCE_S / ((self.times[-2] + self.times[-1]) / 2)


def setup_seconds(workload: str, seed: int, rundir: Path, calibration: Calibration) -> list[float]:
    """Calibrated wall times of fresh processes that import dephwit and run
    the workload's warm-up round."""
    times = []
    for i in range(SETUP_PROBES):
        outdir = rundir / f"probe{i}"
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(outdir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        times.append((time.perf_counter() - start) * calibration.scale())
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return times


class Round:
    """One executed round: per-op walls, results and failures."""

    def __init__(self, ops):
        self.ops = ops
        self.walls: list[float] = []  # as measured
        self.times: list[float] = []  # calibrated when a calibration is given
        self.failed = 0
        self.done: dict = {}

    def execute(self, calibration: Calibration | None = None) -> "Round":
        for op in self.ops:
            start = time.perf_counter()
            try:
                raw = op.call()
            except Exception:  # an op that fails is counted, and the run goes on
                raw = None
                self.failed += 1
                print(f"{op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            wall = time.perf_counter() - start
            self.walls.append(wall)
            self.times.append(wall * calibration.scale() if calibration else wall)
            if raw is not None:
                self.done[op.label] = op.finish(raw)
        return self

    def check(self) -> list[str]:
        return [
            f"{op.label}: {message}"
            for op in self.ops if op.label in self.done
            for message in op.check(self.done[op.label], self.done)
        ]

    def busy(self) -> float:
        return sum(self.times)

    def time_to_1pct(self) -> float:
        total = 0.0
        for op, wall in zip(self.ops, self.times):
            if op.label not in self.done:
                continue
            rel = op.rel_errors(self.done[op.label]) if op.rel_errors else None
            # an exact result reaches any accuracy in one evaluation
            total += wall if rel is None else wall / len(rel) * sum((r / 0.01) ** 2 for r in rel)
        return total


def same_files(a: Path, b: Path) -> list[str]:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return [f"{a.name}: traced and untraced runs wrote different files"]
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return [f"{a.name}/{name}: traced and untraced results differ" for name in mismatch + errors]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dephwit" / "__init__.py").is_file():
        print(f"error: no dephwit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import dephwit
    import tracer
    import workloads

    if Path(dephwit.__file__).resolve().parent != SRC / "dephwit":
        print(f"error: imported dephwit from {dephwit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    build = workloads.WORKLOADS[args.workload]

    calibration = None if args.trace else Calibration()
    setup = [] if args.trace else setup_seconds(args.workload, args.seed, rundir, calibration)
    rounds: list[Round] = []
    layers: list[dict] = []
    overheads: list[float] = []
    errors: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        k = len(rounds)
        name = f"r{k:04d}"
        outdir = rundir / ("traced" if args.trace else "plain") / name
        outdir.mkdir(parents=True)
        ops = build(np.random.default_rng([args.seed, k]), outdir)
        if args.trace:
            plain = rundir / "plain" / name
            plain.mkdir(parents=True)
            again = Round(build(np.random.default_rng([args.seed, k]), plain))
            # the first of two runs of a round is the slower one, so the
            # order alternates and the overhead is a mean over pairs of rounds
            if k % 2:
                again.execute()
            with tracer.Tracer() as spans:
                done = Round(ops).execute()
            if not k % 2:
                again.execute()
            layers.append(tracer.layer_metrics(spans.spans))
            overheads.append(done.busy() - again.busy())
            errors += same_files(outdir, plain)
            attempted += len(again.ops)
            failed += again.failed
        else:
            done = Round(ops).execute(calibration)
        rounds.append(done)
        attempted += len(ops)
        failed += done.failed
        errors += done.check()

    if args.trace:
        values = {m: statistics.median(layer[m] for layer in layers) for m in layers[0]}
        values["trace.overhead_s"] = statistics.mean(overheads[: max(1, len(overheads) // 2 * 2)])
        values.update(source_lines())
    else:
        values = {
            "setup_s": statistics.median(setup),
            "runs_per_s": statistics.median(len(r.ops) / r.busy() for r in rounds),
            "samples_per_s": statistics.median(sum(op.samples for op in r.ops) / r.busy() for r in rounds),
            "time_to_1pct_s": statistics.median(r.time_to_1pct() for r in rounds),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"metrics not computed: {', '.join(missing)}")
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(rounds), "attempted": attempted, "failed": failed, "checks_failed": len(errors),
        "setup_samples_s": setup, "round_busy_s": [r.busy() for r in rounds],
        "round_wall_s": [sum(r.walls) for r in rounds], "round_time_to_1pct_s": [r.time_to_1pct() for r in rounds],
        "calibration_s": {"reference": Calibration.REFERENCE_S, "kernel": calibration.times if calibration else []},
        "environment": environment(), **commit(),
    }
    (rundir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"record": record}))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
