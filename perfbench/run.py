"""Run one shiftlab benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload flagship_sweep --seed 2 --seconds 55 --trace 0

The run sets the BLAS thread count, sets up (imports shiftlab, writes the
workload's config and loads it back), runs as many whole units of the
workload as fill ``--seconds`` (at least one), checks the outputs, and
prints one line per metric, check and fingerprint entry.  The last line of
standard output is the result as JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the units).
``--trace 1`` runs the last of those units under the span tracer and
reports the per-layer metrics instead.  Each run appends a record
(environment, unit times, checks, fingerprint, result) to
``.perfbench/records.jsonl``; a traced run writes its spans to
``.perfbench/spans/``.  ``perfbench/compare.py`` compares two
record files.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
# One BLAS thread: on a shared two-core host a second thread adds noise, and
# one or two threads give identical outputs for these workloads.
BLAS_THREADS = 1
SETUP_REPEATS = 15
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the grid and pools (the benchmark's self-test)")
    return p.parse_args(argv)


def _openblas() -> dict:
    """Kernel name and thread count reported by the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("", ""), ("scipy_", "64_"), ("", "64_")):
            corename = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if corename is not None and threads is not None:
                corename.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"blas_kernel": corename().decode(), "blas_threads_seen": threads()}
    return {}


def environment() -> dict:
    """What a result depends on besides the code; compare.py refuses to mix records."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    } | _openblas()


def steal_s() -> float:
    """CPU time the hypervisor took from this machine so far, all CPUs; 0 if unknown.

    Recorded per run to tell a slow run on a busy host from a slow program.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def set_up(workloads, workload, seed: int, tiny: bool, work: Path):
    """Median time of several import-and-config set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lab = workloads.fresh_import()
        config = workload.config(lab, seed, tiny, work / "out")
        ini = work / "config.ini"
        ini.write_text(workloads.render_ini(config))
        if lab.config.load_config(ini) != config:
            raise RuntimeError(f"{ini} does not load back as the workload's config")
        times.append(time.perf_counter() - start)
    state = workloads.State(lab=lab, config=config, ini=ini, work=work, seed=seed, tiny=tiny)
    workload.prepare(state)
    return state, statistics.median(times)


def measure(workload, state, seconds: float, spare: int) -> dict:
    """Run as many whole units as fill ``seconds``, at least one.

    The first unit's time sets the count, so a run lasts about ``seconds``
    whatever the unit's length; ``spare`` units of that count are left to
    the caller (the traced unit).  Peak memory is read after the first unit,
    as a one-shot CLI process would reach it: a later unit's peak also holds
    memory the earlier units left behind.
    """
    walls, cpus, attempted, failed = [], [], 0, 0
    n_units = 1
    while len(walls) < n_units:
        gc.collect()  # a one-shot CLI process never collects the last unit's garbage
        wall, cpu = time.perf_counter(), time.process_time()
        a, f = workload.unit(state)
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
        attempted += a
        failed += f
        if len(walls) == 1:
            n_units = max(1, round(seconds / walls[0]) - spare)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"walls": walls, "cpus": cpus, "attempted": attempted, "failed": failed,
            "peak_mb": peak_mb}


def traced_unit(spans, workload, state) -> dict:
    """One unit with every layer boundary wrapped in a span."""
    tracer = spans.Tracer()
    tracer.install(state.lab)
    try:
        start = time.perf_counter()
        with tracer.span("bench.unit", "bench"):
            attempted, failed = workload.unit(state)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return {"tracer": tracer, "wall": wall, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "shiftlab" / "__init__.py").is_file():
        print(f"perfbench: no shiftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import spans  # noqa: E402 -- numpy may load only after the thread count is set
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        state, setup_s = set_up(workloads, workload, args.seed, args.tiny, work)
        stolen = steal_s()
        run = measure(workload, state, args.seconds, spare=args.trace)
        stolen = steal_s() - stolen
        traced = traced_unit(spans, workload, state) if args.trace else None
        checks = workload.checks(state)
        try:
            fingerprint = workload.fingerprint(state)
        except (OSError, KeyError, ValueError, TypeError) as exc:  # the checks report why
            fingerprint = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = run["attempted"] + (traced["attempted"] if traced else 0)
    failed = run["failed"] + (traced["failed"] if traced else 0)
    check_failures = sum(not c.ok for c in checks)
    if traced:
        values = traced["tracer"].metrics(traced["wall"], statistics.median(run["walls"]))
        values |= {"failed_frac": failed / attempted, "check_failures": check_failures}
        units = spans.PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(run["walls"]),
            "cpu_s": statistics.median(run["cpus"]),
            "peak_rss_mb": run["peak_mb"],
            "setup_s": setup_s,
        }
        units = END_TO_END
    result = {
        "correct": check_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "unit_walls": run["walls"],
              "host_steal_s": stolen,
              "env": env, "fingerprint": fingerprint,
              "checks": [vars(c) for c in checks], "result": result}
    with open(OUT / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if traced:
        (OUT / "spans").mkdir(exist_ok=True)
        path = OUT / "spans" / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        path.write_text(json.dumps(traced["tracer"].spans_json()))

    for key, value in env.items():
        print(f"env {key}: {value}")
    for c in checks:
        print(f"check {c.name}: {'pass' if c.ok else 'FAIL'} ({c.detail})")
    for key, value in fingerprint.items():
        print(f"fingerprint {key}: {value}")
    print(f"units measured: {len(run['walls'])}; host CPU stolen meanwhile: {stolen:.2f} s; "
          f"failed_frac: {failed / attempted:.6g} ({failed}/{attempted}); "
          f"check_failures: {check_failures}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
