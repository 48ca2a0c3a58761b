"""emgdecode benchmark: one workload per process, against the public API.

    python3 perfbench/run.py --workload decode --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0        # every workload, one after another

Untraced (``--trace 0``) it measures for about ``--seconds`` seconds, split
over up to five input sets made from sub-seeds of ``--seed`` (the first is
``--seed`` itself). Each set is built, then run repeatedly for its share of
the time. ``wall_s`` is the median over the sets of each set's median run, so
that a workload whose cost depends on its data (iterations to convergence)
is not read from one data set alone. ``setup_s`` is the median of at least
five set-ups taking at least four seconds together; set-ups beyond the
measured sets are timed and dropped. ``peak_rss_mb`` is the peak resident
memory of the process. Traced (``--trace 1``) it runs the workload on
``--seed`` once untraced and then twice with spans and counts recorded
around the calls into each module (see ``spans.py``), and reports the
per-layer metrics of the first traced pass. Traced results must equal the
untraced ones bit for bit, and both traced passes must count the same.

Every run checks its scores: against the references frozen in
``references.json`` when the seed has one, and always against invariants and
across its own repetitions. A failed check or a failed operation (a sweep
cell not "ok", a -inf CV fold or SFBS step) is printed, makes ``correct``
false and the exit code 1. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"
# Set-ups per run: at least this many, and more (up to SETUP_MAX) until they
# took SETUP_MIN_S together, so that a cheap set-up is still a steady median.
SETUP_REPEATS = {"bench": 5, "tiny": 2, "paper": 1}
SETUP_MIN_S = {"bench": 4.0, "tiny": 0.0, "paper": 0.0}
SETUP_MAX = 25
# Input sets per untraced run, fewer when one run of the workload takes more
# than ``--seconds`` / INPUT_SETS. Set k is built from sub-seed
# seed + k * SUB_SEED_STRIDE.
INPUT_SETS = 5
SUB_SEED_STRIDE = 1_000_003

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _limit_blas_threads() -> int:
    """Run BLAS/OpenMP on one thread unless the environment asks for more,
    and never on more threads than cores; must run before numpy loads.

    On a 2-core machine shared with other jobs, two OpenBLAS threads made
    the small solves here 2-4x slower (SFBS: 21.6 s against 5.2 s per run)
    and the same run's wall time spread by +-8%, against under 1% with one.
    """
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, 1))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the loaded library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                             timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(nproc: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _describe(name: str, values: list[float], unit: str) -> str:
    q1, q3 = _quartiles(values)
    return (f"{name:<12} {statistics.median(values):.6g} {unit}  "
            f"(median; q1 {q1:.6g}, q3 {q3:.6g}; n={len(values)})")


def _load_references(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _freeze(path: Path, scale: str, workload: str, seed: int, scores: dict) -> None:
    refs = _load_references(path)
    refs.setdefault(scale, {}).setdefault(workload, {})[str(seed)] = scores
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _traced_passes(tr_mod, workload, spec, seed, workdir, ledger, results):
    """Set up and run the workload twice with spans and counts recorded;
    appends both passes' scores to ``results`` and checks that the two passes
    counted the same. Returns the first pass's tracer and run wall time."""
    passes = []
    for i in range(2):
        tracer = tr_mod.Tracer()
        undo = tr_mod.install(tracer)
        try:
            inputs = workload.setup(seed, spec, workdir / f"traced{i}")
            t0 = time.perf_counter()
            results.append(workload.run(inputs, spec, ledger))
            passes.append((tracer, time.perf_counter() - t0))
        finally:
            tr_mod.uninstall(undo)
    ledger.record(
        tr_mod.count_signature(passes[0][0]) == tr_mod.count_signature(passes[1][0]),
        "trace: the two traced passes counted differently",
    )
    return passes[0]


def _measure_sets(workload, spec, seed: int, seconds: float, workdir: Path, ledger):
    """Build and run the input sets of an untraced run. Returns, per set,
    its sub-seed, set-up time, run wall and CPU times and run scores."""
    sets, n_sets, spent = [], INPUT_SETS, 0.0
    while len(sets) < n_sets:
        k = len(sets)
        sub_seed = seed + k * SUB_SEED_STRIDE
        t0 = time.perf_counter()
        inputs = workload.setup(sub_seed, spec, workdir / f"set{k}")
        entry = {"seed": sub_seed, "setup": time.perf_counter() - t0,
                 "walls": [], "cpus": [], "results": []}
        budget = (seconds - spent) / (n_sets - k)
        while True:
            c0, t0 = time.process_time(), time.perf_counter()
            entry["results"].append(workload.run(inputs, spec, ledger))
            entry["walls"].append(time.perf_counter() - t0)
            entry["cpus"].append(time.process_time() - c0)
            if sum(entry["walls"]) + statistics.median(entry["walls"]) > budget:
                break
        spent += sum(entry["walls"])
        if k == 0:
            n_sets = max(1, min(INPUT_SETS, int(seconds // entry["walls"][0])))
        sets.append(entry)
        inputs = None  # release this set before building the next
        shutil.rmtree(workdir / f"set{k}", ignore_errors=True)
    return sets


def _extra_setups(workload, spec, seed: int, scale: str, setup_times: list, workdir: Path) -> None:
    """Time more set-ups, on further sub-seeds, until there are enough for a
    steady median; their inputs are dropped."""
    while len(setup_times) < SETUP_REPEATS[scale] or (
            sum(setup_times) < SETUP_MIN_S[scale] and len(setup_times) < SETUP_MAX):
        k = len(setup_times)
        t0 = time.perf_counter()
        workload.setup(seed + k * SUB_SEED_STRIDE, spec, workdir / f"set{k}")
        setup_times.append(time.perf_counter() - t0)
        shutil.rmtree(workdir / f"set{k}", ignore_errors=True)


def run_one(args, nproc: int) -> int:
    import spans as tr_mod
    import workloads as wl_mod

    workload = wl_mod.WORKLOADS[args.workload]
    spec = wl_mod.SCALES[args.scale].get(args.workload)
    if spec is None:
        print(f"workload {args.workload!r} has no {args.scale!r} scale", file=sys.stderr)
        return 2
    env = environment(nproc)
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(env, sort_keys=True))

    ledger = wl_mod.Ledger()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl_mod.warm_up(args.seed)
        # a traced run measures the run's own seed once before its traced passes
        seconds = 0.0 if args.trace else args.seconds
        sets = _measure_sets(workload, spec, args.seed, seconds, workdir, ledger)
        setup_times = [s["setup"] for s in sets]
        _extra_setups(workload, spec, args.seed, args.scale, setup_times, workdir)

        layer = None
        if args.trace:
            first = sets[0]
            tracer, traced_wall = _traced_passes(tr_mod, workload, spec, args.seed, workdir,
                                                 ledger, first["results"])
            layer = tr_mod.layer_metrics(tracer)
            layer["trace.overhead_frac"] = (traced_wall / first["walls"][0] - 1.0, "ratio")
            layer["process.cpu_util"] = (first["cpus"][0] / first["walls"][0], "ratio")
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}-{args.scale}.json"
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                           "scale": args.scale, "traced_wall_s": traced_wall,
                           **tracer.to_jsonable()}, fh)
            print(f"trace: spans and counts written to {trace_file.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    references = _load_references(args.references).get(args.scale, {}).get(args.workload, {})
    ref_errs, unreferenced = [], []
    for s in sets:
        n_untraced = len(s["walls"])
        for i, scores in enumerate(s["results"][1:], 1):
            ledger.record(wl_mod.same_scores(s["results"][0], scores),
                          f"repeat: seed {s['seed']} run {i} differs from run 0 "
                          f"({'traced' if i >= n_untraced else 'untraced'})")
        reference = references.get(str(s["seed"]))
        if reference is not None:
            ref_errs.append(wl_mod.compare(s["results"][0], reference, ledger))
        else:
            unreferenced.append(s["seed"])
        if args.freeze:
            _freeze(args.references, args.scale, args.workload, s["seed"], s["results"][0])
            print(f"froze scores for {args.scale}/{args.workload}/seed {s['seed']}")
    if ref_errs:
        ref_line = f"{max(ref_errs):.3g} (against the frozen references of {len(ref_errs)} of {len(sets)} input sets)"
    else:
        ref_line = "n/a (no frozen reference for these seeds; invariant and repeat checks only)"
    if unreferenced and ref_errs:
        ref_line += f"; seeds {unreferenced} checked by invariants and repeats only"

    walls = [w for s in sets for w in s["walls"]]
    set_walls = [statistics.median(s["walls"]) for s in sets]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"input sets   {len(sets)}: seeds {[s['seed'] for s in sets]}, "
          f"runs per set {[len(s['walls']) for s in sets]}")
    print(_describe("wall_s", set_walls, "s") + "  over the sets' median runs")
    print(_describe("run_s", walls, "s") + "  over all untraced runs")
    print(_describe("cpu_s", [c for s in sets for c in s["cpus"]], "s"))
    print(_describe("setup_s", setup_times, "s"))
    print(f"{'peak_rss_mb':<12} {peak_mb:.6g} MB")
    print(f"{'ref_rel_err':<12} {ref_line}")
    print(f"{'failed_frac':<12} {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} failed of {ledger.attempted} attempted operations)")
    print("scores: " + json.dumps(sets[0]["results"][0], sort_keys=True))
    for failure in ledger.failures:
        print(f"FAILED: {failure}")

    if layer is not None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        for name, (value, unit) in layer.items():
            print(f"  {name:<40} {value:.6g} {unit}")
    else:
        values = {"wall_s": statistics.median(set_walls), "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, never two at once."""
    import workloads as wl_mod

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in wl_mod.SCALES[args.scale]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit code {proc.returncode})")
            combined["correct"] = False
            code = 1
            continue
        code = code or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decode", "sweep_block", "sfbs", "zoo", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SETUP_REPEATS), default="bench",
                        help="input sizes: bench (measured), tiny (smoke test), "
                             "paper (default 8 x 45 s dataset; decode only)")
    parser.add_argument("--references", type=Path, default=REFERENCES,
                        help="frozen references, keyed by scale, workload and seed")
    parser.add_argument("--freeze", action="store_true",
                        help="store this run's scores as the reference for its scale, workload and seed")
    args = parser.parse_args(argv)

    if not (SRC / "emgdecode" / "__init__.py").is_file():
        print(f"emgdecode sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    nproc = _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import emgdecode

    if Path(emgdecode.__file__).resolve().parent != (SRC / "emgdecode").resolve():
        print(f"imported emgdecode from {emgdecode.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
