"""oscsym benchmark harness.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics.  A full report
(provenance, parameters, failures) and, when traced, the spans are written
under ``bench/out/``.  See bench/README.md.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
#: BLAS threads.  Not NPROC: on the 2-vCPU reference VM a 2-thread complex
#: product is often slower than a 1-thread one (256x256: 24 ms against 3.3 ms)
#: and its time swings with the load on the other vCPU (nmax-24 Fock check:
#: 4.1-7.2 s with 2 threads, 7.1-7.3 s with 1), which measures the scheduler.
BLAS_THREADS = 1
# cap BLAS threads before numpy is imported here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

import host  # noqa: E402
import probe  # noqa: E402
from reference import GateError  # noqa: E402
from spans import Tracer, aggregate  # noqa: E402
from workloads import (CLI_KINDS, KNOWN_DEFECTS, WORKLOADS, Context,  # noqa: E402
                       defect_plan, known_defect)

#: fresh-interpreter set-ups per run, spread over the measured loop; setup_s
#: is their median
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60

#: (name, unit, better) of every end-to-end metric, printed with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ops_ok_frac", "1", "higher"),
)

#: layers reported as <layer>.{calls,busy_s,p50_us,failed} with --trace 1
LAYERS = (
    "families.build_generator_set",
    "algebra.verify_algebra",
    "algebra.check_isomorphism",
    "algebra.table1_correspondence",
    "fock.verify_fock_commutators.nmax8",
    *(f"fock.{f}.nmax{n}" for n in (12, 16, 24)
      for f in ("dirac_tenfold", "verify_fock_commutators")),
    "fock.moments",
    "fock.ThermalState.entropy",
    "fock.rho_reduced",
    "fock.rho_series",
    "fock.rho_partial_trace",
    "fock.expansion_overlap",
    *(f"phase_space.{f}" for f in (
        "generator_to_transform", "coupling_transform", "evolve",
        "reduce_oscillator", "gaussian_purity", "gaussian_entropy", "areas",
        "is_canonical", "temperature_from_eta")),
)
LAYER_STATS = (("calls", "count", "higher"), ("busy_s", "s", "lower"),
               ("p50_us", "us", "lower"), ("failed", "count", "lower"))
#: -X importtime module -> metric
IMPORTS = (("oscsym", "import.oscsym_s"), ("scipy.linalg", "import.scipy_linalg_s"),
           ("numpy", "import.numpy_s"))
#: outputs compared with 50-digit references, reported as accuracy.<output>.max_abs_err
ACCURACY = ("purity", "entropy_gaussian", "temperature", "purity_series",
            "entropy_series", "entropy_thermal", "rho_series", "rho_partial_trace",
            "expansion_overlap")
#: spans whose median duration is reported as <span>.wall_s
WALL_SPANS = tuple(f"cli.{kind}" for kind in CLI_KINDS)


def per_layer_catalogue():
    """(name, unit, better) of every per-layer metric, printed with --trace 1."""
    out = [(f"{layer}.{stat}", unit, better)
           for layer in LAYERS for stat, unit, better in LAYER_STATS]
    out += [(metric, "s", "lower") for _, metric in IMPORTS]
    out += [(f"{span}.wall_s", "s", "lower") for span in WALL_SPANS]
    out += [(f"accuracy.{o}.max_abs_err", "1", "lower") for o in ACCURACY]
    out += [(f"defects.{d.name}.failed", "count", "lower") for d in KNOWN_DEFECTS]
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("host.slowness", "1", "lower"))
    return out


# ---------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Cumulative seconds per top-level module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out[parts[2].strip()] = int(parts[1]) * 1e-6
    return out


def probe_setup(workload: str, traced: bool) -> Dict[str, float]:
    """Set the workload up once in a fresh interpreter."""
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           os.path.join(ROOT, "bench", "probe.py"), workload, ROOT]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    if traced:
        sample["imports"] = parse_importtime(proc.stderr)
    return sample


class Outcome:
    """Latencies and failures of the operations one loop ran."""

    def __init__(self):
        self.latencies: List[float] = []
        #: loop clock at the start of each operation
        self.starts: List[float] = []
        #: (loop clock, slowness) of each host-speed kernel sample
        self.kernel: List[Tuple[float, float]] = []
        self.failures: List[Dict] = []
        self.errors: Dict[str, float] = {}
        self.elapsed = 0.0

    def scaled_latencies(self) -> List[float]:
        """Latencies at the reference host speed (see host.py)."""
        spans = [(s, s + t) for s, t in zip(self.starts, self.latencies)]
        return [t * f for t, f in zip(self.latencies, host.scale(spans, self.kernel))]

    @property
    def correct(self) -> bool:
        return not self.failures

    def failed_by_layer(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.failures:
            counts[f["layer"]] = counts.get(f["layer"], 0) + 1
        return counts


def run_loop(plan, ops, tracer: Tracer, seconds: Optional[float] = None,
             count: Optional[int] = None, block: int = 1,
             pause: Optional[Callable[[], None]] = None, pauses: int = 0,
             scaled: bool = True) -> Outcome:
    """Run operations in plan order (cycling) for ``seconds`` or ``count`` ops.

    A timed loop ends at the first boundary of a block of ``block``
    operations after ``seconds``, so that it holds whole blocks of the mix.
    ``pause`` is called ``pauses`` times, spread evenly over ``seconds``
    between operations.  If ``scaled``, the host-speed kernel runs between
    operations every ``host.EVERY_S`` of loop clock.  Neither counts on the
    loop's clock nor in ``elapsed``.
    """
    out = Outcome()
    i = done = 0
    paused = 0.0
    next_kernel = 0.0
    start = perf_counter()
    while True:
        clock = perf_counter() - start - paused
        if scaled and clock >= next_kernel:
            for _ in range(min(host.BURST, 1 + int((clock - next_kernel) / host.EVERY_S))):
                t0 = perf_counter()
                out.kernel.append((clock, host.slowness()))
                paused += perf_counter() - t0
            next_kernel = clock + host.EVERY_S
            continue
        if done < pauses and clock >= done * seconds / pauses:
            t0 = perf_counter()
            pause()
            paused += perf_counter() - t0
            done += 1
            continue
        if i % block == 0 and ((i >= count) if count is not None else (clock >= seconds)):
            break
        j = i % len(ops)
        tracer.op_id = i
        out.starts.append(clock)
        t0 = perf_counter()
        try:
            tracer.call(f"op.{plan[j]['kind']}", ops[j], tracer, out.errors)
        except GateError as exc:
            out.failures.append(_failure(i, plan[j], exc.layer, str(exc)))
        except Exception as exc:  # any program error counts as a failed operation
            layer = tracer.layer_of(exc)
            out.failures.append(_failure(i, plan[j], layer, f"{type(exc).__name__}: {exc}"))
        out.latencies.append(perf_counter() - t0)
        i += 1
    out.elapsed = perf_counter() - start - paused
    if scaled:
        out.kernel.append((out.elapsed, host.slowness()))
    return out


def _failure(i, op, layer, message) -> Dict:
    return {"op": i, "input": op, "layer": layer, "known_defect": known_defect(op, layer),
            "message": message[:500]}


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timings(latencies: List[float], setups: List[float]) -> Dict[str, float]:
    """The end-to-end timing metrics from operation latencies and set-up times."""
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90(latencies) * 1e3,
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, workload) -> Dict:
    import numpy as np
    import oscsym
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "oscsym": oscsym.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "cpus": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples": SETUP_SAMPLES,
        "params": workload.params,
    }


def probe_defects(seed: int, ctx: Context) -> Dict[str, Dict]:
    """Run the thermal-sweep defect probe; per defect, its failed inputs."""
    plan = defect_plan(seed)
    out = run_loop(plan, WORKLOADS["thermal-sweep"].prepare(plan, ctx), Tracer(enabled=False),
                   count=len(plan))
    report = {d.name: {"probes": sum(op["defect"] == d.name for op in plan), "failed": 0,
                       "explained_by": {}} for d in KNOWN_DEFECTS}
    for f in out.failures:
        entry = report[f["input"]["defect"]]
        entry["failed"] += 1
        by = entry["explained_by"]
        by[str(f["known_defect"])] = by.get(str(f["known_defect"]), 0) + 1
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(SRC, "oscsym", "__init__.py")):
        print(f"bench: no program at {os.path.join(SRC, 'oscsym')}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import oscsym
    if os.path.dirname(os.path.realpath(oscsym.__file__)) != os.path.realpath(
            os.path.join(SRC, "oscsym")):
        print(f"bench: oscsym imported from {oscsym.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # one vCPU for the harness, its host-speed kernel and every child it
    # starts: the vCPUs of a shared host slow down independently, and the
    # kernel only tracks the one it runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    setups: List[Dict[str, float]] = []

    def probe_once():
        # every workload scales its set-up by the kernel: a set-up is
        # interpreter work, which the kernel tracks (see host.py)
        around = [host.slowness() for _ in range(host.PROBE_SAMPLES)]
        sample = probe_setup(workload.name, traced)
        around += [host.slowness() for _ in range(host.PROBE_SAMPLES)]
        sample["slowness"] = statistics.median(around)
        setups.append(sample)

    if workload.name != "cli-cold":
        probe.SETUP[workload.name]()  # the in-process warm-up the probes timed
    plan = workload.plan(args.seed)
    ctx = Context(root=ROOT, env=child_env())
    ops = workload.prepare(plan, ctx)
    defects: Dict[str, Dict] = {}
    raw: Dict[str, float] = {}

    if traced:
        tracer = Tracer(enabled=True)
        first = run_loop(plan, ops, tracer, seconds=args.seconds / 2, block=workload.block,
                         pause=probe_once, pauses=SETUP_SAMPLES, scaled=workload.scaled)
        second = run_loop(plan, ops, Tracer(enabled=False), count=len(first.latencies),
                          scaled=workload.scaled)
        outcomes = [first, second]
        metrics = aggregate(tracer.spans, LAYERS, first.failed_by_layer())
        for module, name in IMPORTS:
            metrics[name] = statistics.median(s["imports"].get(module, 0.0) for s in setups)
        durations: Dict[str, List[float]] = {}
        for span in tracer.spans:
            durations.setdefault(span[0], []).append(span[2] - span[1])
        for span in WALL_SPANS:
            d = durations.get(span)
            metrics[f"{span}.wall_s"] = statistics.median(d) if d else 0.0
        for o in ACCURACY:
            metrics[f"accuracy.{o}.max_abs_err"] = first.errors.get(o, 0.0)
        metrics["trace.overhead_s"] = first.elapsed - second.elapsed
        metrics["host.slowness"] = (statistics.median(k for _, k in first.kernel)
                                    if first.kernel else 0.0)
        if workload.name == "thermal-sweep":
            defects = probe_defects(args.seed, ctx)
        for d in KNOWN_DEFECTS:
            metrics[f"defects.{d.name}.failed"] = defects.get(d.name, {}).get("failed", 0)
        catalogue = per_layer_catalogue()
    else:
        out = run_loop(plan, ops, Tracer(enabled=False), seconds=args.seconds,
                       block=workload.block, pause=probe_once, pauses=SETUP_SAMPLES,
                       scaled=workload.scaled)
        outcomes = [out]
        raw = timings(out.latencies, [s["setup_s"] for s in setups])
        metrics = timings(out.scaled_latencies(), [s["setup_s"] / s["slowness"] for s in setups])
        metrics["peak_rss_mb"] = peak_rss_mb(workload.name)
        metrics["ops_ok_frac"] = 1 - len(out.failures) / len(out.latencies)
        catalogue = END_TO_END

    attempted = sum(len(o.latencies) for o in outcomes)
    failed = sum(len(o.failures) for o in outcomes)
    result = {
        "correct": all(o.correct for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in catalogue},
    }
    report = {
        "provenance": provenance(args, workload),
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_slowness": [s["slowness"] for s in setups],
        "scaled": workload.scaled,
        "host_slowness": [k for o in outcomes for _, k in o.kernel],
        "unscaled_timings": raw,
        "samples": [len(o.latencies) for o in outcomes],
        "elapsed_s": [o.elapsed for o in outcomes],
        "failures": [f for o in outcomes for f in o.failures][:20],
        "defect_probe": defects,
        "result": result,
    }
    out_dir = os.path.join(ROOT, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if traced:
        tracer.write(stem + "-spans.json")
    print(json.dumps({"report": stem + ".json", "provenance": report["provenance"],
                      "failures": failed, "defect_probe": defects}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
