"""bb84eve benchmark: one closed-loop client running one op at a time.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 6 --seconds 25 --trace 0

Workloads: cli-cold, closed-form, oracle, search (see perfbench/README.md).
``--trace 0`` reports the end-to-end metrics, timed against a host-speed
probe (see ``HostProbe``).  ``--trace 1`` runs the
workload untraced, then traced, for half the time each, adds a short traced
probe of every other workload, and reports the per-layer metrics.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are for people.
"""

import os
import sys
import time

_START = time.perf_counter()

# BLAS is capped at one thread here and, through the environment, in every
# child process.  Set before numpy is first imported.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_CHILDREN = 3  # fresh set-ups per run; setup_s is their median
CLI_MAIN_REPS = 3  # in-process cli.main calls per subcommand when cli-cold is traced
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MiB",
}
COUNT_SUFFIXES = (".calls", ".iterations", ".trials", ".accepted")


def layer_unit(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    return "ratio" if name.endswith(".accept_ratio") else "s"


class Tally:
    """Attempted and failed ops; an op fails if it raises or misses a gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, workload: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"{workload} op failed: {'; '.join(problems)}", file=sys.stderr)


class HostProbe:
    """The host's speed now, from timing a fixed piece of work.

    The benchmark shares a host whose speed changes by up to 1.5x from one
    stretch of a few seconds to the next, and whose slow stretches can fill
    most of a run.  Raw op times then measure the neighbours more than the
    program.  The piece is the program's kind of work (Python arithmetic,
    single and batched eigensolves and einsums on small complex arrays) but
    never calls bb84eve, so a change to the program cannot change it.
    ``slowdown`` is the piece's time over ``PIECE_REF_S``, its time on a
    reference host; an op's time divided by the slowdown around it is its
    time on the reference host.
    """

    PIECE_REF_S = 1e-3
    SHARE = 0.02  # time spent probing, as a share of the op it follows
    MIN_PIECES, MAX_PIECES = 3, 30

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self.a = a + a.conj().T
        self.kets = rng.normal(size=(20, 8, 4)) + 1j * rng.normal(size=(20, 8, 4))

    def piece(self) -> float:
        start = time.perf_counter()
        s = 0
        for i in range(2000):
            s += i * i
        for _ in range(10):
            w, v = np.linalg.eigh(self.a)
            (v * np.log2(np.abs(w) + 1)) @ v.conj().T
        for _ in range(6):
            lam, vec = np.linalg.eigh(np.einsum("rki,rkj->rij", self.kets, self.kets.conj()))
            np.einsum("rij,rj,rkj->rik", vec, np.log2(lam + 1), vec.conj())
        return time.perf_counter() - start

    def slowdown(self, op_s: float = 0.0) -> float:
        """Median over enough pieces to take about ``SHARE`` of ``op_s``."""
        n = round(self.SHARE * op_s / self.PIECE_REF_S)
        n = min(self.MAX_PIECES, max(self.MIN_PIECES, n))
        return statistics.median(self.piece() for _ in range(n)) / self.PIECE_REF_S


def measure(wl, seconds, tally, probe, tracer=None, min_ops=0) -> tuple[list, list]:
    """Closed loop: run ops until ``seconds`` pass and ``min_ops`` are done.

    Returns each op's time on the reference host (its time divided by the
    mean slowdown probed just before and just after it) and the slowdowns.
    """
    latencies, slowdowns = [], [probe.slowdown()]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        x = wl.input(i)
        if tracer is not None:
            tracer.owner, tracer.op = wl.name, i
        try:
            start = time.perf_counter()
            try:
                out = wl.run(x, tracer)
            finally:
                elapsed = time.perf_counter() - start
                slowdowns.append(probe.slowdown(elapsed))
                latencies.append(elapsed / statistics.mean(slowdowns[-2:]))
            problems = wl.check(x, out)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        tally.record(wl.name, problems)
        i += 1
    return latencies, slowdowns


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples above it."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1  # too few samples: the maximum
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def child_setup_s(args, probe) -> float:
    """A fresh process's set-up time, on the reference host."""
    before = probe.slowdown(1.0)
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
    setup_s = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
    return setup_s / statistics.mean([before, probe.slowdown(setup_s)])


def end_to_end(args, wl, tally) -> dict[str, float]:
    probe = HostProbe()
    latencies, slowdowns = measure(wl, args.seconds, tally, probe)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux
    setups = [child_setup_s(args, probe) for _ in range(SETUP_CHILDREN)]
    value, pct, n = tail(latencies)
    q = statistics.quantiles(slowdowns, n=10)
    print(f"  op_tail_s is p{pct:.1f} of {n} ops ({round(n * (1 - pct / 100))} above); "
          f"setup_s is the median of {len(setups)} fresh set-ups")
    print(f"  host slowdown against the reference host: median {statistics.median(slowdowns):.3f}, "
          f"p10 {q[0]:.3f}, p90 {q[-1]:.3f}; times below are on the reference host")
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
        "peak_rss_mb": peak_rss_mb,
    }


def traced(args, wl, tally) -> dict[str, float]:
    import tracing
    import workloads

    probe = HostProbe()
    untraced, _ = measure(wl, args.seconds / 2, tally, probe)
    workloads.import_program()
    others = [cls(args.seed) for cls in workloads.WORKLOADS.values() if cls is not type(wl)]
    for other in others:
        other.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with_trace, _ = measure(wl, args.seconds / 2, tally, probe, tracer, min_ops=wl.block)
        for other in others:
            # cli-cold's probe is one launch: its layers have no counts.
            probe_ops = 1 if other.name == "cli-cold" else other.block
            measure(other, 0, tally, probe, tracer, min_ops=probe_ops)
        cli = wl if wl.name == "cli-cold" else next(o for o in others if o.name == "cli-cold")
        cli.main_calls(tracer, CLI_MAIN_REPS if cli is wl else 1)
    finally:
        tracer.uninstall()
    metrics = {}
    for cls in workloads.WORKLOADS.values():
        metrics.update(cls.layer_metrics(tracer))
    metrics["trace.overhead_s"] = statistics.median(with_trace) - statistics.median(untraced)
    print(f"  {len(tracer.spans)} spans; {len(untraced)} untraced and "
          f"{len(with_trace)} traced ops of {wl.name}")
    return metrics


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*argv):
        return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def machine_facts(usable_cpus: list[int]) -> dict:
    from importlib import metadata

    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(usable_cpus),
        "pinned_to_cpu": usable_cpus[-1],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_caps": {k: os.environ[k] for k in THREAD_CAPS},
        **git_state(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "closed-form", "oracle", "search"))
    parser.add_argument("--seed", type=int, help="workload seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {'setup_s': ...} and exit (used by the benchmark itself)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bb84eve" / "__init__.py").is_file():
        print(f"error: no bb84eve sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # The benchmark and every child process run on one CPU.  Each CPU of the
    # shared host slows down on its own, so the host-speed probe (HostProbe)
    # tracks an op only if both run on the same one.
    usable_cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, usable_cpus[-1:])
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEEDS[args.workload]
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"bb84eve benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    tally = Tally()
    if args.trace:
        metrics = traced(args, wl, tally)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(args, wl, tally)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    fail_frac = tally.failed / tally.attempted
    print(f"  {'fail_frac':<48} {fail_frac:.6g} ({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({"machine": machine_facts(usable_cpus)}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
