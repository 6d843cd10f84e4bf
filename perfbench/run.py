"""qesp-lab benchmark: one workload per invocation, one process, one thread.

    python3 perfbench/run.py --workload edge_small --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then traced, and
reports per-module numbers from the span recorder.  Every pass of every
workload is checked; the last stdout line is the result object and the exit
code is non-zero when any output was wrong.  ``perfbench/README.md`` lists
what each metric means and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import MODULES, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

# setup_s is the median of this many complete set-ups (import included).
SETUP_REPEATS = 15
# Closed-loop percentiles are taken per window of whole passes holding at
# least this many packets, so even p99 has at least 20 samples beyond it and
# every window holds the same packet mix.
WINDOW = 2048

# Span name -> per-module metric fed by the span's self time.
BUCKETS = {
    "wire.parse_ipv4": "wire.parse_ipv4.us",
    "wire.encode_ipv4": "wire.encode_ipv4.us",
    "wire.ipv4_checksum": "wire.checksum.us",
    "crypto.encrypt": "crypto.cipher.us",
    "crypto.decrypt": "crypto.cipher.us",
    "crypto.compute_icv": "crypto.icv.us",
    "crypto.verify_icv": "crypto.icv.us",
    "crypto.IvGenerator.next_iv": "crypto.iv.us",
    "crypto.compute_pad_len": "crypto.pad.us",
    "crypto.make_pad": "crypto.pad.us",
    "crypto.check_pad": "crypto.pad.us",
    "sadb.SecurityAssociation.next_seq": "sadb.seq.us",
    "sadb.SecurityAssociation.next_iv": "sadb.seq.us",
    "sadb.SecurityAssociation.replay_check_and_update": "sadb.replay.us",
    "engine.outbound": "engine.outbound.self_us",
    "engine.outbound_qesp": "engine.outbound.self_us",
    "engine.outbound_esp": "engine.outbound.self_us",
    "engine.inbound": "engine.inbound.self_us",
    "engine.inbound_qesp": "engine.inbound.self_us",
    "engine.inbound_esp": "engine.inbound.self_us",
    "classifier.classify_and_remark": "classifier.classify.us",
    "classifier.classify": "classifier.classify.us",
    "classifier.remark_dscp": "classifier.remark.us",
    "netsim.EventScheduler.run": "netsim.loop",
    "netsim.build_datagram": "netsim.build_datagram.us",
    "cli.main": "cli",
}
PER_PACKET_US = sorted({b for b in BUCKETS.values() if b.endswith("us")})


class BenchError(Exception):
    """The checkout cannot be benchmarked (no package source)."""


def import_package() -> SimpleNamespace:
    """(Re-)import qesp_lab from the checkout, dropping any earlier import."""
    if not (SRC / "qesp_lab" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'qesp_lab'}")
    for name in [n for n in sys.modules if n == "qesp_lab" or n.startswith("qesp_lab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {short: importlib.import_module(f"qesp_lab.{short}") for short in MODULES + ("errors",)}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise BenchError(f"qesp_lab imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def environment() -> dict:
    import cryptography  # a dependency of qesp_lab, already imported by set-up
    from cryptography.hazmat.backends.openssl import backend

    env = {"python": platform.python_version(), "cryptography": cryptography.__version__,
           "openssl": backend.openssl_version_text(), "nproc": os.cpu_count(),
           "cpu_model": platform.machine()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            env["cpu_model"] = next(line.split(":", 1)[1].strip() for line in f
                                    if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env["git_commit"] = git_commit()
    return env


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = ROOT / ".git" / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def measure(workload, seconds: float, before_pass=lambda: None) -> tuple[list, list]:
    """Passes until `seconds` of wall time are used; at least one.

    Closed-loop packet times are folded into percentiles per window of whole
    passes holding at least WINDOW packets as they arrive and then dropped,
    so memory does not grow with the number of packets a run manages to
    process.

    Each pass (closed loops: each window) is pinned to the next CPU the
    process may run on, in turn.  On a shared virtual machine one vCPU can
    run 1.5x slower than the other for tens of seconds while its host core
    is busy, and the scheduler leaves a busy thread where it is; taking
    turns lets the best pass come from either.
    """
    gc.collect()  # start clean; GC stays enabled, as it is for users
    passes, windows, pending = [], [], []
    allowed = os.sched_getaffinity(0)
    cpus = itertools.cycle(sorted(allowed))
    deadline = time.perf_counter() + seconds
    try:
        while not passes or time.perf_counter() < deadline:
            before_pass()
            result = workload.run_pass()
            passes.append(result)
            if result.samples_ns is None:
                os.sched_setaffinity(0, {next(cpus)})
            else:
                pending.extend(result.samples_ns)
                result.samples_ns = None
                if len(pending) >= WINDOW:
                    windows.append(window_stats(pending))
                    pending = []
                    os.sched_setaffinity(0, {next(cpus)})
    finally:
        os.sched_setaffinity(0, allowed)
    if len(pending) > 1 and not windows:
        windows.append(window_stats(pending))
    return passes, windows


def window_stats(samples_ns: list[int]) -> tuple[float, float, float]:
    """p50, p90, p99 of one window, in microseconds."""
    cuts = statistics.quantiles(samples_ns, n=100, method="inclusive")
    return cuts[49] / 1e3, cuts[89] / 1e3, cuts[98] / 1e3


def timed_setup(workload) -> tuple[SimpleNamespace, float]:
    """One complete set-up, import included; returns the modules and seconds."""
    gc.collect()
    start = time.perf_counter()
    modules = import_package()
    workload.setup(modules)
    return modules, time.perf_counter() - start


def count_failures(passes, reference: bytes) -> tuple[int, int]:
    """(attempted, failed) packets; a pass whose outputs differ from the
    reference pass counts every packet as failed."""
    attempted = sum(p.packets for p in passes)
    failed = sum(p.packets if p.digest != reference else p.failed for p in passes)
    return attempted, failed


def best(values: list[float], higher_is_better: bool = False) -> float:
    """The best pass or window of the run: its minimum time (maximum rate).

    Shared 2-core virtual machines show spells of seconds to about a minute
    in which everything runs up to 1.5x slower, and pass-to-pass swings of
    as much within them; a run's median or even its best decile moves with
    them, its best value only when a spell covers the whole run.  The
    package's own bench-crypto takes the best of N for the same reason.
    """
    return max(values) if higher_is_better else min(values)


def end_to_end(passes, windows, setups: list[float]) -> tuple[dict, dict]:
    """Per-pass (or per-window) statistics, reduced over the run by best."""
    if windows:
        p50, p90, p99 = (best([w[i] for w in windows]) for i in range(3))
        sampling = {"latency_sample": "packet", "latency_windows": len(windows),
                    "window_min_packets": WINDOW, "pass_packets": passes[0].packets}
    else:
        # A batch workload has no per-packet clock without tracing: every
        # packet of a pass gets the pass's mean cost, so p50 == p90 == p99.
        p50 = p90 = p99 = best([p.wall_ns / p.packets / 1e3 for p in passes])
        sampling = {"latency_sample": "pass mean", "latency_samples": len(passes)}
    # The tail goes to the report, unbounded: it tracks interference from
    # other tenants more than the program (README.md has the figures).
    sampling.update(pkt_us_p90=p90, pkt_us_p99=p99)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pkts_per_s": (best([p.packets * 1e9 / p.wall_ns for p in passes], True), "1/s"),
        "scenario_s": (best([p.wall_ns / 1e9 for p in passes]), "s"),
        "pkt_us_p50": (p50, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = {"passes": len(passes), "packets": sum(p.packets for p in passes),
              "setup_repeats": len(setups), **sampling}
    return metrics, counts


def per_layer(untraced, traced, tracer: Tracer) -> tuple[dict, dict]:
    packets = sum(p.packets for p in traced)
    n_passes = len(traced)
    summary, self_ns = tracer.analyse(BUCKETS)

    def calls(name: str, key: str = "calls") -> int:
        return summary.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {name: (self_ns.get(name, 0) / packets / 1e3, "us") for name in PER_PACKET_US}
    events = tracer.counts.get("netsim.EventScheduler.schedule", 0)
    replay = "sadb.SecurityAssociation.replay_check_and_update"
    inbound = calls("engine.inbound")
    metrics.update({
        "wire.calls_per_pkt": (ratio(sum(row["calls"] for name, row in summary.items()
                                         if name.startswith("wire.")), packets), "count"),
        "sadb.replay_reject_ratio": (ratio(calls(replay, "returned_false"), calls(replay)), "ratio"),
        "engine.decap_accept_ratio": (ratio(inbound - calls("engine.inbound", "raised"), inbound),
                                      "ratio"),
        "netsim.loop.self_us_per_event": (ratio(self_ns.get("netsim.loop", 0) / 1e3, events), "us"),
        "netsim.events": (events / n_passes, "count"),
        "netsim.drop_ratio": (ratio(sum(p.dropped for p in traced), packets), "ratio"),
        "config.load_s": (calls("config.load_config", "total_ns") / n_passes / 1e9, "s"),
        "cli.self_s": (self_ns.get("cli", 0) / n_passes / 1e9, "s"),
        "trace.overhead_ratio": (
            ratio(sum(p.wall_ns for p in traced) / packets,
                  sum(p.wall_ns for p in untraced) / sum(p.packets for p in untraced)), "ratio"),
    })
    counts = {"untraced_passes": len(untraced), "traced_passes": n_passes,
              "traced_packets": packets, "spans": len(tracer.starts)}
    return metrics, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hook: plant one wrong expectation, which must fail the run.
    parser.add_argument("--fault", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed, args.fault)
    try:
        modules, first = timed_setup(workload)
    except (BenchError, ImportError) as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2

    if args.trace == 0:
        # The other set-ups are spread over the run, between passes, so one
        # slow spell of the machine cannot cover all of them.
        setups = [first]
        start = time.perf_counter()
        due = [args.seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]

        def setup_when_due() -> None:
            if due and time.perf_counter() - start >= due[0]:
                del due[0]
                setups.append(timed_setup(workload)[1])

        passes, windows = measure(workload, args.seconds, setup_when_due)
        while len(setups) < SETUP_REPEATS:
            setups.append(timed_setup(workload)[1])
        metrics, details = end_to_end(passes, windows, setups)
    else:
        untraced, _ = measure(workload, args.seconds / 2)
        with Tracer(modules) as tracer:
            traced, _ = measure(workload, args.seconds / 2, tracer.mark)
        passes = untraced + traced
        metrics, details = per_layer(untraced, traced, tracer)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write_spans(span_file)
        details["span_file"] = str(span_file.relative_to(ROOT))

    attempted, failed = count_failures(passes, passes[0].digest)
    extra_attempted, extra_failed = workload.extra_check()
    attempted += extra_attempted
    failed += extra_failed
    correct = failed == 0

    result_metrics = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "error_rate": failed / attempted, "details": details,
              "environment": environment()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
