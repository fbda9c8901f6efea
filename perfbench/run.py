"""N-TADOC benchmark: seeded workloads replayed through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload trio_manyfile --seed 1 --seconds 15 --trace 0

One process, one client, a closed loop and no extra threads: each op is
sent only after the previous one returned.  A run replays a fixed number
of whole cycles, round(--seconds / ref_cycle_s), which lasts about
--seconds at the reference host speed (see below).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps each layer's entry points (see
``spans.py``) and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3  # setup_s is the median of this many full set-ups
UNTRACED_SHARE = 1 / 3  # share of the cycles a traced run runs untraced

# Host metrics are reported at a reference host speed.  The machines this
# runs on change speed by up to 1.6x between runs (other tenants), so a
# raw host interval is scaled by CAL_REF_S over the time a fixed
# calibration kernel took right next to it.  Raw times are printed too.
CAL_REF_S = 0.012  # the kernel's time at the reference speed
CAL_GAP_S = 0.25  # take a new calibration sample after this much wall time
_CAL_BUF = bytearray(1 << 20)


def calibration_sample() -> float:
    """Host seconds of a fixed pure-Python kernel shaped like the
    simulator's inner loops (dict updates, struct access to a 1 MiB
    buffer, slicing).  It calls nothing in the program, so a change to the
    program cannot move it."""
    buf = _CAL_BUF
    view = memoryview(buf)
    pack, unpack = struct.pack_into, struct.unpack_from
    table: dict[int, int] = {}
    x = 12345
    start = time.perf_counter()
    for i in range(18000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        offset = (x & 0xFFFF) << 4
        pack("<Q", buf, offset, i)
        key = x & 0x3FFF
        table[key] = table.get(key, 0) + unpack("<Q", buf, offset)[0]
        if i & 7 == 0:
            bytes(view[offset : offset + 256])
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples taken between ops, at most every CAL_GAP_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.taken_at = float("-inf")

    def refresh(self, force: bool = False) -> int:
        """Index of the latest sample, retaken when older than CAL_GAP_S."""
        if force or time.perf_counter() - self.taken_at >= CAL_GAP_S:
            self.samples.append(calibration_sample())
            self.taken_at = time.perf_counter()
        return len(self.samples) - 1


def ref_s(op) -> float:
    """The op's host time at the reference speed."""
    return op.wall_s * CAL_REF_S / op.cal_s


class Window:
    """The ops of one timed window, grouped by (whole) cycle."""

    def __init__(self) -> None:
        self.cycles: list[list] = []

    @property
    def ops(self) -> list:
        return [op for cycle in self.cycles for op in cycle]

    @property
    def first(self) -> list:
        return self.cycles[0]

    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    def ref_s(self) -> float:
        return sum(ref_s(op) for op in self.ops)


def run_window(workload, cycles: int, host: HostSpeed, recorder=None) -> Window:
    """Replay ``cycles`` whole cycles of the workload.  Only the op calls
    are timed; the oracle check, the calibration and the per-cycle
    preparation happen outside them."""
    window = Window()
    cal_before: list[int] = []  # per op: index of the sample taken before it
    for cycle in range(cycles):
        workload.start_cycle()
        records: list = []
        window.cycles.append(records)
        for op in workload.cycle():
            cal_before.append(host.refresh())
            if recorder is not None:
                recorder.cycle = cycle
            record = op()
            if recorder is not None:
                recorder.cycle = -1
            records.append(record)
    # Scale each op by the mean of the samples taken before and after it.
    host.refresh(force=True)
    samples = host.samples
    for record, index in zip(window.ops, cal_before):
        record.cal_s = (samples[index] + samples[index + 1]) / 2
    return window


def determinism_failures(window: Window) -> int:
    """Ops whose simulated values differ from the same op in cycle 0."""
    reference = [op.sim_key() for op in window.first]
    return sum(
        1
        for cycle in window.cycles[1:]
        for index, op in enumerate(cycle)
        if op.sim_key() != reference[index]
    )


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(window: Window, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics (tracing off) and notes printed beside them.
    ``setup`` holds (raw seconds, reference seconds) per set-up."""
    ops = window.ops
    first = window.first
    queries = [op for op in ops if op.kind == "query"]
    query_ms = [ref_s(op) * 1e3 for op in queries]
    raw_ms = [op.wall_s * 1e3 for op in queries]
    tail_ms, tail_pct = tail(query_ms)
    lines = sum(op.stats.cache_hits + op.stats.cache_misses for op in ops)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "ops_per_s": (len(ops) / window.ref_s(), "1/s"),
        "query_wall_ms_p50": (statistics.median(query_ms), "ms"),
        "query_wall_ms_tail": (tail_ms, "ms"),
        "sim_ns_per_op": (sum(op.sim_ns for op in first) / len(first), "ns"),
        "host_ns_per_line": (window.ref_s() * 1e9 / max(lines, 1), "ns"),
        "dram_peak_bytes": (max(op.dram_peak for op in ops), "B"),
        "pool_peak_bytes": (max(op.pool_peak for op in ops), "B"),
        "nvm_write_bytes_per_op": (
            sum(op.stats.bytes_written for op in first) / len(first), "B"
        ),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
    }
    notes = {
        "setup_s": "raw " + ", ".join(f"{raw:.3f}" for raw, _ in setup),
        "ops_per_s": f"{len(ops)} ops; raw {len(ops) / window.wall_s():.4f}",
        "query_wall_ms_p50": f"{len(queries)} queries; raw {statistics.median(raw_ms):.4f}",
        "query_wall_ms_tail": f"p{tail_pct:.1f}; raw {tail(raw_ms)[0]:.4f}",
        "host_ns_per_line": f"raw {window.wall_s() * 1e9 / max(lines, 1):.4f}",
    }
    return metrics, notes


def per_layer(traced: Window, untraced: Window, summary: dict) -> dict:
    """The per-layer metrics of a traced run (see README.md for the map)."""
    first = traced.first
    n_first = len(first)
    n_ops = len(traced.ops)

    def calls(*names: str) -> float:
        return sum(summary.get(n, {}).get("calls_c0", 0) for n in names) / n_first

    # Span times scale to the reference speed by the window's median sample.
    speed = CAL_REF_S / statistics.median(op.cal_s for op in traced.ops)

    def self_ms(*names: str) -> float:
        total_s = sum(summary.get(n, {}).get("self_s", 0.0) for n in names)
        return total_s * speed * 1e3 / n_ops

    def per_op(field: str) -> float:
        return sum(getattr(op, field) for op in first) / n_first

    def stat(field: str) -> float:
        return sum(getattr(op.stats, field) for op in first)

    def wall_p50(kind: str) -> float:
        walls = [ref_s(op) * 1e3 for op in untraced.ops if op.kind == kind]
        return statistics.median(walls) if walls else 0.0

    hits, misses = stat("cache_hits"), stat("cache_misses")
    sim_total = sum(op.sim_ns for op in first)
    queries = [op for op in first if op.kind == "query"]
    kernels = ("kernels.probe_batch", "kernels.scan_chunks", "kernels.other")
    pstruct = ("pstruct.merge_from", "pstruct.phashtable_bulk", "pstruct.pvector")
    untraced_rate = len(untraced.ops) / untraced.ref_s()
    traced_rate = n_ops / traced.ref_s()
    values = {
        "plan.bottomup_passes_per_op": (per_op("bottomup_passes"), "count"),
        "plan.topdown_passes_per_op": (per_op("topdown_passes"), "count"),
        "plan.pool_builds_per_op": (calls("pruning.build"), "count"),
        "plan.execute_fused.self_ms": (self_ms("plan.execute_fused"), "ms"),
        "pruning.build.self_ms": (self_ms("pruning.build"), "ms"),
        "engine.init_sim_ns_per_op": (per_op("init_ns"), "ns"),
        "traversal.topdown.self_ms": (self_ms("traversal.topdown"), "ms"),
        "traversal.bottomup.self_ms": (self_ms("traversal.bottomup"), "ms"),
        "engine.traversal_sim_ns_per_op": (per_op("traversal_ns"), "ns"),
        "analytics.hooks.self_ms": (self_ms("analytics.hooks"), "ms"),
        "pstruct.merge_from.calls_per_op": (calls("pstruct.merge_from"), "count"),
        "pstruct.merge_from.self_ms": (self_ms("pstruct.merge_from"), "ms"),
        "pstruct.phashtable_bulk.self_ms": (self_ms("pstruct.phashtable_bulk"), "ms"),
        "pstruct.pvector.self_ms": (self_ms("pstruct.pvector"), "ms"),
        "kernels.probe_batch.self_ms": (self_ms("kernels.probe_batch"), "ms"),
        "kernels.scan_chunks.self_ms": (self_ms("kernels.scan_chunks"), "ms"),
        "kernels.calls_per_op": (calls(*kernels), "count"),
        "nvm.line_touches_per_op": ((hits + misses) / n_first, "count"),
        "nvm.cache_hit_rate": (hits / max(hits + misses, 1), "ratio"),
        "nvm.writebacks_per_op": (stat("writebacks") / n_first, "count"),
        "nvm.device_sim_ns_share": (stat("device_ns") / max(sim_total, 1.0), "ratio"),
        "nvm.flush.calls_per_op": (calls("nvm.flush"), "count"),
        "nvm.flush.lines_per_op": (stat("flushed_lines") / n_first, "count"),
        "nvm.flush.self_ms": (self_ms("nvm.flush"), "ms"),
        "persist.tx_commits_per_op": (calls("persist.commit"), "count"),
        "persist.commit.self_ms": (self_ms("persist.commit"), "ms"),
        "persist.phase_commits_per_op": (calls("persist.complete_phase"), "count"),
        "scrub.seal_bytes_per_op": (stat("seal_bytes") / n_first, "B"),
        "scrub.seal.self_ms": (self_ms("scrub.seal"), "ms"),
        "obs.events_per_op": (calls("obs.emit"), "count"),
        "obs.emit.self_ms": (self_ms("obs.emit"), "ms"),
        "obs.metrics.self_ms": (self_ms("obs.metrics"), "ms"),
        "sequitur.compress.self_ms": (self_ms("sequitur.compress"), "ms"),
        "sequitur.tokens_per_op": (per_op("tokens"), "count"),
        "ingest.append.wall_ms_p50": (wall_p50("append"), "ms"),
        "ingest.delete.wall_ms_p50": (wall_p50("delete"), "ms"),
        "ingest.seal.wall_ms_p50": (wall_p50("seal"), "ms"),
        "ingest.compact.wall_ms_p50": (wall_p50("compact"), "ms"),
        "ingest.merge.self_ms": (self_ms("ingest.merge"), "ms"),
        "ingest.segments_per_query": (
            sum(op.segments for op in queries) / max(len(queries), 1), "count"
        ),
        "pstruct_kernels.self_share": (
            (self_ms(*pstruct) + self_ms(*kernels)) / (traced.wall_s() * speed * 1e3 / n_ops),
            "ratio",
        ),
        "trace.overhead_ratio": (untraced_rate / traced_rate, "ratio"),
    }
    return values


def provenance(args, workload, host: HostSpeed) -> list[str]:
    """The lines printed above the numbers."""
    from repro.kernels import numpy_or_none

    numpy = numpy_or_none()

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    command = "python3 perfbench/run.py " + " ".join(
        f"--{key} {value:g}" if isinstance(value, float) else f"--{key} {value}"
        for key, value in vars(args).items()
    )
    return [
        f"command: {command}",
        f"workload: {workload.name} -- {workload.why}",
        f"seed: {args.seed}",
        f"commit: {commit}",
        f"python: {platform.python_version()}  "
        f"numpy: {numpy.__version__ if numpy else 'absent'}  "
        f"kernels: auto -> {'numpy' if numpy else 'python'}  "
        f"nproc: {os.cpu_count()}",
        f"input: {json.dumps(workload.input_size(), sort_keys=True)}",
        "cost model: unvalidated against hardware, so no error figure is given",
        f"host speed: times scaled to a {CAL_REF_S * 1e3:g} ms calibration kernel; "
        f"median sample {statistics.median(host.samples) * 1e3:.3f} ms "
        f"of {len(host.samples)}",
        "caches: every run/run_many builds a fresh pool, so the modelled CPU "
        "cache starts empty per op (ingest_stream: per cycle)",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    cycles = max(1, round(args.seconds / workload.ref_cycle_s))
    host = HostSpeed()
    setup = []
    for _ in range(SETUP_REPS):
        before = calibration_sample()
        start = time.perf_counter()
        workload.setup()
        raw = time.perf_counter() - start
        cal_s = (before + calibration_sample()) / 2
        setup.append((raw, raw * CAL_REF_S / cal_s))
    workload.prepare_oracle()

    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        n_untraced = max(1, round(cycles * UNTRACED_SHARE))
        untraced = run_window(workload, n_untraced, host)
        recorder.active = True
        window = run_window(workload, max(1, cycles - n_untraced), host, recorder)
        recorder.active = False
        summary = recorder.summary()
        metrics = per_layer(window, untraced, summary)
        notes: dict = {}
        span_lines = [
            f"span {name:24s} calls/op {entry['calls'] / len(window.ops):12.2f}  "
            f"self {entry['self_s'] * 1e3 / len(window.ops):10.4f} ms/op (raw)  "
            f"sim {entry['sim_ns'] / len(window.first):14.1f} ns/op (inclusive)"
            for name, entry in sorted(summary.items())
        ]
        # One determinism check over both windows also shows that
        # tracing charged nothing.
        both = Window()
        both.cycles = untraced.cycles + window.cycles
        windows = [both]
    else:
        window = run_window(workload, cycles, host)
        metrics, notes = end_to_end(window, setup)
        windows = [window]
        span_lines = []

    attempted = sum(len(w.ops) for w in windows)
    failed = [op.failed for w in windows for op in w.ops if op.failed]
    nondeterministic = sum(determinism_failures(w) for w in windows)
    for line in provenance(args, workload, host) + span_lines:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:34s} {value:>18.6f} {unit:6s} {note}")
    print(f"{'error_rate':34s} {len(failed) / attempted:>18.6f} {'-':6s} "
          f"{len(failed)} of {attempted} ops failed")
    for reason in sorted(set(failed))[:10]:
        print(f"# failed: {reason}")
    if nondeterministic:
        print(f"# {nondeterministic} repeated ops changed a simulated value")
    correct = not failed and not nondeterministic
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
