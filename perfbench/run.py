#!/usr/bin/env python3
"""The simulator's benchmark.

Builds the single-threaded driver (perfbench/driver.cpp) from this
checkout's sources, runs one named workload through harness::execute_full
for --seconds wall seconds, checks the simulated outcomes, and prints one
JSON object as the last line of standard output:

    python3 perfbench/run.py --workload long_horizon --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics from the untraced build.
--trace 1 also runs the traced build (GNU ld --wrap on each layer's entry
points) and reports the per-layer metrics; its simulated outcomes must be
bit-identical to the untraced build's.

Host times are normalized by a frozen reference kernel sampled on a
CPU-time timer (perfbench/refkernel.h), because shared virtual machines
change speed from second to second. Seed 8675309 is held out: use it to
confirm a claim made while tuning on other seeds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "scratch"
WORKLOADS = ["long_horizon", "large_n", "churn_recovery", "protocol_mix"]
LAYERS = ["forest", "crypto", "quorum", "sim", "net", "mempool", "sync",
          "harness"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler and store temp files inside
    return env


def build():
    env = child_env()
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)


def run_driver(binary, workload, seed, seconds):
    shutil.rmtree(SCRATCH, ignore_errors=True)
    cmd = [str(BUILD / binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--scratch", str(SCRATCH)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=seconds + 60)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{binary} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed(data):
    """Iterations that count: the first one warms caches and the allocator."""
    its = data["iterations"]
    return its[1:] if len(its) >= 3 else its


def scale(it):
    """This iteration's factor from host ns to normalized ns."""
    return it["host_norm_ns"] / it["host_ns"]


def med(values):
    return statistics.median(values)


def end_to_end(data):
    its = timed(data)
    host = [it["host_norm_ns"] / 1e9 for it in its]
    return {
        "setup_s": (med([it["setup_norm_ns"] / 1e9 for it in its]), "s"),
        "host_s": (med(host), "s"),
        "events_per_s": (med([it["events"] / h
                              for it, h in zip(its, host)]), "1/s"),
        "peak_rss_mb": (data["peak_rss_kb"] / 1024.0, "MB"),
        "sim_tps": (data["sim"]["tps"], "tx/s"),
        "sim_p50_ms": (data["sim"]["p50_ms"], "ms"),
        "sim_p99_ms": (data["sim"]["p99_ms"], "ms"),
    }


def host_diagnostics(data):
    its = timed(data)
    return {
        "raw_wall_s": med([it["raw_wall_ns"] / 1e9 for it in its]),
        "raw_cpu_s": med([it["raw_cpu_ns"] / 1e9 for it in its]),
        "ref_us": med([it["ref_ns"] / 1e3 for it in its]),
    }


def per_layer(plain, traced):
    its = timed(traced)
    first = its[0]
    ctr = traced["counters"]

    def share(layer):
        return med([it["layers"][layer]["self_ns"] /
                    (it["host_ns"] + it["run_setup_ns"]) for it in its])

    def ns_per_call(layer):
        calls = first["layers"][layer]["calls"]
        if calls == 0:
            return 0.0
        return med([it["layers"][layer]["self_ns"] * scale(it) / calls
                    for it in its])

    m = {}
    for layer in ["forest", "crypto", "quorum", "net", "mempool", "sync"]:
        m[f"{layer}.calls"] = (first["layers"][layer]["calls"], "count")
        m[f"{layer}.self_share"] = (share(layer), "ratio")
    for layer in ["forest", "crypto", "quorum", "net", "mempool"]:
        m[f"{layer}.ns_per_call"] = (ns_per_call(layer), "ns")
    blocks = ctr["blocks_committed"]
    m["crypto.verifies_per_block"] = (
        first["verifies"] / first["blocks_committed"]
        if first["blocks_committed"] else 0.0, "count")
    m["quorum.certs_verified"] = (ctr["certs_verified"], "count")
    m["quorum.certs_rejected"] = (ctr["certs_rejected"], "count")
    m["sim.events"] = (first["events"], "count")
    m["sim.calls"] = (first["layers"]["sim"]["calls"], "count")
    m["sim.self_share"] = (share("sim"), "ratio")
    m["sim.ns_per_event"] = (med([it["layers"]["sim"]["self_ns"] *
                                  scale(it) / it["events"]
                                  for it in its]), "ns")
    m["net.bytes_per_block"] = (ctr["net_bytes"] / blocks if blocks else 0.0,
                                "B")
    m["mempool.admitted"] = (ctr["mem_admitted"], "count")
    m["mempool.rejected"] = (ctr["mem_rejected"], "count")
    ref_scale = med([scale(it) for it in its])
    st = traced["storage"]
    m["storage.append_us"] = (st["append_ns"] * ref_scale / 1e3, "us")
    m["storage.read_us"] = (st["read_ns"] * ref_scale / 1e3, "us")
    m["storage.recover_us"] = (st["recover_ns"] * ref_scale / 1e3, "us")
    m["storage.disk_bytes_written"] = (ctr["disk_bytes_written"], "B")
    m["storage.write_amplification"] = (ctr["write_amplification"], "ratio")
    m["storage.reads"] = (ctr["store_reads"], "count")
    requested = ctr["sync_requests"] * ctr["sync_batch"]
    m["sync.requests"] = (ctr["sync_requests"], "count")
    m["sync.blocks"] = (ctr["sync_blocks"], "count")
    m["sync.snapshot_bytes"] = (ctr["snapshot_bytes"], "B")
    m["sync.useful_ratio"] = (ctr["sync_blocks"] / requested
                              if requested else 0.0, "ratio")
    m["sync.recovery_ms"] = (traced["sim"]["recovery_ms"], "ms")
    m["core.residual_share"] = (
        med([1.0 - sum(it["layers"][l]["self_ns"] for l in LAYERS) /
             (it["host_ns"] + it["run_setup_ns"]) for it in its]), "ratio")
    m["core.views"] = (ctr["views"], "count")
    m["core.timeouts"] = (ctr["timeouts"], "count")
    m["core.blocks_forked"] = (ctr["blocks_forked"], "count")
    m["harness.setup_calls"] = (first["layers"]["harness"]["calls"], "count")
    m["harness.report_us"] = (traced["report_ns"] * ref_scale / 1e3, "us")
    diag = host_diagnostics(plain)
    m["host.raw_wall_s"] = (diag["raw_wall_s"], "s")
    m["host.raw_cpu_s"] = (diag["raw_cpu_s"], "s")
    m["host.ref_us"] = (diag["ref_us"], "us")
    m["host.trace_overhead"] = (end_to_end(traced)["host_s"][0] -
                                end_to_end(plain)["host_s"][0], "s")
    return m


def accounting(runs):
    attempted = sum(d["runs"] + d["offered"] for d in runs)
    failed = sum(d["failed_runs"] + d["refused"] for d in runs)
    problems = [f for d in runs for f in d["failures"]]
    for d in runs:
        if not d["deterministic"]:
            problems.append(f"{d['workload']}: simulated outcomes changed "
                            "between iterations of the same seed")
    return attempted, failed, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    try:
        build()
        if args.trace:
            plain = run_driver("perfbench", args.workload, args.seed,
                               args.seconds / 3)
            traced = run_driver("perfbench_traced", args.workload, args.seed,
                                args.seconds * 2 / 3)
            runs = [plain, traced]
        else:
            plain = run_driver("perfbench", args.workload, args.seed,
                               args.seconds)
            runs = [plain]
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError, KeyError, IndexError) as e:
        log(f"perfbench: {e}")
        return 1

    attempted, failed, problems = accounting(runs)
    if args.trace and plain["sim"] != traced["sim"]:
        problems.append("traced and untraced simulated outcomes differ: "
                        f"{plain['sim']} vs {traced['sim']}")
    for p in problems:
        log(f"perfbench: FAILED CHECK {p}")

    e2e = end_to_end(plain)
    diag = host_diagnostics(plain)
    print(f"{args.workload} seed {args.seed}: "
          f"{len(plain['iterations'])} iterations, "
          f"host_s {e2e['host_s'][0]:.4f} normalized "
          f"(raw cpu {diag['raw_cpu_s']:.4f} s, raw wall "
          f"{diag['raw_wall_s']:.4f} s, reference sample "
          f"{diag['ref_us']:.2f} us), setup_s {e2e['setup_s'][0]:.6f}, "
          f"sim_tps {e2e['sim_tps'][0]:.1f}")
    metrics = per_layer(plain, traced) if args.trace else e2e
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
