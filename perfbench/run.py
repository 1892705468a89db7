#!/usr/bin/env python3
"""Native end-to-end benchmark of the ILP protocol stack.

    python3 perfbench/run.py --workload bulk_ilp|bulk_layered|fleet_mixed \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run from the repository root.  Builds perfbench/ (which compiles the stack
from src/) into .bench_build/perfbench, then measures the workload for about
S seconds.  Every repetition is a fresh ilpbench process, so each one's peak
RSS belongs to that workload alone.

--trace 0 reports the end-to-end metrics (medians over the repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics, an attribution table and, on the bulk workloads, the
paper's ILP-vs-layered row.

Correctness gate, on every run: every flow must complete and match the
served file, every repetition's fleet digest must equal the digest of
engine::run_fleet_native for the same configuration and seed, and a traced
run's digest must equal the untraced one's.  Any failure prints
"correct": false and exits 1.  The last line of standard output is always
the JSON result (or nothing, when the run could not start).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ilpbench")
# The repository's default build type: the configuration users build.
BUILD_TYPE = "RelWithDebInfo"
PROCESS_TIMEOUT_S = 150
MIN_REPS = 3

WORKLOADS = ("bulk_ilp", "bulk_layered", "fleet_mixed")
SIBLING = {"bulk_ilp": "bulk_layered", "bulk_layered": "bulk_ilp"}

END_TO_END = [
    ("goodput_MBps", "MB/s"),
    ("setup_s", "s"),
    ("peak_rss_MB", "MB"),
]

# name, unit, and how it is computed from the traced repetitions' outputs,
# each field taken as its median over the repetitions (t).
PER_LAYER = [
    ("engine.tick_us.p50", "us", lambda t: t["tick_us_p50"]),
    ("engine.tick_us.p99", "us", lambda t: t["tick_us_p99"]),
    ("engine.tick_s.total", "s", lambda t: t["tick_s_total"]),
    ("engine.ticks", "count", lambda t: t["ticks"]),
    ("engine.us_per_flow_visit", "us",
     lambda t: t["tick_s_total"] * 1e6 / max(t["active_visits"], 1)),
    ("engine.open_flow_us.p50", "us", lambda t: t["open_flow_us_p50"]),
    ("engine.open_flow_us.p99", "us", lambda t: t["open_flow_us_p99"]),
    ("clock.pending_timers.max", "count", lambda t: t["pending_timers_max"]),
    ("clock.timers_scheduled", "count", lambda t: t["timers_scheduled"]),
    ("clock.ns_per_timer", "ns", lambda t: t["probe_timer"]),
    ("net.packets_sent", "count", lambda t: t["packets_sent"]),
    ("net.packets_dropped", "count", lambda t: t["packets_dropped"]),
    ("net.queue_dropped", "count", lambda t: t["queue_dropped"]),
    ("net.in_flight.max", "count", lambda t: t["in_flight_max"]),
    ("net.pipe_ns_per_packet", "ns", lambda t: t["probe_pipe"]),
    ("tcp.segments", "count", lambda t: t["tcp_segments"]),
    ("tcp.retransmissions", "count", lambda t: t["tcp_retransmissions"]),
    ("tcp.retransmit_ratio", "ratio",
     lambda t: t["tcp_retransmissions"] / max(t["tcp_segments"], 1)),
    ("rpc.retries", "count", lambda t: t["rpc_retries"]),
    ("app.fused_loop_bytes", "B", lambda t: t["fused_loop_bytes"]),
    ("app.marshal_pass_bytes", "B", lambda t: t["marshal_pass_bytes"]),
    ("app.cipher_pass_bytes", "B", lambda t: t["cipher_pass_bytes"]),
    ("app.checksum_pass_bytes", "B", lambda t: t["checksum_pass_bytes"]),
    ("app.copy_pass_bytes", "B", lambda t: t["copy_pass_bytes"]),
    ("core.fused_send_ns_per_byte", "ns/B", lambda t: t["probe_fused_send"]),
    ("core.fused_recv_ns_per_byte", "ns/B", lambda t: t["probe_fused_recv"]),
    ("core.layered_send_ns_per_byte", "ns/B",
     lambda t: t["probe_layered_send"]),
    ("core.layered_recv_ns_per_byte", "ns/B",
     lambda t: t["probe_layered_recv"]),
    ("core.copy_ns_per_byte", "ns/B", lambda t: t["probe_copy"]),
    ("xdr.marshal_ns_per_byte", "ns/B", lambda t: t["probe_xdr_marshal"]),
    ("checksum.inet_ns_per_byte", "ns/B", lambda t: t["probe_checksum"]),
    ("crypto.safer_simplified_ns_per_byte", "ns/B",
     lambda t: t["probe_safer"]),
    ("crypto.aead_ns_per_byte", "ns/B", lambda t: t["probe_aead"]),
    ("crypto.rekeys", "count", lambda t: t["rekeys"]),
    ("crypto.tag_failures", "count", lambda t: t["tag_failures"]),
    ("gate.checks", "count", lambda t: t["gate_checks"]),
    ("gate.cache_hit_ratio", "ratio",
     lambda t: t["gate_cache_hits"] / max(t["gate_checks"], 1)),
    ("gate.fallbacks", "count", lambda t: t["gate_fallbacks"]),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values)


def build():
    """Configures once, then (re)builds ilpbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "fleet.h")):
        log("perfbench: the stack sources (src/) are not in this checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "ilpbench", "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def ilpbench(workload, seed, scale, mode, trace_out=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd),
                                                   proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def goodput(rep):
    return rep["verified_bytes"] / rep["transfer_s"] / 1e6


def attribution(t, workload):
    """Estimated busy time per layer: probe ns/unit x counted units."""
    cipher_probe = t["probe_aead"] if workload == "fleet_mixed" \
        else t["probe_safer"]
    timer_units = max(t["timers_scheduled"] - t["packets_enqueued"], 0)
    rows = [
        ("core.fused", "fused-loop bytes, send", t["send_fused_bytes"],
         t["probe_fused_send"]),
        ("core.fused", "fused-loop bytes, receive", t["receive_fused_bytes"],
         t["probe_fused_recv"]),
        ("xdr", "marshal-pass bytes", t["marshal_pass_bytes"],
         t["probe_xdr_marshal"]),
        ("crypto", "cipher-pass bytes", t["cipher_pass_bytes"], cipher_probe),
        ("checksum", "checksum-pass bytes", t["checksum_pass_bytes"],
         t["probe_checksum"]),
        ("core.copy", "copy-pass bytes", t["copy_pass_bytes"],
         t["probe_copy"]),
        ("net", "packets sent", t["packets_sent"], t["probe_pipe"]),
        ("clock", "timers scheduled, not by a pipe", timer_units,
         t["probe_timer"]),
    ]
    base_s = t["tick_s_total"]
    out = [(layer, what, units, ns, units * ns / 1e9)
           for layer, what, units, ns in rows]
    residual = base_s - sum(r[4] for r in out)
    return base_s, out, residual


def print_attribution(t, workload, reps):
    base_s, rows, residual = attribution(t, workload)
    print("attribution (medians of %d traced reps; base = engine.tick_s.total"
          " = %.4f s over %d ticks; est = probe ns/unit x units)" %
          (reps, base_s, t["ticks"]))
    print("  %-11s %-32s %14s %10s %9s %7s" %
          ("layer", "units", "count", "ns/unit", "est s", "share"))
    for layer, what, units, ns, est in rows:
        print("  %-11s %-32s %14d %10.3f %9.4f %6.1f%%" %
              (layer, what, units, ns, est, 100.0 * est / base_s))
    print("  %-11s %-32s %14s %10s %9.4f %6.1f%%" %
          ("unattributed", "(tcp, rpc, app, engine scheduler)", "", "",
           residual, 100.0 * residual / base_s))


def run(args):
    if not build():
        return 2
    try:
        return measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as err:
        log("perfbench: %s" % err)
        return 1


def measure(args):
    reference = ilpbench(args.workload, args.seed, args.scale, "reference")
    ref_digest = reference["digest"]
    if args.inject_digest_mismatch:
        ref_digest = "%016x" % (int(ref_digest, 16) ^ 1)

    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-seed%d.json" %
                             (args.workload, args.seed))

    untraced, traced, sibling = [], [], []
    problems = []
    start = time.monotonic()
    while (time.monotonic() - start < args.seconds
           or len(untraced) < MIN_REPS):
        untraced.append(ilpbench(args.workload, args.seed, args.scale, "run"))
        if args.trace:
            traced.append(ilpbench(args.workload, args.seed, args.scale,
                                   "traced", trace_out))
            if args.workload in SIBLING:
                sibling.append(ilpbench(SIBLING[args.workload], args.seed,
                                        args.scale, "run"))

    reps = untraced + traced + sibling
    attempted = sum(r["flows"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if failed:
        problems.append("%d of %d flows did not complete verified" %
                        (failed, attempted))
    if reference["verified"] != reference["flows"]:
        problems.append("run_fleet_native verified %d of %d flows" %
                        (reference["verified"], reference["flows"]))
    for r in untraced:
        if r["digest"] != ref_digest:
            problems.append("shard-loop digest %s != run_fleet_native "
                            "digest %s" % (r["digest"], ref_digest))
            break
    for r in traced:
        if r["digest"] != untraced[0]["digest"]:
            problems.append("traced digest %s != untraced digest %s" %
                            (r["digest"], untraced[0]["digest"]))
            break

    print("workload %s, seed %d, scale %s: %d untraced, %d traced reps in "
          "%.1f s; digest %s (run_fleet_native %s)" %
          (args.workload, args.seed, args.scale, len(untraced), len(traced),
           time.monotonic() - start, untraced[0]["digest"],
           reference["digest"]))
    print("flow_fail_ratio = %d / %d = %.6f" %
          (failed, attempted, failed / max(attempted, 1)))

    metrics = {}
    if not args.trace:
        values = {
            "goodput_MBps": [goodput(r) for r in untraced],
            "setup_s": [r["setup_s"] for r in untraced],
            "peak_rss_MB": [r["peak_rss_MB"] for r in untraced],
        }
        for name, unit in END_TO_END:
            v = values[name]
            metrics[name] = {"value": median(v), "unit": unit}
            print("%-14s %12.6g %-5s (median of %d; min %.6g, max %.6g)" %
                  (name, median(v), unit, len(v), min(v), max(v)))
    else:
        # Counts repeat exactly; times are medians over the traced reps.
        t = {k: median([r[k] for r in traced]) for k, v in traced[0].items()
             if isinstance(v, (int, float))}
        for name, unit, get in PER_LAYER:
            metrics[name] = {"value": get(t), "unit": unit}
        metrics["flow_fail_ratio"] = {"value": failed / attempted,
                                      "unit": "ratio"}
        overhead = t["transfer_s"] / median([r["transfer_s"]
                                             for r in untraced])
        metrics["obs.trace_overhead_ratio"] = {"value": overhead,
                                               "unit": "ratio"}
        base_s, rows, residual = attribution(t, args.workload)
        shares = {}
        for layer, _, _, _, est in rows:
            shares[layer] = shares.get(layer, 0.0) + est / base_s
        for layer in ("core.fused", "xdr", "crypto", "checksum", "core.copy",
                      "net", "clock"):
            metrics["attr.%s.share" % layer] = {"value": shares[layer],
                                                "unit": "ratio"}
        metrics["attr.unattributed.share"] = {"value": residual / base_s,
                                              "unit": "ratio"}
        for name in sorted(metrics):
            print("%-38s %14.6g %s" % (name, metrics[name]["value"],
                                        metrics[name]["unit"]))
        print_attribution(t, args.workload, len(traced))
        if sibling:
            own = median([goodput(r) for r in untraced])
            other = median([goodput(r) for r in sibling])
            ilp, layered = (own, other) if args.workload == "bulk_ilp" \
                else (other, own)
            print("paper row: bulk_ilp / bulk_layered goodput = %.2f / %.2f "
                  "MB/s = %.3f (ILP gain %+.1f%% over layered; medians of %d "
                  "untraced reps each, same seed). Paper: 10-20%% end to end, "
                  "~50%% for the isolated loop." %
                  (ilp, layered, ilp / layered, 100.0 * (ilp / layered - 1),
                   min(len(untraced), len(sibling))))

    for p in problems:
        log("perfbench: CORRECTNESS FAILURE: " + p)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    parser.add_argument("--inject-digest-mismatch", action="store_true",
                        help="corrupt the reference digest (tests the gate)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.exit(run(args))


if __name__ == "__main__":
    main()
