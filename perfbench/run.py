#!/usr/bin/env python3
"""Same-host benchmark of the sprite-dfs simulator.

    python3 perfbench/run.py --workload stream|devel|fullstack --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the driver
(perfbench/driver.cc plus the unchanged ../src sources) twice into
$CARGO_TARGET_DIR (default .bench_build): a Release build for the
end-to-end metrics and a Release -pg build for the traced run.

A run derives SUBS[workload] sub-seeds from --seed (seed * 100 + k) and runs
the driver once per sub-seed, each in a fresh single-threaded process, so a
process's peak RSS is its own. It then repeats sub-seeds in order until
--seconds have passed (at least one repeat), and checks that every repeat
reproduces its first run's simulation digest. End-to-end metrics pool the
sub-seeds (host ms over sim hours, misses over reads, ...), taking each
sub-seed's median over its repeats for host time and memory.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics: exact counts from the Release build, host-time shares from gprof
self time of the -pg build, and the tracing overhead (the -pg build's
timed wall time over the Release build's, minus one). On fullstack the
traced run also re-runs with observability off and requires the same
simulated outputs (see non_perturbation_error).

Every run prints a manifest and a human-readable table, then, as its last
line, {"correct", "attempted", "failed", "metrics"}. Raw per-process
results go to <build dir>/perfbench/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the source tree
import layers  # noqa: E402

# Sub-seeds per run; each driver process simulates one (see driver.cc for
# the cluster, mix and simulated length of each workload).
SUBS = {"stream": 12, "devel": 12, "fullstack": 16}

# Whole-run limit: the driver must exit well inside 180 s.
RUN_BUDGET_S = 150.0

# name, unit, host time or simulated outcome.
END_TO_END = [
    ("host_ms_per_sim_hour", "ms", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("setup_s", "s", "host"),
    ("sim_read_miss_ratio", "ratio", "simulated"),
    ("sim_server_traffic_ratio", "ratio", "simulated"),
    ("sim_rpc_ms_per_call", "ms", "simulated"),
]

# Per-layer counts summed over the run's sub-seeds (Release build), with
# the end-to-end metric and workload each is expected to move.
COUNTS = [
    ("sim.events", "count", "host_ms_per_sim_hour on fullstack"),
    ("sim.max_pending", "count", "host_ms_per_sim_hour on fullstack"),
    ("cache.read_ops", "count", "host_ms_per_sim_hour on stream"),
    ("cache.read_misses", "count", "sim_read_miss_ratio on all workloads"),
    ("cache.write_ops", "count", "host_ms_per_sim_hour on devel"),
    ("cache.evictions", "count", "host_ms_per_sim_hour on stream"),
    ("cache.cleanings", "count", "host_ms_per_sim_hour on devel"),
    ("cache.cancelled_bytes", "bytes", "sim_server_traffic_ratio on devel"),
    ("rpc.calls", "count", "sim_rpc_ms_per_call on fullstack"),
    ("rpc.payload_bytes", "bytes", "sim_rpc_ms_per_call on fullstack"),
    ("rpc.batches", "count", "sim_rpc_ms_per_call on fullstack"),
    ("rpc.batched_ops", "count", "sim_rpc_ms_per_call on fullstack"),
    ("rpc.charged_control_ops", "count", "sim_rpc_ms_per_call on fullstack"),
    ("rpc.retries", "count", "sim_rpc_ms_per_call on fullstack"),
    ("rpc.timeouts", "count", "sim_rpc_ms_per_call on fullstack"),
    ("rpc.net_s", "s", "sim_rpc_ms_per_call on fullstack"),
    ("rpc.wait_s", "s", "sim_rpc_ms_per_call on fullstack"),
    ("rpc.queue_s", "s", "sim_rpc_ms_per_call on fullstack"),
    ("rpc.service_s", "s", "sim_rpc_ms_per_call on fullstack"),
    ("net.busy_s", "s", "sim_rpc_ms_per_call on fullstack"),
    ("net.queued_s", "s", "sim_rpc_ms_per_call on fullstack"),
    ("net.retransmits", "count", "sim_rpc_ms_per_call on fullstack"),
    ("server.file_opens", "count", "sim_server_traffic_ratio on all workloads"),
    ("server.bytes", "bytes", "sim_server_traffic_ratio on all workloads"),
    ("server.failovers", "count", "sim_rpc_ms_per_call on fullstack"),
    ("server.failover_preserved_bytes", "bytes", "sim_rpc_ms_per_call on fullstack"),
    ("placement.routings", "count", "host_ms_per_sim_hour on devel and fullstack"),
    ("rebalance.migrations", "count", "host_ms_per_sim_hour on fullstack"),
    ("rebalance.moved_bytes", "bytes", "host_ms_per_sim_hour on fullstack"),
    ("obs.spans", "count", "host_ms_per_sim_hour and peak_rss_mb on fullstack"),
    ("obs.windows", "count", "host_ms_per_sim_hour on fullstack"),
    ("trace.records", "count", "host_ms_per_sim_hour on devel"),
    ("trace.encoded_bytes", "bytes", "host_ms_per_sim_hour on devel"),
    ("trace.codec_ms", "ms", "host_ms_per_sim_hour on devel"),
    ("analysis.ms", "ms", "host_ms_per_sim_hour on devel"),
    ("consistency.ms", "ms", "host_ms_per_sim_hour on devel"),
]

# Host-time share of each layer (gprof self time, -pg build).
SHARE_TARGETS = {
    "sim": "host_ms_per_sim_hour on fullstack",
    "workload": "setup_s and host_ms_per_sim_hour on devel",
    "cache": "host_ms_per_sim_hour on stream and devel",
    "client": "host_ms_per_sim_hour on devel",
    "rpc": "host_ms_per_sim_hour on fullstack",
    "server": "host_ms_per_sim_hour on devel",
    "placement": "host_ms_per_sim_hour on devel and fullstack",
    "obs": "host_ms_per_sim_hour and peak_rss_mb on fullstack",
    "trace": "host_ms_per_sim_hour on devel",
    "analysis": "host_ms_per_sim_hour on devel",
    "other": "none (unattributed self time)",
}
PER_LAYER = (
    [("sim.events_per_host_s", "1/s", "host_ms_per_sim_hour on fullstack")]
    + COUNTS
    + [(layer + ".host_share", "share", target) for layer, target in SHARE_TARGETS.items()]
    + [("trace.overhead", "share", "none (cost of the -pg build)")]
)

# A traced run whose unattributed self time exceeds this share fails: a
# renamed hot symbol must not silently fall out of its layer.
MAX_OTHER_SHARE = 0.10


def log(message):
    print(message, file=sys.stderr, flush=True)


def summarize(values):
    """Median and quartiles as Python's statistics module computes them."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("inf")}


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path, "perfbench")


def build(variant):
    """Configures and builds one driver variant; returns the binary path."""
    directory = os.path.join(build_root(), variant)
    logfile = os.path.join(build_root(), "build-%s.log" % variant)
    os.makedirs(build_root(), exist_ok=True)
    flags = ["-DCMAKE_BUILD_TYPE=Release", "-DPERFBENCH_GPROF=%s" % ("ON" if variant == "gprof" else "OFF")]
    jobs = str(os.cpu_count() or 1)
    commands = [["cmake", "--build", directory, "--target", "perfbench_driver", "-j", jobs]]
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        commands.insert(0, ["cmake", "-S", HERE, "-B", directory] + flags)
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_root(), "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(logfile, "w") as out:
        for command in commands:
            if subprocess.run(command, stdout=out, stderr=subprocess.STDOUT, env=env).returncode != 0:
                out.flush()
                with open(logfile) as f:
                    log(f.read()[-4000:])
                raise RuntimeError("build of the %s driver failed (see %s)" % (variant, logfile))
    return os.path.join(directory, "perfbench_driver")


def run_driver(binary, workload, seed, deadline, extra=(), cwd=None):
    """One fresh driver process. Returns (result dict or None, error text)."""
    timeout = max(1.0, deadline - time.monotonic())
    command = [binary, "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=timeout, cwd=cwd)
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "exit %d, no result: %s" % (proc.returncode, proc.stderr.strip()[-500:])
    if proc.returncode != 0 or result.get("failed_checks"):
        return result, "exit %d, failed checks %s" % (proc.returncode, result.get("failed_checks"))
    return result, ""


def sub_seeds(workload, seed):
    return [seed * 100 + k for k in range(SUBS[workload])]


class Run:
    """Repeats of one workload's sub-seeds, with their correctness record."""

    def __init__(self, workload, seeds):
        self.workload = workload
        self.seeds = seeds
        self.results = {s: [] for s in self.seeds}
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def fail(self, message):
        """Records one failed process (crash, timeout or failed check)."""
        self.failed += 1
        self.errors.append(message)

    def once(self, binary, seed, deadline):
        self.attempted += 1
        result, error = run_driver(binary, self.workload, seed, deadline)
        if not error:
            first = self.results[seed][0] if self.results[seed] else None
            if first is not None:
                for key in ("digest", "sim_read_miss_ratio", "sim_server_traffic_ratio",
                            "sim_rpc_ms_per_call"):
                    if result[key] != first[key]:
                        error = "%s differs between repeats" % key
        if error:
            self.fail("seed %d: %s" % (seed, error))
        else:
            self.results[seed].append(result)
        return result

    def firsts(self):
        return [self.results[s][0] for s in self.seeds if self.results[s]]

    def complete(self):
        return all(self.results[s] for s in self.seeds)


def end_to_end(run):
    """The pooled end-to-end metrics of a completed run."""
    firsts = run.firsts()
    sim_hours = sum(r["sim_hours"] for r in firsts)
    host_ms = sum(statistics.median(x["timed_s"] for x in run.results[r["seed"]]) * 1000.0
                  for r in firsts)
    rss = [statistics.median(x["peak_rss_mb"] for x in run.results[r["seed"]]) for r in firsts]
    setups = [x["setup_s"] for s in run.seeds for x in run.results[s]]
    reads = sum(r["counts"]["cache.read_ops"] for r in firsts)
    misses = sum(r["counts"]["cache.read_misses"] for r in firsts)
    calls = sum(r["counts"]["rpc.calls"] for r in firsts)
    rpc_ms = sum(r["sim_rpc_ms_per_call"] * r["counts"]["rpc.calls"] for r in firsts)
    raw = sum(r["raw_client_bytes"] for r in firsts)
    served = sum(r["counts"]["server.bytes"] for r in firsts)
    return {
        "host_ms_per_sim_hour": host_ms / sim_hours,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
        "sim_read_miss_ratio": misses / reads,
        "sim_server_traffic_ratio": served / raw,
        "sim_rpc_ms_per_call": rpc_ms / calls,
    }


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def manifest(args, run):
    firsts = run.firsts()
    driver = firsts[0]["manifest"] if firsts else {}
    return {
        "workload": args.workload, "seed": args.seed, "sub_seeds": run.seeds,
        "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(),
        "build_type": driver.get("build_type"), "compiler": driver.get("compiler"),
        "cpu_model": driver.get("cpu_model"), "nproc": os.cpu_count(),
        "python": platform.python_version(), "config": driver,
    }


def save(args, payload):
    directory = os.path.join(build_root(), "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
    return path


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        shown = "%16d" % value if isinstance(value, int) else "%16.6g" % value
        print("  %-32s %s %-6s %s" % (name, shown, unit, note))


def untraced(args, binary):
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    run = Run(args.workload, sub_seeds(args.workload, args.seed))
    for seed in run.seeds:
        run.once(binary, seed, deadline)
    repeats = 0
    while (repeats == 0 or time.monotonic() - start < args.seconds) and time.monotonic() < deadline - 20:
        run.once(binary, run.seeds[repeats % len(run.seeds)], deadline)
        repeats += 1
    return run


def gprof_shares(args, binary, seeds, deadline):
    """Per-layer self seconds over the -pg runs, plus their timed seconds."""
    index = layers.build_index(os.path.join(ROOT, "src"))
    totals = {layer: 0.0 for layer in layers.LAYERS}
    rows_all = []
    timed_s = 0.0
    errors = []
    for seed in seeds:
        workdir = tempfile.mkdtemp(prefix="gprof-", dir=build_root())
        try:
            result, error = run_driver(binary, args.workload, seed, deadline, cwd=workdir)
            if error:
                errors.append("gprof seed %d: %s" % (seed, error))
                continue
            timed_s += result["timed_s"]
            proc = subprocess.run(["gprof", "-b", "-p", binary, os.path.join(workdir, "gmon.out")],
                                  capture_output=True, text=True)
            rows = layers.parse_flat_profile(proc.stdout)
            if proc.returncode != 0 or not rows:
                errors.append("gprof seed %d: no flat profile (%s)" % (seed, proc.stderr.strip()[-300:]))
                continue
            rows_all.extend(rows)
            for layer, seconds in layers.group_self_time(rows, index).items():
                totals[layer] += seconds
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return totals, rows_all, index, timed_s, errors


def non_perturbation_error(on, off):
    """Observability must leave the simulated outputs untouched; the only
    extra events it may add are its own snapshot ticks."""
    if off["outputs_digest"] != on["outputs_digest"]:
        return "outputs digest %s differs from obs-on %s" % (off["outputs_digest"], on["outputs_digest"])
    m = on["manifest"]
    ticks = (m["duration_us"] + m["warmup_us"]) // m["cluster_config"]["obs_snapshot_interval_us"]
    extra = on["counts"]["sim.events"] - off["counts"]["sim.events"]
    if extra != ticks:
        return "obs-on dispatched %d more events than obs-off, expected %d snapshot ticks" % (extra, ticks)
    return ""


def traced(args, release, profiled):
    deadline = time.monotonic() + RUN_BUDGET_S
    # A third of the sub-seeds, each run twice (Release, then -pg), keeps a
    # traced run about as long as an untraced one.
    seeds = sub_seeds(args.workload, args.seed)
    run = Run(args.workload, seeds[:max(1, len(seeds) // 3)])
    for seed in run.seeds:
        run.once(release, seed, deadline)
    totals, rows, index, pg_timed_s, errors = gprof_shares(args, profiled, run.seeds, deadline)
    run.attempted += len(run.seeds)
    for error in errors:
        run.fail(error)
    if args.workload == "fullstack" and run.complete():
        run.attempted += 1
        seed = run.seeds[0]
        on = run.results[seed][0]
        off, error = run_driver(release, args.workload, seed, deadline, extra=("--obs", "off"))
        if not error:
            error = non_perturbation_error(on, off)
        if error:
            run.fail("obs-off seed %d: %s" % (seed, error))
    return run, totals, rows, index, pg_timed_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SUBS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources under %s/src" % ROOT)
        return 2

    try:
        release = build("release")
        profiled = build("gprof")
    except RuntimeError as e:
        log("perfbench: %s" % e)
        return 2

    if args.trace == 0:
        run = untraced(args, release)
    else:
        run, totals, rows, index, pg_timed_s = traced(args, release, profiled)
    if not run.complete():
        run.errors.append("not every sub-seed produced a result")
    info = manifest(args, run)
    print("manifest: " + json.dumps({k: v for k, v in info.items() if k != "config"}))

    metrics = {}
    if not run.errors and args.trace == 0:
        metrics = report_end_to_end(args, run)
    elif not run.errors:
        metrics = report_per_layer(args, run, totals, rows, index, pg_timed_s)
    for error in run.errors:
        log("perfbench: " + error)
    payload = {"manifest": info, "errors": run.errors, "results": run.results}
    log("perfbench: raw results in %s" % save(args, payload))
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def report_end_to_end(args, run):
    values = end_to_end(run)
    units = {name: unit for name, unit, _ in END_TO_END}
    kinds = {name: kind for name, _, kind in END_TO_END}
    print_table("end-to-end (%s, seed %d, %d processes):" % (args.workload, args.seed, run.attempted),
                [(n, values[n], units[n], kinds[n]) for n in values]
                + [("error_share", run.failed / run.attempted, "share", "host")])
    processes = [x for s in run.seeds for x in run.results[s]]
    for name, per_process in (
            ("host_ms_per_sim_hour", [1000.0 * x["timed_s"] / x["sim_hours"] for x in processes]),
            ("setup_s", [x["setup_s"] for x in processes])):
        s = summarize(per_process)
        print("  per process %-20s median %.6g, quartiles %.6g .. %.6g (spread %.3f), n=%d"
              % (name, s["median"], s["q1"], s["q3"], s["iqr_share"], s["n"]))
    return {n: {"value": values[n], "unit": units[n]} for n in values}


def report_per_layer(args, run, totals, rows, index, pg_timed_s):
    firsts = run.firsts()
    values = {name: sum(r["counts"][name] for r in firsts) for name, _, _ in COUNTS}
    values["sim.max_pending"] = max(r["counts"]["sim.max_pending"] for r in firsts)
    values["sim.events_per_host_s"] = values["sim.events"] / sum(r["run_s"] for r in firsts)
    sampled = sum(totals.values())
    for layer in layers.LAYERS:
        values[layer + ".host_share"] = totals[layer] / sampled if sampled else 0.0
    values["trace.overhead"] = pg_timed_s / sum(r["timed_s"] for r in firsts) - 1.0
    if values["other.host_share"] > MAX_OTHER_SHARE:
        run.errors.append("unattributed self time %.1f%% > %.0f%%"
                          % (100 * values["other.host_share"], 100 * MAX_OTHER_SHARE))
    units = {name: unit for name, unit, _ in PER_LAYER}
    print_table("per-layer (%s, seed %d, %.2f s of gprof samples):" % (args.workload, args.seed, sampled),
                [(n, values[n], units[n], "-> " + target) for n, _, target in PER_LAYER])
    print("hottest symbols per layer (gprof self time):")
    for layer in layers.LAYERS:
        for seconds, symbol in layers.hot_symbols(rows, index, layer):
            print("  %-9s %7.2f s  %s" % (layer, seconds, symbol[:110]))
    return {n: {"value": values[n], "unit": units[n]} for n, _, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
