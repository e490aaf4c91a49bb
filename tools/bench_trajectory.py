#!/usr/bin/env python3
"""Same-host perf gate for the end-to-end simulator scenarios.

Runs the BM_SimulateCluster benchmarks (and the BM_SimulateRebalance
hot-spot/rebalancing recipe) from bench/micro_perf, one fresh process per
run. A run repeats a scenario REPETITIONS (5) times and keeps the fastest
repetition: interference from the rest of the host only ever adds time,
and on a shared host it comes in bursts that can slow a whole repetition
by a third.

Subcommands:
  measure --bin PATH [--min-time S]
      Run the scenarios once and print the parsed measurements as JSON.
  check   --base PATH --change PATH [--min-time S] [--threshold 0.10]
      A/B two micro_perf builds on this host: run each scenario as PAIRS (7)
      interleaved pairs of runs, alternating which side goes first. Exit
      non-zero when the median over pairs of the change's growth in
      wall-clock ms per simulated hour (change / base - 1 within a pair)
      exceeds the threshold. tools/check.sh runs it with the merge-base
      build as the base. Each scenario's median peak RSS is reported for
      both sides too (not gated): every run is one scenario in a fresh
      process, so its ru_maxrss is that scenario's own peak.

The gate is on wall_ms_per_sim_hour (lower is better), the end-to-end
cost of simulating a fixed window. Events/sec is reported but not gated:
the event count is a design choice, so a change that removes events would
read as a slowdown even when wall time falls. Both sides run on the same
host in alternating order, so host speed and drift cancel out of the
comparison. The gate takes the median of the per-pair growths rather than
the growth of the two sides' medians: the two runs of a pair are seconds
apart and mostly share the host's state, while on a shared host whole runs
land in a slow mode 40-70% above the fast one, so the medians of seven
unpaired runs have differed by 40% on two copies of one binary.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Benchmark-name prefix -> scenario-name prefix. BM_SimulateCluster/26/4 is
# scenario "26x4"; BM_SimulateRebalance/4/2 (the rebalance ablation recipe:
# heavy + async + detector + rebalancer) is scenario "rebalance_4x2".
BENCH_PREFIXES = {
    "BM_SimulateCluster/": "",
    "BM_SimulateRebalance/": "rebalance_",
}
SCENARIOS = "^BM_Simulate(Cluster|Rebalance)/"
# Interleaved base/change run pairs per scenario in `check`.
PAIRS = 7
# Repetitions per scenario and run; the fastest counts.
REPETITIONS = 5


def list_benchmarks(binary):
    proc = subprocess.run([binary, "--benchmark_list_tests", "--benchmark_filter=" + SCENARIOS],
                          stdout=subprocess.PIPE, check=True, text=True)
    return proc.stdout.split()


def run_benchmarks(binary, min_time, bench_filter=SCENARIOS):
    cmd = [
        binary,
        "--benchmark_filter=" + bench_filter,
        "--benchmark_format=json",
        "--benchmark_min_time=%g" % min_time,
        "--benchmark_repetitions=%d" % REPETITIONS,
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    doc = json.loads(proc.stdout)
    measurements = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        prefix = next((p for p in BENCH_PREFIXES if name.startswith(p)), None)
        if prefix is None:
            continue
        clients, servers = name[len(prefix):].split("/")[:2]
        scenario = "%s%sx%s" % (BENCH_PREFIXES[prefix], clients, servers)
        # Unit(kMillisecond): real_time is ms per iteration.
        real_ms = float(bench["real_time"])
        sim_hours = float(bench["sim_hours"])
        if (scenario in measurements and
                measurements[scenario]["wall_ms_per_sim_hour"] <= real_ms / sim_hours):
            continue  # keep the fastest repetition
        measurements[scenario] = {
            "benchmark": name,
            "iterations": int(bench["iterations"]),
            "events_per_sec": float(bench["events_per_sec"]),
            "wall_ms_per_sim_hour": real_ms / sim_hours,
            "peak_rss_mb": float(bench["peak_rss_mb"]),
            "real_time_ms": real_ms,
        }
    if not measurements:
        raise SystemExit("bench_trajectory: no BM_SimulateCluster results "
                         "in benchmark output")
    return measurements


def cmd_measure(args):
    measurements = run_benchmarks(args.bin, args.min_time)
    json.dump(measurements, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def quartiles(values):
    """(first quartile, median, third quartile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def cmd_check(args):
    sides = {"base": args.base, "change": args.change}
    wall = {"base": {}, "change": {}}  # side -> scenario -> [ms per sim hour]
    rss = {"base": {}, "change": {}}  # side -> scenario -> [peak RSS MB]
    # Pairing per scenario keeps the two runs of a pair seconds apart.
    benchmarks = list_benchmarks(args.base)
    for i in range(PAIRS):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for bench in benchmarks:
            for side in order:
                for scenario, m in run_benchmarks(sides[side], args.min_time,
                                                  "^%s$" % bench).items():
                    wall[side].setdefault(scenario, []).append(m["wall_ms_per_sim_hour"])
                    rss[side].setdefault(scenario, []).append(m["peak_rss_mb"])
        print("pair %d/%d done (%s first)" % (i + 1, PAIRS, order[0]), flush=True)
    failures = []
    for scenario in sorted(wall["base"]):
        base, change = wall["base"][scenario], wall["change"].get(scenario)
        if change is None or len(change) != len(base):
            raise SystemExit("bench_trajectory: scenario %s ran on one side only" % scenario)
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        growth = statistics.median(c / b - 1.0 for b, c in zip(base, change))
        wins = sum(c < b for b, c in zip(base, change))
        verdict = "OK" if growth <= args.threshold else "REGRESSION"
        print("check %s: wall ms/sim-hour median %.1f [%.1f, %.1f] vs base %.1f [%.1f, %.1f];"
              " median growth per pair %+.1f%%, change faster in %d/%d pairs;"
              " peak RSS median %.1f MB vs base %.1f MB [%s]"
              % (scenario, cmed, cq1, cq3, bmed, bq1, bq3, growth * 100.0, wins, len(base),
                 statistics.median(rss["change"][scenario]),
                 statistics.median(rss["base"][scenario]), verdict))
        if verdict != "OK":
            failures.append(scenario)
    if failures:
        print("bench_trajectory: median growth beyond %.0f%% on: %s"
              % (args.threshold * 100.0, ", ".join(failures)), file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    measure = sub.add_parser("measure")
    measure.add_argument("--bin", required=True,
                         help="path to the micro_perf binary (Release build)")
    check = sub.add_parser("check")
    check.add_argument("--base", required=True, help="the base side's micro_perf binary")
    check.add_argument("--change", required=True, help="the changed side's micro_perf binary")
    check.add_argument("--threshold", type=float, default=0.10,
                       help="allowed fractional growth of the median wall ms per sim hour")
    for p, fn in ((measure, cmd_measure), (check, cmd_check)):
        p.add_argument("--min-time", type=float, default=1.0,
                       help="--benchmark_min_time seconds per scenario and repetition")
        p.set_defaults(fn=fn)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
