"""Tests of the benchmark's statistics, correctness gate and layer grouping.

    python3 -m unittest discover -s perfbench/tests -v

The unit tests run in well under a second. DriverTest builds the driver
(Release and -pg, as the benchmark does, under $CARGO_TARGET_DIR or
.bench_build) and runs short workloads, so it takes about a minute the
first time.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import textwrap
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import layers  # noqa: E402
import run  # noqa: E402

SRC = os.path.join(run.ROOT, "src")


class SummarizeTest(unittest.TestCase):
    def test_matches_exclusive_quartiles(self):
        s = run.summarize(range(1, 11))
        self.assertEqual(s["n"], 10)
        self.assertEqual(s["median"], 5.5)
        # statistics.quantiles' default 'exclusive' method: positions
        # (n + 1) * 1/4 and (n + 1) * 3/4, interpolated.
        self.assertAlmostEqual(s["q1"], 2.75)
        self.assertAlmostEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["iqr_share"], 5.5 / 5.5)

    def test_odd_count_and_order_independence(self):
        a = run.summarize([9.0, 1.0, 5.0, 3.0, 7.0])
        b = run.summarize([1.0, 3.0, 5.0, 7.0, 9.0])
        self.assertEqual(a, b)
        self.assertEqual(a["median"], 5.0)
        self.assertEqual((a["q1"], a["q3"]), (2.0, 8.0))

    def test_single_value_has_zero_spread(self):
        s = run.summarize([4.0])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["iqr_share"]), (4.0, 4.0, 4.0, 0.0))


def fake_result(seed, timed_s=1.0, digest="d", rss=100.0, setup=0.01):
    return {"seed": seed, "digest": digest, "failed_checks": [], "timed_s": timed_s,
            "sim_hours": 0.5, "peak_rss_mb": rss, "setup_s": setup,
            "sim_read_miss_ratio": 0.5, "sim_server_traffic_ratio": 0.5,
            "sim_rpc_ms_per_call": 2.0, "raw_client_bytes": 1000,
            "counts": {"cache.read_ops": 10, "cache.read_misses": 5, "rpc.calls": 4,
                       "server.bytes": 500}}


class BenchmarkJsonTest(unittest.TestCase):
    def test_lists_what_the_runner_reports(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.SUBS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         [(name, unit) for name, unit, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, unit, _ in run.PER_LAYER])
        setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup_bound, max(m["bound"] for m in spec["end_to_end"]))


class EndToEndTest(unittest.TestCase):
    def test_pools_sub_seeds_and_takes_medians_over_repeats(self):
        r = run.Run("stream", [1, 2])
        r.results[1] = [fake_result(1, timed_s=1.0), fake_result(1, timed_s=3.0),
                        fake_result(1, timed_s=2.0)]
        second = fake_result(2, timed_s=4.0, rss=300.0)
        second["counts"] = {"cache.read_ops": 30, "cache.read_misses": 3, "rpc.calls": 12,
                            "server.bytes": 100}
        second["sim_rpc_ms_per_call"] = 6.0
        second["raw_client_bytes"] = 1000
        r.results[2] = [second]
        m = run.end_to_end(r)
        # (median 2.0 s + 4.0 s) over 1.0 sim hour.
        self.assertAlmostEqual(m["host_ms_per_sim_hour"], 6000.0)
        self.assertAlmostEqual(m["peak_rss_mb"], 200.0)
        self.assertAlmostEqual(m["sim_read_miss_ratio"], 8 / 40)
        self.assertAlmostEqual(m["sim_server_traffic_ratio"], 600 / 2000)
        self.assertAlmostEqual(m["sim_rpc_ms_per_call"], (2.0 * 4 + 6.0 * 12) / 16)
        self.assertAlmostEqual(m["setup_s"], 0.01)


class CorrectnessGateTest(unittest.TestCase):
    """Run.once against a stand-in driver whose output a test controls."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.binary = os.path.join(self.dir.name, "driver")
        self.state = os.path.join(self.dir.name, "state.json")
        with open(self.binary, "w") as f:
            f.write(textwrap.dedent("""\
                #!%s
                import json, sys
                state = json.load(open(%r))
                seed = int(sys.argv[sys.argv.index("--seed") + 1])
                result = state["result"]
                result["seed"] = seed
                print("log line")
                print(json.dumps(result))
                sys.exit(state.get("exit", 0))
                """ % (sys.executable, self.state)))
        os.chmod(self.binary, 0o755)

    def tearDown(self):
        self.dir.cleanup()

    def drive(self, r, seed, **state):
        state.setdefault("result", fake_result(seed))
        with open(self.state, "w") as f:
            json.dump(state, f)
        return r.once(self.binary, seed, time.monotonic() + 30)

    def test_identical_repeats_pass(self):
        r = run.Run("stream", [7])
        self.drive(r, 7)
        self.drive(r, 7)
        self.assertEqual((r.attempted, r.errors, len(r.results[7])), (2, [], 2))
        self.assertTrue(r.complete())

    def test_digest_change_between_repeats_fails(self):
        r = run.Run("stream", [7])
        self.drive(r, 7)
        self.drive(r, 7, result=fake_result(7, digest="other"))
        self.assertEqual(len(r.errors), 1)
        self.assertIn("digest differs", r.errors[0])

    def test_simulated_metric_change_between_repeats_fails(self):
        r = run.Run("stream", [7])
        self.drive(r, 7)
        changed = fake_result(7)
        changed["sim_rpc_ms_per_call"] = 2.5
        self.drive(r, 7, result=changed)
        self.assertIn("sim_rpc_ms_per_call differs", r.errors[0])

    def test_failed_check_and_crash_count_as_errors(self):
        r = run.Run("stream", [7, 8])
        failing = fake_result(7)
        failing["failed_checks"] = ["ledger_conservation"]
        self.drive(r, 7, result=failing, exit=1)
        self.drive(r, 8, result={"not": "a result"}, exit=3)
        self.assertEqual(r.attempted, 2)
        self.assertEqual(len(r.errors), 2)
        self.assertIn("ledger_conservation", r.errors[0])
        self.assertFalse(r.complete())


class NonPerturbationTest(unittest.TestCase):
    @staticmethod
    def pair(on_events, off_events, off_outputs="o"):
        manifest = {"duration_us": 30 * 60_000_000, "warmup_us": 5 * 60_000_000,
                    "cluster_config": {"obs_snapshot_interval_us": 60_000_000}}
        on = {"outputs_digest": "o", "manifest": manifest, "counts": {"sim.events": on_events}}
        off = {"outputs_digest": off_outputs, "counts": {"sim.events": off_events}}
        return on, off

    def test_only_snapshot_ticks_may_differ(self):
        self.assertEqual(run.non_perturbation_error(*self.pair(1035, 1000)), "")
        self.assertIn("expected 35 snapshot ticks",
                      run.non_perturbation_error(*self.pair(1036, 1000)))
        self.assertIn("outputs digest",
                      run.non_perturbation_error(*self.pair(1035, 1000, off_outputs="x")))


FLAT_PROFILE = """\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls   s/call   s/call  name
 68.03      1.83     1.83  1024521     0.00     0.00  sprite::BlockCache::EraseEntry(sprite::BlockCache::Entry*)
  2.97      1.91     0.08  2419821     0.00     0.00  std::_Hashtable<sprite::BlockKey, std::pair<sprite::BlockKey const, sprite::BlockCache::Entry>, std::allocator<std::pair<sprite::BlockKey const, sprite::BlockCache::Entry> > >::find(sprite::BlockKey const&)
  1.12      1.94     0.03      844     0.00     0.00  sprite::Vm::TouchWorkingSet(long, long)
  0.37      1.95     0.01                             std::_Function_handler<void (sprite::BlockKey, long), sprite::Client::Crash(long)::{lambda(sprite::BlockKey, long)#1}>::_M_manager(std::_Any_data&, std::_Any_data const&, std::_Manager_operation)
  0.37      1.96     0.01                             _init
"""


class LayerGroupingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.index = layers.build_index(SRC)

    def test_parse_rows_with_and_without_call_columns(self):
        rows = layers.parse_flat_profile(FLAT_PROFILE)
        self.assertEqual(len(rows), 5)
        self.assertEqual(rows[0], (1.83, "sprite::BlockCache::EraseEntry(sprite::BlockCache::Entry*)"))
        self.assertTrue(rows[3][1].startswith("std::_Function_handler<"))
        self.assertEqual(rows[4], (0.01, "_init"))

    def test_group_self_time(self):
        totals = layers.group_self_time(layers.parse_flat_profile(FLAT_PROFILE), self.index)
        self.assertEqual(set(totals), set(layers.LAYERS))
        self.assertAlmostEqual(totals["cache"], 1.91)
        self.assertAlmostEqual(totals["client"], 0.04)
        self.assertAlmostEqual(totals["other"], 0.01)
        self.assertAlmostEqual(sum(totals.values()), 1.96)

    def test_every_layer_owns_its_modules(self):
        expected = {
            "EventQueue": "sim", "PeriodicTask": "sim", "UniqueCallback": "sim",
            "Generator": "workload", "SyntheticUser": "workload", "FileSpace": "workload",
            "ZipfDistribution": "workload", "Rng": "workload",
            "BlockCache": "cache", "BlockKey": "cache",
            "Client": "client", "Vm": "client",
            "RpcTransport": "rpc", "Network": "rpc", "DenseIdStats": "rpc",
            "Server": "server", "Disk": "server", "SegmentLog": "server",
            "Sharder": "placement", "ModuloSharder": "placement",
            "PlacementLedger": "placement", "Rebalancer": "placement",
            "SpanTracer": "obs", "MetricsRegistry": "obs", "HotspotDetector": "obs",
            "LatencyRecorder": "obs", "LogHistogram": "obs",
            "TraceReader": "trace", "TraceWriter": "trace", "EncodeTrace": "trace",
            "DropUsers": "trace",
            "ExtractAccesses": "analysis", "ComputeLifetimes": "analysis",
            "SimulatePolling": "analysis", "SimulateConsistencyOverhead": "analysis",
            "ClientFileState": "analysis", "WeightedSamples": "analysis",
        }
        got = {name: self.index.get(name) for name in expected}
        self.assertEqual(got, expected)

    def test_owner_rules(self):
        cases = {
            "sprite::BlockCache::Lookup(sprite::BlockKey, long)": "cache",
            # A container's layer is the first non-value type it holds.
            "std::_Function_handler<void (sprite::BlockKey, long), sprite::Client::WritebackTo(bool, long)"
            "::{lambda(sprite::BlockKey, long)#1}>::_M_manager(std::_Any_data&)": "client",
            "std::__detail::_Map_base<unsigned int, std::pair<unsigned int const, "
            "sprite::(anonymous namespace)::ClientFileState>>::operator[](unsigned int const&)": "analysis",
            "sprite::(anonymous namespace)::ModuloSharder::Place(unsigned long) const": "placement",
            "sprite::UniqueCallback::{lambda(unsigned char*)#18}::_FUN(unsigned char*)": "sim",
            "sprite::SpanTracer::Emit(char const*, char const*, sprite::SpanTrack, long, long)": "obs",
            # Cluster members doing another layer's work.
            "std::_Function_handler<void (sprite::Record const&), sprite::Cluster::Cluster("
            "sprite::ClusterConfig const&, sprite::EventQueue&)::{lambda(sprite::Record const&)#10}>"
            "::_M_invoke(std::_Any_data const&, sprite::Record const&)": "trace",
            "sprite::Cluster::Cluster(sprite::ClusterConfig const&, sprite::EventQueue&)"
            "::{lambda()#3}::operator()() const": "obs",
            "std::_Function_handler<long (), sprite::Server::AttachObservability("
            "sprite::Observability*)::{lambda()#3}>::_M_invoke(std::_Any_data const&)": "obs",
            "sprite::Server::AttachObservability(sprite::Observability*)": "server",
            "sprite::Cluster::ServerForFile(unsigned long)": "placement",
            "sprite::Cluster::CrashServer(unsigned int, long)": "server",
            "perfbench::SimulationDigest(std::basic_string_view<char>)": "other",
            "memcpy": "other",
        }
        got = {symbol: layers.classify(symbol, self.index) for symbol in cases}
        self.assertEqual(got, cases)


class DriverTest(unittest.TestCase):
    """Builds the real driver; exercises memory isolation and attribution."""

    @classmethod
    def setUpClass(cls):
        cls.release = run.build("release")
        cls.profiled = run.build("gprof")

    def drive(self, *args, cwd=None):
        proc = subprocess.run([self.release if cwd is None else self.profiled, *args],
                              capture_output=True, text=True, timeout=170, cwd=cwd)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_digest_unit_test(self):
        directory = os.path.dirname(self.release)
        subprocess.run(["cmake", "--build", directory, "--target", "perfbench_digest_test"],
                       check=True, capture_output=True)
        proc = subprocess.run([os.path.join(directory, "perfbench_digest_test")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])

    def test_small_run_after_large_run_reports_its_own_peak(self):
        small = ("--workload", "stream", "--seed", "3", "--minutes", "1", "--warmup", "0")
        alone = self.drive(*small)["peak_rss_mb"]
        large = self.drive("--workload", "devel", "--seed", "3", "--minutes", "6",
                           "--warmup", "1")["peak_rss_mb"]
        after = self.drive(*small)["peak_rss_mb"]
        self.assertGreater(large, 2 * alone)
        # Within 10% of the same run made alone, nowhere near the large peak.
        self.assertLess(abs(after - alone), 0.1 * alone)

    def test_same_seed_same_digest_and_obs_off_matches(self):
        args = ("--workload", "fullstack", "--seed", "5", "--minutes", "8", "--warmup", "1")
        first = self.drive(*args)
        self.assertEqual(first["failed_checks"], [])
        self.assertEqual(self.drive(*args)["digest"], first["digest"])
        off = self.drive(*args, "--obs", "off")
        self.assertEqual(run.non_perturbation_error(first, off), "")
        self.assertEqual(off["counts"]["obs.spans"], 0)
        self.assertGreater(first["counts"]["obs.spans"], 0)

    def test_unattributed_self_time_stays_small_on_every_workload(self):
        index = layers.build_index(SRC)
        for workload, minutes in (("stream", "6"), ("devel", "6"), ("fullstack", "20")):
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as workdir:
                self.drive("--workload", workload, "--seed", "2", "--minutes", minutes,
                           "--warmup", "1", cwd=workdir)
                proc = subprocess.run(["gprof", "-b", "-p", self.profiled,
                                       os.path.join(workdir, "gmon.out")],
                                      capture_output=True, text=True, check=True)
                totals = layers.group_self_time(layers.parse_flat_profile(proc.stdout), index)
                sampled = sum(totals.values())
                self.assertGreater(sampled, 0.2)
                self.assertLess(totals["other"] / sampled, run.MAX_OTHER_SHARE, totals)
                self.assertGreater(totals["cache"], 0)
                self.assertEqual(totals["obs"] > 0, workload == "fullstack", totals)


if __name__ == "__main__":
    unittest.main()
