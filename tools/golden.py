#!/usr/bin/env python3
"""Golden scenarios for sprite_analyze: one table of rows, one runner.

Each row runs `sprite_analyze` and checks what it wrote:

  expect      a file in tools/baselines/ that stdout must equal byte for byte
  need        stream -> needles that must appear
  forbid      stream -> patterns that must not appear
  trace       checks on the Chrome-trace JSON (see check_trace)
  rerun       run again without --trace-out; stdout and the metrics file
              must repeat byte for byte
  off         an off-mode argv; its stdout must equal the row's stdout, or,
              when off_forbid is given, be free of those patterns

The streams are "stdout", "stderr" and "metrics" (the --metrics-out file). A
needle or pattern is a plain string (found as a substring) or a compiled
regex (searched line by line). Every run must exit 0.

Usage: golden.py SPRITE_ANALYZE ROW   runs one row; exits 1 on any failure
       golden.py                      prints the row names, one per line

A row writes only under <dir of SPRITE_ANALYZE>/golden/<row>/, so rows run
independently under `ctest -j`; a passing row deletes that directory, a
failing one keeps it for inspection. CMake registers one `golden.<row>` case
per row (tools/CMakeLists.txt).
"""

import dataclasses
import difflib
import fnmatch
import json
import os
import re
import shutil
import subprocess
import sys

BASELINES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines")
METRICS = "@metrics"  # argv placeholder for this run's --metrics-out file
TRACE = "@trace"  # argv placeholder for this run's --trace-out file


def R(pattern):
    return re.compile(pattern, re.M)


@dataclasses.dataclass(frozen=True)
class Row:
    name: str
    argv: list
    expect: str = None
    need: dict = None
    forbid: dict = None
    trace: dict = None
    rerun: bool = False
    off: list = None
    off_forbid: dict = None


# The standard small cluster: 8 users on 4 clients and 2 servers, 10 minutes
# after a 2-minute warmup.
U8 = ["--simulate", "--users", "8", "--clients", "4", "--servers", "2", "--minutes", "10",
      "--warmup", "2"]
SYNC = U8 + ["--rpc-ledger"]
WIRE_KINDS = ["open", "close", "read-block", "write-block", "uncached-read", "uncached-write",
              "page-in", "page-out", "read-dir"]

ROWS = [
    # 10 users crowded onto 2 clients keep memory under enough pressure that
    # even the rare paging RPCs (page-out = dirty VM eviction) occur.
    # Its 540,427 spans are far beyond the tracer's 2^15-span ring, so
    # "complete" shows the streamed export kept every one.
    Row("metrics",
        ["--simulate", "--users", "10", "--clients", "2", "--servers", "2", "--minutes", "30",
         "--warmup", "5", "--heavy", "--metrics", "--metrics-interval", "60", "--trace-out", TRACE],
        need={"stdout": ["# sprite-metrics v2", "window seq=0", "gauge sim.queue.dispatched",
                         "counter cache.miss_fills", "latency rpc.read-block.latency_us"]},
        trace={"spans": WIRE_KINDS, "tracks": {"rpc.calls": None}, "complete": True}),
    # One server crash plus an asymmetric partition. Stale handles surface as
    # lowercase prose, never as the enum's spelling.
    Row("recovery",
        ["--simulate", "--users", "8", "--clients", "4", "--servers", "2", "--minutes", "30",
         "--warmup", "5", "--metrics", "--rpc-ledger",
         "--crash-schedule", "crash:0@600+20,part:0-1x0@900+300", "--trace-out", TRACE],
        need={"stdout": ["Crash recovery and partitions", "server 0: epoch 2", "reopen RPCs:",
                         "dropped callbacks:"]},
        forbid={"stdout": ["StaleHandle"]},
        trace={"spans": ["recovery.crash", "server.down", "server.recovering", "reopen",
                         "partition-gap"]}),
    # An empty crash schedule leaves the paper tables untouched.
    Row("empty_schedule", U8 + ["--crash-schedule", ""], off=U8),
    Row("async", U8 + ["--async", "--metrics", "--rpc-ledger", "--trace-out", TRACE],
        need={"stdout": ["latency server.0.queue_us", "latency server.1.queue_us",
                         "gauge server.0.queue_depth", "Queue (ms)", "Service (ms)"]},
        trace={"spans": ["rpc.queued"], "positive": ["rpc.queued"]}),
    # Every default-off switch off: tables, ledger and the kernel's dispatched
    # event count are pinned.
    Row("sync", SYNC, expect="sync_tables_u8c4s2m10w2.txt",
        need={"stderr": ["dispatched 8440 events"]}),
    *[Row("shard_" + policy.replace("-", "_"),
          U8 + ["--shard-policy", policy, "--shard-report"],
          expect="shard_report_modulo_u8c4s2m10w2.txt" if policy == "modulo" else None,
          need={"stdout": ["== Server sharding report ==", "policy: " + policy, "Files placed",
                           "skew: files max/mean"]})
      for policy in ["modulo", "hash", "range", "dir-affinity"]],
    # Heavy + async + modulo placement aims every user's simulation input at
    # server 0; the detector must flag it, and the streams stay off stdout.
    Row("obs_hot",
        U8 + ["--heavy", "--async", "--metrics", "--critical-path", "--hotspot-report",
              "--metrics-out", METRICS],
        need={"metrics": ["# sprite-metrics v2", "window seq=0", "win_p99_us=", "== Critical path",
                          "reconcile rpcs:", "== Hot-spot report ==", "server 0: HOT"]},
        forbid={"metrics": ["MISMATCH"], "stdout": [R("sprite-metrics|reconcile|Hot-spot")]}),
    # Same seed under hash placement: the skew dissolves and the detector is quiet.
    Row("obs_quiet",
        U8 + ["--heavy", "--async", "--shard-policy", "hash", "--hotspot-report",
              "--metrics-out", METRICS],
        need={"metrics": ["no hot spots detected"]}),
    # Gauge and counter series render as per-server counter tracks in Perfetto.
    Row("obs_tracks", U8 + ["--async", "--metrics", "--trace-out", TRACE],
        trace={"tracks": {"rpc.calls": {9999}, "server.0.queue_depth": {1000},
                          "server.1.queue_depth": {1001}}}),
    # Full observability routed to --metrics-out leaves stdout untouched.
    Row("obs_on",
        SYNC + ["--metrics", "--critical-path", "--hotspot-report", "--metrics-out", METRICS],
        expect="sync_tables_u8c4s2m10w2.txt"),
    # A clean single-server crash (fails over), a client crash, and a
    # correlated group that kills a primary with its backup (degrades to the
    # reopen-storm path).
    Row("failover",
        U8 + ["--replication", "--metrics", "--rpc-ledger",
              "--crash-schedule", "crash:0@240+30,ccrash:1@300,crash:0+1@420+20",
              "--trace-out", TRACE],
        need={"stdout": ["latency recovery.failover_us", "counter recovery.failovers",
                         "gauge server.0.role", "shadow-open", "replication: 1 failover(s)",
                         "1 degraded crash(es)", "dirty preserved by fail-over",
                         "1 client crash(es)"]},
        trace={"spans": ["failover", "shadow-*"], "positive": ["failover"]},
        rerun=True,
        off=U8 + ["--metrics", "--rpc-ledger"],
        off_forbid={"stdout": [R(r"shadow-|failover|server\.[0-9]+\.role")]}),
    # Batch flushes feed the critical path the terms they charge to the
    # ledger, so the reconciliation stays exact under loss and queueing.
    Row("batching",
        U8 + ["--honest-wire", "--rpc-batching", "--net-contention", "--net-loss", "0.02",
              "--rpc-ledger", "--critical-path", "--metrics", "--metrics-out", METRICS],
        need={"stdout": ["== Wire (honest wire / contention) ==", "wire exchanges:", "batched",
                         "contention:", "retransmit(s)", R("^batch ")],
              "metrics": ["gauge wire.batched_ops", "gauge wire.batches",
                          "gauge net.retransmits", "latency net.link.0.queued_us",
                          "latency net.link.1.queued_us", R("reconcile wire_us: .* OK")]},
        forbid={"metrics": ["MISMATCH"]},
        rerun=True),
    # Honest wire alone: the piggyback window absorbs some control ops and
    # charges the rest.
    Row("honest_wire", U8 + ["--honest-wire", "--rpc-ledger"],
        need={"stdout": [R("wire: [1-9][0-9]* piggybacked, [1-9][0-9]* charged control")]}),
    # The modulo hot spot with the rebalancer armed: the episode triggers a
    # migration burst that dissolves it. Off, no trace of the machinery.
    Row("rebalance",
        U8 + ["--heavy", "--async", "--rebalance", "--metrics", "--rpc-ledger",
              "--metrics-out", METRICS, "--trace-out", TRACE],
        need={"metrics": ["gauge rebalance.migrations", "gauge rebalance.moved_bytes",
                          "== Rebalance report ==", "hot-spot migrations:",
                          "hot spot dissolved", "hot spots dissolved: 1/1 bursts",
                          "migration RPCs:"],
              "stdout": [R("^migrate-state ")]},
        trace={"spans": ["migrate"], "positive": ["migrate"], "cat": {"migrate": "rebalance"}},
        rerun=True,
        off=U8 + ["--heavy", "--async", "--metrics", "--rpc-ledger", "--metrics-out", METRICS],
        off_forbid={stream: [R(r"rebalance\.|migrate-(state|dirty|commit)|Rebalance report")]
                    for stream in ("stdout", "metrics")}),
]
BY_NAME = {row.name: row for row in ROWS}
assert len(BY_NAME) == len(ROWS), "duplicate row name"


def run(binary, argv, work, tag):
    """Runs binary with argv's placeholders bound under work/; returns its outputs."""
    files = {METRICS: os.path.join(work, tag + ".metrics"),
             TRACE: os.path.join(work, tag + ".json")}
    for path in files.values():
        if os.path.exists(path):
            os.remove(path)
    proc = subprocess.run([binary] + [files.get(a, a) for a in argv], capture_output=True)
    out = {"stdout": proc.stdout, "stderr": proc.stderr, "metrics": None,
           "trace": files[TRACE], "rc": proc.returncode}
    for stream in ("stdout", "stderr"):
        with open(os.path.join(work, f"{tag}.{stream}"), "wb") as f:
            f.write(out[stream])
    if os.path.exists(files[METRICS]):
        with open(files[METRICS], "rb") as f:
            out["metrics"] = f.read()
    return out


def found(text, pattern):
    return bool(pattern.search(text)) if isinstance(pattern, re.Pattern) else pattern in text


def show(pattern):
    return f"/{pattern.pattern}/" if isinstance(pattern, re.Pattern) else f"'{pattern}'"


def scan(out, tag, need, forbid):
    fails = [] if out["rc"] == 0 else [f"{tag}: exited {out['rc']}: {out['stderr'][-500:]!r}"]
    for stream in sorted(set(need or {}) | set(forbid or {})):
        if out[stream] is None:
            fails.append(f"{tag}: no {stream} file written")
            continue
        text = out[stream].decode(errors="replace")
        fails += [f"{tag}: {show(p)} missing from {stream}"
                  for p in (need or {}).get(stream, []) if not found(text, p)]
        fails += [f"{tag}: forbidden {show(p)} in {stream}"
                  for p in (forbid or {}).get(stream, []) if found(text, p)]
    return fails


def differ(what, want, got):
    """Empty when want == got byte for byte, else a failure with a short diff."""
    if want == got:
        return []
    if want is None or got is None:
        return [f"{what}: one side wrote no output"]
    diff = difflib.unified_diff(want.decode(errors="replace").splitlines(),
                                got.decode(errors="replace").splitlines(), "want", "got",
                                lineterm="")
    return [f"{what} differs:\n" + "\n".join(list(diff)[:20])]


class JsonStream:
    """Reads one JSON text from a file a chunk at a time."""

    CHUNK = 1 << 20
    SPACE = re.compile(r"\s*")
    DECODER = json.JSONDecoder()

    def __init__(self, f):
        self.f, self.buf, self.pos = f, "", 0

    def fill(self):
        """Appends the next chunk; False at the end of the file."""
        chunk = self.f.read(self.CHUNK)
        self.buf, self.pos = self.buf[self.pos:] + chunk, 0
        return bool(chunk)

    def peek(self):
        """The next non-space character ('' at the end of the file)."""
        while True:
            self.pos = self.SPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self.fill():
                return self.buf[self.pos:self.pos + 1]

    def take(self, char):
        """Consumes `char` if it comes next."""
        if self.peek() != char:
            return False
        self.pos += 1
        return True

    def expect(self, char):
        if not self.take(char):
            raise json.JSONDecodeError(f"expected {char!r}", self.buf, self.pos)

    def value(self):
        self.peek()
        while True:
            try:
                value, end = self.DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError:
                if self.fill():
                    continue
                raise
            # A number may go on past the buffer's end, also when the buffer
            # cuts it after its '.', exponent or exponent sign ("1." + "5").
            if (end < len(self.buf) and self.buf[end] not in ".eE+-") or not self.fill():
                self.pos = end
                return value

    def key(self):
        key = self.value()
        self.expect(":")
        return key

    def sequence(self, opener, closer, item):
        """Yields item() per member of the array or object that comes next.
        For an object, item is key and the consumer reads each value."""
        self.expect(opener)
        if self.take(closer):
            return
        yield item()
        while self.take(","):
            yield item()
        self.expect(closer)


def trace_events(path):
    """Yields the events of a Chrome-trace JSON file one at a time, so a large
    trace is checked in bounded memory. Raises json.JSONDecodeError on
    malformed JSON, even after the last event, and KeyError when the file has
    no traceEvents."""
    seen = False
    with open(path) as f:
        stream = JsonStream(f)
        for key in stream.sequence("{", "}", stream.key):
            if key == "traceEvents":
                seen = True
                yield from stream.sequence("[", "]", stream.value)
            else:
                stream.value()
        if stream.peek():
            raise json.JSONDecodeError("extra data", stream.buf, stream.pos)
    if not seen:
        raise KeyError("traceEvents")


WROTE = re.compile(rb"^wrote ([0-9]+) spans to ", re.M)


def check_trace(out, spec):
    """Checks a run's Chrome-trace JSON file against spec:

    spans     fnmatch patterns that must each name at least one complete ("X") span
    positive  span names whose spans must exist and all have dur > 0
    cat       span name -> the category all of its spans must carry
    tracks    counter ("C") track name -> the exact set of pids it lands on
              (None: any pid, the track only has to exist)
    complete  True: the file's "X" event count must equal the N of the run's
              "wrote N spans" stderr line (every span since the warmup cut)
    """
    path = out["trace"]
    # Per span name: the shortest duration and the categories seen.
    spans, tracks, complete_events = {}, {}, 0
    try:
        for e in trace_events(path):
            if e.get("ph") == "X":
                complete_events += 1
                span = spans.setdefault(e["name"], [e["dur"], set()])
                span[0] = min(span[0], e["dur"])
                span[1].add(e.get("cat"))
            elif e.get("ph") == "C":
                tracks.setdefault(e["name"], set()).add(e["pid"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        return [f"trace {path}: {e!r}"]
    fails = [f"trace: no span matches '{p}'" for p in spec.get("spans", [])
             if not fnmatch.filter(spans, p)]
    fails += [f"trace: '{n}' spans missing or with dur <= 0" for n in spec.get("positive", [])
              if n not in spans or spans[n][0] <= 0]
    fails += [f"trace: '{n}' spans missing or off category '{c}'"
              for n, c in spec.get("cat", {}).items()
              if n not in spans or spans[n][1] != {c}]
    fails += [f"trace: counter track '{n}' on pids {sorted(tracks.get(n, []))}, want {pids}"
              for n, pids in spec.get("tracks", {}).items()
              if n not in tracks or (pids is not None and tracks[n] != pids)]
    if spec.get("complete"):
        wrote = WROTE.search(out["stderr"])
        if wrote is None:
            fails.append("trace: no 'wrote N spans' line on stderr")
        elif int(wrote.group(1)) != complete_events:
            fails.append(f"trace: {complete_events} \"X\" events, but stderr says wrote "
                         f"{int(wrote.group(1))} spans")
    return fails


def run_row(binary, row):
    """Runs one row; returns its failures (empty when every check holds)."""
    if not (row.expect or row.need or row.forbid or row.trace or row.rerun or row.off):
        return ["row checks nothing"]
    work = os.path.join(os.path.dirname(os.path.abspath(binary)), "golden", row.name)
    os.makedirs(work, exist_ok=True)
    first = run(binary, row.argv, work, "run")
    fails = scan(first, "run", row.need, row.forbid)
    if row.expect:
        with open(os.path.join(BASELINES, row.expect), "rb") as f:
            fails += differ(f"stdout vs {row.expect}", f.read(), first["stdout"])
    if row.trace:
        fails += check_trace(first, row.trace)
    if row.rerun:
        argv = list(row.argv)
        if TRACE in argv:
            del argv[argv.index(TRACE) - 1:argv.index(TRACE) + 1]
        again = run(binary, argv, work, "rerun")
        fails += scan(again, "rerun", None, None)
        fails += differ("rerun stdout", first["stdout"], again["stdout"])
        fails += differ("rerun metrics", first["metrics"], again["metrics"])
    if row.off:
        off = run(binary, row.off, work, "off")
        fails += scan(off, "off", None, row.off_forbid)
        if row.off_forbid is None:
            fails += differ("off-mode stdout", first["stdout"], off["stdout"])
    if not fails:
        shutil.rmtree(work)
    return fails


def main(argv):
    if len(argv) == 1:
        print("\n".join(row.name for row in ROWS))
        return 0
    if len(argv) != 3 or argv[2] not in BY_NAME:
        print(f"usage: {argv[0]} SPRITE_ANALYZE ROW  (rows: {' '.join(BY_NAME)})",
              file=sys.stderr)
        return 2
    fails = run_row(argv[1], BY_NAME[argv[2]])
    for fail in fails:
        print(f"golden.{argv[2]}: {fail}", file=sys.stderr)
    if not fails:
        print(f"golden.{argv[2]}: OK")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
