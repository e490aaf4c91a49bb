#!/usr/bin/env python3
"""Self-test for the golden runner (golden.py), with no simulation.

Runs golden.run_row against a fake sprite_analyze that prints what its argv
tells it to. A correct row must pass; each broken variant (a moved expected
byte, a missing needle, a forbidden pattern, a rerun that differs, a failed
trace check, a differing off-mode run, a non-zero exit, a row that checks
nothing, a trace whose span count differs from the one on stderr) must fail
with the matching message. A runner that passes every row fails this test. A
passing row must delete its output directory and a failing one keep it. The streaming trace reader must also read numbers that its
buffer splits at any position.

Usage: golden_selftest.py   (writes under ./golden_selftest/)
"""

import dataclasses
import io
import json
import os
import sys

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import golden  # noqa: E402
from golden import METRICS, R, Row, TRACE  # noqa: E402

FAKE = """#!{python}
import json, os, sys
args, out, err, metrics, events, files, code = sys.argv[1:], [], [], [], [], {{}}, 0
for flag, value in zip(args[::2], args[1::2]):
    if flag == "--out":
        out.append(value)
    elif flag == "--err":
        err.append(value)
    elif flag == "--metric":
        metrics.append(value)
    elif flag == "--count":  # a metrics line that changes on every run
        counter = os.path.join(os.path.dirname(os.path.abspath(__file__)), "count")
        n = int(open(counter).read()) + 1 if os.path.exists(counter) else 1
        open(counter, "w").write(str(n))
        metrics.append(f"count {{n}}")
    elif flag == "--span":
        name, dur, cat = value.split(":")
        events.append({{"ph": "X", "name": name, "dur": int(dur), "cat": cat, "pid": 1}})
    elif flag == "--track":
        name, pid = value.split(":")
        events.append({{"ph": "C", "name": name, "pid": int(pid)}})
    elif flag == "--exit":
        code = int(value)
    else:
        files[flag] = value
print("\\n".join(out))
print("\\n".join(err), file=sys.stderr)
if "--metrics-out" in files:
    open(files["--metrics-out"], "w").write("\\n".join(metrics) + "\\n")
if "--trace-out" in files:
    text = json.dumps({{"traceEvents": events}})
    open(files["--trace-out"], "w").write(text[:-1] if "--bad-json" in files else text)
sys.exit(code)
"""


def stream_errors():
    """Reads a JSON array through golden.JsonStream at every chunk size, so
    every value, fractional and exponent numbers included, is split at every
    position; each read must equal json.loads."""
    doc = '[1.5, -2.25e+3, 10, 3E-2, 7e5, {"dur": 0.125, "ts": [1e-5, -0.5]}, "x.y"]'
    want = json.loads(doc)
    for chunk in range(1, len(doc) + 1):
        stream = golden.JsonStream(io.StringIO(doc))
        stream.CHUNK = chunk
        try:
            got = list(stream.sequence("[", "]", stream.value))
        except json.JSONDecodeError as e:
            got = e
        if got != want or stream.peek():
            return [f"JsonStream with {chunk}-char chunks read {got}"]
    return []


def main():
    work = os.path.abspath("golden_selftest")
    os.makedirs(work, exist_ok=True)
    fake = os.path.join(work, "fake_analyze")
    with open(fake, "w") as f:
        f.write(FAKE.format(python=sys.executable))
    os.chmod(fake, 0o755)
    expected, moved = os.path.join(work, "expected.txt"), os.path.join(work, "moved.txt")
    with open(expected, "w") as f:
        f.write("hello world\n")
    with open(moved, "w") as f:
        f.write("hello worle\n")

    good = Row("good",
               ["--out", "hello world", "--err", "dispatched 7 events",
                "--err", "wrote 2 spans to trace.json", "--metric", "gauge x.y",
                "--span", "rpc.queued:5:rpc", "--span", "shadow-open:1:rpc",
                "--track", "rpc.calls:9999", "--metrics-out", METRICS, "--trace-out", TRACE],
               expect=expected,
               need={"stdout": ["hello", R("^hello w")], "stderr": ["dispatched 7 events"],
                     "metrics": ["gauge x.y"]},
               forbid={"stdout": ["MISMATCH", R("^world")], "metrics": [R(r"x\.z")]},
               trace={"spans": ["rpc.queued", "shadow-*"], "positive": ["rpc.queued"],
                      "cat": {"rpc.queued": "rpc"}, "tracks": {"rpc.calls": {9999}},
                      "complete": True},
               rerun=True, off=["--out", "hello world"])
    assert good.argv[4:6] == ["--err", "wrote 2 spans to trace.json"]
    good_off_forbid = dataclasses.replace(good, off=["--out", "quiet"],
                                          off_forbid={"stdout": ["hello"]})

    def variant(row=good, add=(), **changes):
        changes.setdefault("argv", row.argv + list(add))
        return dataclasses.replace(row, **changes)

    broken = [
        ("expected byte moved", variant(expect=moved), "stdout vs"),
        ("stdout needle missing", variant(need={"stdout": ["absent"]}), "'absent' missing"),
        ("regex needle missing", variant(need={"stdout": [R("^world")]}), "/^world/ missing"),
        ("stderr needle missing", variant(need={"stderr": ["dispatched 8 events"]}),
         "missing from stderr"),
        ("metrics needle missing", variant(need={"metrics": ["gauge x.z"]}),
         "missing from metrics"),
        ("metrics file not written", variant(argv=["--out", "hello world"]), "no metrics file"),
        ("forbidden string present", variant(forbid={"stdout": ["world"]}), "forbidden 'world'"),
        ("forbidden regex present", variant(forbid={"metrics": [R(r"x\.y")]}), "forbidden /"),
        ("rerun differs", variant(add=["--count", "1"]), "rerun metrics differs"),
        ("span missing", variant(trace={"spans": ["migrate"]}), "no span matches 'migrate'"),
        ("span prefix missing", variant(trace={"spans": ["failover*"]}), "no span matches"),
        ("zero-duration span", variant(add=["--span", "rpc.queued:0:rpc"]), "dur <= 0"),
        ("span off its category", variant(trace={"cat": {"rpc.queued": "rebalance"}}),
         "off category"),
        ("counter on the wrong pid", variant(trace={"tracks": {"rpc.calls": {1000}}}),
         "counter track 'rpc.calls'"),
        ("counter track missing", variant(trace={"tracks": {"server.0.queue_depth": None}}),
         "counter track 'server.0.queue_depth'"),
        ("trace not JSON", variant(add=["--bad-json", "1"]), "JSONDecodeError"),
        ("trace lost a span", variant(add=["--span", "extra:1:rpc"]),
         'trace: 3 "X" events, but stderr says wrote 2 spans'),
        ("span count not on stderr",
         variant(argv=good.argv[:4] + good.argv[6:]),
         "no 'wrote N spans' line"),
        ("off-mode differs", variant(off=["--out", "hello"]), "off-mode stdout differs"),
        ("off-mode forbidden", variant(good_off_forbid, off=["--out", "hello"]), "off: forbidden"),
        ("run exits non-zero", variant(add=["--exit", "3"]), "run: exited 3"),
        ("off run exits non-zero", variant(off=["--out", "hello world", "--exit", "3"]),
         "off: exited 3"),
        ("row checks nothing", Row("empty", ["--out", "x"]), "checks nothing"),
    ]

    errors = stream_errors()
    outputs = os.path.join(work, "golden", good.name)
    for row in (good, good_off_forbid):
        fails = golden.run_row(fake, row)
        if fails:
            errors.append(f"correct row failed: {fails}")
        elif os.path.exists(outputs):
            errors.append(f"correct row left its outputs in {outputs}")
    for label, row, message in broken:
        fails = golden.run_row(fake, row)
        if not any(message in fail for fail in fails):
            errors.append(f"{label}: want a failure containing {message!r}, got {fails}")
        elif row.name == good.name and not os.path.isdir(outputs):
            errors.append(f"{label}: failing row deleted its outputs")
    for error in errors:
        print("golden_selftest: " + error, file=sys.stderr)
    cases = 3 + len(broken)
    print(f"golden_selftest: {cases - len(errors)}/{cases} cases OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
