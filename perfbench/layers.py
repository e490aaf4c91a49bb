"""Groups a gprof flat profile's self time into the simulator's layers.

A symbol belongs to the layer of the source file that defines its owner:
for ``sprite::BlockCache::Lookup(...)`` the owner is ``BlockCache``; for a
standard-library instantiation such as ``std::_Hashtable<sprite::BlockKey,
... sprite::BlockCache::Entry ...>`` it is the first ``sprite::`` name in the
template arguments that is not a plain value type. Owners are looked up in
an index of the ``class``/``struct``/function names each file under ``src/``
defines, and the file's path gives the layer (``PATH_LAYERS``). A few
``Cluster`` members, whose file spans several layers, are routed by name
first (``NAME_RULES``). Time that matches nothing is reported as ``other``.
"""

import os
import re

LAYERS = ["sim", "workload", "cache", "client", "rpc", "server", "placement",
          "obs", "trace", "analysis", "other"]

# Source path prefix (relative to src/, without extension) -> layer. The
# longest matching prefix wins.
PATH_LAYERS = {
    "sim/": "sim",
    "util/unique_callback": "sim",
    "workload/": "workload",
    "util/rng": "workload",
    "util/distributions": "workload",
    "fs/block_cache": "cache",
    "fs/client": "client",
    "fs/vm": "client",
    "fs/rpc": "rpc",
    "fs/net": "rpc",
    "fs/counters": "rpc",
    "fs/server": "server",
    "fs/disk": "server",
    "fs/log_disk": "server",
    "fs/recovery": "server",
    "fs/replication": "server",
    "fs/cluster": "server",
    "fs/sharding": "placement",
    "fs/rebalance": "placement",
    "obs/": "obs",
    "util/histogram": "obs",
    "util/stats": "analysis",
    "trace/": "trace",
    "analysis/": "analysis",
    "consistency/": "analysis",
}

# Checked before the owner lookup: members that do another layer's work.
# Gauge callbacks registered by AttachObservability run on every metrics
# snapshot; the Cluster constructor registers the trace sink and gauges.
NAME_RULES = [
    (re.compile(r"::AttachObservability\(.*\{lambda"), "obs"),
    (re.compile(r"sprite::Cluster::Cluster\(.*\{lambda\(sprite::Record const&\)"), "trace"),
    (re.compile(r"sprite::Cluster::Cluster\(.*\{lambda\(\)"), "obs"),
    (re.compile(r"sprite::Cluster::(CaptureMetricsWindow|FinalizeObservability|Hotspot)"), "obs"),
    (re.compile(r"sprite::Cluster::(ServerForFile|RouteHome|Migrate|HomedFiles|HomedBytes|"
                r"HomeCensus|AddServer|RetireServer|NumServers|IsLive)"), "placement"),
]

# Plain value types that appear as template arguments of another layer's
# containers and callbacks; they name an owner only when nothing else does.
VALUE_TYPES = {"BlockKey", "Record", "RpcKind", "SpanTrack", "Span", "SimTime", "FileId"}

_DEFINITION = re.compile(
    r"^(?:class|struct)\s+(\w+)\b[^;]*$"            # class Foo {  /  struct Foo final : ...
    r"|^[A-Za-z_][\w:<>,\s\*&]*?[\s\*&](\w+)\(")     # free function at namespace scope
_OWNER = re.compile(r"sprite::(?:\(anonymous namespace\)::)?(\w+)")


def layer_of_path(relative_path):
    """Layer of a file given its path relative to src/ ('' if none)."""
    stem = os.path.splitext(relative_path)[0]
    best = ""
    for prefix in PATH_LAYERS:
        if stem.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return PATH_LAYERS[best] if best else ""


def build_index(src_dir):
    """Maps each top-level name defined under src_dir to its layer."""
    index = {}
    for dirpath, _, filenames in os.walk(src_dir):
        for filename in sorted(filenames):
            if not filename.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, filename)
            layer = layer_of_path(os.path.relpath(path, src_dir).replace(os.sep, "/"))
            if not layer:
                continue
            with open(path, encoding="utf-8", errors="replace") as f:
                for line in f:
                    match = _DEFINITION.match(line)
                    if match:
                        name = match.group(1) or match.group(2)
                        # Headers declare, sources define: keep the first
                        # file seen for classes, but never overwrite.
                        index.setdefault(name, layer)
    return index


def classify(symbol, index):
    """The layer a demangled symbol's self time belongs to."""
    for pattern, layer in NAME_RULES:
        if pattern.search(symbol):
            return layer
    fallback = ""
    for owner in _OWNER.findall(symbol):
        layer = index.get(owner, "")
        if not layer:
            continue
        if owner not in VALUE_TYPES:
            return layer
        fallback = fallback or layer
    return fallback or "other"


_FLAT_ROW = re.compile(
    r"^\s*(?P<pct>[\d.]+)\s+(?P<cum>[\d.]+)\s+(?P<self>[\d.]+)"
    r"(?:\s+\d+\s+[\d.]+\s+[\d.]+)?\s+(?P<name>\S.*)$")


def parse_flat_profile(text):
    """[(self_seconds, symbol)] from `gprof -b -p` output."""
    rows = []
    for line in text.splitlines():
        match = _FLAT_ROW.match(line)
        if match:
            rows.append((float(match.group("self")), match.group("name").strip()))
    return rows


def group_self_time(rows, index):
    """Sums self seconds per layer; every layer in LAYERS is present."""
    totals = {layer: 0.0 for layer in LAYERS}
    for seconds, symbol in rows:
        totals[classify(symbol, index)] += seconds
    return totals


def hot_symbols(rows, index, layer, top=3):
    """The `top` symbols by self time within one layer (for the report)."""
    seconds = {}
    for self_seconds, symbol in rows:
        if self_seconds > 0 and classify(symbol, index) == layer:
            seconds[symbol] = seconds.get(symbol, 0.0) + self_seconds
    return sorted(((s, symbol) for symbol, s in seconds.items()), reverse=True)[:top]
