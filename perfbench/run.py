#!/usr/bin/env python3
"""End-to-end benchmark of the camc query service (camc_serve / camc_router).

    python3 perfbench/run.py --workload cold_mix|stream_mutate|hot_routed \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The script builds the unmodified server and
router plus two helpers (perfbench/CMakeLists.txt) into .bench_build/,
writes the workload's input graphs from --seed, stages them with `load`,
drives the workload for --seconds over the real NDJSON pipe from this one
process, checks every answer against sequential references, and prints

  * one `{"report": ...}` line: environment stamp, sample counts, validity,
    and the workload-scoped figures (per-kind p50s, mutation latencies,
    failed_frac) that do not apply to every workload;
  * as the last line, `{"correct", "attempted", "failed", "metrics"}` with
    the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
    named in BENCHMARK.json.

--trace 1 runs the workload twice on one server, untraced and then with
"trace":true on every query, and writes per-request spans to
.bench_build/traces/<workload>.ndjson. --smoke shrinks every input so all
three workloads finish in seconds (perfbench/selftest.py). perfbench/README.md
documents the workloads and metrics.
"""

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARIES = ("camc_serve", "camc_router", "bench_ref")

SERVE_THREADS = 2      # ranks of a direct server
ROUTER_SHARDS = 2
SHARD_THREADS = 1      # ranks of each routed shard
HOT_DEPTH = 4          # requests outstanding on the routed pipe
SETUP_REPS = 5         # set-ups per untraced run, each followed by its window
RECV_TIMEOUT_S = 90.0
SAMPLE = 2000          # request/response lines kept for the JSON layer timing
SPAN_REQUESTS = 20000  # traced requests written to the span file
WARM_GROUPS = 1        # cold_mix query groups run during set-up

# (n, m, wmax) per input; hot_graphs is the number of "hot" graphs.
SIZES = {
    False: {"giant": (200000, 800000, 1), "mid": (10000, 80000, 8),
            "small": (200, 1600, 8), "hot": (2000, 8000, 1), "hot_graphs": 16},
    True: {"giant": (3000, 12000, 1), "mid": (400, 3200, 8),
           "small": (30, 240, 8), "hot": (150, 600, 1), "hot_graphs": 4},
}
STREAM_OPS = 30000
STREAM_QUERY_SEED = 7
BCC_KINDS = ("bcc", "bridges", "articulation")
KINDS = ("cc",) + BCC_KINDS + ("approx_min_cut", "min_cut")
MUTATIONS = ("add_edges", "remove_edges")


def log(message):
    print(message, file=sys.stderr, flush=True)


def derive(seed, tag):
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def encode(obj):
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


# ---- build and environment -------------------------------------------------

def build(targets):
    if not os.path.exists(os.path.join(ROOT, "src", "svc", "service.hpp")):
        raise SystemExit("perfbench: camc sources not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], check=True, **quiet)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2),
                    "--target", *targets], check=True, **quiet)


def tool(name):
    return os.path.join(BUILD, name)


def bench_ref(*args):
    out = subprocess.run([tool("bench_ref"), *args], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out) if out.strip() else None


def environment(workload):
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            name, sep, value = line.rstrip("\n").partition("=")
            if sep and ":" in name:
                cache[name.split(":", 1)[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True).stdout.splitlines()
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True).stdout.strip()
    if not commit:  # not a git checkout: digest the sources instead
        digest = hashlib.sha256()
        for top in ("src", "tools"):
            for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
                dirs.sort()
                for name in sorted(files):
                    with open(os.path.join(folder, name), "rb") as f:
                        digest.update(name.encode() + f.read())
        commit = "sources-sha256:" + digest.hexdigest()[:16]
    ranks = ({"router_shards": ROUTER_SHARDS, "shard_threads": SHARD_THREADS}
             if workload == "hot_routed" else {"serve_threads": SERVE_THREADS})
    return {"nproc": os.cpu_count(), **ranks, "build_type": build_type,
            "optimized": build_type in ("Release", "RelWithDebInfo", "MinSizeRel"),
            "compiler": compiler[0] if compiler else "unknown", "commit": commit,
            "loadavg_1m": os.getloadavg()[0]}


# ---- peers -----------------------------------------------------------------

LIVE = []  # every peer started, so that a failure still stops them all


class Peer:
    """A camc_serve or camc_router process driven over its stdin/stdout."""

    def __init__(self, argv, workdir):
        self.stderr = open(os.path.join(workdir, f"peer{len(LIVE)}.log"), "wb")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr,
                                     cwd=workdir, preexec_fn=pin_server)
        self.wfd = self.proc.stdin.fileno()
        self.rfd = self.proc.stdout.fileno()
        self.buf = b""
        self.next_id = 1 << 40  # ids for control requests, clear of op ids
        self.children = []      # shard pids of a router
        LIVE.append(self)

    def send(self, data):
        view = memoryview(data)
        while view:
            view = view[os.write(self.wfd, view):]

    def recv(self):
        while True:
            cut = self.buf.find(b"\n")
            if cut >= 0:
                line, self.buf = self.buf[:cut], self.buf[cut + 1:]
                return line
            if not select.select([self.rfd], [], [], RECV_TIMEOUT_S)[0]:
                raise RuntimeError("server did not answer in time")
            chunk = os.read(self.rfd, 1 << 16)
            if not chunk:
                raise RuntimeError("server closed its output")
            self.buf += chunk

    def control(self, request):
        """A request that must succeed; returns its parsed response."""
        self.next_id += 1
        self.send(encode({"id": self.next_id, **request}))
        line = self.recv()
        response = json.loads(line)
        if response.get("status") != "ok":
            raise RuntimeError(f"{request.get('op')} failed: {line[:300]!r}")
        return response

    def load(self, name, path):
        start = time.perf_counter()
        self.control({"op": "load", "graph": name, "path": path})
        return time.perf_counter() - start

    def stats(self):
        return self.control({"op": "stats"})["result"]

    def peak_rss_mb(self):
        """VmHWM of this process plus its shard processes, in MB."""
        total = 0.0
        for pid in [self.proc.pid] + self.children:
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def close(self, kill=False):
        if self.proc.poll() is None:
            try:
                if kill:
                    raise OSError
                self.send(b'{"op":"shutdown"}\n')
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        wait_gone(self.children)
        self.stderr.close()
        if self in LIVE:
            LIVE.remove(self)


SERVER_CPUS = None  # CPUs the servers are pinned to, when the client has its own


def pin_busy_client():
    """Gives a client that never idles one CPU of its own and the servers
    the rest, so the scheduler never trades the client's time against the
    server's. A closed-loop client sleeps while the server works and keeps
    sharing every CPU."""
    global SERVER_CPUS
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 4:
        os.sched_setaffinity(0, set(cpus[:1]))
        SERVER_CPUS = set(cpus[1:])


def pin_server():
    if SERVER_CPUS:
        os.sched_setaffinity(0, SERVER_CPUS)


def wait_gone(pids, timeout=10.0):
    """Waits for a router's shards (its children, not ours) to exit."""
    deadline = time.time() + timeout
    for pid in pids:
        while time.time() < deadline:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break
            except OSError:
                break
            time.sleep(0.02)
        else:
            try:
                os.kill(pid, 9)
            except OSError:
                pass


def start_serve(workdir, threads=SERVE_THREADS):
    return Peer([tool("camc_serve"), f"--threads={threads}"], workdir)


def start_router(workdir):
    peer = Peer([tool("camc_router"), f"--serve={tool('camc_serve')}",
                 f"--shards={ROUTER_SHARDS}", f"--threads={SHARD_THREADS}",
                 "--no-auto-save"], workdir)
    rows = peer.stats()["cluster"]["shard_status"]
    peer.children = [row["pid"] for row in rows if row.get("pid", -1) > 0]
    return peer


# ---- the operation log -----------------------------------------------------

PREFIX = b'{"v":1,"id":'
LATENCY = b',"latency_ms":'


def split_response(line):
    """(id, body, latency_ms): the body is the response without its id and
    latency_ms, so identical answers share one body."""
    if not line.startswith(PREFIX):
        obj = json.loads(line)
        latency = obj.pop("latency_ms", math.nan)
        op_id = obj.pop("id", 0)
        return op_id, json.dumps(obj, separators=(",", ":"))[1:-1].encode(), latency
    comma = line.index(b",", len(PREFIX))
    op_id = int(line[len(PREFIX):comma])
    cut = line.rfind(LATENCY)
    if cut < 0:
        return op_id, line[comma + 1:-1], math.nan
    end = line.find(b",", cut + len(LATENCY))
    if end < 0:
        end = len(line) - 1
    return (op_id, line[comma + 1:cut] + line[end:-1],
            float(line[cut + len(LATENCY):end]))


class Log:
    """The operations of one phase as the client saw them. Compact, because a
    hot window holds over a million: timings in float arrays, each response
    cut into its id, its latency_ms and a body interned across repeats."""

    def __init__(self):
        self.ops = []              # (kind, key), shared between repeats
        self.ids = array("q")
        self.sent = array("d")     # perf_counter() at send
        self.rtt = array("d")      # seconds, send to response
        self.latency = array("d")  # server latency_ms; nan for mutations
        self.bodies = []
        self.requests = []         # the first SAMPLE request lines
        self.lines = []            # the first SAMPLE response lines
        self.wrong = {}            # index -> why the answer is wrong
        self.checked = 0           # ok answers compared with a reference
        self._interned = {}
        self._parsed = {}

    def add(self, op, request, sent, rtt, line):
        op_id, body, latency = split_response(line)
        self.ops.append(op)
        self.ids.append(op_id)
        self.sent.append(sent)
        self.rtt.append(rtt)
        self.latency.append(latency)
        self.bodies.append(self._interned.setdefault(body, body))
        if len(self.requests) < SAMPLE:
            self.requests.append(request)
            self.lines.append(line)

    def __len__(self):
        return len(self.ops)

    def response(self, i):
        """The parsed response body (without id and latency_ms)."""
        body = self.bodies[i]
        parsed = self._parsed.get(body)
        if parsed is None:
            parsed = self._parsed[body] = json.loads(b"{" + body + b"}")
        return parsed

    def ok(self, i):
        return self.response(i).get("status") == "ok"

    def kind(self, i):
        return self.ops[i][0]

    def indices(self, kinds=KINDS):
        """The ok operations of the given kinds."""
        return [i for i in range(len(self)) if self.ops[i][0] in kinds and self.ok(i)]

    def failed(self):
        return sum(1 for i in range(len(self)) if not self.ok(i) or i in self.wrong)

    def window_s(self):
        return max(s + r for s, r in zip(self.sent, self.rtt)) - min(self.sent)


def query_bytes(op_id, graph, kind, seed, trace):
    return b'{"id":%d,' % op_id + query_body(graph, kind, seed, trace)


@functools.lru_cache(maxsize=None)
def query_body(graph, kind, seed, trace):
    """A query request after its opening brace, without the id."""
    params = {"seed": seed}
    if kind == "cc":
        params["engine"] = "auto"
    request = {"op": "query", "graph": graph, "query": kind, "params": params}
    if trace:
        request["trace"] = True
    return encode(request)[1:]


def closed_loop(peer, requests, deadline, out):
    """Sends (op, bytes) items one at a time until the deadline passes; an
    item is drawn from `requests` only when it will be sent."""
    source = iter(requests)
    while time.perf_counter() < deadline:
        item = next(source, None)
        if item is None:
            break
        op, data = item
        sent = time.perf_counter()
        peer.send(data)
        line = peer.recv()
        out.add(op, data, sent, time.perf_counter() - sent, line)
    return out


def pipelined(peer, requests, deadline, out, depth=HOT_DEPTH):
    """Keeps `depth` requests outstanding until the deadline, then drains.
    `requests` yields (id, op, bytes)."""
    inflight = {}
    source = iter(requests)
    while True:
        while len(inflight) < depth and time.perf_counter() < deadline:
            item = next(source, None)
            if item is None:
                break
            op_id, op, data = item
            inflight[op_id] = (op, data, time.perf_counter())
            peer.send(data)
        if not inflight:
            return out
        line = peer.recv()
        op_id = int(line[len(PREFIX):line.index(b",", len(PREFIX))])
        op, data, sent = inflight.pop(op_id)
        out.add(op, data, sent, time.perf_counter() - sent, line)


# ---- answer checks ---------------------------------------------------------

def check_query(kind, result, ref):
    """'' when `result` agrees with the sequential reference, else why not."""
    expect = {
        "cc": ("components", "largest_component"),
        "bcc": ("bccs", "largest_bcc"),
        "bridges": ("bridges", "bccs"),
        "articulation": ("articulation_points", "bccs"),
    }.get(kind)
    if expect:
        return "; ".join(f"{k}={result.get(k)} want {ref[k]}" for k in expect
                         if result.get(k) != ref[k])
    value = result.get("value")
    if kind == "min_cut":  # Monte Carlo: never below the exact cut
        return "" if value >= ref["stoer_wagner"] else f"cut {value} below exact"
    if kind == "approx_min_cut":  # the approx-mincut oracle's rule
        if ref["components"] > 1:
            return "" if value == 0 else f"estimate {value} on a disconnected graph"
        # Stoer-Wagner where it is affordable, else the minimum weighted
        # degree, an upper bound on the cut (equal to it w.h.p. on these ER
        # graphs), which only loosens the upper slack.
        truth = ref.get("stoer_wagner", ref["min_weighted_degree"])
        slack = 64.0 * (2.0 + math.log2(max(ref["n"], 2)))
        if value == 0 or value > slack * max(truth, 1):
            return f"estimate {value} outside (0, {slack:.0f} x {truth}]"
        return ""
    return f"no check for kind {kind}"


def check_queries(logs, refs):
    """Checks every ok query answer; one check per distinct (graph, body)."""
    verdicts = {}
    for out in logs:
        for i in range(len(out)):
            kind, key = out.ops[i]
            if kind not in KINDS or not out.ok(i):
                continue
            out.checked += 1
            memo = (key[0], out.bodies[i])
            if memo not in verdicts:
                verdicts[memo] = check_query(kind, out.response(i)["result"],
                                             refs[key[0]])
            if verdicts[memo]:
                out.wrong[i] = verdicts[memo]


# ---- workloads -------------------------------------------------------------

class Workload:
    """Inputs, set-up and traffic of one workload."""

    name = ""
    largest = "giant"   # the graph whose load and layers are timed
    busy_client = False  # True when the client pipelines and never idles

    def __init__(self, seed, smoke, workdir):
        self.seed, self.workdir = seed, workdir
        self.sizes = SIZES[smoke]
        self.graphs = {}   # name -> path
        self.refs = {}     # name -> reference answers
        self.load_s = []   # RTT of `load` of the largest graph, per set-up
        self.setup_log = Log()

    def er(self, name, n, m, wmax, *ref_flags):
        path = os.path.join(self.workdir, f"{name}.txt")
        bench_ref("er", f"--n={n}", f"--m={m}", f"--wmax={wmax}",
                  f"--seed={derive(self.seed, name)}", f"--out={path}")
        self.graphs[name] = path
        self.refs[name] = bench_ref("ref", f"--graph={path}", *ref_flags)

    def setup(self, trace):
        """Starts a server, stages the inputs and warms it; returns it."""
        self.setup_log = Log()
        peer = self.start()
        for name, path in self.graphs.items():
            seconds = peer.load(name, path)
            if name == self.largest:
                self.load_s.append(seconds)
        self.warm(peer, trace)
        return peer

    def start(self):
        return start_serve(self.workdir)

    def warm(self, peer, trace):
        pass

    def hop_tuples(self):
        """Cached queries the router-hop probe replays: cc on the smallest
        graph of the workload, unless the workload brings its own."""
        smallest = min(self.graphs, key=lambda g: self.refs[g]["m"])
        return [smallest], [(smallest, "cc", s) for s in range(1, 5)]


class ColdMix(Workload):
    name = "cold_mix"
    # The cut kinds' work varies from graph to graph, so groups rotate over
    # several mid and small graphs rather than weighting a run by one.
    ROTATION = 4

    def make_inputs(self):
        self.er("giant", *self.sizes["giant"], "--bcc")
        for r in range(self.ROTATION):
            self.er(f"mid{r}", *self.sizes["mid"])
            self.er(f"small{r}", *self.sizes["small"], "--min-cut")
        self.group = 0
        self.op_id = 0
        self.distinct_keys = 0

    def requests(self, trace):
        base = derive(self.seed, "query-seeds")
        while True:
            qseed = base + self.group  # a fresh seed per group: all misses
            r = self.group % self.ROTATION
            self.group += 1
            for graph, kind in (("giant", "cc"), ("giant", "bcc"),
                                ("giant", "bridges"), ("giant", "articulation"),
                                (f"mid{r}", "approx_min_cut"), (f"small{r}", "min_cut")):
                self.op_id += 1
                yield (kind, (graph, qseed)), query_bytes(
                    self.op_id, graph, kind, qseed, trace)

    def warm(self, peer, trace):
        # A fresh server's first cold queries run up to 1.5x slower while
        # its heap grows, so the first WARM_GROUPS groups belong to set-up,
        # as they would for a server that has been up a while. Their seeds
        # are never reused.
        closed_loop(peer, itertools.islice(self.requests(trace), WARM_GROUPS * 6),
                    math.inf, self.setup_log)

    def traffic(self, peer, deadline, trace, out):
        closed_loop(peer, self.requests(trace), deadline, out)
        self.distinct_keys += len(out)

    def check(self, logs):
        check_queries(logs, self.refs)


class StreamMutate(Workload):
    name = "stream_mutate"

    def make_inputs(self):
        # One stream per set-up, so that a run averages several op mixes.
        self.er("giant", *self.sizes["giant"])
        self.streams = []
        for rep in range(SETUP_REPS):
            path = os.path.join(self.workdir, f"stream{rep}.ops")
            bench_ref("stream", f"--graph={self.graphs['giant']}", f"--ops={STREAM_OPS}",
                      f"--seed={derive(self.seed, f'stream{rep}')}", f"--out={path}")
            with open(path) as f:
                self.streams.append(f.read().splitlines())
        self.distinct_keys = 1

    def requests(self, trace):
        while self.next_op < len(self.ops):
            index, line = self.next_op, self.ops[self.next_op]
            self.next_op += 1
            if line == "q":
                yield ("cc", ("giant", STREAM_QUERY_SEED)), query_bytes(
                    index, "giant", "cc", STREAM_QUERY_SEED, trace)
                continue
            fields = [int(x) for x in line[2:].split()]
            op = "add_edges" if line[0] == "a" else "remove_edges"
            yield (op, ("giant", index)), encode(
                {"id": index, "op": op, "graph": "giant",
                 "edges": [fields[i:i + 3] for i in range(0, len(fields), 3)]})

    def warm(self, peer, trace):
        # One mutation, so that building the streaming state is set-up cost.
        self.ops = self.streams.pop(0)
        self.next_op = 0
        closed_loop(peer, itertools.islice(self.requests(trace), 1), math.inf,
                    self.setup_log)

    def traffic(self, peer, deadline, trace, out):
        closed_loop(peer, self.requests(trace), deadline, out)

    def check(self, logs):
        # Op ids are stream positions and every op up to next_op was sent,
        # in order, to the measured server.
        executed = os.path.join(self.workdir, "executed.ops")
        with open(executed, "w") as f:
            f.write("\n".join(self.ops[:self.next_op]) + "\n")
        expected = bench_ref("replay", f"--graph={self.graphs['giant']}",
                             f"--log={executed}")
        want = expected["components"]
        last = None
        for out in logs:
            for i in range(len(out)):
                if not out.ok(i):
                    continue
                out.checked += 1
                result = out.response(i)["result"]
                got, index = result["components"], out.ids[i]
                if got != want[index]:
                    out.wrong[i] = f"components {got} want {want[index]}"
                if out.kind(i) in MUTATIONS and (last is None or index > last[2]):
                    last = (out, i, index)
        if last and last[0].response(last[1])["result"]["fingerprint"] != expected["fingerprint"]:
            last[0].wrong[last[1]] = "final fingerprint differs from the replay's"


class HotRouted(Workload):
    name = "hot_routed"
    largest = "g00"
    busy_client = True

    def make_inputs(self):
        names = [f"g{g:02d}" for g in range(self.sizes["hot_graphs"])]
        for name in names:
            self.er(name, *self.sizes["hot"], "--bcc")
        self.tuples = [(name, kind, seed) for name in names
                       for kind in ("cc", "bcc", "approx_min_cut")
                       for seed in range(1, 5)]
        self.rng = random.Random(derive(self.seed, "order"))
        self.op_id = 0
        self.distinct_keys = len(self.tuples)

    def start(self):
        return start_router(self.workdir)

    def requests(self, trace, passes=None):
        """Replays the tuples, each pass in a fresh seeded order."""
        ops = {t: (t[1], (t[0], t[2])) for t in self.tuples}
        done = 0
        while passes is None or done < passes:
            order = list(self.tuples)
            self.rng.shuffle(order)
            for t in order:
                self.op_id += 1
                yield self.op_id, ops[t], query_bytes(self.op_id, *t, trace)
            done += 1

    def warm(self, peer, trace):
        pipelined(peer, self.requests(trace, passes=1), math.inf, self.setup_log)

    def traffic(self, peer, deadline, trace, out):
        pipelined(peer, self.requests(trace), deadline, out)

    def check(self, logs):
        check_queries(logs, self.refs)

    def hop_tuples(self):
        return list(self.graphs), self.tuples


WORKLOADS = {w.name: w for w in (ColdMix, StreamMutate, HotRouted)}


# ---- end-to-end metrics ----------------------------------------------------

def rtts_ms(windows, kinds=KINDS):
    return [out.rtt[i] * 1e3 for out in windows for i in out.indices(kinds)]


def ops_per_s(windows):
    return (sum(1 for out in windows for i in range(len(out)) if out.ok(i))
            / sum(out.window_s() for out in windows))


def end_to_end(windows, setup_s, rss_mb):
    """name -> (value, unit, samples) for every end-to-end metric, pooled
    over the windows (one per set-up)."""
    queries = rtts_ms(windows)
    cc = rtts_ms(windows, ("cc",))
    return {
        "setup_s": (median(setup_s), "s", len(setup_s)),
        "ops_per_s": (ops_per_s(windows), "1/s", sum(len(out) for out in windows)),
        "query_p50_ms": (percentile(queries, 50), "ms", len(queries)),
        "query_p90_ms": (percentile(queries, 90), "ms", len(queries)),
        "cc_p50_ms": (percentile(cc, 50), "ms", len(cc)),
        "peak_rss_mb": (median(rss_mb), "MB", len(rss_mb)),
    }


def scoped_figures(windows):
    """End-to-end figures that apply to some workloads only (report line)."""
    figures = {}

    def add(name, values, q, unit="ms"):
        if values:
            figures[name] = {"value": percentile(values, q), "unit": unit,
                             "samples": len(values),
                             "beyond": int(len(values) * (100 - q) / 100)}

    add("bcc_p50_ms", rtts_ms(windows, BCC_KINDS), 50)
    add("min_cut_p50_ms", rtts_ms(windows, ("min_cut",)), 50)
    add("approx_min_cut_p50_ms", rtts_ms(windows, ("approx_min_cut",)), 50)
    add("mutate_p50_ms", rtts_ms(windows, MUTATIONS), 50)
    add("mutate_p95_ms", rtts_ms(windows, MUTATIONS), 95)
    ops = sum(len(out) for out in windows)
    figures["failed_frac"] = {"value": sum(out.failed() for out in windows) / max(ops, 1),
                              "unit": "ratio", "samples": ops}
    return figures


# ---- per-layer metrics (traced run) ----------------------------------------

def root_spans(kind, response):
    """Names of the outermost kernel spans of one executed query."""
    if kind == "cc":
        engine = response["result"].get("engine", "sampling")
        return ("cc_probe", "cc" if engine == "sampling" else f"cc_{engine}")
    if kind in BCC_KINDS:
        return ("bcc",)
    return (kind,)


def phase(response, name, field):
    return sum(p[field] for p in response.get("trace", []) if p["name"] == name)


def per_layer(workload, traced, extras):
    """Every per-layer metric; 0 where the workload does not run the layer."""
    out = dict(extras)
    # (kind, key, latency_ms, response) of every traced query that executed,
    # the warm-up's included (hot_routed runs its kernels only there).
    executed = [(lg.kind(i), lg.ops[i][1], lg.latency[i], lg.response(i))
                for lg in (workload.setup_log, traced)
                for i in lg.indices() if "trace" in lg.response(i)]
    ok_queries = traced.indices()

    out["serve.outside_engine_us"] = median(
        [(traced.rtt[i] * 1e3 - traced.latency[i]) * 1e3 for i in ok_queries])
    out["svc.cache.hit_rate"] = (
        sum(1 for i in ok_queries if traced.response(i).get("cached"))
        / max(len(ok_queries), 1))
    mutations = traced.indices(MUTATIONS)
    out["svc.cache.dropped_per_mutation"] = mean(
        [traced.response(i)["result"]["cache_entries_dropped"] for i in mutations])
    out["resilience.attempts_mean"] = mean(
        [r["attempts"] for _, _, _, r in executed])

    for kind in KINDS:
        out[f"svc.engine.server_ms.{kind}"] = median(
            [traced.latency[i] for i in traced.indices((kind,))])
        runs = [(lat, r) for k, _, lat, r in executed if k == kind]
        gaps = [lat - sum(phase(r, s, "wall_ms") for s in root_spans(kind, r))
                for lat, r in runs]
        out[f"svc.engine.unattributed_ms.{kind}"] = median(gaps)
        if kind == "cc":
            out["svc.engine.unattributed_share.cc"] = median(
                [gap / lat for gap, (lat, _) in zip(gaps, runs)])

    def kernel(prefix, kinds, root):
        runs = [r for k, _, _, r in executed if k in kinds]
        out[f"{prefix}.kernel_ms"] = median(
            [sum(phase(r, s, "wall_ms") for s in root(r)) for r in runs])
        for field in ("supersteps", "words"):
            out[f"{prefix}.{field}"] = median(
                [sum(phase(r, s, field) for s in root(r)) for r in runs])
        return runs

    cc_runs = kernel("core.cc", ("cc",), lambda r: root_spans("cc", r))
    out["core.cc.comm_share"] = median(
        [phase(r, root_spans("cc", r)[1], "comm_ms") /
         max(phase(r, root_spans("cc", r)[1], "wall_ms"), 1e-9) for r in cc_runs])

    kernel("bcc", BCC_KINDS, lambda r: ("bcc",))
    for metric, span in (("local_forest_ms", "bcc_local_forest"),
                         ("skeleton_ms", "bcc_skeleton"),
                         ("low_high_ms", "bcc_low_high"),
                         ("skeleton_cc_ms", "bcc_skeleton_cc"),
                         ("canonicalize_ms", "bcc_canonicalize")):
        out[f"bcc.{metric}"] = median(
            [phase(r, span, "wall_ms") for k, _, _, r in executed if k in BCC_KINDS])
    # All three BCC-family kinds run one decomposition, identified by
    # (graph, epsilon, seed); epsilon is the server default throughout.
    bcc_keys = [key for k, key, _, _ in executed if k in BCC_KINDS]
    out["bcc.useful_share"] = len(set(bcc_keys)) / len(bcc_keys) if bcc_keys else 0.0

    cut_runs = kernel("core.min_cut", ("min_cut",), lambda r: ("min_cut",))
    out["core.min_cut.trials"] = median([r["result"]["trials"] for r in cut_runs])
    cuts = traced.indices(("min_cut",))
    out["core.min_cut.exact_share"] = (
        sum(1 for i in cuts if traced.response(i)["result"]["value"] ==
            workload.refs[traced.ops[i][1][0]]["stoer_wagner"]) / len(cuts)
        if cuts else 0.0)

    approx_runs = kernel("core.approx_min_cut", ("approx_min_cut",),
                         lambda r: ("approx_min_cut",))
    out["core.approx_min_cut.iterations"] = median(
        [r["result"]["iterations"] for r in approx_runs])

    for verb, op in (("add", "add_edges"), ("remove", "remove_edges")):
        rows = [traced.response(i) for i in traced.indices((op,))]
        out[f"dyn.apply_ms.{verb}"] = median([r["apply_ms"] for r in rows])
        out[f"dyn.maintain_ms.{verb}"] = median([r["maintain_ms"] for r in rows])
    modes = [traced.response(i)["result"]["cc_mode"]
             for i in traced.indices(("remove_edges",))]
    out["dyn.full_share"] = modes.count("full-recompute") / len(modes) if modes else 0.0
    return out


def layer_unit(name):
    """Unit by naming convention: *_us, *_ms, *_pct, *share and hit_rate;
    everything else (supersteps, words, trials, means of counts) counts."""
    for part in name.split("."):
        for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_pct", "%"),
                             ("share", "ratio"), ("hit_rate", "ratio")):
            if part.endswith(suffix):
                return unit
    return "count"


def batch_mean(stats):
    """Requests per engine batch, summed over a router's shards."""
    rows = ([s["stats"] for s in stats["shards"] if s.get("stats")]
            if "shards" in stats else [stats])
    batches = sum(r["batching"]["batches"] for r in rows)
    return sum(r["batching"]["batched_requests"] for r in rows) / max(batches, 1)


def router_hop_us(workload):
    """p50 routed RTT minus p50 direct RTT over warm replays of the same
    cached queries, the router and a one-rank server taking turns."""
    graphs, tuples = workload.hop_tuples()
    passes = max(3, 400 // len(tuples))
    rng = random.Random(derive(workload.seed, "hop"))
    peers = {"routed": start_router(workload.workdir),
             "direct": start_serve(workload.workdir, threads=SHARD_THREADS)}
    warm = {side: Log() for side in peers}
    timed = {side: Log() for side in peers}
    op_id = 0

    def one_pass(peer, order, out):
        nonlocal op_id
        items = []
        for t in order:
            op_id += 1
            items.append((op_id, (t[1], (t[0], t[2])), query_bytes(op_id, *t, False)))
        pipelined(peer, items, math.inf, out)

    try:
        for side, peer in peers.items():
            for name in graphs:
                peer.load(name, workload.graphs[name])
            one_pass(peer, tuples, warm[side])
        for _ in range(passes):
            order = list(tuples)
            rng.shuffle(order)
            for side, peer in peers.items():
                one_pass(peer, order, timed[side])
    finally:
        for peer in peers.values():
            peer.close()
    hop = median(list(timed["routed"].rtt)) - median(list(timed["direct"].rtt))
    return hop * 1e6, list(warm.values()) + list(timed.values())


def layer_timings(workload, traced):
    """bench_layers on the workload's largest graph and its own lines."""
    paths = {}
    for name, lines in (("requests", traced.requests),
                        ("responses", [line + b"\n" for line in traced.lines])):
        paths[name] = os.path.join(workload.workdir, f"{name}.ndjson")
        with open(paths[name], "wb") as f:
            f.write(b"".join(lines))
    out = subprocess.run(
        [tool("bench_layers"), f"--graph={workload.graphs[workload.largest]}",
         f"--requests={paths['requests']}", f"--responses={paths['responses']}",
         f"--keys={workload.distinct_keys}"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def write_spans(workload, traced):
    """Per request (id), a root span over the client RTT, a `server` child
    over latency_ms (or mutate_ms), and under it the query's outermost
    kernel spans, or a mutation's apply and maintain phases. Server-side
    spans carry measured durations; their placement inside the parent is
    inferred (server time last, kernel spans at its end)."""
    os.makedirs(TRACES, exist_ok=True)
    path = os.path.join(TRACES, f"{workload.name}.ndjson")
    origin = traced.sent[0] if len(traced) else 0.0
    with open(path, "w") as f:
        for i in range(min(len(traced), SPAN_REQUESTS)):
            kind, response = traced.kind(i), traced.response(i)
            start, dur = (traced.sent[i] - origin) * 1e6, traced.rtt[i] * 1e6
            server = (response.get("mutate_ms", 0.0) if kind in MUTATIONS
                      else traced.latency[i]) * 1e3
            server_start = start + max(dur - server, 0.0)
            root = "client." + kind
            spans = [(root, None, start, dur), ("server", root, server_start, server)]
            if "trace" in response:
                for name in root_spans(kind, response):
                    wall = phase(response, name, "wall_ms") * 1e3
                    spans.append((name, "server", server_start + server - wall, wall))
            elif "apply_ms" in response:
                apply_us = response["apply_ms"] * 1e3
                spans.append(("apply", "server", server_start, apply_us))
                spans.append(("maintain", "server", server_start + apply_us,
                              response["maintain_ms"] * 1e3))
            for name, parent, s, d in spans:
                f.write(json.dumps({"id": traced.ids[i], "span": name, "parent": parent,
                                    "start_us": round(s, 3), "dur_us": round(d, 3)}) + "\n")
    return path


# ---- main ------------------------------------------------------------------

def run(args):
    if WORKLOADS[args.workload].busy_client:
        pin_busy_client()
    build(BINARIES + (("bench_layers",) if args.trace else ()))
    env = environment(args.workload)
    workdir = os.path.join(ROOT, ".bench_build", "work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, env, workdir)
    finally:
        for peer in list(LIVE):
            peer.close(kill=True)
        shutil.rmtree(workdir, ignore_errors=True)


def phase_run(workload, peer, seconds, trace):
    """One measured window; returns its log and the client CPU seconds."""
    out = Log()
    cpu = time.process_time()
    workload.traffic(peer, time.perf_counter() + seconds, trace, out)
    return out, time.process_time() - cpu


def measure(args, env, workdir):
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    started = time.perf_counter()
    workload.make_inputs()
    log(f"{args.workload}: inputs ready in {time.perf_counter() - started:.1f}s")

    # Each set-up is followed by its share of the measured time, so that a
    # run pools several server starts (thread placement, heap layout) and
    # setup_s is a median.
    reps = 1 if args.trace else SETUP_REPS
    setup_s, rss_mb, windows, cpu_s = [], [], [], 0.0
    checked_logs = []
    for _ in range(reps):
        start = time.perf_counter()
        peer = workload.setup(trace=bool(args.trace))
        setup_s.append(time.perf_counter() - start)
        window, cpu = phase_run(workload, peer, args.seconds / reps, False)
        windows.append(window)
        cpu_s += cpu
        logs = [workload.setup_log, window]
        if args.trace:
            traced, traced_cpu = phase_run(workload, peer, args.seconds, True)
            logs.append(traced)
            stats = peer.stats()
        rss_mb.append(peer.peak_rss_mb())
        peer.close()
        workload.check(logs)
        checked_logs += logs
    log(f"{args.workload}: set-up {[round(s, 3) for s in setup_s]} s")
    if args.trace:
        hop_us, hop_logs = router_hop_us(workload)
        check_queries(hop_logs, workload.refs)
        checked_logs += hop_logs
    attempted = sum(len(lg) for lg in checked_logs)
    failed = sum(lg.failed() for lg in checked_logs)
    checked = sum(lg.checked for lg in checked_logs)
    wrong = [(lg.ops[i], why) for lg in checked_logs for i, why in lg.wrong.items()]
    for op, why in wrong[:5]:
        log(f"wrong answer: {op}: {why}")

    ops = sum(len(out) for out in windows)
    cpu_per_op_us = cpu_s / max(ops, 1) * 1e6
    rtt_p50_us = percentile([r for out in windows for r in out.rtt], 50) * 1e6
    figures = end_to_end(windows, setup_s, rss_mb)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env,
        "attempted": attempted, "failed": failed, "checked": checked,
        "wrong": len(wrong),
        "client_cpu_per_op_us": cpu_per_op_us, "rtt_p50_us": rtt_p50_us,
        # The generator must not be the bottleneck it measures.
        "valid": cpu_per_op_us <= 0.5 * rtt_p50_us and env["optimized"],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in figures.items()},
        "workload_scoped": scoped_figures(windows),
    }

    if args.trace:
        extras = layer_timings(workload, traced)
        extras["svc.store.load_ms"] = median(workload.load_s) * 1e3
        extras["svc.engine.batch_mean"] = batch_mean(stats)
        extras["cluster.router_hop_us"] = hop_us
        extras["client.cpu_per_op_us"] = traced_cpu / max(len(traced), 1) * 1e6
        extras["trace.overhead_pct"] = 100.0 * (1.0 - ops_per_s([traced]) / ops_per_s(windows))
        layers = per_layer(workload, traced, extras)
        report["trace_file"] = os.path.relpath(write_spans(workload, traced), ROOT)
        report["traced_requests"] = len(traced)
        report["ratio_bases"] = {
            "svc.cache.hit_rate": "ok queries of the traced window",
            "bcc.useful_share": "BCC-family kernel runs (traced, warm-up included)",
            "dyn.full_share": "remove_edges batches of the traced window",
            "core.min_cut.exact_share": "min_cut answers of the traced window",
            "svc.engine.unattributed_share.cc": "latency_ms of executed cc queries",
            "core.cc.comm_share": "wall_ms of the outermost cc kernel span",
            "trace.overhead_pct": "ops_per_s of the untraced window",
        }
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in figures.items()}

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not wrong and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for perfbench/selftest.py")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
