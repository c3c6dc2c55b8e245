#!/usr/bin/env python3
"""End-to-end benchmark of the criticd serving stack.

Run from the repository root:

    python3 perfbench/run.py --workload dist --seed 1 --seconds 20 --trace 0

The script builds criticd and its clients from source into
.bench_build/perfbench (Go caches included, so nothing is written outside the
checkout), starts the daemon (a coordinator plus two workers for the fleet
workloads), primes it, then drives one workload as a closed loop with a single
client for --seconds: the next operation (a job, or a batch of sketch
uploads) starts when the previous one completed. Every result is checked:
against the result primed during set-up, against a one-shot
criticsim/criticctl run of the same inputs computed without the daemon,
against the totals every permutation of the same scan trace must reproduce,
or against the digests and consensus the same sketches gave at set-up.

Workloads (the inputs are drawn from --seed):

  warm   optimize jobs the shared caches already hold (memo hit path)
  dist   optimize jobs with a distinct measured window each, on a
         coordinator with two workers (simulator, dist measurement tasks,
         worker-side caches, span merging)
  scan   chunk-uploaded traces scanned against a multi-MB image on the
         2-worker fleet (artifact store, binimg decode, dist scan tasks)
  ingest batches of device profile sketches pipelined to the fleet ingest
         endpoint (sketch decode, consensus merge, archival in the artifact
         store); one operation is one batch

The scan workload also asserts bounded memory: the coordinator's peak RSS
stays under SCAN_RSS_CEILING_MB while it indexes the image on every job.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
runs the same loop, scrapes every process's /metrics around it, reads the
span trees of the last jobs, and reports the per-layer metrics.
"""

import argparse
import datetime
import gc
import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

# The four mobile apps the optimize workloads cycle through (Table II
# catalog names; similar cost, so a job's latency does not hinge on the mix).
APPS = ["acrobat", "maps", "browser", "email"]

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5

# Scan inputs: the trace length criticctl generates, the app whose image is
# replicated into a multi-MB upload, and the upload chunk sizes.
SCAN_APP = "acrobat"
SCAN_INSTRS = 60000
IMAGE_REPLICAS = 20  # ~2.3 MB image
IMAGE_CHUNK = 1 << 20
TRACE_CHUNK = 16 << 10

# Ingest inputs: simulated devices per app, the apps, and upload rounds
# (each round re-sends every device's grown, cumulative sketch). One ingest
# operation re-sends all of these sketches as one pipelined batch.
FLEET_DEVICES = 8
FLEET_APPS = ("acrobat", "maps")
FLEET_ROUNDS = 2

# Bounded-memory assertion of the scan workload: the coordinator indexes the
# multi-MB image on every job (about 80 MB peak RSS today); neither the image
# nor per-job state may pile up past this ceiling.
SCAN_RSS_CEILING_MB = 256

# Measured windows (architectural instructions) of the dist workload: job i
# of a run gets a window no other job of the run uses, drawn from a narrow
# range so that every job does nearly the same work. Every distinct
# measurement stays cached (about 1.5 MB each, simulated cache hierarchy
# included), so the windows are long enough to keep a run's measurements,
# and the daemons' memory, to a few hundred.
MISS_WINDOWS = (40000, 2000)  # lowest window, number of values

# --trace 1 reads the span trees of the run's last jobs, at most this many
# (the daemon retains the traces of its 256 most recent jobs).
TRACED_JOBS = 200

BUILD_DIR = os.path.join(".bench_build", "perfbench")


class BenchError(Exception):
    """A failure that makes the run's result meaningless."""


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


# ---- build ------------------------------------------------------------------


def go_env(root):
    """Environment for the go tool and the daemons: every cache, temp and
    home directory lives under the checkout's build directory."""
    base = os.path.join(root, BUILD_DIR)
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOTMPDIR": "gotmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home/.config",
        "XDG_CACHE_HOME": "home/.cache",
    }
    for key, sub in dirs.items():
        path = os.path.join(base, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    return env


def build(root, env):
    bindir = os.path.join(root, BUILD_DIR, "bin")
    cmd = ["go", "build", "-o", bindir + os.sep,
           "./cmd/criticd", "./cmd/criticctl", "./cmd/criticsim", "./cmd/criticfleet"]
    r = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True, timeout=840)
    if r.returncode != 0:
        raise BenchError("go build failed:\n" + r.stdout)
    return bindir


# ---- processes ----------------------------------------------------------------


class Proc:
    """One criticd process; start waits for its 'listening on' line."""

    def __init__(self, bindir, args, env, logdir, name):
        self.name = name
        self.err = open(os.path.join(logdir, name + ".log"), "w")
        self.p = subprocess.Popen(
            [os.path.join(bindir, "criticd"), "-addr", "127.0.0.1:0"] + args,
            stdout=subprocess.PIPE, stderr=self.err, env=env, text=True)
        line = [None]
        t = threading.Thread(target=lambda: line.__setitem__(0, self.p.stdout.readline()))
        t.start()
        t.join(30)
        m = re.search(r"listening on (http://\S+)", line[0] or "")
        if not m:
            self.stop()
            raise BenchError("%s did not start (see %s)" % (name, self.err.name))
        self.url = m.group(1)

    def cpu_s(self):
        """User plus system CPU seconds the process has used."""
        try:
            with open("/proc/%d/stat" % self.p.pid) as f:
                fields = f.read().rsplit(")", 1)[1].split()
            return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        except OSError:
            return 0.0

    def rss_peak_kb(self):
        try:
            with open("/proc/%d/status" % self.p.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def stop(self):
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
            try:
                self.p.wait(60)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        self.p.stdout.close()
        self.err.close()


class Fleet:
    """The daemon processes of one set-up: procs[0] serves the API."""

    def __init__(self):
        self.procs = []

    @property
    def api(self):
        return self.procs[0]

    def stop(self):
        # Workers first, so they deregister from a coordinator still serving.
        for p in reversed(self.procs):
            p.stop()
        self.procs = []


# ---- HTTP -----------------------------------------------------------------------


class Client:
    """A keep-alive HTTP/1.1 connection to one daemon."""

    def __init__(self, url):
        host, port = url[len("http://"):].rstrip("/").split(":")
        self.host, self.port = host, int(port)
        self.conn = None

    def request(self, method, path, body=None, headers=None):
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            try:
                self.conn.request(method, path, body=body, headers=headers or {})
                r = self.conn.getresponse()
                return r.status, r.read()
            except (http.client.HTTPException, ConnectionError):
                self.conn.close()
                self.conn = None
                if attempt:
                    raise

    def json(self, method, path, doc=None):
        body = json.dumps(doc).encode() if doc is not None else None
        status, data = self.request(method, path, body, {"Content-Type": "application/json"})
        return status, data

    def close(self):
        if self.conn is not None:
            self.conn.close()


def iso_ns(ts):
    """Nanoseconds of a UTC RFC 3339 timestamp as the daemon writes it
    (nanosecond fraction, which datetime cannot hold)."""
    m = re.match(r"(\d{4}-\d\d-\d\d)T(\d\d):(\d\d):(\d\d)(?:\.(\d+))?Z$", ts)
    if not m:
        raise BenchError("unexpected timestamp %r" % ts)
    day, h, mi, s, frac = m.groups()
    days = datetime.date.fromisoformat(day).toordinal()
    frac = (frac or "0")[:9].ljust(9, "0")
    return (((days * 24 + int(h)) * 60 + int(mi)) * 60 + int(s)) * 10**9 + int(frac)


class JobFailed(BenchError):
    """A job (or upload) the daemon did not complete."""


def run_job(c, req, server_time=False):
    """Submit one job and poll until its result arrives. Returns (client
    seconds, job id, raw result document, and with server_time the daemon's
    created->finished seconds, else None)."""
    t0 = time.perf_counter()
    status, data = c.json("POST", "/v1/jobs", req)
    if status != 202:
        raise JobFailed("submit %s: %d %s" % (req, status, data[:200]))
    jid = json.loads(data)["id"]
    while True:
        status, data = c.request("GET", "/v1/jobs/%s/result" % jid)
        if status == 200:
            break
        if status != 409:
            raise JobFailed("job %s: %d %s" % (jid, status, data[:300]))
        if b"poll status" not in data:
            # 409 for a terminal job. The daemon reads state and result
            # separately, so a job finishing between the two reads answers
            # "succeeded" here; only another terminal state is a failure.
            status, st = c.json("GET", "/v1/jobs/" + jid)
            if status != 200 or json.loads(st)["state"] != "succeeded":
                raise JobFailed("job %s: %s" % (jid, data[:300]))
            continue
        # Poll after a tenth of the time waited so far (0.2 to 10 ms): the
        # result is seen at most ~10% late, without a busy loop competing
        # with the daemon for the CPUs.
        time.sleep(min(max((time.perf_counter() - t0) * 0.1, 0.0002), 0.01))
    t = time.perf_counter() - t0
    server = None
    if server_time:
        status, st = c.json("GET", "/v1/jobs/" + jid)
        if status != 200:
            raise JobFailed("status %s: %d" % (jid, status))
        st = json.loads(st)
        server = (iso_ns(st["finished_at"]) - iso_ns(st["created_at"])) / 1e9
    return t, jid, data, server


class Pipeline:
    """A raw HTTP/1.1 connection that pipelines: every request of a batch is
    written before the first response is read, so the daemon serves the
    batch back to back instead of waiting on the client between requests."""

    def __init__(self, url):
        host, port = url[len("http://"):].rstrip("/").split(":")
        self.host = "%s:%s" % (host, port)
        self.sock = socket.create_connection((host, int(port)), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.f = self.sock.makefile("rb")

    def post_all(self, path, bodies):
        """POST every body to path; returns [(status, response body)]."""
        head = ("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/octet-stream\r\n"
                "Content-Length: %%d\r\n\r\n" % (path, self.host))
        self.sock.sendall(b"".join((head % len(b)).encode() + b for b in bodies))
        out = []
        for _ in bodies:
            line = self.f.readline().split()
            if len(line) < 2:
                raise BenchError("connection closed after %d of %d responses" % (len(out), len(bodies)))
            length = 0
            while True:
                h = self.f.readline()
                if h in (b"\r\n", b"\n", b""):
                    break
                k, _, v = h.partition(b":")
                if k.strip().lower() == b"content-length":
                    length = int(v)
            out.append((int(line[1]), self.f.read(length)))
        return out

    def close(self):
        self.f.close()
        self.sock.close()


def post_sketches(c, bodies, _server_time=False):
    """Upload a batch of encoded sketches to the fleet ingest, pipelined on
    one connection; the run_job shape with no job id and no server time."""
    t0 = time.perf_counter()
    res = c.post_all("/v1/profiles", bodies)
    t = time.perf_counter() - t0
    for status, data in res:
        if status != 202:
            raise JobFailed("sketch ingest: %d %s" % (status, data[:200]))
    return t, None, res, None


def sha256_digest(data):
    return "sha256:" + hashlib.sha256(data).hexdigest()


def upload(c, data, chunk):
    """Chunk-upload data to PUT /v1/artifacts/{digest}; returns the digest."""
    digest = sha256_digest(data)
    off = 0
    while True:
        end = min(off + chunk, len(data))
        headers = {"Content-Type": "application/octet-stream",
                   "X-Critics-Upload-Offset": str(off)}
        if end == len(data):
            headers["X-Critics-Upload-Final"] = "1"
        status, body = c.request("PUT", "/v1/artifacts/" + digest, data[off:end], headers)
        if status == 429:
            time.sleep(0.05)
            continue
        if status != 200:
            raise JobFailed("upload %s at %d: %d %s" % (digest, off, status, body[:200]))
        st = json.loads(body)
        if st["complete"]:
            return digest
        off = st["committed"]


# ---- metrics ----------------------------------------------------------------------


def scrape(fleet):
    """Sum every sample of every process's /metrics by family name."""
    out = {}
    for p in fleet.procs:
        c = Client(p.url)
        status, data = c.request("GET", "/metrics")
        c.close()
        if status != 200:
            raise BenchError("scrape %s: %d" % (p.url, status))
        for line in data.decode().splitlines():
            if not line or line[0] == "#":
                continue
            name_labels, _, value = line.rpartition(" ")
            name = name_labels.split("{", 1)[0]
            labels = name_labels[len(name):]
            try:
                v = float(value)
            except ValueError:
                continue
            out[name] = out.get(name, 0.0) + v
            if labels:
                out[name + labels] = out.get(name + labels, 0.0) + v
    return out


def delta(after, before, key):
    return after.get(key, 0.0) - before.get(key, 0.0)


def mean_of(after, before, family):
    n = delta(after, before, family + "_count")
    return delta(after, before, family + "_sum") / n if n else 0.0


def covered_us(spans, lo, hi):
    """Length of [lo, hi) covered by the union of the spans' intervals."""
    ivs = sorted((max(lo, k["start_us"]), min(hi, k["start_us"] + k["dur_us"])) for k in spans)
    total, end = 0, lo
    for a, b in ivs:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


# Span classes of a job's tree: memo builds are named "<class> <unit>"
# (outermost one counted, so a coordinator build and the worker build merged
# under its dispatch leg count once); dispatch legs and scan stages by name.
SPAN_CLASSES = {"measure": "measure", "program": "build", "profile": "build", "variant": "build",
                "dispatch": "dispatch", "retry": "dispatch", "hedge": "dispatch",
                "queue": "queue", "scan-index": "scan-index", "scan-chunks": "scan-chunks"}


def span_times(doc):
    """Per-class totals (ms) of one job's span tree, plus the compute
    span's self time: its duration minus what its children cover."""
    acc = {}

    def walk(s, active):
        cls = SPAN_CLASSES.get(s["name"].split(" ")[0])
        kids = s.get("children") or []
        if cls and cls not in active:
            acc[cls] = acc.get(cls, 0.0) + s["dur_us"] / 1000.0
            active = active | {cls}
        if s["name"] == "compute":
            self_us = s["dur_us"] - covered_us(kids, s["start_us"], s["start_us"] + s["dur_us"])
            acc["compute_self"] = acc.get("compute_self", 0.0) + self_us / 1000.0
        for k in kids:
            walk(k, active)

    for s in doc.get("spans", []):
        walk(s, frozenset())
    return acc


# ---- workloads --------------------------------------------------------------------


class Run:
    """Shared state of one benchmark run."""

    def __init__(self, args, root, bindir, env):
        self.args = args
        self.bindir = bindir
        self.rng = random.Random(args.seed)
        self.work = os.path.join(root, BUILD_DIR, "work", args.workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "tmp"))
        # Daemons and CLIs keep their temp stores inside the run directory.
        self.env = dict(env, TMPDIR=os.path.join(self.work, "tmp"))
        self.fleet = None
        self.failures = []
        self.checks = 0
        self.spans = []
        self.before = self.after = None
        self.rss_kb = 0

    def check(self, ok, what):
        self.checks += 1
        if not ok:
            self.failures.append(what)
            log("CHECK FAILED:", what)

    def start_local(self, n):
        f = Fleet()
        f.procs.append(Proc(self.bindir, ["-queue", "64", "-jobs", "2"], self.env, self.work, "criticd%s" % n))
        return f

    def start_fleet(self, n):
        """A coordinator plus two workers that register with it (and fetch
        scan artifacts from it by digest)."""
        f = Fleet()
        try:
            coord = Proc(self.bindir, ["-dist"], self.env, self.work, "coord%d" % n)
            f.procs.append(coord)
            # Four task slots against the two scan batches a worker receives
            # per job: a busy worker still answers /readyz 200 (all slots
            # busy reads as unhealthy and drops it from the fleet).
            for i in range(2):
                f.procs.append(Proc(self.bindir, ["-worker", "-capacity", "4", "-coordinator", coord.url],
                                    self.env, self.work, "worker%d_%d" % (n, i)))
            c = Client(coord.url)
            deadline = time.time() + 30
            while True:
                status, data = c.json("GET", "/dist/v1/workers")
                if status == 200 and sum(w["healthy"] for w in json.loads(data)["workers"] or []) == 2:
                    break
                if time.time() > deadline:
                    raise BenchError("workers did not become healthy: %s" % data[:300])
                time.sleep(0.02)
            c.close()
        except BaseException:
            f.stop()
            raise
        return f

    def setup(self, start, prime):
        """Run start()+prime() SETUP_REPEATS times; keep the last fleet.
        Returns the median set-up seconds and the last prime's value."""
        times = []
        for n in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            f = start(n)
            try:
                primed = prime(f)
            except BaseException:
                f.stop()
                raise
            times.append(time.perf_counter() - t0)
            if n < SETUP_REPEATS - 1:
                f.stop()
        self.fleet = f
        return statistics.median(times), primed

    def timed(self, c, next_req, on_result, submit=run_job):
        """The timed closed loop: one client, the next operation submitted
        when the previous one completed. Returns per-operation samples. With
        --trace 1 it also scrapes every process around the loop and collects
        the last jobs' span trees afterwards."""
        if self.args.trace:
            self.before = scrape(self.fleet)
        samples = []
        # The client allocates no reference cycles; collector pauses would
        # only add noise to the latencies.
        gc.disable()
        cpu0 = sum(p.cpu_s() for p in self.fleet.procs)
        self.t_start = time.perf_counter()
        deadline = self.t_start + self.args.seconds
        i = 0
        while time.perf_counter() < deadline:
            req, ctx = next_req(i)
            try:
                t, jid, res, server = submit(c, req, self.args.trace == 1)
            except JobFailed as e:
                samples.append({"ok": False})
                log("job failed:", e)
            else:
                samples.append({"ok": True, "t": t, "server": server, "jid": jid})
                on_result(req, ctx, res, samples[-1])
            i += 1
        self.t_end = time.perf_counter()
        gc.enable()
        self.cpu_s = sum(p.cpu_s() for p in self.fleet.procs) - cpu0
        self.rss_kb = sum(p.rss_peak_kb() for p in self.fleet.procs)
        if self.args.trace:
            self.after = scrape(self.fleet)
            jobs = [s for s in samples if s["ok"] and s["jid"]]
            for s in jobs[-TRACED_JOBS:]:
                status, data = c.request("GET", "/v1/jobs/%s/trace" % s["jid"])
                if status != 200:
                    raise BenchError("trace of %s: %d" % (s["jid"], status))
                self.spans.append(span_times(json.loads(data)))
        return samples

    def criticsim(self, *args):
        r = subprocess.run([os.path.join(self.bindir, "criticsim")] + list(args), env=self.env,
                           cwd=self.work, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=150)
        if r.returncode != 0:
            raise BenchError("criticsim %s: %s" % (args, r.stderr[-300:]))
        return r.stdout

    def criticfleet(self, *args):
        r = subprocess.run([os.path.join(self.bindir, "criticfleet")] + list(args), env=self.env,
                           cwd=self.work, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=150)
        if r.returncode != 0:
            raise BenchError("criticfleet %s: %s" % (args, r.stderr[-300:]))
        return r.stdout

    def criticctl(self, *args):
        r = subprocess.run([os.path.join(self.bindir, "criticctl")] + list(args), env=self.env,
                           cwd=self.work, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=150)
        if r.returncode != 0:
            raise BenchError("criticctl %s: %s" % (args, r.stderr[-300:]))
        return r.stdout, r.stderr


def distinct_windows(rng, lo, n):
    """Window of job i: a seeded permutation of [lo, lo+n), continued past
    lo+n should a run outlast it, so no two jobs of a run share a window."""
    perm = rng.sample(range(n), n)
    return lambda i: lo + perm[i % n] + (i // n) * n


def prime_apps(f, reqs):
    """Run each request once; returns the raw result documents by app."""
    c = Client(f.api.url)
    out = {}
    for req in reqs:
        out[req["app"]] = run_job(c, req)[2]
    c.close()
    return out


def workload_warm(r):
    lo, n = MISS_WINDOWS
    windows = {a: lo + r.rng.randrange(n) for a in APPS}
    reqs = [{"kind": "optimize", "app": a, "quick": True, "measure_instrs": windows[a]} for a in APPS]
    setup_s, ref = r.setup(r.start_local, lambda f: prime_apps(f, reqs))

    order = []

    def next_req(i):
        if i % len(APPS) == 0:
            order[:] = r.rng.sample(reqs, len(reqs))
        return order[i % len(APPS)], None

    def on_result(req, _, res, s):
        r.check(res == ref[req["app"]], "warm result for %s differs from the primed one" % req["app"])

    c = Client(r.fleet.api.url)
    samples = r.timed(c, next_req, on_result)
    c.close()
    # The primed (cold) result of one app must match a one-shot criticsim run.
    app = r.rng.choice(APPS)
    out = r.criticsim("-app", app, "-quick", "-measure-arch", str(windows[app]))
    r.check(out == json.loads(ref[app])["text"], "primed %s report differs from criticsim" % app)
    return setup_s, samples


def workload_dist(r):
    """Optimize jobs with a window no earlier job used, so both measurements
    of every job miss the caches and run as dist tasks on the workers."""
    reqs = [{"kind": "optimize", "app": a, "quick": True} for a in APPS]
    setup_s, _ = r.setup(r.start_fleet, lambda f: prime_apps(f, reqs))
    window = distinct_windows(r.rng, *MISS_WINDOWS)
    order = []
    done = []

    def next_req(i):
        if i % len(APPS) == 0:
            order[:] = r.rng.sample(APPS, len(APPS))
        return {"kind": "optimize", "app": order[i % len(APPS)], "quick": True,
                "measure_instrs": window(i)}, None

    def on_result(req, _, res, s):
        res = json.loads(res)
        rep = res.get("report") or {}
        r.check(rep.get("BaselineCycles", 0) > 0 and rep.get("CritICCycles", 0) > 0,
                "report for %s has no cycles" % req["app"])
        done.append((req, res["text"]))

    c = Client(r.fleet.api.url)
    samples = r.timed(c, next_req, on_result)
    c.close()
    # Served reports must equal one-shot criticsim runs of the same inputs.
    for req, text in r.rng.sample(done, min(2, len(done))):
        out = r.criticsim("-app", req["app"], "-quick", "-measure-arch", str(req["measure_instrs"]))
        r.check(out == text, "served %s@%d differs from criticsim" % (req["app"], req["measure_instrs"]))
    return setup_s, samples


def split_trace(data):
    """Split a scan trace (CTRC v1: magic, version, uvarint chunk count, then
    per chunk a uvarint count and that many varint deltas) into its
    self-contained chunk byte strings."""
    if data[:5] != b"CTRC\x01":
        raise BenchError("unexpected trace header %r" % data[:5])
    pos = 5

    def uvarint():
        nonlocal pos
        v = shift = 0
        while True:
            b = data[pos]
            pos += 1
            v |= (b & 0x7F) << shift
            shift += 7
            if b < 0x80:
                return v

    n = uvarint()
    chunks = []
    for _ in range(n):
        start = pos
        for _ in range(uvarint()):
            uvarint()
        chunks.append(data[start:pos])
    if pos != len(data):
        raise BenchError("trailing bytes after %d trace chunks" % n)
    return chunks


def join_trace(chunks):
    n = len(chunks)
    head = bytearray(b"CTRC\x01")
    while True:
        b = n & 0x7F
        n >>= 7
        head.append(b | (0x80 if n else 0))
        if not n:
            break
    return bytes(head) + b"".join(chunks)


def scan_totals(rep):
    """The part of a scan report every chunk permutation of one trace must
    reproduce exactly."""
    ops = sorted((o["head_addr"], o["len"], o["avg_fanout_milli"], o["sum_fanout"], o["saved_bytes"])
                 for o in rep.get("opportunities") or [])
    keys = ("image_digest", "image_instrs", "chunks", "instrs", "unknown", "fetch_bytes", "saved_bytes", "speedup_ppm")
    return {k: rep.get(k) for k in keys}, ops


def scan_inputs(r):
    """The app's binary image and a trace of it: criticctl assembles and
    uploads both to a scratch daemon; the bytes come back by digest."""
    f = r.start_local("inputs")
    try:
        _, err = r.criticctl("-addr", f.api.url, "scan", "-app", SCAN_APP, "-instrs", str(SCAN_INSTRS))
        m = re.search(r"uploaded image (sha256:\w+) .*trace (sha256:\w+)", err)
        if not m:
            raise BenchError("criticctl scan printed no digests: %s" % err[-300:])
        c = Client(f.api.url)
        out = []
        for digest in m.groups():
            status, data = c.request("GET", "/v1/artifacts/" + digest)
            if status != 200:
                raise BenchError("download %s: %d" % (digest, status))
            out.append(data)
        c.close()
    finally:
        f.stop()
    return out


def workload_scan(r):
    image, trace = scan_inputs(r)
    inputs = {"image": image * IMAGE_REPLICAS, "trace": trace}

    def prime(f):
        c = Client(f.api.url)
        img = upload(c, inputs["image"], IMAGE_CHUNK)
        trc = upload(c, inputs["trace"], TRACE_CHUNK)
        # Each worker fetches the image and indexes it once, on its first
        # scan task; two jobs reach both workers.
        for _ in range(2):
            run_job(c, {"kind": "scan", "image_digest": img, "trace_digest": trc})
        c.close()

    setup_s, _ = r.setup(r.start_fleet, prime)
    img_path = os.path.join(r.work, "image.bin")
    with open(img_path, "wb") as f:
        f.write(inputs["image"])
    chunks = split_trace(inputs["trace"])
    img_digest = sha256_digest(inputs["image"])

    def local_scan(trace):
        path = os.path.join(r.work, "trace.bin")
        with open(path, "wb") as f:
            f.write(trace)
        out, _ = r.criticctl("scan", "-local", "-image", img_path, "-trace", path)
        return out

    ref_doc = None
    traces = []
    c = Client(r.fleet.api.url)

    def next_req(i):
        trace = join_trace(r.rng.sample(chunks, len(chunks)))
        t0 = time.perf_counter()
        digest = upload(c, trace, TRACE_CHUNK)
        traces.append((trace, time.perf_counter() - t0))
        return {"kind": "scan", "image_digest": img_digest, "trace_digest": digest}, trace

    def on_result(req, trace, res, s):
        nonlocal ref_doc
        s["upload"] = traces[-1][1]
        # Uploading is part of what the user waits for.
        s["t"] += traces[-1][1]
        res = json.loads(res)
        rep = res["report"]
        if ref_doc is None:
            ref_doc = scan_totals(rep)
            r.check(ref_doc[0]["chunks"] == len(chunks) and ref_doc[0]["image_digest"] == img_digest,
                    "scan report covers the wrong inputs")
        r.check(scan_totals(rep) == ref_doc, "scan totals differ between chunk permutations")
        s["text"] = res["text"]

    samples = r.timed(c, next_req, on_result)
    c.close()
    rss_mb = r.fleet.api.rss_peak_kb() / 1024.0
    r.check(rss_mb <= SCAN_RSS_CEILING_MB,
            "coordinator peak RSS %.1f MB exceeds %d MB" % (rss_mb, SCAN_RSS_CEILING_MB))
    # Distributed reports must be byte-identical to in-process scans of the
    # same bytes.
    done = [(s, traces[k][0]) for k, s in enumerate(samples) if s["ok"]]
    for s, trace in r.rng.sample(done, min(2, len(done))):
        r.check(local_scan(trace) == s["text"], "distributed scan %s differs from criticctl -local" % s["jid"])
    return setup_s, samples


def fleet_state(c):
    """Per-app consensus digest and revision from GET /v1/fleet."""
    status, data = c.request("GET", "/v1/fleet")
    if status != 200:
        raise BenchError("fleet status: %d" % status)
    return {a["app"]: (a["consensus_digest"], a["revision"]) for a in json.loads(data)["apps"]}


def workload_ingest(r):
    def prime(f):
        # Simulated devices profile the apps and stream their sketches; the
        # daemon archives every accepted sketch in its artifact store, which
        # is where the replayed bytes come from.
        r.criticfleet("-addr", f.api.url, "-devices", str(FLEET_DEVICES), "-rounds", str(FLEET_ROUNDS),
                      "-apps", ",".join(FLEET_APPS), "-seed", str(r.args.seed), "-shuffle")
        c = Client(f.api.url)
        status, data = c.request("GET", "/v1/artifacts")
        if status != 200:
            raise BenchError("artifact list: %d" % status)
        blobs = []
        for a in json.loads(data)["artifacts"]:
            status, blob = c.request("GET", "/v1/artifacts/" + a["digest"])
            if status != 200:
                raise BenchError("download %s: %d" % (a["digest"], status))
            blobs.append(blob)
        state = fleet_state(c)
        c.close()
        return blobs, state

    setup_s, (blobs, state) = r.setup(r.start_local, prime)
    r.check(len(blobs) == FLEET_DEVICES * len(FLEET_APPS) * FLEET_ROUNDS and sorted(state) == sorted(FLEET_APPS),
            "set-up archived %d sketches for %s" % (len(blobs), sorted(state)))
    digests = {b: sha256_digest(b) for b in blobs}

    def next_req(i):
        return r.rng.sample(blobs, len(blobs)), None

    def on_result(req, _, res, s):
        # Each sketch is archived under the digest of its exact bytes.
        r.check(all(json.loads(data)["digest"] == digests[b] for b, (_, data) in zip(req, res)),
                "sketch batch acknowledged with the wrong digests")

    c = Pipeline(r.fleet.api.url)
    try:
        samples = r.timed(c, next_req, on_result, post_sketches)
    finally:
        c.close()
    # The consensus is a lattice join, so re-sending the same sketches in
    # any order must leave every app's consensus (and revision) unchanged.
    c = Client(r.fleet.api.url)
    r.check(fleet_state(c) == state, "consensus changed under re-sent sketches")
    c.close()
    return setup_s, samples


WORKLOADS = {
    "warm": workload_warm,
    "dist": workload_dist,
    "scan": workload_scan,
    "ingest": workload_ingest,
}


# ---- main ---------------------------------------------------------------------------


def quantile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod")) and os.path.isdir(os.path.join(root, "cmd", "criticd"))):
        log("run from the repository root (no go.mod / cmd/criticd here)")
        return 2

    env = go_env(root)
    t0 = time.perf_counter()
    bindir = build(root, env)
    log("build %.1fs" % (time.perf_counter() - t0))

    r = Run(args, root, bindir, env)
    try:
        setup_s, samples = WORKLOADS[args.workload](r)
    finally:
        if r.fleet is not None:
            r.fleet.stop()

    ok = [s for s in samples if s["ok"]]
    if not ok:
        raise BenchError("no job completed")
    attempted = len(samples) + r.checks
    failed = len(samples) - len(ok) + len(r.failures)
    lat = [s["t"] * 1000 for s in ok]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    if args.trace == 0:
        put("latency_p50_ms", statistics.median(lat), "ms")
        put("ops_per_s", len(ok) / (r.t_end - r.t_start), "1/s")
        put("setup_s", setup_s, "s")
    else:
        a, b = r.after, r.before

        def span(key):
            return statistics.mean(t.get(key, 0.0) for t in r.spans) if r.spans else 0.0

        n = len(ok)
        hits = delta(a, b, "critics_memo_hits_total")
        misses = delta(a, b, "critics_memo_misses_total")
        remote = delta(a, b, 'critics_scan_chunks_scored_total{path="remote"}')
        scanned = remote + delta(a, b, 'critics_scan_chunks_scored_total{path="local"}')
        put("latency_p90_ms", quantile(lat, 0.9), "ms")
        put("ops", n, "count")
        put("daemon_cpu_ms_per_op", r.cpu_s * 1000 / n, "ms")
        put("peak_rss_mb", r.rss_kb / 1024.0, "MB")
        timed_jobs = [s for s in ok if s["server"] is not None] or [{"t": 0.0, "server": 0.0}]
        put("client_overhead_ms", statistics.median((s["t"] - s["server"]) * 1000 for s in timed_jobs), "ms")
        put("server_job_ms", statistics.median(s["server"] * 1000 for s in timed_jobs), "ms")
        put("queue_ms", span("queue"), "ms")
        put("compute_self_ms", span("compute_self"), "ms")
        put("measure_span_ms", span("measure"), "ms")
        put("build_span_ms", span("build"), "ms")
        put("dispatch_span_ms", span("dispatch"), "ms")
        put("scan_index_ms", span("scan-index"), "ms")
        put("scan_chunks_ms", span("scan-chunks"), "ms")
        put("upload_ms", statistics.median(s.get("upload", 0.0) * 1000 for s in ok), "ms")
        put("memo_hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
        put("memo_misses_per_op", misses / n, "count")
        put("dist_tasks_per_op", delta(a, b, "critics_dist_tasks_dispatched_total") / n, "count")
        put("dist_task_ms", mean_of(a, b, "critics_dist_task_seconds") * 1000, "ms")
        put("dist_retries", delta(a, b, "critics_dist_tasks_retried_total")
            + delta(a, b, "critics_dist_tasks_failed_total"), "count")
        put("scan_remote_ratio", remote / scanned if scanned else 0.0, "ratio")
        put("fleet_merge_us", mean_of(a, b, "critics_fleet_merge_seconds") * 1e6, "us")
        put("fleet_rejected", delta(a, b, "critics_fleet_rejected_total"), "count")
        put("http_handler_us", mean_of(a, b, "critics_server_http_request_seconds") * 1e6, "us")

    log("%s seed=%d ops=%d checks=%d failures=%d p50=%.3fms setup=%.3fs"
        % (args.workload, args.seed, len(ok), r.checks, len(r.failures), statistics.median(lat), setup_s))
    print(json.dumps({"correct": not r.failures and len(ok) == len(samples),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def terminate(signum, _frame):
    # Unwind through the finally blocks that stop the daemons.
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    try:
        sys.exit(main())
    except BenchError as e:
        log("error:", e)
        sys.exit(1)
