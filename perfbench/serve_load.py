"""Closed-loop load generator for the serve-mixed workload.

Spawns the llpmstd daemon, times its set-up (spawn until it answers
`healthz` with both preloads), then drives it from N closed-loop unix-socket
connections for a fixed window.  Each connection sends its next request only
after the previous response line arrived.  The query mix has fixed shares
(DECK) dealt in an order drawn from the workload seed; every query asks for
`verify: true`, and a query counts as correct only when the daemon answered
`request.status == "ok"` with `verified == true` (and, for the expired-budget
class, with a `run.fallback_reason`).  Connection 0 also loads a fresh
`road:512` snapshot and unloads it after every `load_every` of its queries
(catalog writes beside the reads).  Queries on `web` cycle through
WEB_GRAPHS rmat:16 graphs: the preloaded `web` and `web1`.. loaded with seeds
drawn from the run seed once the daemon is set up.  A short warm-up loop
of the same mix runs before the timed window; its responses are checked but
not timed.

Spans are kept in memory, one per call into the daemon (spawn, request,
load, unload), with the daemon-reported queue and execution times as derived
child spans; the caller writes them out when the run ends.  Spans are
recorded after each response arrives, so the time the tracer itself takes is
measured per query instead.
"""

import itertools
import json
import os
import random
import signal
import socket
import subprocess
import threading
import time

PRELOAD = "road=road:256,web=rmat:16"
# The solve time of one rmat:16 graph varies by up to a third with its seed,
# and about half the work of the mix is on web graphs; cycling through six
# of them per run averages that out, as rmat-generated does with a fresh
# graph per iteration.  road:256 grids vary little with the seed.
WEB_GRAPHS = 6
SETUPS = 5        # daemon spawns timed per run; setup_s is their median
WARMUP_S = 2      # untimed closed loop before the timed window
CLIENTS = 4       # closed-loop connections
LOAD_EVERY = 25   # connection 0 loads + unloads road:512 after this many queries
PINNED = ("llp-boruvka", "filter-kruskal", "kruskal")
CLASSES = ("road", "web", "pinned", "budget", "catalog")
BUDGET_MS = 5


def now_ms():
    return time.perf_counter() * 1e3


class Tracer:
    """In-memory spans: name, start, end, parent, request id."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._lock = threading.Lock()

    def add(self, name, start, end, parent=-1, rid=None, derived=False):
        """Records a span; `end` None leaves it open until finish()."""
        if not self.enabled:
            return -1
        with self._lock:
            self.spans.append({"id": len(self.spans), "name": name,
                               "start_ms": start, "end_ms": end,
                               "parent": parent, "rep": rid,
                               "derived": derived})
            return len(self.spans) - 1

    def finish(self, sid):
        if sid >= 0:
            self.spans[sid]["end_ms"] = now_ms()


class Connection:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")

    def call(self, request):
        """Sends one request line; returns (raw response, send ms, receive ms)."""
        line = json.dumps(request, separators=(",", ":")).encode() + b"\n"
        t0 = now_ms()
        self.file.write(line)
        self.file.flush()
        raw = self.file.readline()
        t1 = now_ms()
        if not raw:
            raise ConnectionError("daemon closed the connection")
        return raw, t0, t1

    def close(self):
        try:
            self.file.close()
        finally:
            self.sock.close()


def proc_stat(pid):
    """(cpu_ms, minflt) of a live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    # Fields after the command: state=0, minflt=7, utime=11, stime=12.
    return (int(fields[11]) + int(fields[12])) * 1e3 / tick, int(fields[7])


def proc_status(pid):
    out = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            out[key] = value.strip()
    return out


def context_switches(pid):
    s = proc_status(pid)
    return (int(s["voluntary_ctxt_switches"]) +
            int(s["nonvoluntary_ctxt_switches"]))


class Daemon:
    """One llpmstd process; always stopped and reaped by stop()."""

    def __init__(self, binary, sock_dir, seed, env=None):
        self.name = f"d{os.getpid()}.sock"
        # Relative, because a unix socket path is limited to ~107 bytes and
        # the checkout may sit deep in the file system.
        self.path = os.path.relpath(os.path.join(sock_dir, self.name))
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.log = open(os.path.join(sock_dir, "llpmstd.log"), "ab")
        self.proc = subprocess.Popen(
            [os.path.abspath(binary), "--socket", self.name,
             "--workers", "2", "--threads", "1", "--batch-max", "4",
             "--preload", PRELOAD, "--seed", str(seed)],
            cwd=sock_dir, stdout=self.log, stderr=self.log,
            env=env)

    def wait_ready(self, timeout_s=120):
        """Polls healthz until the daemon answers ok (preloads are done by then)."""
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"llpmstd exited with {self.proc.returncode}")
            try:
                conn = Connection(self.path)
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("llpmstd did not become ready")
                time.sleep(0.002)
                continue
            try:
                raw, _, _ = conn.call({"op": "healthz", "id": "ready"})
            finally:
                conn.close()
            if json.loads(raw).get("status") == "ok":
                return
            raise RuntimeError(f"healthz answered {raw[:200]!r}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if os.path.exists(self.path):
            os.unlink(self.path)


def spawn_ready(binary, sock_dir, seed, tracer, env=None):
    """Spawns a daemon and waits for it; returns (daemon, set-up ms)."""
    t0 = now_ms()
    root = tracer.add("bench.setup", t0, None)
    daemon = Daemon(binary, sock_dir, seed, env)
    try:
        daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    t1 = now_ms()
    tracer.add("serve.spawn_ready", t0, t1, root)
    tracer.finish(root)
    return daemon, t1 - t0


def check_preloads(daemon):
    conn = Connection(daemon.path)
    try:
        raw, _, _ = conn.call({"op": "list", "id": "list"})
    finally:
        conn.close()
    names = {g.get("name") for g in
             (json.loads(raw).get("data") or {}).get("graphs", [])}
    if not {"road", "web"} <= names:
        raise RuntimeError(f"preloads missing from list: {raw[:300]!r}")


def load_web_graphs(daemon, seed):
    """Loads web1.. beside the preloaded web; returns every web graph name."""
    names = ["web"]
    conn = Connection(daemon.path)
    try:
        for k in range(1, WEB_GRAPHS):
            name = f"web{k}"
            raw, _, _ = conn.call({"op": "load", "id": f"load-{name}",
                                   "name": name, "source": "rmat:16",
                                   "seed": seed * WEB_GRAPHS + k})
            if json.loads(raw).get("status") != "ok":
                raise RuntimeError(f"loading {name} answered {raw[:300]!r}")
            names.append(name)
    finally:
        conn.close()
    return names


# One deck of the query mix: 45% road, 40% web, 10% pinned, 5% budget.  Each
# connection deals shuffled decks, so every run has exactly these shares and
# only the order comes from the seed.
DECK = ("road",) * 9 + ("web",) * 8 + ("pinned",) * 2 + ("budget",)


def query_classes(rng, lead):
    """Endless class sequence for one connection.  Its first query is of
    class `lead`, so even a short run sees road, web, pinned and budget."""
    first = True
    while True:
        deck = list(DECK)
        rng.shuffle(deck)
        if first:
            deck.insert(0, deck.pop(deck.index(lead)))
            first = False
        yield from deck


def query_body(cls, budget_ms, webs, pins):
    """One query of class `cls`.  A web query takes the next graph of
    `webs`; a pinned one the next (graph, entry) pair of `pins`, so every
    pair has the same share of the run."""
    if cls == "pinned":
        graph, algo = next(pins)
        return {"graph": next(webs) if graph == "web" else graph, "algo": algo}
    if cls == "budget":
        return {"graph": next(webs), "algo": "auto", "budget_ms": budget_ms}
    return {"graph": next(webs) if cls == "web" else cls, "algo": "auto"}


def classify_query(raw, cls):
    """(outcome, parsed) with outcome in ok | failed | rejected.  An
    expired-budget query is ok only when the daemon says it fell back."""
    try:
        doc = json.loads(raw)
    except ValueError:
        return "failed", None
    req = doc.get("request")
    if req is None:
        err = (doc.get("error") or {})
        if doc.get("status") == "error" and (
                err.get("code") == "RESOURCE_EXHAUSTED" or
                "overloaded" in str(err.get("message", ""))):
            return "rejected", doc
        return "failed", doc
    if req.get("status") != "ok" or req.get("verified") is not True:
        return "failed", doc
    if cls == "budget" and not (doc.get("run") or {}).get("fallback_reason"):
        return "failed", doc
    return "ok", doc


def run_window(daemon, seed, seconds, clients, load_every, budget_ms, web,
               tracer, trace, tag=""):
    """Drives the closed loop; returns one record per request.  `tag`
    prefixes request ids and graph names, and salts the query order."""
    records = []
    lock = threading.Lock()
    errors = []
    end = now_ms() + seconds * 1e3

    def client(idx):
        rng = random.Random(f"{tag}{seed * 1000 + idx}")
        classes = query_classes(rng, CLASSES[idx % 4])
        webs = itertools.cycle(web[idx:] + web[:idx])
        pairs = list(itertools.product(("road", "web"), PINNED))
        pins = itertools.cycle(pairs[idx:] + pairs[:idx])
        root = tracer.add("bench.connection", now_ms(), None, rid=f"c{idx}")
        conn = None
        local = []
        n_queries = 0
        n_loads = 0
        try:
            conn = Connection(daemon.path)
            while now_ms() < end:
                traced = trace and n_queries % 2 == 0
                cls = next(classes)
                body = query_body(cls, budget_ms, webs, pins)
                rid = f"{tag}c{idx}q{n_queries}"
                req = {"op": "query", "id": rid, "verify": True, **body}
                raw, t0, t1 = conn.call(req)
                outcome, doc = classify_query(raw, cls)
                rec = {"class": cls, "outcome": outcome, "ms": t1 - t0,
                       "bytes": len(raw), "t": t1, "traced": traced,
                       "algo": body["algo"], "graph": body["graph"]}
                if doc is not None and doc.get("request") is not None:
                    run = doc.get("run") or {}
                    rec["queue_ms"] = doc["request"].get("queue_ms")
                    rec["batch"] = doc["request"].get("batch")
                    rec["exec_ms"] = run.get("wall_ms")
                    rec["algorithm"] = run.get("algorithm")
                    rec["fallback_reason"] = run.get("fallback_reason")
                if traced:
                    r0 = now_ms()
                    sid = tracer.add("serve.request", t0, t1, root, rid)
                    if rec.get("queue_ms") is not None:
                        q_end = t0 + rec["queue_ms"]
                        tracer.add("serve.queue", t0, q_end, sid, rid, True)
                        if rec.get("exec_ms") is not None:
                            tracer.add("mst.execute", q_end,
                                       q_end + rec["exec_ms"], sid, rid, True)
                    rec["trace_ms"] = now_ms() - r0
                local.append(rec)
                n_queries += 1
                if idx == 0 and load_every > 0 and n_queries % load_every == 0:
                    name = f"{tag}tmp{n_loads}"
                    n_loads += 1
                    for op in ({"op": "load", "id": f"load-{name}", "name": name,
                                "source": "road:512", "seed": seed},
                               {"op": "unload", "id": f"unload-{name}",
                                "name": name}):
                        raw, t0, t1 = conn.call(op)
                        try:
                            doc = json.loads(raw)
                        except ValueError:
                            doc = {}
                        ok = doc.get("status") == "ok"
                        tracer.add(f"serve.{op['op']}", t0, t1, root,
                                   op["id"])
                        local.append({"class": "catalog", "op": op["op"],
                                      "outcome": "ok" if ok else "failed",
                                      "ms": t1 - t0, "bytes": len(raw),
                                      "t": t1, "traced": False,
                                      "load_ms": (doc.get("data") or {}).get(
                                          "load_ms")})
        except Exception as e:  # recorded, never swallowed
            errors.append(f"client {idx}: {e!r}")
        finally:
            if conn is not None:
                conn.close()
            tracer.finish(root)
            with lock:
                records.extend(local)

    pid = daemon.proc.pid
    cpu0, _ = proc_stat(pid)
    csw0 = context_switches(pid)
    t0 = now_ms()
    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = now_ms() - t0
    cpu1, _ = proc_stat(pid)
    csw1 = context_switches(pid)
    return {"records": records, "errors": errors, "window_ms": wall,
            "daemon_cpu_ms": cpu1 - cpu0, "daemon_csw": csw1 - csw0}


def run(binary, sock_dir, seed, seconds, trace, env=None, budget_ms=BUDGET_MS):
    """The whole serve-mixed run; returns raw measurements."""
    tracer = Tracer(trace)
    setup_ms = []
    daemon = None
    try:
        for k in range(SETUPS):
            daemon, ms = spawn_ready(binary, sock_dir, seed, tracer, env)
            setup_ms.append(ms)
            if k + 1 < SETUPS:
                daemon.stop()
                daemon = None
        check_preloads(daemon)
        _, minflt = proc_stat(daemon.proc.pid)
        web = load_web_graphs(daemon, seed)
        warmup = run_window(daemon, seed, WARMUP_S, CLIENTS, LOAD_EVERY,
                            budget_ms, web, Tracer(False), False, tag="w")
        window = run_window(daemon, seed, seconds, CLIENTS, LOAD_EVERY,
                            budget_ms, web, tracer, trace)
        peak_kb = int(proc_status(daemon.proc.pid)["VmHWM"].split()[0])
    finally:
        if daemon is not None:
            daemon.stop()
    window.update({"warmup_records": warmup["records"],
                   "errors": warmup["errors"] + window["errors"],
                   "setup_ms": setup_ms, "setup_minflt": minflt,
                   "peak_rss_kb": peak_kb, "clients": CLIENTS,
                   "load_every": LOAD_EVERY, "spans": tracer.spans})
    return window
