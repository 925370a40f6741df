#!/usr/bin/env python3
"""Benchmark runner: builds refgend from the checkout, runs one seeded
workload against it in a closed loop, checks every response against the
in-process oracle and prints the metrics.

    python3 refbench/run.py --workload ladder_refgen --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. --trace 0 reports the end-to-end
metrics; --trace 1 runs the same workload and then replays its requests
in-process with spans around every layer call, and reports the per-layer
metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. METRICS.md documents every
metric and which end-to-end metric each layer metric should move.
"""

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
import workloads  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "refbench")
RESULTS_DIR = os.path.join(".bench_build", "refbench-results")
REFGEND = os.path.join(BUILD_DIR, "refgend")
PROBE = os.path.join(BUILD_DIR, "refbench_probe")
SETUP_REPEATS = 5
REQUIRED = ("src", os.path.join("tools", "refgend.cpp"), os.path.join("tools", "data"),
            os.path.join("refbench", "CMakeLists.txt"))
RUN_TYPES = ("refgen", "sweep", "param_sweep", "transient", "simplify")
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "throughput_rps": "req/s",
             "latency_p50_ms": "ms"}
LAYER_UNITS = {
    "netlist.parse_ms": "ms", "netlist.elaborate_ms": "ms", "netlist.canonicalize_ms": "ms",
    "mna.nodal_build_ms": "ms", "mna.evaluate_batch_ms": "ms", "mna.evaluations": "count",
    "mna.samples_per_s": "1/s", "mna.fresh_factorizations": "count",
    "mna.replay_ratio": "fraction", "mna.bode_ms": "ms", "mna.param_sweep_sample_us": "us",
    "sparse.factor_ms": "ms", "sparse.refactor_us": "us", "sparse.solve_us": "us",
    "sparse.batched_replay_us_per_lane": "us", "sparse.fill_in": "count",
    "sparse.supernodes": "count", "sparse.replay_flops_computed": "flop",
    "sparse.replay_bytes_computed": "bytes",
    "interp.idft_ms": "ms", "interp.deflate_ms": "ms", "interp.region_ms": "ms",
    "interp.points": "count",
    "refgen.iterations": "count", "refgen.point_retries": "count", "refgen.self_ms": "ms",
    "refgen.covered_pct": "%", "refgen.t1_ms": "ms", "refgen.speedup_tN": "ratio",
    "simplify.enumerated_terms": "count", "simplify.kept_terms": "count",
    "simplify.term_evals": "count", "simplify.ranking_fresh_factorizations": "count",
    "simplify.prune_actions": "count",
    "dc.op_solve_ms": "ms", "dc.newton_iterations": "count",
    "transient.steps": "count", "transient.lte_rejections": "count",
    "transient.newton_iterations": "count", "transient.fresh_factorizations": "count",
    "transient.us_per_step": "us",
    "api.service_ms": "ms", "api.decode_us": "us", "api.encode_us": "us",
    "api.response_bytes": "bytes", "api.wait_ms": "ms", "api.cache_hit_ratio": "fraction",
    "api.jobs_retried": "count", "api.jobs_failed": "count",
    "support.pool_dispatch_us": "us",
    "trace.latency_p50_ms": "ms", "trace.overhead_us": "us",
}


class BenchError(RuntimeError):
    pass


def log(message):
    print(f"refbench: {message}", file=sys.stderr, flush=True)


# --- Build and host ----------------------------------------------------------------

def build(jobs):
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(".bench_build", "refbench-build.log"), "w") as out:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", "refbench", "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=subprocess.STDOUT,
                           check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(jobs)], stdout=out,
                       stderr=subprocess.STDOUT, check=True)


def revision():
    """The git revision, or a content hash of the sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha256()
        for top in ("src", "tools"):
            for folder, _, files in sorted(os.walk(top)):
                for name in sorted(files):
                    path = os.path.join(folder, name)
                    digest.update(path.encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
        return "tree-" + digest.hexdigest()[:16]


def host_block(threads, seed):
    out = subprocess.run([PROBE, "host", str(threads)], capture_output=True, text=True,
                         check=True)
    host = json.loads(out.stdout)
    host["revision"] = revision()
    host["seed"] = seed
    return host


# --- Daemon and clients ------------------------------------------------------------

class Daemon:
    def __init__(self, workers, stderr):
        self.proc = subprocess.Popen([REFGEND, "--listen=0", f"--workers={workers}"],
                                     stdout=subprocess.PIPE, stderr=stderr, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if not match:
            self.kill()
            raise BenchError(f"refgend did not announce a port: {line!r}")
        self.port = int(match.group(1))
        self.submits = 0
        self.replies_lost = 0

    def shutdown(self, connection):
        """Send shutdown; returns the daemon's exit status. refgend may close
        the connection before its shutdown reply is written (its accept loop
        can shut client sockets down as soon as the request is seen), so a
        missing reply is counted in replies_lost, not treated as a crash;
        the exit status is what the lifecycle check requires."""
        try:
            connection.call("shutdown", "{}")
        except (harness.ProtocolError, OSError):
            self.replies_lost += 1
        code = self.proc.wait(timeout=60)
        self.proc.stdout.close()
        return code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Client:
    """One connection: its compiled handles, cache tallies and records."""

    def __init__(self, daemon):
        self.daemon = daemon
        self.connection = harness.Connection(daemon.port)
        self.handles = {}   # key -> circuit id
        self.tally = {}     # key -> [hits, misses] from the payloads' from_cache flags
        self.lifecycle_errors = []
        self.submits = 0

    def compile(self, key, netlist):
        reply = self.connection.call("compile", '{"netlist":%s}' % json.dumps(netlist))
        self.handles[key] = harness.circuit_id(reply)
        self.tally[key] = [0, 0]

    def submit(self, key, request):
        """Submit and wait, as `refgen --connect` does. Returns the raw wait
        reply and the round-trip seconds; reading the payload is left to
        record(), outside the timed round trip."""
        params = '{"circuit_id":"%s","request":%s}' % (
            self.handles[key], json.dumps(request, separators=(",", ":")))
        began = harness.now()
        reply = self.connection.call("submit", params)
        waited = self.connection.call("wait", '{"job_id":"%s"}' % harness.job_id(reply))
        elapsed = harness.now() - began
        self.submits += 1
        return waited, elapsed

    def record(self, key, request, waited):
        payload = harness.wait_payload(waited)
        if request["type"] != "op":
            hits, misses = harness.cache_flags(payload)
            self.tally[key][0] += hits
            self.tally[key][1] += misses
        return payload, harness.attempts(waited)

    def check_stats(self, key):
        """Cross-check the daemon's cache counters of one handle."""
        stats = json.loads(self.connection.call(
            "stats", '{"circuit_id":"%s"}' % self.handles[key]))["result"]
        expected = self.tally[key]
        if [int(stats["hits"]), int(stats["misses"])] != expected:
            self.lifecycle_errors.append(
                f"{key}: stats hits/misses {stats['hits']}/{stats['misses']} != client "
                f"{expected[0]}/{expected[1]}")

    def evict(self, key):
        self.check_stats(key)
        self.connection.call("evict", '{"circuit_id":"%s"}' % self.handles.pop(key))

    def run_unit(self, unit):
        """Execute one unit; returns its record: per-operation round-trip
        seconds (the unit's latency is their sum, so the client's own
        payload handling between operations is not counted) and payloads."""
        record = {"rid": unit.rid, "label": unit.label, "ops": [], "runs": [], "error": None}
        try:
            for op in unit.ops:
                began = harness.now()
                if op.kind == "compile":
                    self.compile(op.key, op.netlist)
                    record["ops"].append(("compile", harness.now() - began))
                elif op.kind == "run":
                    waited, elapsed = self.submit(op.key, op.request)
                    payload, attempts = self.record(op.key, op.request, waited)
                    record["ops"].append((op.request["type"], elapsed))
                    record["runs"].append({"key": op.key, "request": op.request,
                                           "payload": payload, "attempts": attempts,
                                           "seconds": elapsed})
                else:
                    self.evict(op.key)
                    record["ops"].append(("evict", harness.now() - began))
        except harness.ProtocolError as error:
            record["error"] = str(error)
        record["latency"] = sum(seconds for _, seconds in record["ops"])
        record["end"] = harness.now()
        return record

    def close(self):
        self.connection.close()


def payload_failures(payload):
    """Non-ok status codes anywhere in a payload (batch items included)."""
    return [code for code in re.findall(r'"status":\{"code":"([a-z_]+)"', payload)
            if code != "ok"]


def set_up(workload, stderr):
    """Launch the daemon, compile the set-up decks on every connection and
    run one warm-up request per type on a separate connection."""
    began = harness.now()
    daemon = Daemon(workload.threads, stderr)
    clients = []
    try:
        for connection in range(workload.connections):
            client = Client(daemon)
            for key, netlist in workload.setup_decks[connection]:
                client.compile(key, netlist)
            clients.append(client)
        warm = Client(daemon)
        for unit in workload.warmup:
            record = warm.run_unit(unit)
            failures = [code for run in record["runs"] for code in payload_failures(run["payload"])]
            if record["error"] or failures:
                raise BenchError(f"warm-up {unit.label} failed: {record['error'] or failures}")
        daemon.submits += warm.submits
        warm.close()
    except Exception:
        for client in clients:
            client.close()
        daemon.kill()
        raise
    return daemon, clients, harness.now() - began


class MemoryProbe:
    """Reads the daemon's VmHWM once the workload's first `units` units have
    completed, so that runs of different speed compare the same work."""

    def __init__(self, pid, units):
        self.pid = pid
        self.remaining = units
        self.value = None
        self.lock = threading.Lock()

    def unit_done(self):
        with self.lock:
            self.remaining -= 1
            if self.remaining == 0:
                self.value = harness.read_rss_mb(self.pid)


def drive(client, stream, deadline, pairs, errors, memory):
    """One connection's closed loop: the next unit starts when the last one
    has its reply."""
    try:
        while harness.now() < deadline:
            unit = next(stream)
            pairs.append((unit, client.run_unit(unit)))
            memory.unit_done()
    except Exception as error:  # surfaced by the caller
        errors.append(error)


# --- Oracle ----------------------------------------------------------------------

def oracle_shards(workload, paired, shards):
    """Jobs for the in-process oracle. Each connection's units are cut into
    contiguous segments, shards // connections of them, each replayed in
    daemon order on a fresh compile of the connection's set-up decks. A
    segment thus starts from a cold handle where the daemon's was warm; the
    payloads must not differ, since responses may not depend on a handle's
    history (a CLI run against a fresh handle must match the daemon)."""
    files = [[] for _ in range(shards)]
    segments = max(1, shards // len(paired))
    for connection, pairs in paired.items():
        for segment in range(segments):
            target = files[(connection * segments + segment) % shards]
            for key, netlist in workload.setup_decks[connection]:
                target.append({"op": "compile", "key": key, "netlist": netlist})
            count = len(pairs)
            for unit, _ in pairs[segment * count // segments:(segment + 1) * count // segments]:
                for op in unit.ops:
                    if op.kind == "compile":
                        target.append({"op": "compile", "key": op.key, "netlist": op.netlist})
                    elif op.kind == "run":
                        target.append({"op": "run", "key": op.key, "rid": unit.rid,
                                       "request": workloads.normalized(op.request)})
                    else:
                        target.append({"op": "evict", "key": op.key})
    return [jobs for jobs in files if jobs]


def run_probes(argv_list, folder):
    """Run probe processes concurrently; return their stdout texts. Output
    goes to files: a pipe that nobody drains would stall its writer."""
    outputs = [open(os.path.join(folder, f"probe{i}.out"), "w+") for i in range(len(argv_list))]
    try:
        procs = [subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE, text=True)
                 for argv, out in zip(argv_list, outputs)]
        for proc in procs:
            _, err = proc.communicate(timeout=170)
            if proc.returncode != 0:
                raise BenchError(f"probe failed ({proc.returncode}): {err.strip()[:400]}")
        texts = []
        for out in outputs:
            out.seek(0)
            texts.append(out.read())
        return texts
    finally:
        for out in outputs:
            out.close()


def write_jobs(folder, name, jobs):
    path = os.path.join(folder, name)
    with open(path, "w") as handle:
        for job in jobs:
            handle.write(json.dumps(job, separators=(",", ":")) + "\n")
    return path


def check_with_oracle(workload, paired, scratch, lanes):
    """Byte-compare every daemon payload with the oracle; returns the rids
    of mismatched units."""
    shards = oracle_shards(workload, paired, lanes)
    paths = [write_jobs(scratch, f"oracle{i}.jsonl", jobs) for i, jobs in enumerate(shards)]
    expected = {}
    for out in run_probes([[PROBE, "oracle", path] for path in paths], scratch):
        for line in out.splitlines():
            rid, payload = line.split("\t", 1)
            expected.setdefault(int(rid), []).append(payload)
    mismatched = set()
    for pairs in paired.values():
        for unit, record in pairs:
            got = [run["payload"] for run in record["runs"]]
            want = expected.get(unit.rid, [])
            if len(got) != len(want) or not all(map(harness.payloads_match, got, want)):
                mismatched.add(unit.rid)
    return mismatched


# --- Traced replay -----------------------------------------------------------------

PROBE_DECK_RECT = workloads.rectifier_netlist(random.Random("refbench/layer-probe"))


def layer_probe_units(threads):
    """Fixed requests for every layer, marked probe: true. A layer's metrics
    come from the workload's own requests when the replay reached one, and
    from these otherwise, so every traced run reports every layer."""
    ua741 = workloads.read_deck("ua741.cir")
    amp = workloads.read_deck("two_stage_amp.cir")
    jobs = [{"op": "compile", "key": "probe.ua741", "netlist": ua741, "rid": -10, "probe": True},
            {"op": "compile", "key": "probe.amp", "netlist": amp, "rid": -11, "probe": True},
            {"op": "compile", "key": "probe.rect", "netlist": PROBE_DECK_RECT, "rid": -12,
             "probe": True}]
    wanted = [
        ("probe.ua741", {"type": "refgen", "spec": workloads.UA741_SPEC}),
        ("probe.ua741", {"type": "sweep", "spec": workloads.UA741_SPEC, "f_start_hz": 1.0,
                         "f_stop_hz": 1e8, "points_per_decade": 20}),
        ("probe.ua741", {"type": "param_sweep", "spec": workloads.UA741_SPEC,
                         "mode": "monte_carlo",
                         "params": [{"name": "ccomp", "nominal": 30e-12, "rel_sigma": 0.1,
                                     "dist": "gaussian"}],
                         "samples": 32, "seed": 7, "f_start_hz": 1.0, "f_stop_hz": 1e6,
                         "points_per_decade": 5}),
        ("probe.amp", {"type": "simplify", "spec": workloads.AMP_SPEC, "error_budget": 0.05}),
        ("probe.rect", {"type": "op"}),
        ("probe.rect", {"type": "transient", "tstop": 2e-3, "tstep": 4e-6, "adaptive": False}),
    ]
    for rid, (key, request) in enumerate(wanted, start=20):
        request = workloads.with_settings(request, threads, "batched")
        jobs.append({"op": "run", "key": key, "rid": -rid, "request": request, "probe": True})
    return jobs


def trace_jobs(workload, paired, primary_netlist):
    """Set-up compiles, then the measured units round robin across
    connections (each connection's order kept), then layer probes."""
    jobs = []
    for connection in paired:
        for key, netlist in workload.setup_decks[connection]:
            jobs.append({"op": "compile", "key": key, "netlist": netlist, "rid": -1})
    queues = [list(pairs) for pairs in paired.values()]
    while any(queues):
        for queue in queues:
            if not queue:
                continue
            unit, _ = queue.pop(0)
            for op in unit.ops:
                if op.kind == "compile":
                    jobs.append({"op": "compile", "key": op.key, "netlist": op.netlist,
                                 "rid": unit.rid})
                elif op.kind == "run":
                    jobs.append({"op": "run", "key": op.key, "rid": unit.rid,
                                 "request": op.request})
                else:
                    jobs.append({"op": "evict", "key": op.key})
    jobs += layer_probe_units(workload.threads)
    jobs.append({"op": "compile", "key": "primary", "netlist": primary_netlist, "rid": -2,
                 "probe": True})
    jobs.append({"op": "primary", "key": "primary", "spec": workload.primary[1]})
    return jobs


def span_sums(spans_path):
    """Per request id: total duration (us) of each span name, and the self
    time (duration minus children) of every span name overall."""
    spans = []
    with open(spans_path) as handle:
        for line in handle:
            span = json.loads(line)
            # The probe's JSON writer prints integers in shortest form, which
            # may be an exponent (1e+01), so they parse as floats here.
            span["p"], span["r"] = int(span["p"]), int(span["r"])
            spans.append(span)
    child_us = [0.0] * len(spans)
    for span in spans:
        if span["p"] >= 0:
            child_us[span["p"]] += span["e"] - span["s"]
    by_rid = {}
    self_us = {}
    count_by_rid = {}
    for index, span in enumerate(spans):
        duration = span["e"] - span["s"]
        names = by_rid.setdefault(span["r"], {})
        names[span["n"]] = names.get(span["n"], 0.0) + duration
        self_us[span["n"]] = self_us.get(span["n"], 0.0) + duration - child_us[index]
        count_by_rid[span["r"]] = count_by_rid.get(span["r"], 0) + 1
    return by_rid, self_us, count_by_rid


REFGEN_FAMILY = ("refgen", "poles_zeros", "batch")
MNA_SPANS = ("CofactorEvaluator::evaluate_batch",)
INTERP_SPANS = ("coefficients_from_samples", "deflate_sample", "find_valid_region")
NETLIST_SPANS = ("parse_netlist_template", "NetlistTemplate::elaborate", "canonicalize",
                 "NodalSystem")


def pick(records, predicate):
    """Workload records matching predicate, else the layer probes' ones."""
    own = [r for r in records if not r["probe"] and predicate(r)]
    return own or [r for r in records if r["probe"] and predicate(r)]


def med(values, default=0.0):
    values = list(values)
    return harness.median(values) if values else default


def layer_metrics(records, spans_path, daemon_runs, tallies):
    by_rid, self_us, span_count = span_sums(spans_path)
    layers = next(r for r in records if r["op"] == "layers")
    records = [r for r in records if r["op"] in ("compile", "run")]

    def spans_of(record, names):
        sums = by_rid.get(int(record["rid"]), {})
        return sum(sums.get(name, 0.0) for name in names)

    compiles = pick(records, lambda r: r["op"] == "compile")
    refgens = pick(records, lambda r: r["op"] == "run" and r.get("type") in REFGEN_FAMILY
                   and r.get("iterations", 0) > 0)

    def runs_of(kind):
        """Computed (not cached) successful runs of one request type."""
        return pick(records, lambda r: r["op"] == "run" and r.get("type") == kind
                    and r.get("ok") and not r.get("from_cache"))

    m = {}
    m["netlist.parse_ms"] = med(spans_of(r, ["parse_netlist_template"]) for r in compiles) / 1e3
    m["netlist.elaborate_ms"] = med(
        spans_of(r, ["NetlistTemplate::elaborate"]) for r in compiles) / 1e3
    m["netlist.canonicalize_ms"] = med(spans_of(r, ["canonicalize"]) for r in compiles) / 1e3
    m["mna.nodal_build_ms"] = med(spans_of(r, ["NodalSystem"]) for r in compiles) / 1e3
    batch_us = [spans_of(r, MNA_SPANS) for r in refgens]
    evaluations = [r["evaluations"] for r in refgens]
    m["mna.evaluate_batch_ms"] = med(batch_us) / 1e3
    m["mna.evaluations"] = med(evaluations)
    m["mna.samples_per_s"] = sum(evaluations) / (sum(batch_us) / 1e6) if sum(batch_us) else 0.0
    ac_runs = pick(records, lambda r: r["op"] == "run" and r.get("ok")
                   and not r.get("from_cache") and r.get("type") not in ("op", "transient"))
    m["mna.fresh_factorizations"] = med(r.get("fresh", 0.0) for r in ac_runs)
    total_fresh = sum(r.get("replay_fresh", 0.0) for r in refgens)
    m["mna.replay_ratio"] = 1.0 - total_fresh / sum(evaluations) if sum(evaluations) else 0.0
    m["mna.bode_ms"] = med(spans_of(r, ["AcSimulator::bode"]) for r in runs_of("sweep")) / 1e3
    m["mna.param_sweep_sample_us"] = med(
        r["service_us"] / r["samples"] for r in runs_of("param_sweep"))
    for key in ("sparse.factor_ms", "sparse.refactor_us", "sparse.solve_us",
                "sparse.batched_replay_us_per_lane", "sparse.fill_in", "sparse.supernodes",
                "sparse.replay_flops_computed", "sparse.replay_bytes_computed"):
        m[key] = layers[key]
    m["interp.idft_ms"] = med(spans_of(r, ["coefficients_from_samples"]) for r in refgens) / 1e3
    m["interp.deflate_ms"] = med(spans_of(r, ["deflate_sample"]) for r in refgens) / 1e3
    m["interp.region_ms"] = med(spans_of(r, ["find_valid_region"]) for r in refgens) / 1e3
    m["interp.points"] = med(r["points"] for r in refgens)
    m["refgen.iterations"] = med(r["iterations"] for r in refgens)
    m["refgen.point_retries"] = med(max(0.0, r.get("replay_fresh", 1.0) - 1.0) for r in refgens)
    m["refgen.self_ms"] = med(
        (r["service_us"] - spans_of(r, MNA_SPANS + INTERP_SPANS)) for r in refgens) / 1e3
    covered = sum(spans_of(r, MNA_SPANS + INTERP_SPANS) for r in refgens)
    total = sum(r["service_us"] for r in refgens)
    refgen_rids = {int(r["rid"]) for r in refgens}
    for r in records:
        if r["op"] == "compile" and int(r["rid"]) in refgen_rids:
            covered += spans_of(r, NETLIST_SPANS)
            total += r["service_us"]
    m["refgen.covered_pct"] = 100.0 * covered / total if total else 0.0
    m["refgen.t1_ms"] = layers["refgen.t1_ms"]
    m["refgen.speedup_tN"] = layers["refgen.speedup_tN"]
    simplifies = runs_of("simplify")
    for key in ("enumerated_terms", "kept_terms", "term_evals", "ranking_fresh_factorizations",
                "prune_actions"):
        m[f"simplify.{key}"] = med(r[key] for r in simplifies)
    ops = pick(records, lambda r: r["op"] == "run" and r.get("type") == "op" and r.get("ok"))
    m["dc.op_solve_ms"] = med(spans_of(r, ["solve_op"]) for r in ops) / 1e3
    m["dc.newton_iterations"] = med(r["newton_iterations"] for r in ops)
    transients = runs_of("transient")
    m["transient.steps"] = med(r["steps"] for r in transients)
    m["transient.lte_rejections"] = med(r["lte_rejections"] for r in transients)
    m["transient.newton_iterations"] = med(r["newton_iterations"] for r in transients)
    m["transient.fresh_factorizations"] = med(r["transient_fresh"] for r in transients)
    m["transient.us_per_step"] = med(spans_of(r, ["solve_transient"]) / r["steps"]
                                     for r in transients)
    own_runs = [r for r in records if r["op"] == "run" and not r["probe"]]
    m["api.service_ms"] = med(r["service_us"] for r in own_runs) / 1e3
    m["api.decode_us"] = med(r["decode_us"] for r in own_runs)
    m["api.encode_us"] = med(r["encode_us"] for r in own_runs)
    m["api.response_bytes"] = med(r["response_bytes"] for r in own_runs)
    # Queue and wire time: the daemon round trip minus the service time the
    # daemon itself reported and the codec time measured in-process.
    waits = []
    for r in own_runs:
        daemon = daemon_runs.get(int(r["rid"]))
        if daemon is not None:
            waits.append(daemon[0] * 1e3 - daemon[1] * 1e3 -
                         (r["decode_us"] + r["encode_us"]) / 1e3)
    m["api.wait_ms"] = med(waits)
    hits, misses = tallies["hits"], tallies["misses"]
    m["api.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["api.jobs_retried"] = tallies["retried"]
    m["api.jobs_failed"] = tallies["failed_jobs"]
    m["support.pool_dispatch_us"] = layers["support.pool_dispatch_us"]
    per_unit = {}
    ran = {int(r["rid"]) for r in own_runs}
    for r in records:
        if not r["probe"] and int(r["rid"]) in ran:
            cost = r["request_us"] if r["op"] == "run" else r["service_us"]
            per_unit[int(r["rid"])] = per_unit.get(int(r["rid"]), 0.0) + cost
    m["trace.latency_p50_ms"] = med(per_unit.values()) / 1e3
    m["trace.overhead_us"] = layers["span_us"] * med(span_count.get(rid, 0) for rid in per_unit)
    service_ms = {}
    for r in own_runs:
        service_ms.setdefault(r["type"], []).append(r["service_us"] / 1e3)
    extra = {"span_self_ms": {name: us / 1e3 for name, us in sorted(self_us.items())},
             "api.service_ms_by_type": {kind: med(v) for kind, v in sorted(service_ms.items())}}
    return m, extra


# --- Metrics -----------------------------------------------------------------------

def end_to_end(setup_times, peak_rss_mb, units, window_start):
    latencies = [r["latency"] * 1e3 for _, r in units]
    last_end = max(r["end"] for _, r in units)
    metrics = {
        "setup_s": harness.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "throughput_rps": len(units) / (last_end - window_start),
        "latency_p50_ms": harness.percentile(latencies, 0.5),
    }
    info = {"samples": len(latencies)}
    per_unit = {"latencies_ms": latencies,
                "labels": [r["label"] for _, r in units],
                "bytes": [sum(len(run["payload"]) for run in r["runs"]) for _, r in units]}
    for name, p in (("latency_p90_ms", 0.9), ("latency_p99_ms", 0.99)):
        if harness.reportable(len(latencies), p):
            info[name] = harness.percentile(latencies, p)
    per_type = {}
    for _, record in units:
        for kind, seconds in record["ops"]:
            per_type.setdefault(kind, []).append(seconds * 1e3)
    for kind in ("compile",) + RUN_TYPES:
        if len(per_type.get(kind, [])) >= 1:
            info[f"{kind}_p50_ms"] = harness.median(per_type[kind])
            info[f"{kind}_samples"] = len(per_type[kind])
    return metrics, info, per_unit


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [path for path in REQUIRED if not os.path.exists(path)]
    if missing:
        log(f"run from the root of a checkout; missing {', '.join(missing)}")
        return 2
    nproc = os.cpu_count() or 1
    threads = min(4, nproc)
    try:
        build(nproc)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed ({error}); see .bench_build/refbench-build.log")
        return 3

    phases = {"start": harness.now()}
    host = host_block(threads, args.seed)
    phases["host"] = harness.now()
    workload = workloads.WORKLOADS[args.workload](args.seed, threads)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    daemon_log = open(os.path.join(RESULTS_DIR, f"{args.workload}-refgend.log"), "w")
    daemon = None
    clients = []
    try:
        setup_times = []
        replies_lost = 0
        phases["setup_start"] = harness.now()
        for attempt in range(SETUP_REPEATS):
            daemon, clients, seconds = set_up(workload, daemon_log)
            setup_times.append(seconds)
            if attempt + 1 < SETUP_REPEATS:
                code = daemon.shutdown(clients[0].connection)
                replies_lost += daemon.replies_lost
                for client in clients:
                    client.close()
                if code != 0:
                    raise BenchError(f"refgend exited {code} after set-up")

        # Measured window: every connection runs its stream closed-loop.
        phases["setup"] = harness.now()
        paired = {c: [] for c in range(workload.connections)}
        errors = []
        memory = MemoryProbe(daemon.proc.pid, workload.memory_units)
        window_start = harness.now()
        deadline = window_start + args.seconds
        workers = [threading.Thread(target=drive, args=(client, workload.stream[c], deadline,
                                                        paired[c], errors, memory))
                   for c, client in enumerate(clients)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        if errors:
            raise errors[0]
        all_units = [pair for pairs in paired.values() for pair in pairs]

        phases["window"] = harness.now()
        # Lifecycle: the daemon's own counters must agree with the client.
        lifecycle = []
        for client in clients:
            for key in list(client.handles):
                client.check_stats(key)
            lifecycle += client.lifecycle_errors
        listing = json.loads(clients[0].connection.call("list", "{}"))["result"]
        jobs = listing["jobs"]
        submits = daemon.submits + sum(client.submits for client in clients)
        if len(jobs) != min(submits, 4096):
            lifecycle.append(f"list shows {len(jobs)} jobs, client submitted {submits}")
        if any(job["state"] != "done" for job in jobs):
            lifecycle.append("jobs left unfinished")
        peak_rss_mb = memory.value
        if peak_rss_mb is None:  # fewer units than the memory probe waits for
            peak_rss_mb = harness.read_rss_mb(daemon.proc.pid)
        code = daemon.shutdown(clients[0].connection)
        replies_lost += daemon.replies_lost
        for client in clients:
            client.close()
        clients = []
        if code != 0:
            lifecycle.append(f"refgend exited {code}")

        # Correctness: statuses, protocol errors and the oracle.
        failed = set()
        tallies = {"hits": 0, "misses": 0, "retried": 0, "failed_jobs": 0}
        for unit, record in all_units:
            if record["error"]:
                failed.add(unit.rid)
            for run in record["runs"]:
                hits, misses = harness.cache_flags(run["payload"])
                if run["request"]["type"] != "op":
                    tallies["hits"] += hits
                    tallies["misses"] += misses
                tallies["retried"] += run["attempts"] - 1
                if payload_failures(run["payload"]):
                    tallies["failed_jobs"] += 1
                    failed.add(unit.rid)
        with tempfile.TemporaryDirectory(dir=".bench_build") as scratch:
            phases["lifecycle"] = harness.now()
            failed |= check_with_oracle(workload, paired, scratch, threads)
            phases["oracle"] = harness.now()
            metrics, info, per_unit = end_to_end(setup_times, peak_rss_mb, all_units,
                                                 window_start)
            info["error_rate"] = len(failed) / len(all_units)
            info.update(tallies)
            info["shutdown_replies_lost"] = replies_lost
            layer = {}
            layer_extra = {}
            if args.trace:
                primary_netlist = workload.primary[0]
                if primary_netlist is None:
                    primary_netlist = next(op.netlist for op in all_units[0][0].ops
                                           if op.kind == "compile")
                jobs = trace_jobs(workload, paired, primary_netlist)
                path = write_jobs(scratch, "trace.jsonl", jobs)
                spans = os.path.join(RESULTS_DIR, f"{args.workload}-s{args.seed}-spans.jsonl")
                out = run_probes([[PROBE, "trace", path, spans, str(args.seconds / 2),
                                   str(threads)]], scratch)[0]
                records = [json.loads(line) for line in out.splitlines()]
                daemon_runs = {unit.rid: (run["seconds"], harness.service_seconds(run["payload"]))
                               for unit, record in all_units for run in record["runs"]}
                layer, layer_extra = layer_metrics(records, spans, daemon_runs, tallies)
                phases["trace"] = harness.now()
    finally:
        for client in clients:
            client.close()
        if daemon is not None:
            daemon.kill()
        daemon_log.close()

    correct = not failed and not lifecycle
    result_metrics = layer if args.trace else metrics
    units = {"end_to_end": E2E_UNITS}
    marks = sorted(phases.items(), key=lambda item: item[1])
    phase_seconds = {name: round(t - previous, 3)
                     for (_, previous), (name, t) in zip(marks, marks[1:])}
    log("phase seconds " + json.dumps(phase_seconds))
    summary = {"workload": args.workload, "host": host, "phase_seconds": phase_seconds,
               "units_measured": per_unit, "setup_times_s": setup_times, "end_to_end": metrics, "info": info,
               "per_layer": layer, **layer_extra, "lifecycle_errors": lifecycle,
               "failed_rids": sorted(failed), "units": units}
    with open(os.path.join(RESULTS_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    print("host " + json.dumps(host, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {E2E_UNITS[name]}")
    for name, value in info.items():
        print(f"{args.workload} info {name} {value:.6g}")
    for problem in lifecycle:
        print(f"{args.workload} lifecycle-error {problem}")
    metrics_out = {}
    for name, value in result_metrics.items():
        unit = E2E_UNITS.get(name) or LAYER_UNITS[name]
        metrics_out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": len(all_units), "failed": len(failed),
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
