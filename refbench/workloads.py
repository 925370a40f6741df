"""Seeded request streams of the three benchmark workloads.

A workload is a set of connections; each connection replays a stream of
*units* in a closed loop. A unit is the client-visible request: a short
list of protocol operations against compiled handles that the connection
owns (compile, run, stats + evict). Handles are named by keys that are
local to the benchmark; the daemon sees only netlist text and request JSON.

Everything here is a pure function of (workload, seed, connection), so the
same seed yields a byte-identical stream.
"""

import os
import random
import re

DATA_DIR = os.path.join("tools", "data")
UA741_SPEC = {"in": "inp", "in_neg": "inn", "out": "vo"}
CORE_SPEC = {"in": "inp", "out": "vo"}
AMP_SPEC = {"in": "vin", "out": "vout"}
LADDER_STAGES = 512


class Op:
    """One protocol operation of a unit."""

    def __init__(self, kind, key, netlist=None, request=None):
        self.kind = kind  # "compile" | "run" | "evict"
        self.key = key
        self.netlist = netlist
        self.request = request


class Unit:
    """One client request: its operations, a label and a stream-unique id."""

    def __init__(self, rid, label, ops):
        self.rid = rid
        self.label = label
        self.ops = ops


class Workload:
    """Connections, the decks each compiles during set-up, and its streams."""

    def __init__(self, name, connections, setup_decks, warmup, stream, primary, threads,
                 memory_units):
        self.name = name
        self.connections = connections
        self.setup_decks = setup_decks  # connection -> [(key, netlist)]
        self.warmup = warmup            # [Unit] on a set-up-only connection
        self.stream = stream            # connection -> iterator of Unit
        self.primary = primary          # (netlist, spec) of the layer benches
        self.threads = threads
        self.memory_units = memory_units  # units completed when peak RSS is read


def _rng(workload, seed, stream):
    return random.Random(f"{workload}/{seed}/{stream}")


def read_deck(name):
    with open(os.path.join(DATA_DIR, name)) as handle:
        return handle.read()


def ladder_netlist(rng, stages=LADDER_STAGES):
    """RC ladder with every R and C jittered by +-10 %."""
    lines = [f".title rc ladder {stages}"]
    previous = "in"
    for i in range(1, stages + 1):
        r = 1e3 * (1.0 + rng.uniform(-0.1, 0.1))
        c = 1e-9 * (1.0 + rng.uniform(-0.1, 0.1))
        lines.append(f"r{i} {previous} n{i} {r:.9e}")
        lines.append(f"c{i} n{i} 0 {c:.9e}")
        previous = f"n{i}"
    lines.append(".end")
    return "\n".join(lines) + "\n"


def rectifier_netlist(rng):
    """Half-wave diode rectifier (peak detector) with seeded values."""
    return (
        ".title diode rectifier\n"
        ".model dfast d is=1e-14 n=1\n"
        f"vin in 0 dc 0 sin(0 {rng.uniform(3.0, 6.0):.4f} 1k)\n"
        f"rs in a {rng.uniform(5.0, 20.0):.4f}\n"
        "d1 a out dfast\n"
        f"c1 out 0 {rng.uniform(0.5, 2.0):.4f}u\n"
        f"rbleed out 0 {rng.uniform(50.0, 200.0):.4f}k\n"
        ".end\n")


def amp_variant(text, rng):
    """two_stage_amp.cir with its compensation and load redrawn."""
    text = re.sub(r"\.param ccomp=\S+", f".param ccomp={rng.uniform(1.0, 4.0):.4f}p", text)
    return re.sub(r"\.param cload=\S+", f".param cload={rng.uniform(5.0, 20.0):.4f}p", text)


def _settings(rng, threads):
    return rng.choice([1, threads]), rng.choice(["scalar", "batched"])


def with_settings(request, threads, kernel):
    """Set the execution knobs (threads, kernel) wherever the type takes them."""
    request = dict(request)
    kind = request["type"]
    if kind in ("refgen", "poles_zeros", "simplify"):
        options = dict(request.get("options", {}))
        options["threads"], options["kernel"] = threads, kernel
        request["options"] = options
    elif kind == "batch":
        # Items run in parallel across the batch's threads; each item takes
        # the kernel through its own options.
        request["threads"] = threads
        request["items"] = [dict(item, options=dict(item.get("options", {}), threads=1,
                                                    kernel=kernel))
                            for item in request["items"]]
    elif kind in ("op", "transient"):
        request["threads"] = threads  # serial solvers: no kernel member
    else:
        request["threads"], request["kernel"] = threads, kernel
    return request


def normalized(request):
    """The oracle's form of a request: one thread, scalar kernel."""
    return with_settings(request, 1, "scalar")


# --- ladder_refgen -------------------------------------------------------------

def ladder_refgen(seed, threads):
    def stream(connection):
        rng = _rng("ladder_refgen", seed, connection)
        request = {"type": "refgen", "spec": {"in": "in", "out": f"n{LADDER_STAGES}"},
                   "options": {"threads": threads, "kernel": "batched"}}
        index = 0
        while True:
            key = f"ladder{index}"
            yield Unit(index, "refgen", [Op("compile", key, netlist=ladder_netlist(rng)),
                                         Op("run", key, request=request),
                                         Op("evict", key)])
            index += 1

    warm_netlist = ladder_netlist(random.Random("ladder_refgen/warmup"))
    warm_request = {"type": "refgen", "spec": {"in": "in", "out": f"n{LADDER_STAGES}"},
                    "options": {"threads": threads, "kernel": "batched"}}
    warmup = [Unit(-1, "refgen", [Op("compile", "warm", netlist=warm_netlist),
                                  Op("run", "warm", request=warm_request),
                                  Op("evict", "warm")])]
    # The layer benches run on the first ladder of the stream.
    primary = (None, {"in": "in", "out": f"n{LADDER_STAGES}"})
    return Workload("ladder_refgen", 1, {0: []}, warmup, {0: stream(0)}, primary, threads,
                    memory_units=20)


# --- daemon_mix ----------------------------------------------------------------

MIX_DECKS = ("ua741", "amp", "npn", "rect")


def _mix_decks(seed):
    return {
        "ua741": read_deck("ua741.cir"),
        "amp": read_deck("two_stage_amp.cir"),
        "npn": read_deck("ua741_npn.cir"),
        "rect": rectifier_netlist(_rng("daemon_mix", seed, "rect")),
    }


# AC decks: (deck, spec, needs auto_linearize).
_AC_TARGETS = (("ua741", UA741_SPEC, False), ("amp", AMP_SPEC, False),
               ("npn", UA741_SPEC, True))


def _ac(rng):
    deck, spec, linearize = rng.choice(_AC_TARGETS)
    extra = {"auto_linearize": True} if linearize else {}
    return deck, spec, extra


def _engine_options(rng):
    return {"sigma": rng.choice([5, 6, 7]), "tuning_r": rng.choice([-0.5, 0.0, 0.5]),
            "no_progress_limit": rng.choice([3, 4])}


def _mix_request(rng):
    """A fresh (deck, type, request) draw for daemon_mix."""
    kind = rng.choices(
        ["refgen", "poles_zeros", "sweep", "param_sweep", "op", "transient", "simplify",
         "batch"],
        weights=[18, 6, 16, 10, 6, 12, 8, 6])[0]
    if kind in ("refgen", "poles_zeros"):
        deck, spec, extra = _ac(rng) if kind == "refgen" else ("amp", AMP_SPEC, {})
        return deck, dict({"type": kind, "spec": spec, "options": _engine_options(rng)}, **extra)
    if kind == "sweep":
        deck, spec, extra = _ac(rng)
        return deck, dict({"type": "sweep", "spec": spec,
                           "f_start_hz": rng.choice([1.0, 10.0, 100.0]),
                           "f_stop_hz": rng.choice([1e6, 1e7, 1e8]),
                           "points_per_decade": rng.choice([5, 10, 20])}, **extra)
    if kind == "param_sweep":
        if rng.random() < 0.5:
            deck, spec, names = "ua741", UA741_SPEC, {"ccomp": 30e-12, "rload": 2e3,
                                                      "cload": 100e-12}
        else:
            deck, spec, names = "amp", AMP_SPEC, {"gm1": 200e-6, "gm2": 2e-3, "ccomp": 2e-12,
                                                  "cload": 10e-12}
        chosen = rng.sample(sorted(names), rng.choice([1, 2]))
        params = [{"name": name, "nominal": names[name], "rel_sigma": rng.choice([0.05, 0.1]),
                   "dist": rng.choice(["gaussian", "uniform"])} for name in chosen]
        return deck, {"type": "param_sweep", "spec": spec, "mode": "monte_carlo",
                      "params": params, "samples": rng.randint(16, 48),
                      "seed": rng.randint(0, 2**31), "f_start_hz": 1.0, "f_stop_hz": 1e6,
                      "points_per_decade": 5}
    if kind == "op":
        return rng.choice(["npn", "rect"]), {"type": "op"}
    if kind == "transient":
        return "rect", {"type": "transient", "tstop": rng.choice([1e-3, 2e-3]),
                        "tstep": rng.choice([4e-6, 8e-6, 1e-5]),
                        "method": rng.choice(["trap", "bdf2"]),
                        "adaptive": rng.random() < 0.5}
    if kind == "simplify":
        return "amp", {"type": "simplify", "spec": AMP_SPEC,
                       "error_budget": round(rng.uniform(0.01, 0.1), 3),
                       "f_start_hz": rng.choice([10.0, 100.0]),
                       "f_stop_hz": rng.choice([1e3, 1e4])}
    deck, spec = rng.choice([("ua741", UA741_SPEC), ("amp", AMP_SPEC)])
    items = [{"spec": spec, "options": _engine_options(rng)} for _ in range(rng.choice([2, 3]))]
    return deck, {"type": "batch", "items": items}


def daemon_mix(seed, threads):
    decks = _mix_decks(seed)
    amp_text = decks["amp"]

    def stream(connection):
        rng = _rng("daemon_mix", seed, connection)
        history = []  # (deck, request) of earlier single-run units
        index = 0
        while True:
            rid = connection * 1_000_000 + index
            key_prefix = f"c{connection}."
            draw = rng.random()
            if draw < 0.06:
                # A write: compile a fresh deck variant, use it, evict it.
                key = f"{key_prefix}v{index}"
                if rng.random() < 0.5:
                    netlist = amp_variant(amp_text, rng)
                    request = {"type": "refgen", "spec": AMP_SPEC,
                               "options": _engine_options(rng)}
                else:
                    netlist = rectifier_netlist(rng)
                    request = {"type": "op"}
                request = with_settings(request, *_settings(rng, threads))
                unit = Unit(rid, "write", [Op("compile", key, netlist=netlist),
                                           Op("run", key, request=request), Op("evict", key)])
            else:
                if history and draw < 0.26:
                    # An exact repeat of an earlier request; only the
                    # execution knobs, which no cache key includes, change.
                    deck, request = rng.choice(history)
                else:
                    deck, request = _mix_request(rng)
                    history.append((deck, request))
                request = with_settings(request, *_settings(rng, threads))
                unit = Unit(rid, request["type"], [Op("run", key_prefix + deck, request=request)])
            yield unit
            index += 1

    setup = {c: [(f"c{c}.{deck}", decks[deck]) for deck in MIX_DECKS] for c in range(threads)}
    warm_rng = random.Random("daemon_mix/warmup")
    warmup = [Unit(-1, "setup", [Op("compile", f"w.{deck}", netlist=decks[deck])
                                 for deck in MIX_DECKS])]
    seen = set()
    while len(seen) < 8:
        deck, request = _mix_request(warm_rng)
        if request["type"] in seen:
            continue
        seen.add(request["type"])
        warmup.append(Unit(-1, request["type"], [Op("run", f"w.{deck}", request=request)]))
    warmup.append(Unit(-1, "setup", [Op("evict", f"w.{deck}") for deck in MIX_DECKS]))
    streams = {c: stream(c) for c in range(threads)}
    primary = (decks["ua741"], UA741_SPEC)
    return Workload("daemon_mix", threads, setup, warmup, streams, primary, threads,
                    memory_units=800)


# --- simplify_core -------------------------------------------------------------

# Budgets in this band all keep 9-10k terms (2.6-3.0 MB payloads) on
# ua741_core. Below ~6.2 % the kept set steps up (13k, 17k, 20k terms, then
# 45k-235k below 4 %), and with it the cost per request, which would make a
# run's median depend on its draw.
SIMPLIFY_BUDGET = (0.08, 0.13)
SIMPLIFY_BLOCK = 6


def simplify_core(seed, threads):
    core = read_deck("ua741_core.cir")

    def stream(connection):
        rng = _rng("simplify_core", seed, connection)
        index = 0
        low, high = SIMPLIFY_BUDGET
        def strata():
            order = list(range(SIMPLIFY_BLOCK))
            rng.shuffle(order)
            return [(s + rng.random()) / SIMPLIFY_BLOCK for s in order]

        while True:
            # Latin-hypercube blocks: every SIMPLIFY_BLOCK requests cover the
            # budget range and both band-edge ranges evenly, so runs of
            # different seeds see the same mix of cheap and dear requests.
            for budget, start, stop in zip(strata(), strata(), strata()):
                request = {"type": "simplify", "spec": CORE_SPEC,
                           "error_budget": round(low + (high - low) * budget, 6),
                           "f_start_hz": round(10.0 + 5.0 * start, 3),
                           "f_stop_hz": round(800.0 + 200.0 * stop, 3),
                           "options": {"threads": threads, "kernel": "batched"}}
                yield Unit(index, "simplify", [Op("run", "core", request=request)])
                index += 1

    warm_request = {"type": "simplify", "spec": CORE_SPEC, "error_budget": 0.1,
                    "options": {"threads": threads, "kernel": "batched"}}
    warmup = [Unit(-1, "simplify", [Op("compile", "warm", netlist=core),
                                    Op("run", "warm", request=warm_request),
                                    Op("evict", "warm")])]
    primary = (core, CORE_SPEC)
    return Workload("simplify_core", 1, {0: [("core", core)]}, warmup, {0: stream(0)},
                    primary, threads, memory_units=16)


WORKLOADS = {"ladder_refgen": ladder_refgen, "daemon_mix": daemon_mix,
             "simplify_core": simplify_core}
