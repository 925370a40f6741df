#include "api/service.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "dc/linearize.h"
#include "dc/newton.h"
#include "mna/ac.h"
#include "mna/nodal.h"
#include "netlist/parser.h"
#include "numeric/roots.h"
#include "refgen/adaptive.h"
#include "support/lru_cache.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace symref::api {

namespace {

/// Exact textual fingerprint of a spec — the per-handle cache key. Node
/// names cannot contain '\n', so joining with it is collision-free.
std::string spec_key(const mna::TransferSpec& spec) {
  std::string key = spec.kind == mna::TransferSpec::Kind::VoltageGain ? "vg" : "ti";
  for (const std::string* part : {&spec.in_pos, &spec.in_neg, &spec.out_pos, &spec.out_neg}) {
    key += '\n';
    key += *part;
  }
  return key;
}

/// Exact fingerprint of the engine options. Doubles are rendered as hex
/// floats (bit-exact); `threads`, `kernel` and `on_iteration` are excluded —
/// none influences the result (bit-identical parallelism and replay
/// kernels; observer is a hook).
std::string options_key(const refgen::AdaptiveOptions& o) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%d|%a|%a|%d|%d%d%d%d|%a|%a|%d", o.sigma,
                o.noise_decades, o.tuning_r, o.max_iterations, o.use_deflation ? 1 : 0,
                o.conjugate_symmetry ? 1 : 0, o.simultaneous_scaling ? 1 : 0,
                o.geometric_mean_heuristic ? 1 : 0, o.initial_f, o.initial_g,
                o.no_progress_limit);
  return buffer;
}

/// Exact fingerprint of a simplify request (engine threads/kernel/cancel
/// excluded — bit-identical results at any setting). The nested engine
/// options reuse options_key.
std::string simplify_key(const refgen::SimplifyOptions& o) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%a|%a|%a|%d|%d|%a|%zu|%zu|%a|", o.error_budget,
                o.f_start_hz, o.f_stop_hz, o.band_points, o.prune ? 1 : 0, o.prune_share,
                o.max_terms_per_coefficient, o.max_queue, o.coefficient_skip_factor);
  return buffer + options_key(o.engine);
}

/// Exact fingerprint of a transient request (threads and cancel excluded —
/// time stepping is serial and bit-identical regardless).
std::string transient_key(const TransientRequest& request) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%s|%a|%a|%d",
                transient::method_name(request.method), request.tstop, request.tstep,
                request.adaptive ? 1 : 0);
  return buffer;
}

std::string sweep_key(const SweepRequest& request) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%a|%a|%d", request.f_start_hz, request.f_stop_hz,
                request.points_per_decade);
  return buffer;
}

/// Exact fingerprint of a parameter-sweep request (threads and cancel
/// excluded — neither influences the bit-identical result). Parameter
/// names are length-prefixed so arbitrary name content (any length, any
/// delimiter characters) cannot collide with the numeric fields; numbers
/// are formatted one per bounded buffer, never truncated.
std::string param_sweep_key(const ParamSweepRequest& request) {
  std::string key = request.mode == ParamSweepRequest::Mode::kGrid ? "grid" : "mc";
  char buffer[64];
  auto add_number = [&](double value) {
    std::snprintf(buffer, sizeof(buffer), "|%a", value);
    key += buffer;
  };
  auto add_name = [&](const std::string& name) {
    key += '|';
    key += std::to_string(name.size());
    key += ':';
    key += name;
  };
  for (const mna::ParamAxis& axis : request.axes) {
    key += "|a";
    add_name(axis.name);
    add_number(axis.from);
    add_number(axis.to);
    std::snprintf(buffer, sizeof(buffer), "|%d|%d", axis.count, axis.log_scale ? 1 : 0);
    key += buffer;
  }
  for (const mna::ParamDist& dist : request.dists) {
    key += "|d";
    add_name(dist.name);
    add_number(dist.nominal);
    add_number(dist.rel_sigma);
    key += dist.kind == mna::ParamDist::Kind::kGaussian ? "|g" : "|u";
  }
  std::snprintf(buffer, sizeof(buffer), "|%d|%llu", request.samples,
                static_cast<unsigned long long>(request.seed));
  key += buffer;
  add_number(request.f_start_hz);
  add_number(request.f_stop_hz);
  std::snprintf(buffer, sizeof(buffer), "|%d", request.points_per_decade);
  key += buffer;
  return key;
}

/// Engine terminations that are errors at the facade boundary.
Status termination_status(const refgen::AdaptiveResult& result) {
  if (result.complete) return Status();
  if (result.termination == "singular_system") {
    return Status::error(StatusCode::kSingularSystem,
                         "adaptive engine: system is singular at the initial scaling "
                         "(floating section or zero-admittance cut)");
  }
  if (result.termination == "cancelled") {
    return Status::error(StatusCode::kCancelled,
                         "adaptive engine: run cancelled before completion");
  }
  return Status::error(StatusCode::kIncomplete,
                       "adaptive engine terminated without a complete reference: " +
                           result.termination);
}

constexpr const char* kEmptyHandleMessage = "empty CircuitHandle (compile a circuit first)";

}  // namespace

namespace internal {

/// Mutable per-TransferSpec state of one compiled circuit. The mutex
/// serializes use of the cached evaluator/simulator (both are
/// deliberately non-reentrant plan caches) and guards the response caches.
struct SpecEntry {
  explicit SpecEntry(std::size_t cache_capacity)
      : refgen_cache(cache_capacity),
        sweep_cache(cache_capacity),
        param_sweep_cache(cache_capacity),
        simplify_cache(cache_capacity) {}

  std::mutex mutex;
  /// Reference-generation plan cache: assembly pattern + symbolic LU plan
  /// stay warm across engine runs on this spec.
  std::unique_ptr<mna::CofactorEvaluator> evaluator;
  /// Sweep plan cache: drive-augmented circuit, assembler, LU plan.
  std::unique_ptr<mna::AcSimulator> simulator;
  /// Memoized responses (ServiceOptions::cache_responses), bounded by
  /// ServiceOptions::max_cached_responses with LRU eviction.
  support::LruCache<std::string, RefgenResponse> refgen_cache;
  support::LruCache<std::string, SweepResponse> sweep_cache;
  support::LruCache<std::string, ParamSweepResponse> param_sweep_cache;
  support::LruCache<std::string, SimplifyResponse> simplify_cache;
};

struct CompiledCircuit {
  // Declaration order is construction order: op is solved on original (when
  // it carries devices), linear is the linearization at that bias (or a
  // plain copy), canonical is derived from linear, system references
  // canonical. The struct lives behind a shared_ptr and is never moved, so
  // the internal reference stays valid.
  netlist::Circuit original;
  /// Solved DC bias (device-bearing handles only; default elsewhere).
  /// Immutable after construction — Service::op serves it lock-free.
  dc::OpResult op;
  /// What the AC-family analyses run on: the small-signal linearization of
  /// `original` at `op`, or `original` itself when there are no devices.
  netlist::Circuit linear;
  netlist::Circuit canonical;
  mna::NodalSystem system;
  std::string name;
  std::size_t cache_capacity = 0;
  /// The parsed-but-unexpanded netlist (compile_netlist only) — what
  /// param_sweep() re-elaborates per sample. Invalid for programmatic
  /// compile() handles.
  netlist::NetlistTemplate netlist_template;
  netlist::CanonicalOptions canonical_options;

  std::mutex specs_mutex;
  std::map<std::string, std::shared_ptr<SpecEntry>> specs;

  // Response-cache counters (Service::cache_stats). Atomics so the batch
  // lanes and concurrent requests can bump them without extending any
  // critical section.
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> cache_evictions{0};
  /// Refgen, sweep and transient responses that completed on an escalated
  /// pivot rung (Service::engine_stats). Per-spec factorization counters
  /// live on the cached evaluators and simulators; this one is
  /// response-level so cache hits of a degraded result do not re-count.
  std::atomic<std::uint64_t> degraded_responses{0};
  /// Simplify workload counters (Service::engine_stats). Response-level so
  /// cache hits do not re-count, like degraded_responses.
  std::atomic<std::uint64_t> simplify_term_evals{0};
  std::atomic<std::uint64_t> simplify_terms_dropped{0};
  /// Newton workload counters (Service::engine_stats): the compile-time
  /// bias solve plus every param_sweep per-sample re-bias. Atomics because
  /// sweep lanes bump them concurrently.
  std::atomic<std::uint64_t> newton_iterations{0};
  std::atomic<std::uint64_t> op_solves{0};
  /// Whether Service::op already served the stored bias once (from_cache
  /// flips true on the second and later calls).
  std::atomic<bool> op_served{false};
  /// Transient workload counters (Service::engine_stats). Computed runs
  /// only — cache hits do not re-count, like degraded_responses.
  std::atomic<std::uint64_t> transient_steps{0};
  std::atomic<std::uint64_t> lte_rejections{0};
  std::atomic<std::uint64_t> transient_fresh_factorizations{0};
  std::atomic<std::uint64_t> transient_pivot_escalations{0};

  /// Transient analyses have no TransferSpec, so their response cache lives
  /// on the circuit itself rather than in a SpecEntry. Lazily built under
  /// transient_mutex (cache_capacity is assigned after construction).
  std::mutex transient_mutex;
  std::unique_ptr<support::LruCache<std::string, TransientResponse>> transient_cache;

  CompiledCircuit(netlist::Circuit circuit, const netlist::CanonicalOptions& options)
      : original(std::move(circuit)),
        op(original.has_devices() ? dc::solve_op(original) : dc::OpResult{}),
        linear(original.has_devices() ? dc::linearize_at(original, op) : original),
        canonical(netlist::canonicalize(linear, options)),
        system(canonical) {
    if (original.has_devices()) {
      op_solves.store(1, std::memory_order_relaxed);
      newton_iterations.store(static_cast<std::uint64_t>(op.newton_iterations),
                              std::memory_order_relaxed);
    }
  }

  std::shared_ptr<SpecEntry> entry(const mna::TransferSpec& spec) {
    const std::lock_guard<std::mutex> lock(specs_mutex);
    std::shared_ptr<SpecEntry>& slot = specs[spec_key(spec)];
    if (!slot) slot = std::make_shared<SpecEntry>(cache_capacity);
    return slot;
  }
};

}  // namespace internal

using internal::CompiledCircuit;
using internal::SpecEntry;

namespace {

/// The auto_linearize gate: a device-bearing handle only serves AC-family
/// requests that explicitly opted into the linearized circuit, so a client
/// that does not know about devices cannot silently analyze the wrong
/// (nonsensical large-signal) netlist. Linear handles ignore the flag.
Status check_auto_linearize(const CompiledCircuit& compiled, bool auto_linearize) {
  if (compiled.original.has_devices() && !auto_linearize) {
    return Status::error(
        StatusCode::kInvalidArgument,
        "handle '" + compiled.name +
            "' contains nonlinear devices; set auto_linearize=true to run this "
            "analysis on the small-signal circuit linearized at the solved "
            "operating point");
  }
  return Status();
}

}  // namespace

const netlist::Circuit& CircuitHandle::circuit() const { return compiled_->original; }
bool CircuitHandle::has_devices() const {
  return compiled_ != nullptr && compiled_->original.has_devices();
}
const netlist::Circuit& CircuitHandle::linear() const { return compiled_->linear; }
bool CircuitHandle::has_netlist_template() const {
  return compiled_ != nullptr && compiled_->netlist_template.valid();
}
const std::vector<std::string>& CircuitHandle::parameter_names() const {
  return compiled_->netlist_template.parameter_names();
}
const netlist::Circuit& CircuitHandle::canonical() const { return compiled_->canonical; }
int CircuitHandle::dim() const { return compiled_->system.dim(); }
int CircuitHandle::order_bound() const { return compiled_->system.order_bound(); }
const std::string& CircuitHandle::name() const { return compiled_->name; }
std::string CircuitHandle::summary() const { return compiled_->original.summary(); }

Service::Service(ServiceOptions options) : options_(std::move(options)) {}
Service::~Service() = default;

Result<CircuitHandle> Service::finish_compile(netlist::Circuit circuit, std::string name,
                                              netlist::NetlistTemplate netlist_template) const {
  try {
    auto compiled = std::make_shared<CompiledCircuit>(std::move(circuit), options_.canonical);
    compiled->name = name.empty() ? compiled->original.title : std::move(name);
    if (compiled->name.empty()) compiled->name = "circuit";
    compiled->cache_capacity = options_.max_cached_responses;
    compiled->netlist_template = std::move(netlist_template);
    compiled->canonical_options = options_.canonical;
    CircuitHandle handle;
    handle.compiled_ = std::move(compiled);
    return handle;
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<CircuitHandle> Service::compile_netlist(std::string_view text, std::string name) const {
  try {
    netlist::NetlistTemplate netlist_template = netlist::parse_netlist_template(text);
    netlist::Circuit circuit = netlist_template.elaborate();
    return finish_compile(std::move(circuit), std::move(name), std::move(netlist_template));
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<CircuitHandle> Service::compile(const netlist::Circuit& circuit, std::string name) const {
  return finish_compile(circuit, std::move(name));
}

Result<RefgenResponse> Service::refgen(const CircuitHandle& handle,
                                       const RefgenRequest& request) const {
  if (!handle.valid()) {
    return Status::error(StatusCode::kInvalidArgument, kEmptyHandleMessage);
  }
  support::Timer timer;
  try {
    CompiledCircuit& compiled = *handle.compiled_;
    if (const Status gate = check_auto_linearize(compiled, request.auto_linearize); !gate.ok()) {
      return gate;
    }
    const std::shared_ptr<SpecEntry> entry = compiled.entry(request.spec);
    const std::lock_guard<std::mutex> lock(entry->mutex);

    const std::string key = options_key(request.options);
    if (options_.cache_responses) {
      if (const RefgenResponse* hit = entry->refgen_cache.find(key)) {
        compiled.cache_hits.fetch_add(1, std::memory_order_relaxed);
        RefgenResponse response = *hit;
        response.from_cache = true;
        response.seconds = timer.seconds();
        return response;
      }
      compiled.cache_misses.fetch_add(1, std::memory_order_relaxed);
    }

    // Warm path: the spec's evaluator keeps its assembly pattern and LU
    // plan across runs, so a repeat request skips the pattern merge and the
    // first Markowitz ordering (the engine replays the cached plan).
    if (!entry->evaluator) {
      entry->evaluator = std::make_unique<mna::CofactorEvaluator>(compiled.system, request.spec);
    }
    refgen::AdaptiveScalingEngine engine(compiled.system, request.spec, request.options,
                                         entry->evaluator.get());
    RefgenResponse response;
    response.result = engine.run();
    response.seconds = timer.seconds();
    const Status status = termination_status(response.result);
    if (!status.ok()) return status;
    if (response.result.degraded) {
      compiled.degraded_responses.fetch_add(1, std::memory_order_relaxed);
    }
    if (options_.cache_responses) {
      compiled.cache_evictions.fetch_add(entry->refgen_cache.insert(key, response),
                                         std::memory_order_relaxed);
    }
    return response;
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<SimplifyResponse> Service::simplify(const CircuitHandle& handle,
                                           const SimplifyRequest& request) const {
  if (!handle.valid()) {
    return Status::error(StatusCode::kInvalidArgument, kEmptyHandleMessage);
  }
  support::Timer timer;
  try {
    CompiledCircuit& compiled = *handle.compiled_;
    if (const Status gate = check_auto_linearize(compiled, request.auto_linearize); !gate.ok()) {
      return gate;
    }
    const std::shared_ptr<SpecEntry> entry = compiled.entry(request.spec);
    const std::lock_guard<std::mutex> lock(entry->mutex);

    const std::string key = simplify_key(request.options);
    if (options_.cache_responses) {
      if (const SimplifyResponse* hit = entry->simplify_cache.find(key)) {
        compiled.cache_hits.fetch_add(1, std::memory_order_relaxed);
        SimplifyResponse response = *hit;
        response.from_cache = true;
        response.seconds = timer.seconds();
        return response;
      }
      compiled.cache_misses.fetch_add(1, std::memory_order_relaxed);
    }

    // Warm path: the spec's evaluator serves the baseline band sweep with
    // its cached assembly pattern and LU plan; the ranking lanes copy it
    // (sharing the immutable symbolic plan) inside the engine.
    if (!entry->evaluator) {
      entry->evaluator = std::make_unique<mna::CofactorEvaluator>(compiled.system, request.spec);
    }
    SimplifyResponse response;
    response.result = refgen::simplify_transfer(compiled.canonical, compiled.system,
                                                request.spec, request.options,
                                                entry->evaluator.get());
    response.seconds = timer.seconds();
    compiled.simplify_term_evals.fetch_add(response.result.term_evals,
                                           std::memory_order_relaxed);
    compiled.simplify_terms_dropped.fetch_add(response.result.terms_dropped,
                                              std::memory_order_relaxed);
    if (options_.cache_responses) {
      compiled.cache_evictions.fetch_add(entry->simplify_cache.insert(key, response),
                                         std::memory_order_relaxed);
    }
    return response;
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<SweepResponse> Service::sweep(const CircuitHandle& handle,
                                     const SweepRequest& request) const {
  if (!handle.valid()) {
    return Status::error(StatusCode::kInvalidArgument, kEmptyHandleMessage);
  }
  support::Timer timer;
  try {
    CompiledCircuit& compiled = *handle.compiled_;
    if (const Status gate = check_auto_linearize(compiled, request.auto_linearize); !gate.ok()) {
      return gate;
    }
    const std::shared_ptr<SpecEntry> entry = compiled.entry(request.spec);
    const std::lock_guard<std::mutex> lock(entry->mutex);

    const std::string key = sweep_key(request);
    if (options_.cache_responses) {
      if (const SweepResponse* hit = entry->sweep_cache.find(key)) {
        compiled.cache_hits.fetch_add(1, std::memory_order_relaxed);
        SweepResponse response = *hit;
        response.from_cache = true;
        response.seconds = timer.seconds();
        return response;
      }
      compiled.cache_misses.fetch_add(1, std::memory_order_relaxed);
    }

    // Warm path: the per-spec simulator caches the drive-augmented circuit,
    // its assembler, and the factorization plan; later sweeps and later
    // points replay instead of re-pivoting.
    if (!entry->simulator) {
      entry->simulator = std::make_unique<mna::AcSimulator>(compiled.linear);
    }
    SweepResponse response;
    response.points = entry->simulator->bode(request.spec, request.f_start_hz,
                                             request.f_stop_hz, request.points_per_decade,
                                             request.threads, request.cancel, request.kernel);
    response.degraded = entry->simulator->last_call_degraded();
    if (response.degraded) compiled.degraded_responses.fetch_add(1, std::memory_order_relaxed);
    response.seconds = timer.seconds();
    if (options_.cache_responses) {
      compiled.cache_evictions.fetch_add(entry->sweep_cache.insert(key, response),
                                         std::memory_order_relaxed);
    }
    return response;
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<ParamSweepResponse> Service::param_sweep(const CircuitHandle& handle,
                                                const ParamSweepRequest& request) const {
  if (!handle.valid()) {
    return Status::error(StatusCode::kInvalidArgument, kEmptyHandleMessage);
  }
  support::Timer timer;
  try {
    CompiledCircuit& compiled = *handle.compiled_;
    if (!compiled.netlist_template.valid()) {
      return Status::error(StatusCode::kInvalidArgument,
                           "param_sweep requires a handle compiled from netlist text "
                           "(compile_netlist), not a programmatic circuit");
    }
    if (const Status gate = check_auto_linearize(compiled, request.auto_linearize); !gate.ok()) {
      return gate;
    }
    const std::shared_ptr<SpecEntry> entry = compiled.entry(request.spec);

    // Unlike refgen/sweep, the run itself touches no shared per-spec state
    // (everything is rebuilt from the immutable template), so the entry
    // mutex guards only the cache lookups/insert — a long sweep never
    // blocks other requests on the same spec. Two racing identical sweeps
    // may both compute; results are bit-identical, so that is benign.
    const std::string key = param_sweep_key(request);
    if (options_.cache_responses) {
      bool hit_cache = false;
      ParamSweepResponse response;
      {
        const std::lock_guard<std::mutex> lock(entry->mutex);
        if (const ParamSweepResponse* hit = entry->param_sweep_cache.find(key)) {
          response = *hit;
          hit_cache = true;
        }
      }
      if (hit_cache) {
        compiled.cache_hits.fetch_add(1, std::memory_order_relaxed);
        response.from_cache = true;
        response.seconds = timer.seconds();
        return response;
      }
      compiled.cache_misses.fetch_add(1, std::memory_order_relaxed);
    }

    // Resolve the sample plan, then run: every sample re-elaborates the
    // compiled template and replays the baseline factorization plan.
    mna::ParamSamplePlan plan;
    if (request.mode == ParamSweepRequest::Mode::kGrid) {
      if (!request.dists.empty() || request.samples != 0) {
        return Status::error(StatusCode::kInvalidArgument,
                             "param_sweep: grid mode takes axes only (no dists/samples)");
      }
      plan = mna::grid_samples(request.axes);
    } else {
      if (!request.axes.empty()) {
        return Status::error(StatusCode::kInvalidArgument,
                             "param_sweep: monte_carlo mode takes dists only (no axes)");
      }
      plan = mna::monte_carlo_samples(request.dists, request.samples, request.seed);
    }
    mna::ParamSweepOptions options;
    options.spec = request.spec;
    options.f_start_hz = request.f_start_hz;
    options.f_stop_hz = request.f_stop_hz;
    options.points_per_decade = request.points_per_decade;
    options.threads = request.threads;
    options.kernel = request.kernel;
    options.cancel = request.cancel;
    options.canonical = compiled.canonical_options;

    ParamSweepResponse response;
    response.result = mna::run_param_sweep(compiled.netlist_template, plan, options);
    response.seconds = timer.seconds();
    // Newton telemetry (device-bearing sweeps re-bias per sample). Computed
    // runs only — a later cache hit of this response does not re-count.
    compiled.op_solves.fetch_add(response.result.op_solves, std::memory_order_relaxed);
    compiled.newton_iterations.fetch_add(response.result.newton_iterations,
                                         std::memory_order_relaxed);
    // Memoize only reasonably sized studies: the LRU bound counts entries,
    // not bytes, and one maximal Monte-Carlo response can reach gigabytes —
    // a long-lived daemon must not pin that behind a 64-entry cache.
    constexpr std::size_t kMaxCachedSweepValues = std::size_t{1} << 16;
    if (options_.cache_responses && response.result.response.size() <= kMaxCachedSweepValues) {
      std::size_t evicted = 0;
      {
        const std::lock_guard<std::mutex> lock(entry->mutex);
        evicted = entry->param_sweep_cache.insert(key, response);
      }
      compiled.cache_evictions.fetch_add(evicted, std::memory_order_relaxed);
    }
    return response;
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<OpResponse> Service::op(const CircuitHandle& handle, const OpRequest& request) const {
  (void)request;  // threads/cancel are wire symmetry only — bias is pre-solved
  if (!handle.valid()) {
    return Status::error(StatusCode::kInvalidArgument, kEmptyHandleMessage);
  }
  support::Timer timer;
  try {
    CompiledCircuit& compiled = *handle.compiled_;
    if (!compiled.original.has_devices()) {
      return Status::error(StatusCode::kInvalidArgument,
                           "op requires a handle with nonlinear devices (D/Q/M cards); a "
                           "purely linear circuit has no Newton bias problem");
    }
    OpResponse response;
    response.result = compiled.op;
    response.from_cache = compiled.op_served.exchange(true, std::memory_order_relaxed);
    response.seconds = timer.seconds();
    return response;
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<TransientResponse> Service::transient(const CircuitHandle& handle,
                                             const TransientRequest& request) const {
  if (!handle.valid()) {
    return Status::error(StatusCode::kInvalidArgument, kEmptyHandleMessage);
  }
  support::Timer timer;
  try {
    CompiledCircuit& compiled = *handle.compiled_;
    // Deliberately NO check_auto_linearize: a transient analysis runs the
    // large-signal netlist directly (Newton per step on device handles) —
    // linearizing first would be answering a different question.
    const std::string key = transient_key(request);
    if (options_.cache_responses) {
      bool hit_cache = false;
      TransientResponse response;
      {
        const std::lock_guard<std::mutex> lock(compiled.transient_mutex);
        if (compiled.transient_cache) {
          if (const TransientResponse* hit = compiled.transient_cache->find(key)) {
            response = *hit;
            hit_cache = true;
          }
        }
      }
      if (hit_cache) {
        compiled.cache_hits.fetch_add(1, std::memory_order_relaxed);
        response.from_cache = true;
        response.seconds = timer.seconds();
        return response;
      }
      compiled.cache_misses.fetch_add(1, std::memory_order_relaxed);
    }

    transient::TransientOptions options;
    options.method = request.method;
    options.tstop = request.tstop;
    options.tstep = request.tstep;
    options.adaptive = request.adaptive;
    options.cancel = request.cancel;
    TransientResponse response;
    {
      // A fresh solver per run: the step-bucket plans are shaped by the
      // request's tstep, so they are not reusable across different requests
      // anyway, and the runs stay shared-nothing (bit-identical at any
      // concurrency, never serialized behind a per-handle solver).
      transient::TransientSolver solver(options);
      response.result = solver.solve(compiled.original);
    }
    response.seconds = timer.seconds();
    const transient::TransientResult& result = response.result;
    compiled.transient_steps.fetch_add(static_cast<std::uint64_t>(result.steps),
                                       std::memory_order_relaxed);
    compiled.lte_rejections.fetch_add(static_cast<std::uint64_t>(result.lte_rejections),
                                      std::memory_order_relaxed);
    compiled.transient_fresh_factorizations.fetch_add(result.fresh_factorizations,
                                                      std::memory_order_relaxed);
    compiled.transient_pivot_escalations.fetch_add(result.pivot_escalations,
                                                   std::memory_order_relaxed);
    compiled.newton_iterations.fetch_add(
        static_cast<std::uint64_t>(result.newton_iterations), std::memory_order_relaxed);
    if (result.degraded) {
      compiled.degraded_responses.fetch_add(1, std::memory_order_relaxed);
    }
    // Memoize only reasonably sized waveforms, like param_sweep: the LRU
    // bound counts entries, not bytes, and a long run's state history can
    // reach gigabytes. Recomputing is bit-identical, so a miss is only time.
    constexpr std::size_t kMaxCachedStateValues = std::size_t{1} << 16;
    const std::size_t state_values =
        result.states.size() *
        (result.node_names.size() + result.branch_names.size());
    if (options_.cache_responses && state_values <= kMaxCachedStateValues) {
      std::size_t evicted = 0;
      {
        const std::lock_guard<std::mutex> lock(compiled.transient_mutex);
        if (!compiled.transient_cache) {
          compiled.transient_cache =
              std::make_unique<support::LruCache<std::string, TransientResponse>>(
                  compiled.cache_capacity);
        }
        evicted = compiled.transient_cache->insert(key, response);
      }
      compiled.cache_evictions.fetch_add(evicted, std::memory_order_relaxed);
    }
    return response;
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<CacheStats> Service::cache_stats(const CircuitHandle& handle) const {
  if (!handle.valid()) {
    return Status::error(StatusCode::kInvalidArgument, kEmptyHandleMessage);
  }
  CompiledCircuit& compiled = *handle.compiled_;
  CacheStats stats;
  stats.hits = compiled.cache_hits.load(std::memory_order_relaxed);
  stats.misses = compiled.cache_misses.load(std::memory_order_relaxed);
  stats.evictions = compiled.cache_evictions.load(std::memory_order_relaxed);
  // Collect the entries first, then lock each one briefly — never hold
  // specs_mutex and an entry mutex together.
  std::vector<std::shared_ptr<SpecEntry>> entries;
  {
    const std::lock_guard<std::mutex> lock(compiled.specs_mutex);
    for (const auto& [key, entry] : compiled.specs) entries.push_back(entry);
  }
  for (const std::shared_ptr<SpecEntry>& entry : entries) {
    const std::lock_guard<std::mutex> lock(entry->mutex);
    stats.entries += entry->refgen_cache.size() + entry->sweep_cache.size() +
                     entry->param_sweep_cache.size() + entry->simplify_cache.size();
  }
  {
    const std::lock_guard<std::mutex> lock(compiled.transient_mutex);
    if (compiled.transient_cache) stats.entries += compiled.transient_cache->size();
  }
  return stats;
}

Result<EngineStats> Service::engine_stats(const CircuitHandle& handle) const {
  if (!handle.valid()) {
    return Status::error(StatusCode::kInvalidArgument, kEmptyHandleMessage);
  }
  CompiledCircuit& compiled = *handle.compiled_;
  EngineStats stats;
  stats.degraded_responses = compiled.degraded_responses.load(std::memory_order_relaxed);
  stats.simplify_term_evals = compiled.simplify_term_evals.load(std::memory_order_relaxed);
  stats.simplify_terms_dropped =
      compiled.simplify_terms_dropped.load(std::memory_order_relaxed);
  stats.newton_iterations = compiled.newton_iterations.load(std::memory_order_relaxed);
  stats.op_solves = compiled.op_solves.load(std::memory_order_relaxed);
  stats.transient_steps = compiled.transient_steps.load(std::memory_order_relaxed);
  stats.lte_rejections = compiled.lte_rejections.load(std::memory_order_relaxed);
  // The compile-time bias solve and the transient runs contribute their
  // factorization telemetry alongside the per-spec evaluators' counters.
  stats.fresh_factorizations += compiled.op.fresh_factorizations;
  stats.pivot_escalations += compiled.op.pivot_escalations;
  stats.fresh_factorizations +=
      compiled.transient_fresh_factorizations.load(std::memory_order_relaxed);
  stats.pivot_escalations +=
      compiled.transient_pivot_escalations.load(std::memory_order_relaxed);
  // Same discipline as cache_stats: collect entries, then lock each briefly.
  std::vector<std::shared_ptr<SpecEntry>> entries;
  {
    const std::lock_guard<std::mutex> lock(compiled.specs_mutex);
    for (const auto& [key, entry] : compiled.specs) entries.push_back(entry);
  }
  for (const std::shared_ptr<SpecEntry>& entry : entries) {
    const std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->simulator) {
      stats.fresh_factorizations += entry->simulator->counters().fresh_factorizations;
      stats.pivot_escalations += entry->simulator->counters().pivot_escalations;
    }
    if (!entry->evaluator) continue;
    stats.fresh_factorizations += entry->evaluator->fresh_factor_count();
    stats.pivot_escalations += entry->evaluator->pivot_escalation_count();
    stats.supernodes += entry->evaluator->supernode_count();
    stats.batched_lanes += entry->evaluator->batched_lane_count();
  }
  return stats;
}

Result<PolesZerosResponse> Service::poles_zeros(const CircuitHandle& handle,
                                                const PolesZerosRequest& request) const {
  support::Timer timer;
  Result<RefgenResponse> reference =
      refgen(handle, {request.spec, request.options, request.auto_linearize});
  if (!reference.ok()) return reference.status();
  try {
    const refgen::NumericalReference& ref = reference.value().result.reference;
    const numeric::RootResult zeros = numeric::find_roots(ref.numerator().polynomial());
    const numeric::RootResult poles = numeric::find_roots(ref.denominator().polynomial());
    PolesZerosResponse response;
    response.poles = poles.roots;
    response.zeros = zeros.roots;
    response.poles_converged = poles.converged;
    response.zeros_converged = zeros.converged;
    response.from_cache = reference.value().from_cache;
    response.seconds = timer.seconds();
    return response;
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<BatchResponse> Service::batch(const CircuitHandle& handle,
                                     const BatchRequest& request) const {
  if (!handle.valid()) {
    return Status::error(StatusCode::kInvalidArgument, kEmptyHandleMessage);
  }
  support::Timer timer;
  BatchResponse response;
  response.items.resize(request.items.size());
  if (request.items.empty()) return response;

  try {
    CompiledCircuit& compiled = *handle.compiled_;
    // Shared-nothing lanes: each item builds its own evaluator over the
    // shared immutable system, so items never contend and results match
    // running each request alone (at any thread count). The per-spec
    // response cache is consulted/updated with short locks around the run,
    // never across it — two racing identical items may both compute
    // (benign: results are identical).
    support::ThreadPool pool(request.threads);
    pool.parallel_for(request.items.size(), [&](std::size_t begin, std::size_t end,
                                                int /*lane*/) {
      for (std::size_t i = begin; i < end; ++i) {
        const RefgenRequest& item = request.items[i];
        BatchItemResponse& out = response.items[i];
        support::Timer item_timer;
        try {
          if (const Status gate = check_auto_linearize(compiled, item.auto_linearize);
              !gate.ok()) {
            out.status = gate;
            continue;
          }
          const std::shared_ptr<SpecEntry> entry = compiled.entry(item.spec);
          const std::string key = options_key(item.options);
          if (options_.cache_responses) {
            bool hit_cache = false;
            {
              const std::lock_guard<std::mutex> lock(entry->mutex);
              if (const RefgenResponse* hit = entry->refgen_cache.find(key)) {
                out.response = *hit;
                hit_cache = true;
              }
            }
            if (hit_cache) {
              compiled.cache_hits.fetch_add(1, std::memory_order_relaxed);
              out.response.from_cache = true;
              out.response.seconds = item_timer.seconds();
              continue;
            }
            compiled.cache_misses.fetch_add(1, std::memory_order_relaxed);
          }
          refgen::AdaptiveOptions options = item.options;
          options.threads = 1;  // outer parallelism owns the lanes
          refgen::AdaptiveScalingEngine engine(compiled.system, item.spec, options);
          out.response.result = engine.run();
          out.response.seconds = item_timer.seconds();
          out.status = termination_status(out.response.result);
          if (out.status.ok() && options_.cache_responses) {
            std::size_t evicted = 0;
            {
              const std::lock_guard<std::mutex> lock(entry->mutex);
              evicted = entry->refgen_cache.insert(key, out.response);
            }
            compiled.cache_evictions.fetch_add(evicted, std::memory_order_relaxed);
          }
        } catch (...) {
          out.status = status_from_current_exception();
        }
      }
    });
    response.seconds = timer.seconds();
    return response;
  } catch (...) {
    return status_from_current_exception();
  }
}

}  // namespace symref::api
