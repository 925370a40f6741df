// refbench_probe: the in-process half of the benchmark.
//
// The daemon under test only ever sees netlist text and request JSON; this
// program runs the same inputs through the library's public calls to check
// and explain what the daemon returned:
//
//   refbench_probe oracle JOBS     replay JOBS on an api::Service and print
//                                  "<rid>\t<payload>" per run job (the
//                                  standing byte-compare oracle)
//   refbench_probe trace JOBS SPANS SECONDS THREADS
//                                  replay JOBS with spans around every layer
//                                  call; records go to stdout (JSON lines),
//                                  spans to SPANS
//   refbench_probe parse FILE      request_from_json on every line of FILE
//   refbench_probe host THREADS    compiler, build type and a spin test
//
// JOBS is JSON lines, one operation each, executed in file order:
//   {"op": "compile", "key": K, "netlist": TEXT, "rid": N}
//   {"op": "run", "key": K, "rid": N, "request": {...}, "probe": false}
//   {"op": "evict", "key": K}
//   {"op": "primary", "key": K, "spec": {...}}    (trace: layer microbenches)
// A key names one compiled handle; run jobs replay against it in order, so
// the handle sees the same request history the daemon's handle saw.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <complex>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/jobs.h"
#include "api/json.h"
#include "api/serialize.h"
#include "api/service.h"
#include "dc/newton.h"
#include "interp/interpolator.h"
#include "interp/region.h"
#include "mna/ac.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "netlist/parser.h"
#include "refgen/adaptive.h"
#include "sparse/batched.h"
#include "sparse/lu.h"
#include "sparse/matrix.h"
#include "support/thread_pool.h"
#include "transient/transient.h"

#ifndef REFBENCH_BUILD_TYPE
#define REFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using symref::api::AnyRequest;
using symref::api::CircuitHandle;
using symref::api::JobOutcome;
using symref::api::Json;
using symref::api::Service;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

std::vector<Json> read_jobs(const char* path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(std::string("cannot read ") + path);
  std::vector<Json> jobs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = Json::parse(line);
    if (!parsed.ok()) throw std::runtime_error("bad job line: " + parsed.status().to_string());
    jobs.push_back(parsed.take());
  }
  return jobs;
}

const std::string& str(const Json& object, const char* key) {
  static const std::string empty;
  const Json* value = object.find(key);
  return value != nullptr ? value->as_string() : empty;
}

double num(const Json& object, const char* key) {
  const Json* value = object.find(key);
  return value != nullptr ? value->as_number() : 0.0;
}

// --- Spans -------------------------------------------------------------------

/// In-memory span log: name, start, end, parent index and request id.
/// Written out once, when the run ends.
class Tracer {
 public:
  int begin(const char* name, int rid) {
    spans_.push_back({name, now_us(), 0.0, stack_.empty() ? -1 : stack_.back(), rid});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end() {
    spans_[static_cast<std::size_t>(stack_.back())].end = now_us();
    stack_.pop_back();
  }
  [[nodiscard]] double duration_us(int index) const {
    const Span& span = spans_[static_cast<std::size_t>(index)];
    return span.end - span.start;
  }
  /// Duration of the most recently opened span (closed by now).
  [[nodiscard]] double last_us() const {
    return duration_us(static_cast<int>(spans_.size()) - 1);
  }
  void write(const char* path) const {
    std::ofstream out(path);
    for (const Span& span : spans_) {
      Json line = Json::object();
      line.set("n", span.name);
      line.set("s", span.start);
      line.set("e", span.end);
      line.set("p", span.parent);
      line.set("r", span.rid);
      out << line.dump() << '\n';
    }
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    int rid;
  };
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int rid)
      : tracer_(tracer), index_(tracer.begin(name, rid)) {}
  ~ScopedSpan() { tracer_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

// --- Request execution (the daemon's dispatch, through public calls) ---------

JobOutcome execute(const Service& service, const CircuitHandle& handle, AnyRequest& request) {
  JobOutcome outcome;
  outcome.type = request.type;
  auto take = [&outcome](auto result, auto& slot) {
    outcome.status = result.status();
    if (result.ok()) slot = result.take();
  };
  switch (request.type) {
    case AnyRequest::Type::kRefgen:
      take(service.refgen(handle, request.refgen), outcome.refgen);
      break;
    case AnyRequest::Type::kSweep:
      take(service.sweep(handle, request.sweep), outcome.sweep);
      break;
    case AnyRequest::Type::kPolesZeros:
      take(service.poles_zeros(handle, request.poles_zeros), outcome.poles_zeros);
      break;
    case AnyRequest::Type::kBatch:
      take(service.batch(handle, request.batch), outcome.batch);
      break;
    case AnyRequest::Type::kParamSweep:
      take(service.param_sweep(handle, request.param_sweep), outcome.param_sweep);
      break;
    case AnyRequest::Type::kSimplify:
      take(service.simplify(handle, request.simplify), outcome.simplify);
      break;
    case AnyRequest::Type::kOp:
      take(service.op(handle, request.op), outcome.op);
      break;
    case AnyRequest::Type::kTransient:
      take(service.transient(handle, request.transient), outcome.transient);
      break;
  }
  return outcome;
}

// --- oracle ------------------------------------------------------------------

int run_oracle(const char* jobs_path) {
  const Service service;
  std::map<std::string, CircuitHandle> handles;
  for (const Json& job : read_jobs(jobs_path)) {
    const std::string& op = str(job, "op");
    const std::string& key = str(job, "key");
    if (op == "compile") {
      auto compiled = service.compile_netlist(str(job, "netlist"));
      if (!compiled.ok()) {
        std::fprintf(stderr, "oracle: compile %s: %s\n", key.c_str(),
                     compiled.status().to_string().c_str());
        return 1;
      }
      handles[key] = compiled.take();
    } else if (op == "evict") {
      handles.erase(key);
    } else if (op == "run") {
      std::string payload;
      auto parsed = symref::api::request_from_json(*job.find("request"));
      if (!parsed.ok()) {
        payload = symref::api::error_response("request", parsed.status()).dump();
      } else {
        AnyRequest request = parsed.take();
        payload = to_json(execute(service, handles[key], request)).dump();
      }
      std::printf("%d\t%s\n", static_cast<int>(num(job, "rid")), payload.c_str());
    }
  }
  return 0;
}

// --- parse -------------------------------------------------------------------

int run_parse(const char* path) {
  std::ifstream in(path);
  std::string line;
  int count = 0;
  int failed = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++count;
    auto parsed = Json::parse(line);
    if (!parsed.ok() || !symref::api::request_from_json(parsed.value()).ok()) {
      ++failed;
      std::fprintf(stderr, "parse: rejected: %s\n", line.substr(0, 200).c_str());
    }
  }
  std::printf("{\"requests\": %d, \"rejected\": %d}\n", count, failed);
  return failed == 0 ? 0 : 1;
}

// --- host --------------------------------------------------------------------

/// Seconds for `lanes` threads to each finish the same fixed spin.
double spin_seconds(int lanes) {
  std::atomic<double> sink{0.0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&sink, lane] {
      double x = 1.0 + lane;
      for (int i = 0; i < 40'000'000; ++i) x = x * 1.0000001 + 1e-9;
      sink.store(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return seconds_since(start);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

int run_host(int lanes) {
  // Idle virtual CPUs take a while to be scheduled back in; spin every lane
  // once before measuring so the ratio reflects the host, not its wake-up.
  (void)spin_seconds(lanes);
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    const double one = spin_seconds(1);
    const double many = spin_seconds(lanes);
    ratios.push_back(lanes * one / many);
  }
  Json out = Json::object();
  out.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  out.set("spin_lanes", lanes);
  out.set("effective_parallelism", median(ratios));
  out.set("compiler", std::string("g++ ") + __VERSION__);
  out.set("build_type", REFBENCH_BUILD_TYPE);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// --- trace -------------------------------------------------------------------

struct Tracing {
  Tracer tracer;
  const Service service;
  std::map<std::string, CircuitHandle> handles;
  std::map<std::string, std::string> netlists;
  int threads = 1;
};

/// Re-run the stages compile_netlist performs, one span each. A
/// device-bearing netlist is solved and linearized at compile; its AC-side
/// stages run on the handle's linearized circuit.
void replay_compile(Tracing& t, const std::string& text, const CircuitHandle& handle, int rid,
                    Json& record) {
  ScopedSpan replay(t.tracer, "replay.compile", rid);
  symref::netlist::NetlistTemplate parsed;
  {
    ScopedSpan span(t.tracer, "parse_netlist_template", rid);
    parsed = symref::netlist::parse_netlist_template(text);
  }
  symref::netlist::Circuit circuit;
  {
    ScopedSpan span(t.tracer, "NetlistTemplate::elaborate", rid);
    circuit = parsed.elaborate();
  }
  if (circuit.has_devices()) {
    ScopedSpan span(t.tracer, "solve_op", rid);
    (void)symref::dc::solve_op(circuit);
  }
  symref::netlist::Circuit canonical;
  {
    ScopedSpan span(t.tracer, "canonicalize", rid);
    canonical = symref::netlist::canonicalize(handle.linear());
  }
  ScopedSpan span(t.tracer, "NodalSystem", rid);
  const symref::mna::NodalSystem system(canonical);
  record.set("dim", system.dim());
}

/// Replay one reference run's iterations: the batch evaluation at each
/// iteration's scaling, the IDFT of both polynomials, deflation and region
/// extraction.
void replay_iterations(Tracing& t, const CircuitHandle& handle,
                       const symref::mna::TransferSpec& spec,
                       const std::vector<symref::refgen::IterationRecord>& iterations,
                       const symref::refgen::AdaptiveOptions& options, int rid, Json& record) {
  if (iterations.empty()) return;
  ScopedSpan replay(t.tracer, "replay.refgen", rid);
  const symref::mna::NodalSystem system(handle.canonical());
  const symref::mna::CofactorEvaluator evaluator(system, spec);
  const int lanes = options.threads <= 0 ? symref::support::ThreadPool::hardware_threads()
                                         : options.threads;
  symref::support::ThreadPool pool(lanes);
  const int bound = handle.order_bound();
  int evaluations = 0;
  int points = 0;
  for (const symref::refgen::IterationRecord& iteration : iterations) {
    const symref::interp::UnitCircleSampler sampler(iteration.points,
                                                    options.conjugate_symmetry);
    std::vector<symref::mna::CofactorEvaluator::Sample> samples;
    {
      ScopedSpan span(t.tracer, "CofactorEvaluator::evaluate_batch", rid);
      samples = evaluator.evaluate_batch(sampler.evaluation_points(), iteration.f_scale,
                                         iteration.g_scale, lanes > 1 ? &pool : nullptr,
                                         options.kernel);
    }
    evaluations += static_cast<int>(samples.size());
    points += iteration.points;
    // As in the engine: a polynomial already complete records no residual
    // and skips deflation, IDFT and region extraction; deflation runs on
    // upward iterations only, per unique sample, fanned over the pool.
    const bool deflate =
        options.use_deflation && iteration.index > 0 &&
        iteration.purpose == symref::refgen::IterationPurpose::Upward;
    auto process = [&](bool numerator, int shift, std::size_t residual) {
      if (residual == 0) return;
      std::vector<symref::numeric::ScaledComplex> unique;
      for (const auto& sample : samples) {
        unique.push_back(numerator ? sample.numerator : sample.denominator);
      }
      if (deflate) {
        // The known coefficients are those outside the residual window;
        // their values do not change the cost of the subtraction.
        std::vector<symref::interp::KnownCoefficient> known;
        for (int index = 0; index <= bound; ++index) {
          if (index < shift || index >= shift + static_cast<int>(residual)) {
            known.push_back({index, symref::numeric::ScaledDouble(1.0)});
          }
        }
        ScopedSpan span(t.tracer, "deflate_sample", rid);
        const auto& at = sampler.evaluation_points();
        auto deflate_range = [&](std::size_t begin, std::size_t end, int) {
          for (std::size_t k = begin; k < end; ++k) {
            unique[k] = symref::interp::deflate_sample(unique[k], at[k], known, shift);
          }
        };
        if (lanes > 1) {
          pool.parallel_for(unique.size(), deflate_range);
        } else {
          deflate_range(0, unique.size(), 0);
        }
      }
      std::vector<symref::numeric::ScaledComplex> coefficients;
      {
        ScopedSpan span(t.tracer, "coefficients_from_samples", rid);
        coefficients = symref::interp::coefficients_from_samples(sampler.expand(unique));
      }
      ScopedSpan span(t.tracer, "find_valid_region", rid);
      symref::interp::RegionOptions region;
      region.sigma = options.sigma;
      region.noise_decades = options.noise_decades;
      (void)symref::interp::find_valid_region(symref::interp::real_magnitudes(coefficients),
                                              region);
    };
    process(true, iteration.num_shift, iteration.num_normalized.size());
    process(false, iteration.den_shift, iteration.den_normalized.size());
  }
  record.set("evaluations", evaluations);
  record.set("points", points);
  record.set("iterations", static_cast<int>(iterations.size()));
  record.set("replay_fresh", static_cast<double>(evaluator.fresh_factor_count()));
}

Json engine_counters(const Service& service, const CircuitHandle& handle) {
  Json out = Json::object();
  auto engine = service.engine_stats(handle);
  if (!engine.ok()) return out;
  out.set("fresh", static_cast<double>(engine.value().fresh_factorizations));
  return out;
}

/// Attach per-iteration observers to every reference run of a request.
/// Batch items run in parallel, so the sink is locked.
struct IterationSink {
  std::mutex mutex;
  std::vector<std::vector<symref::refgen::IterationRecord>> runs;

  symref::refgen::ProgressObserver observer(std::size_t run) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (runs.size() <= run) runs.resize(run + 1);
    }
    return [this, run](const symref::refgen::IterationRecord& record) {
      const std::lock_guard<std::mutex> lock(mutex);
      runs[run].push_back(record);
    };
  }
};

const char* service_span_name(AnyRequest::Type type) {
  switch (type) {
    case AnyRequest::Type::kRefgen: return "Service::refgen";
    case AnyRequest::Type::kSweep: return "Service::sweep";
    case AnyRequest::Type::kPolesZeros: return "Service::poles_zeros";
    case AnyRequest::Type::kBatch: return "Service::batch";
    case AnyRequest::Type::kParamSweep: return "Service::param_sweep";
    case AnyRequest::Type::kSimplify: return "Service::simplify";
    case AnyRequest::Type::kOp: return "Service::op";
    case AnyRequest::Type::kTransient: return "Service::transient";
  }
  return "Service::unknown";
}

void trace_run(Tracing& t, const Json& job, Json& record) {
  const int rid = static_cast<int>(num(job, "rid"));
  const CircuitHandle& handle = t.handles[str(job, "key")];
  const std::string text = job.find("request")->dump();
  const Json before = engine_counters(t.service, handle);
  AnyRequest request;
  IterationSink sink;
  JobOutcome outcome;
  int request_index = 0;
  {
    // The request as the daemon serves it: decode, execute, encode.
    ScopedSpan request_span(t.tracer, "request", rid);
    request_index = request_span.index();
    {
      ScopedSpan span(t.tracer, "request_from_json", rid);
      auto parsed = Json::parse(text);
      auto decoded = symref::api::request_from_json(parsed.value());
      if (!decoded.ok()) throw std::runtime_error("undecodable request " + text);
      request = decoded.take();
    }
    record.set("decode_us", t.tracer.last_us());
    switch (request.type) {
      case AnyRequest::Type::kRefgen:
        request.refgen.options.on_iteration = sink.observer(0);
        break;
      case AnyRequest::Type::kPolesZeros:
        request.poles_zeros.options.on_iteration = sink.observer(0);
        break;
      case AnyRequest::Type::kBatch:
        for (std::size_t i = 0; i < request.batch.items.size(); ++i) {
          request.batch.items[i].options.on_iteration = sink.observer(i);
        }
        break;
      default:
        break;
    }
    {
      ScopedSpan span(t.tracer, service_span_name(request.type), rid);
      outcome = execute(t.service, handle, request);
    }
    record.set("service_us", t.tracer.last_us());
    std::size_t bytes = 0;
    {
      ScopedSpan span(t.tracer, "to_json", rid);
      bytes = to_json(outcome).dump().size();
    }
    record.set("encode_us", t.tracer.last_us());
    record.set("response_bytes", static_cast<double>(bytes));
  }
  record.set("request_us", t.tracer.duration_us(request_index));
  record.set("type", symref::api::request_type_name(request.type));
  const Json after = engine_counters(t.service, handle);
  record.set("fresh", num(after, "fresh") - num(before, "fresh"));
  record.set("ok", outcome.status.ok());
  if (!outcome.status.ok()) return;

  // Layer replays: the same inputs through the lower-level public calls.
  switch (request.type) {
    case AnyRequest::Type::kRefgen:
      record.set("from_cache", outcome.refgen.from_cache);
      if (!sink.runs.empty()) {
        replay_iterations(t, handle, request.refgen.spec, sink.runs[0], request.refgen.options,
                          rid, record);
      }
      break;
    case AnyRequest::Type::kPolesZeros:
      record.set("from_cache", outcome.poles_zeros.from_cache);
      if (!sink.runs.empty()) {
        replay_iterations(t, handle, request.poles_zeros.spec, sink.runs[0],
                          request.poles_zeros.options, rid, record);
      }
      break;
    case AnyRequest::Type::kBatch: {
      int evaluations = 0;
      int points = 0;
      int iterations = 0;
      for (std::size_t i = 0; i < sink.runs.size(); ++i) {
        Json item = Json::object();
        replay_iterations(t, handle, request.batch.items[i].spec, sink.runs[i],
                          request.batch.items[i].options, rid, item);
        evaluations += static_cast<int>(num(item, "evaluations"));
        points += static_cast<int>(num(item, "points"));
        iterations += static_cast<int>(num(item, "iterations"));
      }
      record.set("evaluations", evaluations);
      record.set("points", points);
      record.set("iterations", iterations);
      break;
    }
    case AnyRequest::Type::kSweep: {
      record.set("from_cache", outcome.sweep.from_cache);
      ScopedSpan replay(t.tracer, "replay.sweep", rid);
      ScopedSpan span(t.tracer, "AcSimulator::bode", rid);
      const symref::mna::AcSimulator simulator(handle.linear());
      (void)simulator.bode(request.sweep.spec, request.sweep.f_start_hz, request.sweep.f_stop_hz,
                           request.sweep.points_per_decade, request.sweep.threads, {},
                           request.sweep.kernel);
      break;
    }
    case AnyRequest::Type::kParamSweep:
      record.set("from_cache", outcome.param_sweep.from_cache);
      record.set("samples", static_cast<double>(outcome.param_sweep.result.ok.size()));
      break;
    case AnyRequest::Type::kSimplify: {
      const auto& result = outcome.simplify.result;
      record.set("from_cache", outcome.simplify.from_cache);
      record.set("enumerated_terms", static_cast<double>(result.enumerated_terms));
      record.set("kept_terms", static_cast<double>(result.kept_terms));
      record.set("term_evals", static_cast<double>(result.term_evals));
      record.set("ranking_fresh_factorizations",
                 static_cast<double>(result.ranking_fresh_factorizations));
      record.set("prune_actions", static_cast<double>(result.prune_actions.size()));
      break;
    }
    case AnyRequest::Type::kOp: {
      record.set("newton_iterations", outcome.op.result.newton_iterations);
      ScopedSpan replay(t.tracer, "replay.op", rid);
      ScopedSpan span(t.tracer, "solve_op", rid);
      (void)symref::dc::solve_op(handle.circuit());
      break;
    }
    case AnyRequest::Type::kTransient: {
      const auto& result = outcome.transient.result;
      record.set("from_cache", outcome.transient.from_cache);
      record.set("steps", result.steps);
      record.set("lte_rejections", result.lte_rejections);
      record.set("newton_iterations", result.newton_iterations);
      record.set("transient_fresh", static_cast<double>(result.fresh_factorizations));
      symref::transient::TransientOptions options;
      options.tstop = request.transient.tstop;
      options.tstep = request.transient.tstep;
      options.method = request.transient.method;
      options.adaptive = request.transient.adaptive;
      ScopedSpan replay(t.tracer, "replay.transient", rid);
      ScopedSpan span(t.tracer, "solve_transient", rid);
      (void)symref::transient::solve_transient(handle.circuit(), options);
      break;
    }
  }
}

/// Microbenchmarks of the sparse kernels on one circuit's nodal matrix, the
/// reference engine at 1 vs N threads, and thread-pool dispatch.
Json layer_benches(Tracing& t, const std::string& key, const symref::mna::TransferSpec& spec) {
  Json out = Json::object();
  const CircuitHandle& handle = t.handles[key];
  const symref::mna::NodalSystem system(handle.canonical());
  symref::sparse::PatternedMatrix assembly(system.dim(), system.stamps());
  // One unit-circle point at the engine's first-iteration scaling, so the
  // kernels see the values the engine factors.
  const std::complex<double> s_hat = std::polar(1.0, 0.7);
  const auto first_scales =
      symref::refgen::AdaptiveScalingEngine(system, spec).initial_scales();
  const double f = first_scales.first;
  const double g = first_scales.second;
  const symref::sparse::CompressedMatrix& matrix = assembly.assemble(s_hat, f, g);

  symref::sparse::SparseLu lu;
  std::vector<double> factor_s;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    if (!lu.factor(matrix)) throw std::runtime_error("layer bench: singular matrix");
    factor_s.push_back(seconds_since(start));
  }
  std::vector<double> refactor_s;
  std::vector<double> solve_s;
  std::vector<std::complex<double>> rhs(static_cast<std::size_t>(system.dim()));
  for (int rep = 0; rep < 21; ++rep) {
    Clock::time_point start = Clock::now();
    (void)lu.refactor(matrix);
    refactor_s.push_back(seconds_since(start));
    std::fill(rhs.begin(), rhs.end(), std::complex<double>(0.0, 0.0));
    rhs[0] = 1.0;
    start = Clock::now();
    lu.solve(rhs);
    solve_s.push_back(seconds_since(start));
  }
  const int width = symref::sparse::kDefaultBatchWidth;
  symref::sparse::BatchedReplay replay;
  replay.bind(lu.plan(), width);
  std::vector<std::complex<double>> lanes_s;
  for (int lane = 0; lane < width; ++lane) lanes_s.push_back(std::polar(1.0, 0.1 * (lane + 1)));
  std::vector<double> batched_s;
  for (int rep = 0; rep < 11; ++rep) {
    assembly.assemble_batch(replay.values(), static_cast<std::size_t>(width), lanes_s.data(),
                            width, f, g);
    const Clock::time_point start = Clock::now();
    replay.replay(width);
    batched_s.push_back(seconds_since(start));
  }
  const symref::sparse::ReplayPlan& plan = *lu.plan();
  // Operation and traffic model of one scalar replay: each L multiplier of
  // row i costs one complex division plus one complex multiply-add per U
  // entry of the dependency row (8 flops per multiply-add, 8 per division);
  // bytes count one read of A, a read and write of every L and U value, and
  // one read of every index.
  double flops = 0.0;
  for (int row = 0; row < plan.dim; ++row) {
    for (int k = plan.l_start[static_cast<std::size_t>(row)];
         k < plan.l_start[static_cast<std::size_t>(row) + 1]; ++k) {
      const int dep = plan.l_steps[static_cast<std::size_t>(k)];
      const int u_count = plan.u_start[static_cast<std::size_t>(dep) + 1] -
                          plan.u_start[static_cast<std::size_t>(dep)];
      flops += 8.0 * (u_count + 1);
    }
  }
  const double l_count = static_cast<double>(plan.l_steps.size());
  const double u_count = static_cast<double>(plan.u_steps.size());
  const double a_count = static_cast<double>(plan.pattern_cols.size());
  const double bytes =
      16.0 * (a_count + 2.0 * (l_count + u_count + plan.dim)) + 4.0 * (a_count + l_count + u_count);
  out.set("sparse.factor_ms", 1e3 * median(factor_s));
  out.set("sparse.refactor_us", 1e6 * median(refactor_s));
  out.set("sparse.solve_us", 1e6 * median(solve_s));
  out.set("sparse.batched_replay_us_per_lane", 1e6 * median(batched_s) / width);
  out.set("sparse.fill_in", static_cast<double>(lu.fill_in()));
  out.set("sparse.supernodes", static_cast<double>(lu.supernode_count()));
  out.set("sparse.replay_flops_computed", flops);
  out.set("sparse.replay_bytes_computed", bytes);

  // Reference engine at 1 vs N threads on a warm handle with the response
  // cache off, alternating so drift hits both sides alike.
  symref::api::ServiceOptions uncached;
  uncached.cache_responses = false;
  const Service engine_service(uncached);
  auto compiled = engine_service.compile_netlist(t.netlists[key]);
  if (!compiled.ok()) throw std::runtime_error("layer bench: compile failed");
  const CircuitHandle engine_handle = compiled.take();
  auto refgen_seconds = [&](int threads) {
    symref::api::RefgenRequest request;
    request.spec = spec;
    request.options.threads = threads;
    request.options.kernel = symref::sparse::ReplayKernel::kBatched;
    request.auto_linearize = engine_handle.has_devices();
    const Clock::time_point start = Clock::now();
    auto response = engine_service.refgen(engine_handle, request);
    if (!response.ok()) throw std::runtime_error("layer bench: refgen failed");
    return seconds_since(start);
  };
  (void)refgen_seconds(1);  // warm the spec's plan
  std::vector<double> t1;
  std::vector<double> tn;
  for (int rep = 0; rep < 3; ++rep) {
    t1.push_back(refgen_seconds(1));
    tn.push_back(refgen_seconds(t.threads));
  }
  out.set("refgen.t1_ms", 1e3 * median(t1));
  out.set("refgen.speedup_tN", median(t1) / median(tn));

  symref::support::ThreadPool pool(t.threads);
  std::atomic<int> counter{0};
  std::vector<double> dispatch_s;
  for (int rep = 0; rep < 400; ++rep) {
    const Clock::time_point start = Clock::now();
    pool.parallel_for(static_cast<std::size_t>(t.threads),
                      [&counter](std::size_t, std::size_t, int) {
                        counter.fetch_add(1, std::memory_order_relaxed);
                      });
    dispatch_s.push_back(seconds_since(start));
  }
  out.set("support.pool_dispatch_us", 1e6 * median(dispatch_s));

  // Cost of one span, to price the tracing itself.
  Tracer scratch;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < 20000; ++rep) {
    ScopedSpan span(scratch, "overhead", 0);
  }
  out.set("span_us", 1e6 * seconds_since(start) / 20000.0);
  return out;
}

int run_trace(const char* jobs_path, const char* spans_path, double budget_s, int threads) {
  Tracing t;
  t.threads = threads;
  const Clock::time_point start = Clock::now();
  std::string primary_key;
  symref::mna::TransferSpec primary_spec;
  for (const Json& job : read_jobs(jobs_path)) {
    const std::string& op = str(job, "op");
    const std::string& key = str(job, "key");
    const bool probe = job.find("probe") != nullptr && job.find("probe")->as_bool();
    // Past the budget only the fixed layer probes, set-up compiles and
    // evictions still run.
    if (!probe && (op == "run" || (op == "compile" && num(job, "rid") >= 0)) &&
        seconds_since(start) > budget_s) {
      continue;
    }
    Json record = Json::object();
    record.set("op", op);
    record.set("rid", num(job, "rid"));
    record.set("probe", probe);
    if (op == "compile") {
      const int rid = static_cast<int>(num(job, "rid"));
      const std::string& text = str(job, "netlist");
      {
        ScopedSpan span(t.tracer, "Service::compile_netlist", rid);
        auto compiled = t.service.compile_netlist(text);
        if (!compiled.ok()) throw std::runtime_error("trace: compile failed for " + key);
        t.handles[key] = compiled.take();
      }
      record.set("service_us", t.tracer.last_us());
      t.netlists[key] = text;
      replay_compile(t, text, t.handles[key], rid, record);
    } else if (op == "evict") {
      t.handles.erase(key);
      continue;
    } else if (op == "primary") {
      primary_key = key;
      auto spec = symref::api::spec_from_json(*job.find("spec"));
      if (!spec.ok()) throw std::runtime_error("trace: bad primary spec");
      primary_spec = spec.take();
      continue;
    } else if (op == "run") {
      trace_run(t, job, record);
    }
    std::printf("%s\n", record.dump().c_str());
  }
  if (!primary_key.empty()) {
    Json layers = layer_benches(t, primary_key, primary_spec);
    layers.set("op", "layers");
    std::printf("%s\n", layers.dump().c_str());
  }
  t.tracer.write(spans_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "oracle" && argc == 3) return run_oracle(argv[2]);
    if (mode == "parse" && argc == 3) return run_parse(argv[2]);
    if (mode == "host" && argc == 3) return run_host(std::max(1, std::atoi(argv[2])));
    if (mode == "trace" && argc == 6) {
      return run_trace(argv[2], argv[3], std::atof(argv[4]), std::max(1, std::atoi(argv[5])));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "refbench_probe %s: %s\n", mode.c_str(), error.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: refbench_probe oracle JOBS | trace JOBS SPANS SECONDS THREADS | "
               "parse FILE | host THREADS\n");
  return 2;
}
