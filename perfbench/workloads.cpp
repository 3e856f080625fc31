#include "workloads.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "analysis/experiment.hpp"
#include "core/spaden.hpp"
#include "matrix/dataset.hpp"
#include "matrix/generate.hpp"
#include "serve/registry.hpp"
#include "serve/replay.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using namespace spaden;
using Config = std::map<std::string, std::string>;

// --- workload sizes ---------------------------------------------------------
// paper-sweep: 12 in-scope matrices x 6 Fig-6 methods x 2 devices per pass.
constexpr double kSweepScale = 0.015625;
constexpr int kSweepSteady = 2;  // steady multiplies per (matrix, method, device)

// serve-fused: cant and consph are scaled so both keep nrow > 10,000, the
// §5.1 threshold above which the registry serves them with Spaden (fused
// tensor-core SpMM); the R-MAT graph stays on the CSR path.
constexpr double kServeScale = 0.1875;
constexpr unsigned kServeRmatScale = 10;
constexpr std::uint64_t kServeSubRequests = 192;
constexpr std::uint64_t kServeSatRequests = 96;
constexpr double kServeSubRate = 1e6;  // requests per modeled second
constexpr double kServeSatRate = 4e6;

// sharded-chain: a banded FEM matrix (small halo) and an R-MAT graph (halo
// spanning most of x), each multiplied in a normalised power-iteration chain.
constexpr double kChainScale = 0.125;
constexpr const char* kChainFem = "shipsec1";
constexpr unsigned kChainRmatScale = 14;
constexpr int kChainLength = 10;
constexpr int kChainDevices = 4;
constexpr int kChainSimThreads = 2;

// Paper §5.2 geomean speedups of Spaden over each Fig-6 baseline
// (bench/fig6_performance.cpp carries the same table).
const std::map<std::string, std::map<kern::Method, double>>& paper_speedups() {
  static const std::map<std::string, std::map<kern::Method, double>> kPaper = {
      {"L40",
       {{kern::Method::CusparseCsr, 1.63},
        {kern::Method::CusparseBsr, 3.37},
        {kern::Method::LightSpmv, 2.68},
        {kern::Method::Gunrock, 2.82},
        {kern::Method::Dasp, 2.32}}},
      {"V100",
       {{kern::Method::CusparseCsr, 1.30},
        {kern::Method::CusparseBsr, 2.21},
        {kern::Method::LightSpmv, 1.86},
        {kern::Method::Gunrock, 2.58},
        {kern::Method::Dasp, 1.20}}},
  };
  return kPaper;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

void stamp(Config& c, const EngineOptions& o, double scale) {
  c["scale"] = fmt(scale);
  c["sim_threads"] = std::to_string(o.sim_threads);
  c["devices"] = std::to_string(o.num_devices);
  c["sched"] = std::string(sim::sched_policy_name(o.sched.policy)) +
               (o.sched.window > 0 ? ":" + std::to_string(o.sched.window) : "");
  c["shared_l2"] = o.shared_l2 ? "1" : "0";
  c["link"] = sim::default_link_preset();
  c["verify_format"] = o.verify_format ? "1" : "0";
}

/// p-quantile by nearest rank of an unsorted sample (exact, not bucketed).
double quantile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// matrix layer: synthesis calls.
struct MatrixTotals {
  double synth_s = 0;
  double nnz = 0;

  void emit(Sample& out) const {
    out["matrix.synth_s"] = synth_s;
    out["matrix.synth_nnz_per_s"] = ratio(nnz, synth_s);
  }
};

/// core layer: engine construction (conversion) and the verifying multiply.
struct CoreTotals {
  double construct_s = 0;
  double verify_s = 0;
  double prep_s = 0;
  double prep_nnz = 0;
  double footprint_bytes = 0;

  void add_engine(const SpmvEngine& e) {
    prep_s += e.prep().seconds;
    prep_nnz += static_cast<double>(e.nnz());
    footprint_bytes += static_cast<double>(e.prep().footprint.total_bytes());
  }
  void emit(Sample& out) const {
    out["core.construct_s"] = construct_s;
    out["core.verify_s"] = verify_s;
    out["core.convert_ns_per_nnz"] = ratio(prep_s * 1e9, prep_nnz);
    out["core.footprint_bytes_per_nnz"] = ratio(footprint_bytes, prep_nnz);
  }
};

/// gpusim + tensorcore layers: counters summed over the steady launches,
/// read from SpmvResult, plus the host seconds of those multiply calls.
struct LaunchTotals {
  sim::KernelStats stats;
  sim::TimeBreakdown time;
  std::map<std::string, double> bound_by;
  double host_s = 0;
  double nnz = 0;
  double useful_tc_flops = 0;  // 2*nnz of the launches that issued MMAs

  void add(const SpmvResult& r, std::size_t matrix_nnz, double host_seconds) {
    stats += r.stats;
    time.t_dram += r.time.t_dram;
    time.t_l2 += r.time.t_l2;
    time.t_lsu += r.time.t_lsu;
    time.t_cuda += r.time.t_cuda;
    time.t_tc += r.time.t_tc;
    time.t_stall += r.time.t_stall;
    time.t_comm += r.time.t_comm;
    time.t_launch += r.time.t_launch;
    bound_by[r.time.bound_by()] += 1;
    host_s += host_seconds;
    nnz += static_cast<double>(matrix_nnz);
    if (r.stats.tc_flops() > 0) {
      useful_tc_flops += 2.0 * static_cast<double>(matrix_nnz);
    }
  }

  void emit(Sample& out) const {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    out["core.multiply_s"] = host_s;
    out["gpusim.warps"] = d(stats.warps_launched);
    out["gpusim.mem_instructions"] = d(stats.mem_instructions);
    out["gpusim.wavefronts"] = d(stats.wavefronts);
    out["gpusim.stall_cycles"] = d(stats.exposed_stall_cycles);
    out["gpusim.warps_per_s"] = ratio(d(stats.warps_launched), host_s);
    out["gpusim.l1_hit_frac"] =
        ratio(d(stats.l1_hit_bytes), d(stats.l1_hit_bytes) + d(stats.l2_bytes()));
    out["gpusim.l2_hit_frac"] = ratio(d(stats.l2_hit_bytes), d(stats.l2_bytes()));
    out["gpusim.dram_bytes_per_nnz"] = ratio(d(stats.dram_bytes), nnz);
    out["gpusim.t_dram_s"] = time.t_dram;
    out["gpusim.t_l2_s"] = time.t_l2;
    out["gpusim.t_lsu_s"] = time.t_lsu;
    out["gpusim.t_cuda_s"] = time.t_cuda;
    out["gpusim.t_tc_s"] = time.t_tc;
    out["gpusim.t_stall_s"] = time.t_stall;
    out["gpusim.t_comm_s"] = time.t_comm;
    out["gpusim.t_launch_s"] = time.t_launch;
    for (const auto& [term, count] : bound_by) {
      out["gpusim.bound_by." + term] = count;
    }
    out["gpusim.remote_sectors"] = d(stats.remote_sectors);
    out["gpusim.comm_stall_cycles"] = d(stats.comm_stall_cycles);
    out["tensorcore.mma"] = d(stats.tc_mma_m16n16k16 + stats.tc_mma_m8n8k4);
    out["tensorcore.useful_frac"] = ratio(useful_tc_flops, stats.tc_flops());
  }
};

double tolerance_for(const mat::Csr& a, kern::Method m) {
  return kern::spmv_tolerance(a, half_valued(m));
}

// --- paper-sweep ------------------------------------------------------------

void paper_sweep(PassContext& ctx, Config& config) {
  EngineOptions base;
  base.sim_threads = 1;
  base.num_devices = 1;
  stamp(config, base, kSweepScale);

  Tracer& tr = ctx.tracer;
  MatrixTotals mt;
  CoreTotals ct;
  LaunchTotals lt;
  // gflops[device][method]: one value per matrix, from the last steady launch.
  std::map<std::string, std::map<kern::Method, std::vector<double>>> gflops;
  std::vector<double> all_gflops;
  const std::vector<mat::DatasetInfo> infos = mat::in_scope_datasets();
  const std::vector<sim::DeviceSpec> devices = {sim::l40(), sim::v100()};

  for (std::size_t i = 0; i < infos.size(); ++i) {
    const std::uint64_t matrix_op = tr.new_op();
    mat::Csr a;
    mt.synth_s += tr.time("matrix.synthesize", matrix_op, [&] {
      a = mat::synthesize(infos[i].profile, kSweepScale, mix_seed(ctx.seed, i));
    });
    mt.nnz += static_cast<double>(a.nnz());
    // xs[0] feeds the verifying multiply, xs[1..] the steady ones.
    std::vector<std::vector<float>> xs;
    for (int s = 0; s <= kSweepSteady; ++s) {
      const auto stream = 1000 + 64 * i + static_cast<std::size_t>(s);
      xs.push_back(random_x(a.ncols, mix_seed(ctx.seed, stream)));
    }
    std::vector<double> ref;
    double tol_half = 0;
    double tol_full = 0;
    tr.time("bench.check", matrix_op, [&] {
      ref = mat::spmv_reference(a, xs.back());
      tol_half = kern::spmv_tolerance(a, true);
      tol_full = kern::spmv_tolerance(a, false);
    });

    for (const sim::DeviceSpec& spec : devices) {
      for (const kern::Method m : kern::figure6_methods()) {
        const std::uint64_t op = tr.new_op();
        const std::string what =
            infos[i].name() + "/" + std::string(kern::method_name(m)) + "/" + spec.name;
        EngineOptions opts = base;
        opts.method = m;
        opts.device = spec;
        try {
          std::unique_ptr<SpmvEngine> engine;
          ct.construct_s += tr.time("core.construct", op,
                                    [&] { engine = std::make_unique<SpmvEngine>(a, opts); });
          ct.add_engine(*engine);
          std::vector<float> y;
          ct.verify_s += tr.time("core.verify", op, [&] { (void)engine->multiply(xs[0], y); });
          SpmvResult r;
          for (int s = 1; s <= kSweepSteady; ++s) {
            const std::vector<float>& x = xs[static_cast<std::size_t>(s)];
            const double cpu =
                tr.time("core.multiply", op, [&] { r = engine->multiply(x, y); });
            lt.add(r, a.nnz(), cpu);
          }
          tr.time("bench.check", op, [&] {
            ctx.checker.check_spmv(ref, y, half_valued(m) ? tol_half : tol_full, what);
          });
          gflops[spec.name][m].push_back(r.gflops);
          all_gflops.push_back(r.gflops);
        } catch (const std::exception& e) {
          ctx.checker.fail(what + ": " + e.what());
        }
      }
    }
  }

  Sample& out = ctx.out;
  out["setup_s"] = mt.synth_s + ct.construct_s + ct.verify_s;
  mt.emit(out);
  ct.emit(out);
  lt.emit(out);
  if (ctx.checker.failed > 0) {
    return;  // incomplete series; a failed run reports no metric
  }
  out["modeled_gflops"] = analysis::geomean(all_gflops);
  double log_err = 0;
  int claims = 0;
  for (const sim::DeviceSpec& spec : devices) {
    const auto& per_method = gflops[spec.name];
    const std::vector<double>& spaden = per_method.at(kern::Method::Spaden);
    for (const kern::Method m : kern::figure6_methods()) {
      out["kernels.gflops." + method_slug(m) + "." + lower(spec.name)] =
          analysis::geomean(per_method.at(m));
      if (m != kern::Method::Spaden) {
        const double modeled = analysis::geomean_speedup(spaden, per_method.at(m));
        log_err += std::abs(std::log(modeled / paper_speedups().at(spec.name).at(m)));
        ++claims;
      }
    }
    out["spaden_gflops_" + lower(spec.name)] = analysis::geomean(spaden);
  }
  out["paper_log_err"] = log_err / claims;
}

// --- serve-fused ------------------------------------------------------------

struct Stream {
  serve::ServeReport report;
  double drain_s = 0;
};

void serve_fused(PassContext& ctx, Config& config) {
  Tracer& tr = ctx.tracer;
  const serve::RegistryConfig registry_config;
  serve::MatrixRegistry registry(registry_config);
  stamp(config, registry_config.engine, kServeScale);
  config["serve.max_batch"] = std::to_string(serve::ServeConfig{}.max_batch);
  config["serve.window_us"] = fmt(serve::ServeConfig{}.window_seconds * 1e6);
  config["serve.budget_mb"] = fmt(static_cast<double>(registry.budget_bytes()) / (1 << 20));

  MatrixTotals mt;
  CoreTotals ct;
  double add_s = 0;
  const std::vector<std::string> names = {"cant", "consph", "rmat"};
  std::vector<serve::Handle> handles;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::uint64_t op = tr.new_op();
    const std::uint64_t seed = mix_seed(ctx.seed, 100 + i);
    mat::Csr a;
    mt.synth_s += tr.time("matrix.synthesize", op, [&] {
      a = names[i] == "rmat"
              ? mat::Csr::from_coo(mat::rmat(kServeRmatScale, 8.0, seed))
              : mat::synthesize(mat::dataset_by_name(names[i]).profile, kServeScale, seed);
    });
    mt.nnz += static_cast<double>(a.nnz());
    add_s += tr.time("serve.add", op,
                     [&] { handles.push_back(registry.add(names[i], std::move(a))); });
  }
  // Warm-up, counted as set-up: acquire (convert + upload) each matrix and run
  // one verifying multiply before any stream drains.
  std::vector<double> tolerance(handles.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const std::uint64_t op = tr.new_op();
    try {
      SpmvEngine* engine = nullptr;
      ct.construct_s +=
          tr.time("serve.acquire", op, [&] { engine = &registry.acquire(handles[i]); });
      ct.add_engine(*engine);
      const std::vector<float> x = random_x(engine->ncols(), mix_seed(ctx.seed, 110 + i));
      std::vector<float> y;
      ct.verify_s += tr.time("core.verify", op, [&] { (void)engine->multiply(x, y); });
      tolerance[i] =
          tolerance_for(registry.matrix_of(handles[i]), registry.method_of(handles[i]));
    } catch (const std::exception& e) {
      ctx.checker.fail(names[i] + " warm-up: " + e.what());
    }
  }

  const auto play = [&](std::uint64_t count, double rate, std::uint64_t stream_id) {
    Stream s;
    serve::ReplaySpec spec;
    spec.seed = mix_seed(ctx.seed, stream_id);
    spec.requests = count;
    spec.arrival_rate = rate;
    const std::uint64_t op = tr.new_op();
    try {
      const std::vector<serve::Request> stream =
          serve::synthesize_stream(spec, registry, handles);
      serve::SpmvServer server(registry);
      for (const serve::Request& r : stream) {
        server.submit(r);
      }
      s.drain_s = tr.time("serve.drain", op, [&] { s.report = server.drain(); });
      tr.time("bench.check", op, [&] {
        for (const serve::RequestResult& res : s.report.results) {
          const serve::Request& req = stream.at(res.id);
          const std::size_t h = static_cast<std::size_t>(
              std::find(handles.begin(), handles.end(), res.handle) - handles.begin());
          ctx.checker.check_spmv(mat::spmv_reference(registry.matrix_of(res.handle), req.x),
                                 res.y, tolerance.at(h),
                                 "request " + std::to_string(res.id) + " (" +
                                     registry.name_of(res.handle) + ")");
        }
        if (s.report.results.size() != stream.size()) {
          ctx.checker.fail("stream " + std::to_string(stream_id) + ": " +
                           std::to_string(s.report.results.size()) + " of " +
                           std::to_string(stream.size()) + " requests served");
        }
      });
    } catch (const std::exception& e) {
      ctx.checker.fail("stream " + std::to_string(stream_id) + ": " + e.what());
    }
    return s;
  };
  const Stream sub = play(kServeSubRequests, kServeSubRate, 200);
  const Stream sat = play(kServeSatRequests, kServeSatRate, 201);

  Sample& out = ctx.out;
  out["setup_s"] = mt.synth_s + add_s + ct.construct_s + ct.verify_s;
  mt.emit(out);
  ct.emit(out);
  // Latency runs from each request's due (arrival) time to its finish; the
  // generator cannot run late because arrivals are modeled timestamps.
  std::vector<double> latency;
  std::vector<double> queue;
  for (const serve::RequestResult& r : sub.report.results) {
    latency.push_back(r.finish_seconds - r.arrival_seconds);
    queue.push_back(r.queue_seconds);
  }
  out["serve_p50_ms"] = quantile(latency, 0.50) * 1e3;
  out["serve_p99_ms"] = quantile(latency, 0.99) * 1e3;
  out["serve.latency_samples"] = static_cast<double>(latency.size());
  out["serve.queue_p99_ms"] = quantile(queue, 0.99) * 1e3;
  out["serve.device_busy_frac"] = ratio(sub.report.busy_seconds, sub.report.makespan_seconds);

  const serve::ServeReport& r = sat.report;
  const auto requests = static_cast<double>(r.requests);
  // Capacity is requests per modeled busy second: the saturating stream keeps
  // batches full, and dividing by busy time rather than makespan keeps the
  // final partial-window drain of a finite stream out of the figure.
  out["serve_capacity_rps"] = ratio(requests, r.busy_seconds);
  // Throughput of the fused tensor-core launches: the Spaden-served matrices
  // over both streams. The R-MAT graph runs on CSR, one launch per column,
  // and its request count swings with the seed; leaving it out keeps the
  // figure a property of the SpMM kernel and the batch former.
  double fused_flops = 0;
  double fused_seconds = 0;
  for (const serve::ServeReport* rep : {&sub.report, &r}) {
    for (const auto& [handle, agg] : rep->per_matrix) {
      if (registry.method_of(handle) == kern::Method::Spaden) {
        fused_flops += agg.useful_flops;
        fused_seconds += agg.service_seconds;
      }
    }
  }
  out["modeled_gflops"] = ratio(fused_flops, fused_seconds) * 1e-9;
  out["serve.batches"] = static_cast<double>(r.batches);
  out["serve.fused_frac"] =
      ratio(static_cast<double>(r.fused_batches), static_cast<double>(r.batches));
  out["serve.mean_width"] = ratio(requests, static_cast<double>(r.batches));
  out["serve.service_ms_per_req"] = ratio(r.busy_seconds * 1e3, requests);
  out["serve.tc_useful_frac"] = r.tc_utilization();
  // The fused path issues only m16n16k16 MMAs (2*16*16*16 flops each).
  out["tensorcore.mma"] = r.tc_flops / 8192.0;
  out["tensorcore.useful_frac"] = r.tc_utilization();

  out["serve.drain_s"] = sub.drain_s + sat.drain_s;
  out["serve.host_rps"] =
      ratio(static_cast<double>(sub.report.requests + r.requests), sub.drain_s + sat.drain_s);
  const serve::RegistryStats& rs = registry.stats();
  out["serve.prepares"] = static_cast<double>(rs.prepares);
  out["serve.hits"] = static_cast<double>(rs.hits);
  out["serve.evictions"] = static_cast<double>(rs.evictions);
}

// --- sharded-chain ----------------------------------------------------------

void sharded_chain(PassContext& ctx, Config& config) {
  EngineOptions base;
  base.num_devices = kChainDevices;
  base.sim_threads = kChainSimThreads;
  stamp(config, base, kChainScale);

  Tracer& tr = ctx.tracer;
  MatrixTotals mt;
  CoreTotals ct;
  LaunchTotals lt;
  std::vector<double> gflops;
  double repeat_mismatch = 0;

  struct Chain {
    std::string name;
    std::optional<kern::Method> method;  // nullopt = Auto selection
  };
  const std::vector<Chain> chains = {{kChainFem, kern::Method::Spaden}, {"rmat", std::nullopt}};
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const std::uint64_t op = tr.new_op();
    const std::uint64_t seed = mix_seed(ctx.seed, 300 + i);
    mat::Csr a;
    mt.synth_s += tr.time("matrix.synthesize", op, [&] {
      a = chains[i].name == "rmat"
              ? mat::Csr::from_coo(mat::rmat(kChainRmatScale, 8.0, seed))
              : mat::synthesize(mat::dataset_by_name(chains[i].name).profile, kChainScale,
                                seed);
    });
    mt.nnz += static_cast<double>(a.nnz());
    EngineOptions opts = base;
    opts.method = chains[i].method;
    try {
      std::unique_ptr<SpmvEngine> engine;
      ct.construct_s +=
          tr.time("core.construct", op,
                  [&] { engine = std::make_unique<SpmvEngine>(a, opts); });
      ct.add_engine(*engine);
      const std::vector<float> x0 = random_x(a.ncols, mix_seed(ctx.seed, 310 + i));
      std::vector<float> x = x0;
      std::vector<float> y;
      ct.verify_s += tr.time("core.verify", op, [&] { (void)engine->multiply(x, y); });
      // Iterative-solver access pattern: each x is the previous y scaled to
      // max |x| = 1 (the range the fp64-reference tolerance assumes).
      SpmvResult first;
      for (int step = 0; step < kChainLength; ++step) {
        if (step > 0) {
          float norm = 0;
          for (const float v : y) {
            norm = std::max(norm, std::abs(v));
          }
          if (norm > 0) {
            for (std::size_t k = 0; k < x.size(); ++k) {
              x[k] = y[k] / norm;
            }
          }
        }
        SpmvResult r;
        const double host = tr.time("core.multiply", op, [&] { r = engine->multiply(x, y); });
        lt.add(r, a.nnz(), host);
        gflops.push_back(r.gflops);
        if (step == 0) {
          first = r;
        }
      }
      tr.time("bench.check", op, [&] {
        ctx.checker.check_spmv(mat::spmv_reference(a, x), y,
                               tolerance_for(a, engine->chosen_method()),
                               chains[i].name + " chain");
      });
      // Determinism probe: a second engine replays the chain's opening calls
      // with identical inputs. A modeled result that is a pure function of
      // (matrix, method, device, config) repeats its time and counters.
      engine.reset();
      tr.time("bench.repeat", op, [&] {
        SpmvEngine replay(a, opts);
        std::vector<float> y_again;
        (void)replay.multiply(x0, y_again);
        const SpmvResult again = replay.multiply(x0, y_again);
        if (again.modeled_seconds != first.modeled_seconds || !(again.stats == first.stats)) {
          repeat_mismatch += 1;
        }
      });
    } catch (const std::exception& e) {
      ctx.checker.fail(chains[i].name + " chain: " + e.what());
    }
  }

  Sample& out = ctx.out;
  out["setup_s"] = mt.synth_s + ct.construct_s + ct.verify_s;
  mt.emit(out);
  ct.emit(out);
  lt.emit(out);
  out["gpusim.repeat_mismatch"] = repeat_mismatch;
  if (ctx.checker.failed > 0) {
    return;
  }
  out["sharded_gflops"] = analysis::geomean(gflops);
  out["modeled_gflops"] = out["sharded_gflops"];
}

}  // namespace

std::string method_slug(kern::Method m) {
  std::string s = lower(std::string(kern::method_name(m)));
  std::replace(s.begin(), s.end(), ' ', '-');
  return s;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper-sweep", 17.0, paper_sweep},
      {"serve-fused", 10.0, serve_fused},
      {"sharded-chain", 5.0, sharded_chain},
  };
  return kWorkloads;
}

}  // namespace perfbench
