// perfbench — the repository benchmark program.
//
//   perfbench --workload <paper-sweep|serve-fused|sharded-chain> --seed <n>
//             --seconds <s> --trace <0|1> --out <dir> [--git <describe>]
//
// Runs passes of one workload for about --seconds, checks every output
// against the fp64 reference, and prints one JSON result object as its last
// line of stdout: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. A traced run alternates untraced and traced passes
// so the tracing overhead is the difference of their median CPU times. The
// resolved configuration, every metric and (traced) a chrome trace of the
// spans are written under --out, which is checked for writability before
// any work starts.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/parse.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"cpu_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"modeled_gflops", "GFLOP/s"},
  };
  return kDefs;
}

/// Every per-layer metric, printed by each traced run. A layer the workload
/// does not exercise reports 0.
const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d = {
        {"spaden_gflops_l40", "GFLOP/s"},
        {"spaden_gflops_v100", "GFLOP/s"},
        {"paper_log_err", "1"},
        {"serve_capacity_rps", "req/s"},
        {"serve_p50_ms", "ms"},
        {"serve_p99_ms", "ms"},
        {"sharded_gflops", "GFLOP/s"},
        {"wall_s", "s"},
        {"matrix.synth_s", "s"},
        {"matrix.synth_nnz_per_s", "nnz/s"},
        {"core.construct_s", "s"},
        {"core.convert_ns_per_nnz", "ns"},
        {"core.footprint_bytes_per_nnz", "B"},
        {"core.verify_s", "s"},
        {"core.multiply_s", "s"},
        {"gpusim.warps", "count"},
        {"gpusim.mem_instructions", "count"},
        {"gpusim.wavefronts", "count"},
        {"gpusim.stall_cycles", "cycles"},
        {"gpusim.warps_per_s", "1/s"},
        {"gpusim.l1_hit_frac", "ratio"},
        {"gpusim.l2_hit_frac", "ratio"},
        {"gpusim.dram_bytes_per_nnz", "B"},
    };
    for (const char* term : {"dram", "l2", "lsu", "cuda", "tc", "stall", "comm", "launch"}) {
      d.push_back({std::string("gpusim.t_") + term + "_s", "s"});
    }
    for (const char* term : {"dram", "l2", "lsu", "cuda", "tc", "stall", "comm", "launch"}) {
      d.push_back({std::string("gpusim.bound_by.") + term, "count"});
    }
    d.insert(d.end(), {
                          {"gpusim.remote_sectors", "count"},
                          {"gpusim.comm_stall_cycles", "cycles"},
                          {"gpusim.repeat_mismatch", "count"},
                          {"tensorcore.mma", "count"},
                          {"tensorcore.useful_frac", "ratio"},
                      });
    for (const char* device : {"l40", "v100"}) {
      for (const spaden::kern::Method m : spaden::kern::figure6_methods()) {
        d.push_back({"kernels.gflops." + method_slug(m) + "." + device, "GFLOP/s"});
      }
    }
    d.insert(d.end(), {
                          {"serve.drain_s", "s"},
                          {"serve.host_rps", "req/s"},
                          {"serve.batches", "count"},
                          {"serve.fused_frac", "ratio"},
                          {"serve.mean_width", "req"},
                          {"serve.service_ms_per_req", "ms"},
                          {"serve.device_busy_frac", "ratio"},
                          {"serve.tc_useful_frac", "ratio"},
                          {"serve.queue_p99_ms", "ms"},
                          {"serve.prepares", "count"},
                          {"serve.hits", "count"},
                          {"serve.evictions", "count"},
                          {"serve.latency_samples", "count"},
                          {"trace.overhead_s", "s"},
                      });
    for (const char* span :
         {"bench.pass", "bench.check", "bench.repeat", "matrix.synthesize", "core.construct",
          "core.verify", "core.multiply", "serve.add", "serve.acquire", "serve.drain"}) {
      d.push_back({std::string("self_s.") + span, "s"});
    }
    return d;
  }();
  return kDefs;
}

/// Per-layer metrics an untraced run also prints and records when its
/// workload produces them: the workloads' modeled headline numbers and the
/// pass wall time.
const std::vector<std::string>& workload_headlines() {
  static const std::vector<std::string> kNames = {
      "spaden_gflops_l40", "spaden_gflops_v100", "paper_log_err", "serve_capacity_rps",
      "serve_p50_ms",      "serve_p99_ms",       "sharded_gflops", "wall_s"};
  return kNames;
}

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "--out <dir> [--git <describe>]\n"
               "workloads:",
               problem.c_str());
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out;
  std::string git = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : workloads()) {
        if (w.name == std::string(value)) {
          a.workload = &w;
        }
      }
      if (a.workload == nullptr) {
        usage(std::string("unknown workload '") + value + "'");
      }
    } else if (flag == "--seed") {
      const auto v = spaden::parse_long(value);
      if (!v || *v < 0) {
        usage(std::string("bad --seed '") + value + "'");
      }
      a.seed = static_cast<std::uint64_t>(*v);
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto v = spaden::parse_double(value);
      if (!v || !(*v > 0) || *v > 3600) {
        usage(std::string("bad --seconds '") + value + "'");
      }
      a.seconds = *v;
    } else if (flag == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") {
        usage(std::string("bad --trace '") + value + "'");
      }
      a.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--git") {
      a.git = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload == nullptr || !have_seed || a.seconds <= 0 || !have_trace || a.out.empty()) {
    usage("--workload, --seed, --seconds, --trace and --out are required");
  }
  return a;
}

/// Fail before any work when results could not be written at the end.
void preflight(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path probe = std::filesystem::path(dir) / ".perfbench-probe";
  bool ok = !ec;
  if (ok) {
    std::ofstream f(probe);
    ok = static_cast<bool>(f << "ok");
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: output directory '%s' is not writable%s%s\n", dir.c_str(),
                 ec ? ": " : "", ec ? ec.message().c_str() : "");
    std::exit(2);
  }
  std::filesystem::remove(probe, ec);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double median_of(const std::vector<Sample>& samples, const std::string& name) {
  std::vector<double> v;
  for (const Sample& s : samples) {
    const auto it = s.find(name);
    if (it != s.end()) {
      v.push_back(it->second);
    }
  }
  return median(std::move(v));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write '%s'\n", path.c_str());
    std::exit(2);
  }
}

void write_metrics(spaden::JsonWriter& w,
                   const std::vector<std::pair<MetricDef, double>>& metrics) {
  w.key("metrics");
  w.begin_object();
  for (const auto& [m, v] : metrics) {
    w.key(m.name);
    w.begin_object();
    w.field("value", v);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

std::string chrome_trace(const Tracer& tracer,
                         const std::map<std::string, std::string>& config) {
  spaden::JsonWriter w(false);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  const std::int64_t t0 = tracer.spans().empty() ? 0 : tracer.spans().front().start_ns;
  for (const Span& s : tracer.spans()) {
    w.begin_object();
    w.field("name", s.name);
    w.field("ph", "X");
    w.field("ts", static_cast<double>(s.start_ns - t0) * 1e-3);
    w.field("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    w.field("pid", 1);
    w.field("tid", 1);
    w.key("args");
    w.begin_object();
    w.field("op", s.op);
    w.field("parent", s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("otherData");
  w.begin_object();
  for (const auto& [k, v] : config) {
    w.field(k, v);
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  preflight(args.out);

  std::map<std::string, std::string> config = {
      {"workload", args.workload->name},
      {"seed", std::to_string(args.seed)},
      {"trace", args.trace ? "1" : "0"},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", compiler()},
      {"git", args.git},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
  };
  char seconds_text[32];
  std::snprintf(seconds_text, sizeof(seconds_text), "%g", args.seconds);
  config["seconds"] = seconds_text;

  Tracer tracer;
  Checker checker;
  std::vector<Sample> plain;
  std::vector<Sample> traced;
  // A run makes --seconds / nominal_pass_seconds passes, at least two; the
  // count depends only on the arguments, so every run of a workload medians
  // over the same mix of its cold first pass and warm later ones. Only a host
  // far slower than the reference host (first pass over twice the nominal
  // time) gets fewer passes, to keep the run near --seconds. A traced run
  // starts with an untraced warm-up pass reported nowhere, then alternates
  // traced and untraced passes, as many of each.
  const auto planned = [&](double pass_seconds) {
    const auto n = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(std::llround(args.seconds / pass_seconds)));
    return args.trace ? 1 + 2 * std::max<std::uint64_t>(1, n / 2) : n;
  };
  const double nominal = args.workload->nominal_pass_seconds;
  std::uint64_t passes = planned(nominal);
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    const bool traced_pass = args.trace && pass % 2 == 1;
    tracer.set_recording(traced_pass);
    const std::size_t mark = tracer.mark();
    Sample s;
    PassContext ctx{args.seed, tracer, checker, s};
    const double cpu = tracer.time("bench.pass", tracer.new_op(), [&] {
      try {
        args.workload->run_pass(ctx, config);
      } catch (const std::exception& e) {
        checker.fail(std::string("pass ") + std::to_string(pass) + ": " + e.what());
      }
    });
    s["cpu_s"] = cpu;
    s["wall_s"] = tracer.last_wall_seconds();
    if (traced_pass) {
      for (const auto& [name, seconds] : tracer.self_seconds(mark)) {
        s["self_s." + name] = seconds;
      }
      traced.push_back(std::move(s));
    } else if (!args.trace || pass > 0) {
      plain.push_back(std::move(s));
    }
    if (checker.failed > 0) {
      break;
    }
    if (pass == 0 && tracer.last_wall_seconds() > 2 * nominal) {
      passes = std::min(passes, planned(tracer.last_wall_seconds()));
    }
  }

  const bool correct = checker.failed == 0;
  for (const std::string& f : checker.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }

  // (metric, value) pairs: `reported` goes on the result line, `shown` also
  // holds the per-layer headlines an untraced run prints and records.
  std::vector<std::pair<MetricDef, double>> reported;
  std::vector<std::pair<MetricDef, double>> shown;
  if (correct) {
    if (args.trace) {
      for (const MetricDef& m : per_layer_metrics()) {
        const double v = m.name == "trace.overhead_s"
                             ? median_of(traced, "cpu_s") - median_of(plain, "cpu_s")
                             : median_of(traced, m.name);
        reported.emplace_back(m, v);
      }
    } else {
      for (const MetricDef& m : end_to_end_metrics()) {
        const double v = m.name == "peak_rss_mb" ? peak_rss_mb() : median_of(plain, m.name);
        reported.emplace_back(m, v);
      }
    }
    shown = reported;
    if (!args.trace) {
      const auto& names = workload_headlines();
      for (const MetricDef& m : per_layer_metrics()) {
        if (std::find(names.begin(), names.end(), m.name) != names.end() &&
            plain.front().count(m.name) > 0) {
          shown.emplace_back(m, median_of(plain, m.name));
        }
      }
    }
  }

  // Human-readable report.
  std::printf("perfbench %s: %zu untraced + %zu traced passes, %llu checked, %llu failed\n",
              args.workload->name, plain.size(), traced.size(),
              static_cast<unsigned long long>(checker.attempted),
              static_cast<unsigned long long>(checker.failed));
  for (const auto& [k, v] : config) {
    std::printf("  config %-16s %s\n", k.c_str(), v.c_str());
  }
  if (std::string(args.workload->name) == "serve-fused") {
    std::printf("  note: serve latency runs from each request's due time; generator "
                "lateness is 0 by construction (arrivals are modeled timestamps)\n");
  }
  for (const auto& [m, v] : shown) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), v, m.unit.c_str());
  }

  // Result file: resolved config plus every metric, so runs made under
  // different configurations are never compared silently.
  const std::string stem = std::string(args.workload->name) + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  const std::filesystem::path dir(args.out);
  std::string trace_file;
  if (args.trace) {
    trace_file = (dir / (stem + ".trace.json")).string();
    write_file(trace_file, chrome_trace(tracer, config));
  }
  {
    spaden::JsonWriter w;
    w.begin_object();
    w.field("schema", "perfbench-result-v1");
    w.key("config");
    w.begin_object();
    for (const auto& [k, v] : config) {
      w.field(k, v);
    }
    w.end_object();
    w.field("correct", correct);
    w.field("attempted", checker.attempted);
    w.field("failed", checker.failed);
    // Per-pass host times, to tell drift within a run from drift between runs.
    for (const auto& [key, samples] : {std::pair{"untraced_passes", &plain},
                                       std::pair{"traced_passes", &traced}}) {
      w.key(key);
      w.begin_array();
      for (const Sample& pass : *samples) {
        w.begin_object();
        w.field("cpu_s", pass.at("cpu_s"));
        w.field("wall_s", pass.at("wall_s"));
        w.end_object();
      }
      w.end_array();
    }
    w.field("chrome_trace", trace_file);
    write_metrics(w, shown);
    w.end_object();
    write_file(dir / (stem + ".json"), w.take() + "\n");
  }

  // Last line: the machine-readable result.
  spaden::JsonWriter w(false);
  w.begin_object();
  w.field("correct", correct);
  w.field("attempted", checker.attempted);
  w.field("failed", checker.failed);
  write_metrics(w, reported);
  w.end_object();
  std::printf("%s\n", w.take().c_str());
  return correct ? 0 : 1;
}
