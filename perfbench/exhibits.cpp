// Exhibit benchmark runner: runs one paper-exhibit workload in-process and
// reports host times, the exhibit CSV bytes of every pass, and (traced mode)
// a per-layer split.
//
//   perfbench_exhibits --workload NAME --seed N --seconds S --trace 0|1
//                      --out DIR [--threads-cap N] [--tiny] [--plant-mismatch]
//
// Phases:
//   set-up   program generation (campaigns), generation + predecode
//            (characterize) or a stream-cache fill into a fresh private
//            directory (coverage_sweep); repeated (see kMinSetupReps), the
//            last kept.
//   timed    whole exhibit passes, repeated until --seconds have elapsed
//            (at least two, so every run can check pass-to-pass identity).
//            Each campaign pass constructs its FaultInjectionCampaigns
//            afresh, as fig08 does, so no per-campaign work is amortized
//            over passes; coverage_sweep passes call figlib's
//            coverage_sweep_table itself.  Observability stays off.  Pass
//            k's CSV goes to DIR/pass-k.csv.
//   traced   (--trace 1) one more pass with the stats registry on
//            (DIR/traced.csv, DIR/stats.json with the architectural metrics),
//            then probes that time each layer's public entry point on the
//            same inputs where the layer runs inside a bigger call.
//
// Layer times come only from this file's clocks around public calls; the
// program itself is not instrumented further.  One JSON object of raw
// measurements goes to stdout; perfbench/run.py checks the CSV bytes and
// turns the measurements into the metrics named in BENCHMARK.json.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "figlib.hpp"
#include "fi/classify.hpp"
#include "fi/prune.hpp"
#include "fi/service.hpp"
#include "isa/predecode.hpp"
#include "itr/sweep_engine.hpp"
#include "obs/registry.hpp"
#include "sim/functional.hpp"
#include "sim/golden_stream.hpp"
#include "sim/pipeline.hpp"
#include "trace/analysis.hpp"
#include "trace/trace_builder.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/spec_profiles.hpp"
#include "workload/stream_cache.hpp"

namespace {

using namespace itr;
using Clock = std::chrono::steady_clock;

// Set-up repeats at least kMinSetupReps times and until kMinSetupSeconds
// have been spent, so that a cheap set-up still yields a steady median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 1000;
constexpr double kMinSetupSeconds = 1.0;
constexpr std::uint64_t kCycleProbeInsns = 250'000;  // per benchmark
constexpr int kSnapshotProbeReps = 200;               // per benchmark

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` and adds its wall time to `acc`.
template <typename Fn>
decltype(auto) timed(double& acc, Fn&& fn) {
  struct Add {
    double& acc;
    Clock::time_point t0 = Clock::now();
    ~Add() { acc += seconds_since(t0); }
  } add{acc};
  return fn();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so that a
/// pass's peak excludes what came before it.  False when unsupported.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// Peak RSS in KiB: VmHWM (since the last reset), else the process peak.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---- Workloads ----------------------------------------------------------------

enum class Kind { kCampaign, kSweep, kCharacterize };

/// One exhibit at fixed flags.  Each maps onto an exhibit binary invocation
/// (perfbench/pin.py), which is how the pinned digests were taken.
struct Workload {
  std::string name;
  Kind kind = Kind::kCampaign;
  std::vector<std::string> benchmarks;
  std::uint64_t insns = 0;
  std::uint64_t faults = 0;       // campaigns
  std::uint64_t window = 0;       // campaigns
  std::uint64_t fault_seed = 0;   // campaigns
  unsigned threads = 1;
};

std::vector<std::string> first_n(const std::vector<std::string>& all, std::size_t n) {
  return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(std::min(n, all.size()))};
}

/// The seed picks the instruction count of the sweep and characterization
/// exhibits (+0..15k; seed 1 adds nothing), which moves their work by under
/// 1%.  Campaigns run fig08's own input (fault seed 1) at every seed: the
/// fault plan alone moves campaign_deep's divergent-replica work by about
/// +-8% (so does a few-thousand-instruction change of the program), which
/// would swamp any change a later commit makes.  Sizes keep one pass near a
/// second or two, so that a run's median spans many passes.
Workload make_workload(const std::string& name, std::uint64_t seed, unsigned cap,
                       bool tiny) {
  const std::uint64_t offset = ((seed + 15) % 16) * 1'000;
  Workload w;
  w.name = name;
  if (name == "campaign_suite" || name == "campaign_deep") {
    const bool deep = name == "campaign_deep";
    w.kind = Kind::kCampaign;
    w.benchmarks = deep ? std::vector<std::string>{"vortex"}
                        : workload::coverage_figure_names();
    w.insns = deep ? 2'000'000 : 500'000;
    w.faults = deep ? 1000 : 100;
    w.window = deep ? 100'000 : 20'000;
    w.fault_seed = 1;
    w.threads = deep ? std::min(4u, cap) : 1u;
    if (tiny) {
      w.benchmarks = first_n(w.benchmarks, 2);
      w.insns = 300'000;
      w.faults = deep ? 40 : 20;
      w.window = 20'000;
    }
  } else if (name == "coverage_sweep") {
    w.kind = Kind::kSweep;
    w.benchmarks = workload::coverage_figure_names();
    w.insns = 2'000'000 + offset;
    if (tiny) {
      w.benchmarks = first_n(w.benchmarks, 2);
      w.insns = 200'000 + offset;
    }
  } else if (name == "characterize") {
    w.kind = Kind::kCharacterize;
    w.benchmarks = workload::spec_int_names();
    w.insns = 2'000'000 + offset;
    if (tiny) {
      w.benchmarks = first_n(w.benchmarks, 2);
      w.insns = 200'000 + offset;
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (want campaign_suite|campaign_deep|"
                                "coverage_sweep|characterize)");
  }
  return w;
}

// ---- Per-pass state -------------------------------------------------------------

/// Wall time spent in each layer's public calls during one pass.
struct PassLayers {
  double campaign_s = 0;  // FaultInjectionCampaign construction + run
  double campaign_cpu_s = 0;
  double analyze_s = 0;      // FunctionalSim::run + TraceBuilder/RepetitionAnalyzer
  double table_s = 0;        // row building + print_csv
  std::uint64_t stream_loads = 0;
  std::uint64_t stream_hits = 0;
  std::uint64_t simulated_insns = 0;
};

/// The 18 ITR-cache configurations coverage_sweep_table sweeps
/// (associativities dm/2/4/8/16/fa crossed with 256/512/1024 signatures),
/// for the SweepEngine probe.  The probe only times the engine; the
/// exhibit's rows always come from figlib.
std::vector<core::ItrCacheConfig> probe_sweep_configs() {
  std::vector<core::ItrCacheConfig> configs;
  for (const std::size_t assoc : {1, 2, 4, 8, 16, 0}) {
    for (const std::size_t size : {256, 512, 1024}) {
      core::ItrCacheConfig cfg;
      cfg.num_signatures = size;
      cfg.associativity = assoc;
      configs.push_back(cfg);
    }
  }
  return configs;
}

/// Identity of a cache file, to tell a load (file untouched) from a
/// regenerate-and-rewrite (new inode via temp + rename).
struct FileId {
  bool exists = false;
  ino_t inode = 0;
  std::int64_t mtime_ns = 0;
  std::uint64_t size = 0;
  bool operator==(const FileId&) const = default;
};

FileId file_id(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return {};
  return {true, st.st_ino,
          static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 + st.st_mtim.tv_nsec,
          static_cast<std::uint64_t>(st.st_size)};
}

class Runner {
 public:
  Runner(Workload w, std::string out_dir) : w_(std::move(w)), out_dir_(std::move(out_dir)) {}

  /// One set-up; returns {total seconds, generate_spec seconds}.
  std::pair<double, double> setup(int rep);
  /// One whole exhibit pass; returns the CSV bytes.
  std::string pass(PassLayers& layers);
  /// Traced-mode probes; fills `out` with per-layer metrics.
  void probe(const PassLayers& traced, std::map<std::string, double>& out);

  const Workload& workload() const { return w_; }
  std::uint64_t injections_per_pass() const {
    return w_.kind == Kind::kCampaign ? w_.faults * w_.benchmarks.size() : 0;
  }
  /// Stream instructions one coverage_sweep pass replays (counted in set-up).
  std::uint64_t stream_insns() const { return stream_insns_; }

 private:
  fi::service::CampaignSpec campaign_spec() const {
    fi::service::CampaignSpec spec;
    spec.benchmarks = w_.benchmarks;
    spec.insns = w_.insns;
    spec.faults = w_.faults;
    spec.window = w_.window;
    spec.seed = w_.fault_seed;
    spec.prune.mode = fi::PruneMode::kFull;
    spec.exec = fi::ExecMode::kBatch;
    return spec;
  }

  std::string stream_path(const std::string& name) const {
    workload::StreamKey key;
    key.benchmark = name;
    key.insns = w_.insns;
    return cache_dir_ + "/" + workload::stream_cache_filename(key);
  }

  Workload w_;
  std::string out_dir_;
  std::vector<std::unique_ptr<isa::Program>> programs_;
  std::vector<std::shared_ptr<const isa::PredecodedProgram>> predecoded_;
  std::string cache_dir_;
  std::uint64_t stream_insns_ = 0;
};

std::pair<double, double> Runner::setup(int rep) {
  const auto t0 = Clock::now();
  double generate_s = 0;
  predecoded_.clear();
  programs_.clear();
  switch (w_.kind) {
    case Kind::kCampaign: {
      for (const std::string& name : w_.benchmarks) {
        programs_.push_back(std::make_unique<isa::Program>(
            timed(generate_s, [&] { return workload::generate_spec(name, w_.insns); })));
      }
      break;
    }
    case Kind::kSweep: {
      // A fresh directory per set-up: nothing is shared with other runs,
      // other commits, ./.itr-stream-cache or $ITR_STREAM_CACHE_DIR.  The
      // fill runs at the exhibit's one thread; a parallel fill leaves malloc
      // arenas whose residue would dominate the timed phase's peak RSS.
      if (!cache_dir_.empty()) std::filesystem::remove_all(cache_dir_);
      cache_dir_ = out_dir_ + "/stream-cache-" + std::to_string(rep);
      std::filesystem::remove_all(cache_dir_);
      workload::set_stream_cache_dir(cache_dir_);
      stream_insns_ = 0;
      for (const std::string& name : w_.benchmarks) {
        for (const auto& t : workload::cached_trace_stream(name, w_.insns)) {
          stream_insns_ += t.num_instructions;
        }
      }
      break;
    }
    case Kind::kCharacterize: {
      for (const std::string& name : w_.benchmarks) {
        // analyze_benchmark's sizing: twice the analyzed instruction count.
        programs_.push_back(std::make_unique<isa::Program>(
            timed(generate_s, [&] { return workload::generate_spec(name, w_.insns * 2); })));
        predecoded_.push_back(std::make_shared<isa::PredecodedProgram>(*programs_.back()));
      }
      break;
    }
  }
  return {seconds_since(t0), generate_s};
}

std::string Runner::pass(PassLayers& layers) {
  std::ostringstream csv;
  switch (w_.kind) {
    case Kind::kCampaign: {
      // fault_injection_table minus generate_spec: one benchmark gets every
      // lane; with several, campaigns run one after another at
      // w_.threads == 1.  Each campaign is constructed here (it predecodes
      // the program), exactly as once per exhibit run.
      const unsigned inner = w_.benchmarks.size() == 1 ? w_.threads : 1u;
      const fi::CampaignConfig cfg = fi::service::make_campaign_config(campaign_spec());
      std::vector<fi::service::OutcomeTally> tallies(programs_.size());
      for (std::size_t b = 0; b < programs_.size(); ++b) {
        const double cpu0 = process_cpu_s();
        tallies[b] = timed(layers.campaign_s, [&] {
          fi::FaultInjectionCampaign campaign(*programs_[b], cfg);
          return fi::service::OutcomeTally::from_summary(campaign.run(w_.faults, inner));
        });
        layers.campaign_cpu_s += process_cpu_s() - cpu0;
      }
      timed(layers.table_s, [&] {
        fi::service::fault_injection_table_from_tallies(w_.benchmarks, tallies)
            .print_csv(csv);
      });
      break;
    }
    case Kind::kSweep: {
      // Figure 6 itself.  A stream-cache hit leaves the cache file untouched;
      // a miss regenerates it and publishes a new file (temp + rename).
      std::vector<FileId> before;
      for (const std::string& name : w_.benchmarks) before.push_back(file_id(stream_path(name)));
      const util::Table table =
          bench::coverage_sweep_table(w_.benchmarks, w_.insns, /*detection=*/true, 1);
      for (std::size_t b = 0; b < w_.benchmarks.size(); ++b) {
        ++layers.stream_loads;
        if (before[b].exists && before[b] == file_id(stream_path(w_.benchmarks[b]))) {
          ++layers.stream_hits;
        }
      }
      timed(layers.table_s, [&] { table.print_csv(csv); });
      break;
    }
    case Kind::kCharacterize: {
      // repetition_table (Figure 1) over analyze_benchmark's pipeline.
      const std::vector<std::size_t> points = {10, 25, 50, 100, 200, 300, 500, 1000};
      std::vector<std::string> headers = {"benchmark", "statics"};
      for (auto p : points) headers.push_back("top" + std::to_string(p));
      util::Table table(headers);
      for (std::size_t b = 0; b < programs_.size(); ++b) {
        trace::RepetitionAnalyzer an;
        timed(layers.analyze_s, [&] {
          trace::TraceBuilder tb([&an](const trace::TraceRecord& r) { an.on_trace(r); });
          sim::FunctionalSim fsim(*programs_[b], predecoded_[b]);
          layers.simulated_insns += fsim.run(w_.insns, [&tb](const sim::FunctionalSim::Step& s) {
            tb.on_instruction(s.pc, s.sig, s.index);
          });
          tb.flush();
        });
        timed(layers.table_s, [&] {
          const auto curve = an.cumulative_share_by_hotness();
          table.begin_row().add(w_.benchmarks[b]).add(an.num_static_traces());
          for (auto p : points) {
            const double share = curve.empty()         ? 0.0
                                 : p <= curve.size() ? curve[p - 1]
                                                     : curve.back();
            table.add(100.0 * share, 1);
          }
        });
      }
      timed(layers.table_s, [&] { table.print_csv(csv); });
      break;
    }
  }
  return csv.str();
}

void Runner::probe(const PassLayers& traced, std::map<std::string, double>& out) {
  const double table_s = traced.table_s;
  out["util.table_s"] = table_s;
  switch (w_.kind) {
    case Kind::kCampaign: {
      // The campaign's one-time golden analysis and its fault-free
      // simulators, timed through their public entry points on the
      // campaign's own programs and configuration.
      const fi::CampaignConfig cfg = fi::service::make_campaign_config(campaign_spec());
      sim::CycleSim::Options base;  // FaultInjectionCampaign::base_options()
      base.config = cfg.pipeline;
      base.itr = cfg.itr;
      base.itr_recovery = false;
      base.use_predecode = cfg.use_predecode;
      base.cow_memory = cfg.cow_memory;
      const std::uint64_t horizon = fi::golden_probe_horizon(
          cfg.pipeline, cfg.warmup_instructions, cfg.inject_region,
          cfg.observation_cycles, cfg.detected_mask_grace_cycles);
      double analyze_s = 0, analyze_cpu_s = 0, record_s = 0, cycle_s = 0, snap_s = 0;
      double stream_bytes = 0, cycle_insns = 0, snaps = 0;
      for (const auto& prog : programs_) {
        auto pre = std::make_shared<const isa::PredecodedProgram>(*prog);
        {
          sim::GoldenStream stream;
          const double cpu0 = process_cpu_s();
          timed(analyze_s, [&] {
            return fi::analyze_golden(*prog, base, pre, cfg.warmup_instructions,
                                      cfg.inject_region, cfg.observation_cycles,
                                      cfg.detected_mask_grace_cycles,
                                      cfg.prune.classes_enabled(), &stream);
          });
          analyze_cpu_s += process_cpu_s() - cpu0;
        }
        {
          sim::FunctionalSim golden(*prog, pre);
          const auto stream =
              timed(record_s, [&] { return sim::GoldenStream::record(golden, horizon); });
          stream_bytes += static_cast<double>(stream.memory_bytes());
        }
        sim::CycleSim::Options opt = base;
        opt.predecoded = pre;
        sim::CycleSim cs(*prog, opt);
        timed(cycle_s, [&] { cs.run(kCycleProbeInsns); });
        cycle_insns += static_cast<double>(cs.stats().instructions_committed);
        sim::CycleSim::Snapshot snap;
        cs.save(snap);
        timed(snap_s, [&] {
          for (int i = 0; i < kSnapshotProbeReps; ++i) {
            cs.save(snap);
            cs.restore(snap);
          }
        });
        snaps += kSnapshotProbeReps;
      }
      // Construction + run minus the probed golden analysis.  Negative when
      // the probe ran slower than the analysis inside the campaigns; run.py
      // flags that.  For campaigns the layer sum below is therefore the
      // traced campaigns plus the table: bench.unattributed_frac measures
      // only the pass loop's overhead and the traced-vs-untraced difference.
      const double fanout_s = traced.campaign_s - analyze_s;
      out["fi.analyze_s"] = analyze_s;
      out["fi.fanout_s"] = fanout_s;
      out["fi.cpu_util"] = ratio(traced.campaign_cpu_s - analyze_cpu_s, w_.threads * fanout_s);
      out["sim.golden_record_s"] = record_s;
      out["sim.golden_stream_mb"] = stream_bytes / 1e6;
      out["sim.cycle.ns_per_insn"] = 1e9 * ratio(cycle_s, cycle_insns);
      out["sim.snapshot.save_restore_us"] = 1e6 * ratio(snap_s, snaps);
      out["bench.layer_sum_s"] = analyze_s + fanout_s + table_s;
      break;
    }
    case Kind::kSweep: {
      // coverage_sweep_table's two layers, timed through their public entry
      // points on the same warm private cache.
      double generate_s = 0, load_s = 0, sweep_s = 0, stream_bytes = 0, traces = 0;
      const auto configs = probe_sweep_configs();
      for (const std::string& name : w_.benchmarks) {
        timed(generate_s, [&] { return workload::generate_spec(name, w_.insns * 2); });
        const auto stream =
            timed(load_s, [&] { return workload::cached_trace_stream(name, w_.insns); });
        stream_bytes += static_cast<double>(file_id(stream_path(name)).size);
        traces += static_cast<double>(stream.size());
        timed(sweep_s, [&] { return core::SweepEngine::run(stream, configs); });
      }
      out["workload.generate_s"] = generate_s;
      out["workload.stream_load_s"] = load_s;
      out["workload.stream_mb"] = stream_bytes / 1e6;
      out["workload.stream_hit_ratio"] =
          ratio(static_cast<double>(traced.stream_hits), static_cast<double>(traced.stream_loads));
      out["itr.sweep_s"] = sweep_s;
      out["itr.sweep.ns_per_trace_config"] =
          1e9 * ratio(sweep_s, traces * static_cast<double>(configs.size()));
      // Row building and stats publishing inside coverage_sweep_table are
      // not probed; they show in bench.unattributed_frac.
      out["bench.layer_sum_s"] = load_s + sweep_s + table_s;
      break;
    }
    case Kind::kCharacterize: {
      // The functional simulator alone (no observer) on the same programs;
      // trace formation and analysis are the rest of the analysis time.
      double functional_s = 0;
      for (std::size_t b = 0; b < programs_.size(); ++b) {
        sim::FunctionalSim fsim(*programs_[b], predecoded_[b]);
        timed(functional_s, [&] { return fsim.run(w_.insns); });
      }
      const auto insns = static_cast<double>(traced.simulated_insns);
      out["sim.functional.ns_per_insn"] = 1e9 * ratio(functional_s, insns);
      out["trace.analyze.ns_per_insn"] = 1e9 * ratio(traced.analyze_s - functional_s, insns);
      out["bench.layer_sum_s"] = traced.analyze_s + table_s;
      break;
    }
  }
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
  if (!f.flush()) throw std::runtime_error("cannot write " + path);
}

/// Minimal JSON writer for the flat result object.
class JsonOut {
 public:
  explicit JsonOut(std::ostream& os) : os_(os) {
    os_ << std::setprecision(17);
    os_ << "{";
  }
  void key(const std::string& k) {
    os_ << (first_ ? "" : ", ") << '"' << k << "\": ";
    first_ = false;
  }
  void num(const std::string& k, double v) {
    key(k);
    os_ << v;
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    quoted(v);
  }
  void list(const std::string& k, const std::vector<double>& v) {
    key(k);
    os_ << "[";
    for (std::size_t i = 0; i < v.size(); ++i) os_ << (i ? ", " : "") << v[i];
    os_ << "]";
  }
  void strs(const std::string& k, const std::vector<std::string>& v) {
    key(k);
    os_ << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      os_ << (i ? ", " : "");
      quoted(v[i]);
    }
    os_ << "]";
  }
  void obj(const std::string& k, const std::map<std::string, double>& m) {
    key(k);
    os_ << "{";
    bool first = true;
    for (const auto& [name, v] : m) {
      os_ << (first ? "" : ", ") << '"' << name << "\": " << v;
      first = false;
    }
    os_ << "}";
  }
  ~JsonOut() { os_ << "}\n"; }

 private:
  void quoted(const std::string& v) {
    os_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') os_ << '\\' << c;
      else if (static_cast<unsigned char>(c) < 0x20) os_ << ' ';
      else os_ << c;
    }
    os_ << '"';
  }

  std::ostream& os_;
  bool first_ = true;
};

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return std::string(PERFBENCH_BUILD_TYPE) != "Debug";
#else
  return false;
#endif
}

int run(int argc, char** argv) {
  const util::CliFlags flags(argc, argv);
  const std::string name = flags.get_string("workload", "");
  const std::uint64_t seed = flags.get_u64("seed", 1);
  const double seconds = flags.get_double("seconds", 10.0);
  const bool trace = flags.get_u64("trace", 0) != 0;
  const std::string out_dir = flags.get_string("out", "");
  const auto cap = static_cast<unsigned>(
      std::max<std::uint64_t>(1, flags.get_u64("threads-cap", util::resolve_threads(0))));
  const bool tiny = flags.get_bool("tiny");
  const bool plant = flags.get_bool("plant-mismatch");
  flags.reject_unknown();
  if (out_dir.empty()) throw std::invalid_argument("--out DIR is required");
  if (!optimized_build()) {
    throw std::runtime_error(std::string("refusing to time a ") + PERFBENCH_BUILD_TYPE +
                             " (unoptimized) build");
  }
  std::filesystem::create_directories(out_dir);

  Runner runner(make_workload(name, seed, cap, tiny), out_dir);
  const Workload& w = runner.workload();
  obs::set_stats_enabled(false);

  std::vector<double> setup_s, generate_s;
  double setup_total_s = 0;
  for (int rep = 0; rep < kMinSetupReps ||
                    (rep < kMaxSetupReps && setup_total_s < kMinSetupSeconds);
       ++rep) {
    const auto [total, gen] = runner.setup(rep);
    setup_s.push_back(total);
    generate_s.push_back(gen);
    setup_total_s += total;
  }

  std::vector<double> pass_s;
  std::vector<std::string> errors;
  PassLayers timed_layers;
  // Free heap pages go back to the kernel before timing, so that set-up's
  // leftovers do not count in the timed phase's peak RSS.
  malloc_trim(0);
  std::vector<double> pass_rss_kb;
  bool rss_per_pass = true;
  const auto phase0 = Clock::now();
  do {
    rss_per_pass = reset_peak_rss() && rss_per_pass;
    const auto t0 = Clock::now();
    std::string csv;
    try {
      csv = runner.pass(timed_layers);
    } catch (const std::exception& e) {
      errors.push_back("pass " + std::to_string(pass_s.size()) + ": " + e.what());
    }
    pass_s.push_back(seconds_since(t0));
    pass_rss_kb.push_back(peak_rss_kb());
    write_file(out_dir + "/pass-" + std::to_string(pass_s.size() - 1) + ".csv", csv);
  } while (pass_s.size() < 2 || seconds_since(phase0) < seconds);

  if (plant) {
    // Self-test hook: corrupt one byte of the last pass's output, as a
    // wrong result from the program would.
    const std::string path = out_dir + "/pass-" + std::to_string(pass_s.size() - 1) + ".csv";
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const std::size_t at = bytes.find_last_of("0123456789");
    if (at != std::string::npos) bytes[at] = bytes[at] == '9' ? '0' : static_cast<char>(bytes[at] + 1);
    write_file(path, bytes);
  }

  std::map<std::string, double> layers;
  double traced_pass_s = 0;
  if (trace) {
    obs::registry().reset();
    obs::set_stats_enabled(true);
    PassLayers traced;
    const auto t0 = Clock::now();
    std::string csv;
    try {
      csv = runner.pass(traced);
    } catch (const std::exception& e) {
      errors.push_back(std::string("traced pass: ") + e.what());
    }
    traced_pass_s = seconds_since(t0);
    obs::set_stats_enabled(false);
    write_file(out_dir + "/traced.csv", csv);
    std::ostringstream stats;
    obs::registry().write_json(stats, /*include_diagnostic=*/false);
    write_file(out_dir + "/stats.json", stats.str());
    const auto snap = obs::registry().snapshot();
    const auto counter = [&snap](const std::string& key) {
      const auto it = snap.find(key);
      return it == snap.end() ? 0.0 : static_cast<double>(it->second.value);
    };
    const double inj = static_cast<double>(runner.injections_per_pass());
    layers["fi.batch.walker_insns"] = counter("campaign.batch.walker_instructions");
    layers["fi.batch.walker_insns_per_inj"] =
        ratio(counter("campaign.batch.walker_instructions"), inj);
    layers["fi.batch.divergent_commits_per_inj"] =
        ratio(counter("campaign.batch.divergent_commits"), inj);
    layers["fi.batch.converged_frac"] =
        ratio(counter("campaign.batch.converged_exits"), counter("campaign.batch.replicas"));
    layers["fi.prune.analytic_frac"] = ratio(counter("campaign.prune.analytic_sites"), inj);
    runner.probe(traced, layers);
    // Set-up layers (median set-up); coverage_sweep times generation in its
    // probe because its set-up generates inside cached_trace_stream.
    layers.emplace("workload.generate_s", median(generate_s));
    if (w.kind == Kind::kSweep) layers["workload.stream_collect_s"] = median(setup_s);
  }

  JsonOut json(std::cout);
  json.str("workload", w.name);
  json.strs("benchmarks", w.benchmarks);
  json.num("insns", static_cast<double>(w.insns));
  json.num("faults", static_cast<double>(w.faults));
  json.num("window", static_cast<double>(w.window));
  json.num("fault_seed", static_cast<double>(w.fault_seed));
  json.num("threads", w.threads);
  json.num("threads_cap", cap);
  json.str("build_type", PERFBENCH_BUILD_TYPE);
  json.str("compiler", PERFBENCH_COMPILER);
  json.list("setup_s", setup_s);
  json.list("pass_s", pass_s);
  json.num("injections_per_pass", static_cast<double>(runner.injections_per_pass()));
  // Dynamic instructions one pass processes: simulated (characterize),
  // replayed from the stream (coverage_sweep), or the campaigns' program
  // length times benchmarks (campaigns).
  const auto passes = static_cast<double>(pass_s.size());
  double insns = static_cast<double>(w.insns * w.benchmarks.size());
  if (w.kind == Kind::kSweep) insns = static_cast<double>(runner.stream_insns());
  if (w.kind == Kind::kCharacterize) insns = static_cast<double>(timed_layers.simulated_insns) / passes;
  json.num("insns_per_pass", insns);
  json.num("stream_loads", static_cast<double>(timed_layers.stream_loads));
  json.num("stream_hits", static_cast<double>(timed_layers.stream_hits));
  json.num("peak_rss_kb", median(pass_rss_kb));
  json.str("peak_rss_scope", rss_per_pass ? "median pass" : "process");
  json.num("traced_pass_s", traced_pass_s);
  json.obj("layers", layers);
  json.strs("errors", errors);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_exhibits: " << e.what() << "\n";
    return 2;
  }
}
