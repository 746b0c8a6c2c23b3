// perfbench: the repository's end-to-end benchmark.  One process runs one
// named workload under every reclaiming scheme in a fixed order and prints
// each metric by name and unit; its last stdout line is the JSON result
// {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload list-mixed|kv-update|kv-read --seed N --seconds S
//             --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics.  --trace 1 is the separate
// traced run: it adds NR as the reference, splits each cell's time into an
// untraced and a traced half, records spans around the calls it makes, and
// reports the per-layer metrics (README.md lists them).
#include <sched.h>
#include <sys/resource.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cells.hpp"
#include "core/any_map.hpp"
#include "kv/kv_store.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

using scot::SchemeId;

constexpr SchemeId kReclaiming[] = {SchemeId::kEBR, SchemeId::kHP,
                                    SchemeId::kHPopt, SchemeId::kHE,
                                    SchemeId::kIBR, SchemeId::kHLN};
constexpr std::uint64_t kKvKeys = std::uint64_t{1} << 20;
constexpr double kZipfTheta = 0.99;
constexpr unsigned kRounds = 10;
constexpr double kWarmupS = 0.05;      // before every segment
constexpr double kFirstWarmupS = 1.5;  // once, before the first segment

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "list-mixed|kv-update|kv-read --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n",
               why);
  return 2;
}

std::optional<std::uint64_t> parse_u64(const char* s) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
    return std::nullopt;
  return v;
}

unsigned hardware_threads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// The paper's calibration (scan every 128 retires, era tick every 12x the
// thread count) with every environment-dependent default pinned, so the
// benchmark measures the same configuration wherever it runs.
scot::SmrConfig smr_config(unsigned threads) {
  scot::SmrConfig c;
  c.max_threads = threads;
  c.scan_threshold = 128;
  c.era_freq = 12 * threads;
  c.batch_capacity = std::max(threads + 1, c.scan_threshold);
  c.track_stats = true;
  c.asymmetric_fences = true;
  c.background_reclaim = false;
  return c;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }

  void print_lines() const {
    for (const Metric& m : metrics_) {
      std::printf("%s = %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.empty() ? "" : "  ", m.note.c_str());
    }
  }

  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf), "%.10g", m.value);
      s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}}";
  }

 private:
  std::vector<Metric> metrics_;
};

double per_kop(std::uint64_t n, std::uint64_t ops) {
  return ops == 0 ? 0 : static_cast<double>(n) * 1e3 / static_cast<double>(ops);
}

// Thread-nanoseconds per operation over a phase.
double ns_per_op(unsigned workers, double seconds, std::uint64_t ops) {
  return ops == 0 ? 0 : workers * seconds * 1e9 / static_cast<double>(ops);
}

double mean_ns(const LoopResult& l, std::initializer_list<OpKind> kinds) {
  double sum = 0;
  std::uint64_t n = 0;
  for (OpKind k : kinds) {
    sum += l.kind_ns_sum[static_cast<unsigned>(k)];
    n += l.kind_n[static_cast<unsigned>(k)];
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

void add_end_to_end(Report& rep, const std::vector<CellResult>& cells,
                    double setup_s) {
  for (const CellResult& c : cells)
    rep.add("throughput." + c.scheme, median(c.loop.segment_mops), "Mops/s");
  for (const CellResult& c : cells)
    rep.add("p99." + c.scheme, median(c.loop.segment_p99_ns) / 1e3, "us",
            "(samples=" + std::to_string(c.loop.latency_samples) + ")");
  rep.add("setup_s", setup_s, "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_per_layer(Report& rep, const std::vector<CellResult>& cells,
                   const std::string& workload, unsigned workers,
                   const scot::SmrConfig& cfg) {
  const bool list = workload == "list-mixed";
  rep.add("asymfence.heavy_ns", probe_heavy_barrier_ns(), "ns");
  for (const CellResult& c : cells) {
    const SchemeProbe p =
        probe_scheme(*scot::scheme_from_name(c.scheme), cfg);
    rep.add("smr.protect_ns." + c.scheme, p.protect_ns, "ns");
    rep.add("smr.begin_end_ns." + c.scheme, p.begin_end_ns, "ns");
  }

  double nr_ns = 0;
  for (const CellResult& c : cells)
    if (c.scheme == "NR")
      nr_ns = ns_per_op(workers, c.loop.timed_s, c.loop.timed_ops);
  double kv_migrated = 0, kv_prefill = 0, trace_overhead = 0;
  unsigned reclaiming = 0;
  for (const CellResult& c : cells) {
    trace_overhead += ns_per_op(workers, c.loop.traced_s, c.loop.traced_ops) -
                      ns_per_op(workers, c.loop.timed_s, c.loop.timed_ops);
    if (c.scheme == "NR") continue;
    ++reclaiming;
    const std::string& s = c.scheme;
    const auto& a = c.after;
    const auto& b = c.before;
    const std::uint64_t ops = c.loop.total_ops;  // the counters' window
    const std::uint64_t scans = a.scans - b.scans;
    rep.add("smr.retires_per_kop." + s, per_kop(a.retires - b.retires, ops),
            "1/kop");
    rep.add("smr.scans_per_kop." + s, per_kop(scans, ops), "1/kop");
    rep.add("smr.heavy_barriers_per_kop." + s,
            per_kop(a.heavy_barriers - b.heavy_barriers, ops), "1/kop");
    rep.add("smr.freed_per_scan." + s,
            scans == 0 ? 0
                       : static_cast<double>(a.nodes_reclaimed -
                                             b.nodes_reclaimed) /
                             static_cast<double>(scans),
            "nodes");
    rep.add("smr.scan_p50_ns." + s, a.scan_p50_ns, "ns");
    rep.add("smr.scan_p99_ns." + s, a.scan_p99_ns, "ns");
    rep.add("smr.pending_avg." + s, c.loop.pending_avg, "nodes");
    rep.add("smr.pending_peak." + s,
            static_cast<double>(c.loop.pending_peak), "nodes");
    rep.add("smr.overhead_vs_nr_ns." + s,
            ns_per_op(workers, c.loop.timed_s, c.loop.timed_ops) - nr_ns, "ns");
    rep.add("core.restarts_per_kop." + s, per_kop(c.restarts, ops), "1/kop");
    rep.add("core.recoveries_per_kop." + s, per_kop(c.recoveries, ops),
            "1/kop");
    // A layer the workload does not call reads 0.
    rep.add("core.read_ns." + s,
            list ? mean_ns(c.loop, {OpKind::kContains}) : 0, "ns");
    rep.add("core.write_ns." + s,
            list ? mean_ns(c.loop, {OpKind::kInsert, OpKind::kErase}) : 0,
            "ns");
    rep.add("kv.get_ns." + s, mean_ns(c.loop, {OpKind::kGet}), "ns");
    rep.add("kv.put_ns." + s, mean_ns(c.loop, {OpKind::kPut}), "ns");
    kv_migrated += static_cast<double>(c.migrated_buckets);
    kv_prefill += list ? 0 : c.prefill_s;
  }
  rep.add("kv.migrated_buckets", kv_migrated / reclaiming, "count");
  rep.add("kv.prefill_s", kv_prefill / reclaiming, "s");
  rep.add("trace.overhead_ns_per_op", trace_overhead / cells.size(), "ns");
}

// The registry cell for a scheme; every scheme registers both structures,
// so a missing one means a broken build of the library.
template <class T>
T registered(std::optional<T> cell, SchemeId s) {
  if (!cell) {
    std::fprintf(stderr, "perfbench: no registered cell for %s\n",
                 scot::scheme_name(s));
    std::exit(1);
  }
  return std::move(*cell);
}

// Sets up every cell, drives the rounds, checks.  Returns the results.
template <class Bench, class Make>
std::vector<CellResult> run_cells(Bench& bench,
                                  const std::vector<SchemeId>& schemes,
                                  Make&& make, const LoopPlan& plan,
                                  Tracer* tr) {
  for (const SchemeId s : schemes)
    bench.add_cell([&] { return make(s); }, scot::scheme_name(s));
  return bench.finish(run_rounds(plan, bench, tr));
}

int run(const Args& args) {
  const unsigned hw = hardware_threads();
  const unsigned workers = hw > 1 ? hw - 1 : 1;
  const scot::SmrConfig cfg = smr_config(workers + 1);

  std::vector<SchemeId> schemes(std::begin(kReclaiming), std::end(kReclaiming));
  if (args.trace) schemes.push_back(SchemeId::kNR);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d workers=%u "
              "hardware_threads=%u fence=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, workers, hw,
              fence_path().c_str());

  std::optional<Tracer> tracer;
  if (args.trace) tracer.emplace(workers, std::size_t{1} << 17);
  Tracer* tr = tracer ? &*tracer : nullptr;

  // Each cell gets seconds / cells of measured time, in kRounds segments;
  // the traced run halves each segment into an untraced and a traced part.
  LoopPlan plan;
  plan.workers = workers;
  plan.rounds = kRounds;
  plan.first_warmup_s = kFirstWarmupS;
  plan.warmup_s = kWarmupS;
  const double segment =
      args.seconds / (static_cast<double>(schemes.size()) * plan.rounds);
  plan.segment_s = args.trace ? segment / 2 : segment;
  plan.traced_s = args.trace ? segment / 2 : 0;

  std::vector<CellResult> cells;
  if (args.workload == "list-mixed") {
    ListMixed<scot::AnyMap> bench(args.seed, workers, tr);
    cells = run_cells(
        bench, schemes,
        [&](SchemeId s) {
          scot::AnyMapOptions o;
          o.smr = cfg;
          return registered(
              scot::AnyMap::make(s, scot::StructureId::kHList, o), s);
        },
        plan, tr);
  } else {
    const KeySpace keys(kKvKeys, args.seed);
    const Zipfian zipf(kKvKeys, kZipfTheta);
    const KvMix mix{&keys, &zipf, stream_seed(args.seed, 0x7a),
                    args.workload == "kv-update" ? 50u : 0u};
    KvBench<scot::KvStore> bench(mix, args.seed, workers, tr, args.workload);
    cells = run_cells(
        bench, schemes,
        [&](SchemeId s) {
          scot::KvStoreOptions o;
          o.smr = cfg;
          o.shards = 1;
          return registered(
              scot::KvStore::make(s, scot::StructureId::kKvHash, o), s);
        },
        plan, tr);
  }

  double setup_s = 0;
  std::uint64_t attempted = 0, failed = 0;
  for (const CellResult& r : cells) {
    std::fprintf(stderr,
                 "cell %-5s setup %.4fs  %.3f Mops/s  p99 %.3fus  segments [",
                 r.scheme.c_str(), r.setup_s, median(r.loop.segment_mops),
                 median(r.loop.segment_p99_ns) / 1e3);
    for (double m : r.loop.segment_mops) std::fprintf(stderr, " %.2f", m);
    std::fprintf(stderr, " ]  failed %llu\n",
                 static_cast<unsigned long long>(r.verdict.failed));
    for (const std::string& n : r.verdict.notes)
      std::fprintf(stderr, "  check failed: %s\n", n.c_str());
    setup_s += r.setup_s;
    attempted += r.attempted;
    failed += r.verdict.failed;
  }

  Report rep;
  if (args.trace) {
    add_per_layer(rep, cells, args.workload, workers, cfg);
  } else {
    add_end_to_end(rep, cells, setup_s);
  }
  rep.print_lines();
  const std::string result = rep.json(failed == 0, attempted, failed);
  if (!args.out.empty()) {
    const std::string stem = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
      std::fprintf(f, "%s\n", result.c_str());
      std::fclose(f);
    }
    if (tracer) {
      if (!tracer->write(stem + ".spans.jsonl")) {
        std::fprintf(stderr, "perfbench: cannot write %s.spans.jsonl\n",
                     stem.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s.spans.jsonl (%llu dropped)\n",
                  tracer->size(), stem.c_str(),
                  static_cast<unsigned long long>(tracer->dropped()));
    }
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  perfbench::Args a;
  bool have[4] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have[0] = a.workload == "list-mixed" || a.workload == "kv-update" ||
                a.workload == "kv-read";
      if (!have[0]) return usage("unknown workload");
    } else if (flag == "--seed") {
      const auto n = perfbench::parse_u64(v);
      if (!n) return usage("--seed takes a non-negative integer");
      a.seed = *n;
      have[1] = true;
    } else if (flag == "--seconds") {
      const auto n = perfbench::parse_u64(v);
      if (!n || *n < 1 || *n > 60) return usage("--seconds takes 1..60");
      a.seconds = static_cast<double>(*n);
      have[2] = true;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
      have[3] = true;
    } else if (flag == "--out") {
      a.out = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    return usage("--workload, --seed, --seconds and --trace are required");
  return perfbench::run(a);
}
