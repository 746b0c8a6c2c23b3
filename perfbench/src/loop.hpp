// The closed-loop engine shared by every workload.  Each worker issues its
// next call only after the previous one returned.  The main thread is the
// benchmark's only other thread: it paces the segments, reads the workers'
// op counters at segment boundaries and, in the traced run, samples the
// pending-garbage gauge.
//
// Every cell (one scheme's store) is set up before the first segment; the
// timed run then visits the cells in rounds, one short segment per cell per
// round, with the round's first cell rotating.  A cell's throughput is the
// median of its segments' throughputs and its p99 the median of their
// p99s.  The host's speed drifts over seconds; rounds spread every scheme
// over the whole run, so the drift lands on all of them alike instead of on
// whichever scheme happened to run during a slow stretch.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "gen.hpp"
#include "trace.hpp"

namespace perfbench {

enum class OpKind : std::uint8_t { kContains, kInsert, kErase, kGet, kPut };
inline constexpr unsigned kOpKinds = 5;
inline constexpr const char* kOpNames[kOpKinds] = {"contains", "insert",
                                                   "erase", "get", "put"};

struct LoopPlan {
  unsigned workers = 1;
  double first_warmup_s = 1.5;  // once, before the first segment
  double warmup_s = 0.05;       // before each segment's timed part
  double segment_s = 0.3;       // each segment's timed part
  double traced_s = 0;          // each segment's traced part (0 = none)
  unsigned rounds = 10;
};

// Powers of two: one timed op in kLatencyEvery has its latency sampled, one
// traced op in kSpanEvery becomes a span.
inline constexpr std::uint64_t kLatencyEvery = 32;
inline constexpr std::uint64_t kSpanEvery = 512;

// One cell's share of the run.
struct LoopResult {
  std::vector<double> segment_mops;
  std::vector<double> segment_p99_ns;
  std::uint64_t latency_samples = 0;
  std::uint64_t total_ops = 0;  // every op the workers issued on the cell
  std::uint64_t timed_ops = 0;
  std::uint64_t traced_ops = 0;
  double timed_s = 0;
  double traced_s = 0;
  double kind_ns_sum[kOpKinds] = {};
  std::uint64_t kind_n[kOpKinds] = {};
  double pending_avg = 0;
  std::int64_t pending_peak = 0;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// The sample at rank ceil(p * n) (nearest-rank percentile).
inline double percentile(std::vector<std::uint32_t>& v, double p) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

// Workload interface: cells(); make_worker(t, c), called on worker thread
// t, returns an object whose op() issues one call on cell c and returns its
// kind, and whose destruction closes its session; pending(c); and
// cell_span(c), the span a cell's sessions and segments hang under.
template <class Workload>
std::vector<LoopResult> run_rounds(const LoopPlan& plan, Workload& wl,
                                   Tracer* tr) {
  enum : std::uint32_t { kIdle = 0, kWarmup, kTimed, kTraced, kStop };
  // state = phase << 24 | cell << 16 | round
  auto word = [](std::uint32_t ph, unsigned c, unsigned r) {
    return (ph << 24) | (c << 16) | r;
  };
  constexpr std::size_t kLatencyCap = std::size_t{1} << 20;
  using Worker = decltype(wl.make_worker(0u, 0u));

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> ops{0};
    std::vector<std::uint64_t> lat;  // cell << 56 | round << 40 | ns
    std::size_t n_lat = 0;
    std::vector<std::uint64_t> cell_ops;
    std::vector<double> kind_ns;  // [cell * kOpKinds + kind]
    std::vector<std::uint64_t> kind_n;
  };

  const unsigned W = plan.workers;
  const unsigned C = static_cast<unsigned>(wl.cells());
  std::vector<Slot> slots(W);
  std::atomic<std::uint32_t> state{word(kIdle, 0, 0)};
  std::atomic<std::uint64_t> segment_span{0};
  std::atomic<unsigned> ready{0};

  std::uint32_t n_open = 0, n_close = 0, n_seg = 0, n_kind[kOpKinds] = {};
  if (tr != nullptr) {
    n_open = tr->name("session_open");
    n_close = tr->name("session_close");
    n_seg = tr->name("traced_segment");
    for (unsigned k = 0; k < kOpKinds; ++k) n_kind[k] = tr->name(kOpNames[k]);
  }

  std::vector<std::thread> threads;
  threads.reserve(W);
  for (unsigned t = 0; t < W; ++t) {
    threads.emplace_back([&, t] {
      Slot& sl = slots[t];
      sl.lat.assign(kLatencyCap, 0);  // touched now, so RSS does not drift
      sl.cell_ops.assign(C, 0);
      sl.kind_ns.assign(C * kOpKinds, 0);
      sl.kind_n.assign(C * kOpKinds, 0);
      std::vector<std::optional<Worker>> ws(C);
      for (unsigned c = 0; c < C; ++c) {
        const std::uint64_t a = now_ns();
        ws[c].emplace(wl.make_worker(t, c));
        if (tr != nullptr)
          tr->record(t + 1, wl.cell_span(c), n_open, a, now_ns());
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      std::uint64_t n = 0;
      for (;;) {
        const std::uint32_t st = state.load(std::memory_order_acquire);
        const std::uint32_t ph = st >> 24;
        if (ph == kStop) break;
        if (ph == kIdle) {
          std::this_thread::yield();
          continue;
        }
        const unsigned c = (st >> 16) & 0xff;
        Worker& w = *ws[c];
        ++n;
        ++sl.cell_ops[c];
        if (ph == kTimed && (n & (kLatencyEvery - 1)) == 0) {
          const std::uint64_t a = now_ns();
          w.op();
          const std::uint64_t b = now_ns();
          if (sl.n_lat < kLatencyCap)
            sl.lat[sl.n_lat++] = (std::uint64_t{st & 0xffffff} << 40) |
                                 std::min<std::uint64_t>(b - a, 0xffffffffu);
        } else if (ph == kTraced && (n & (kSpanEvery - 1)) == 0) {
          const std::uint64_t a = now_ns();
          const auto k = static_cast<unsigned>(w.op());
          const std::uint64_t b = now_ns();
          sl.kind_ns[c * kOpKinds + k] += static_cast<double>(b - a);
          ++sl.kind_n[c * kOpKinds + k];
          if (tr != nullptr)
            tr->record(t + 1, segment_span.load(std::memory_order_relaxed),
                       n_kind[k], a, b);
        } else {
          w.op();
        }
        sl.ops.store(n, std::memory_order_relaxed);
      }
      for (unsigned c = 0; c < C; ++c) {
        const std::uint64_t a = now_ns();
        ws[c].reset();
        if (tr != nullptr)
          tr->record(t + 1, wl.cell_span(c), n_close, a, now_ns());
      }
    });
  }

  std::vector<LoopResult> res(C);
  std::vector<double> pending_sum(C, 0);
  std::vector<std::uint64_t> pending_n(C, 0);
  auto total = [&] {
    std::uint64_t s = 0;
    for (const Slot& sl : slots) s += sl.ops.load(std::memory_order_relaxed);
    return s;
  };
  auto wait = [&](double seconds, int sample_cell) {
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    for (;;) {
      const std::uint64_t t = now_ns();
      if (t >= deadline) return;
      if (sample_cell < 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - t));
        continue;
      }
      const std::int64_t p = wl.pending(static_cast<unsigned>(sample_cell));
      pending_sum[sample_cell] += static_cast<double>(p);
      ++pending_n[sample_cell];
      res[sample_cell].pending_peak =
          std::max(res[sample_cell].pending_peak, p);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  // Runs one phase on cell c; returns {ops, seconds}.
  auto phase = [&](std::uint32_t ph, unsigned c, unsigned r, double seconds) {
    const std::uint64_t t0 = now_ns(), ops0 = total();
    state.store(word(ph, c, r), std::memory_order_release);
    // The traced run samples the cell's pending-garbage gauge.
    wait(seconds, plan.traced_s > 0 && ph != kWarmup ? static_cast<int>(c)
                                                     : -1);
    return std::pair<std::uint64_t, double>(
        total() - ops0, static_cast<double>(now_ns() - t0) * 1e-9);
  };

  while (ready.load(std::memory_order_acquire) < W) std::this_thread::yield();
  phase(kWarmup, 0, 0, plan.first_warmup_s);
  for (unsigned r = 0; r < plan.rounds; ++r) {
    for (unsigned i = 0; i < C; ++i) {
      const unsigned c = (r + i) % C;
      LoopResult& lr = res[c];
      phase(kWarmup, c, r, plan.warmup_s);
      const auto [ops, secs] = phase(kTimed, c, r, plan.segment_s);
      lr.segment_mops.push_back(static_cast<double>(ops) * 1e-6 / secs);
      lr.timed_ops += ops;
      lr.timed_s += secs;
      if (plan.traced_s > 0) {
        std::uint64_t span = 0;
        if (tr != nullptr) span = tr->open(0);
        segment_span.store(span, std::memory_order_relaxed);
        const std::uint64_t a = now_ns();
        const auto [tops, tsecs] = phase(kTraced, c, r, plan.traced_s);
        if (tr != nullptr)
          tr->close(0, span, wl.cell_span(c), n_seg, a, now_ns());
        lr.traced_ops += tops;
        lr.traced_s += tsecs;
      }
    }
  }
  state.store(word(kStop, 0, 0), std::memory_order_release);
  for (auto& th : threads) th.join();

  // Latency samples by (cell, round): each segment's p99.
  std::vector<std::vector<std::uint32_t>> seg(std::size_t{C} * plan.rounds);
  for (const Slot& sl : slots) {
    for (std::size_t i = 0; i < sl.n_lat; ++i) {
      const std::uint64_t v = sl.lat[i];
      const unsigned c = (v >> 56) & 0xff, r = (v >> 40) & 0xffff;
      seg[std::size_t{c} * plan.rounds + r].push_back(
          static_cast<std::uint32_t>(v));
    }
    for (unsigned c = 0; c < C; ++c) {
      res[c].total_ops += sl.cell_ops[c];
      for (unsigned k = 0; k < kOpKinds; ++k) {
        res[c].kind_ns_sum[k] += sl.kind_ns[c * kOpKinds + k];
        res[c].kind_n[k] += sl.kind_n[c * kOpKinds + k];
      }
    }
  }
  for (unsigned c = 0; c < C; ++c) {
    for (unsigned r = 0; r < plan.rounds; ++r) {
      auto& v = seg[std::size_t{c} * plan.rounds + r];
      res[c].latency_samples += v.size();
      if (!v.empty()) res[c].segment_p99_ns.push_back(percentile(v, 0.99));
    }
    if (pending_n[c] > 0)
      res[c].pending_avg = pending_sum[c] / static_cast<double>(pending_n[c]);
  }
  return res;
}

}  // namespace perfbench
