// The workloads.  A cell is one scheme's store: add_cell() constructs and
// loads it (the set-up), run_rounds() drives every cell through its worker
// type, and finish() runs the checks.  Both workloads are templates over
// the store so that the self-tests run the very same loops and checks
// against deliberately wrong stores.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "gen.hpp"
#include "loop.hpp"
#include "obs/stats.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr std::uint64_t kListKeys = 512;

struct CellResult {
  std::string scheme;
  double setup_s = 0;
  double prefill_s = 0;
  std::uint64_t attempted = 0;
  Verdict verdict;
  LoopResult loop;
  // Observer readings, quiescent, after set-up and after the last round.
  scot::obs::StatsSnapshot before;
  scot::obs::StatsSnapshot after;
  std::uint64_t restarts = 0;  // during the rounds
  std::uint64_t recoveries = 0;
  std::uint64_t migrated_buckets = 0;
};

// What every cell keeps besides its store: the result, its span, and the
// observer readings the rounds are measured against.
struct CellCommon {
  CellResult r;
  std::uint64_t span = 0;
  std::uint64_t span_start = 0;
  std::uint64_t restarts0 = 0;
  std::uint64_t recoveries0 = 0;

  void open(Tracer* tr, const std::string& name) {
    if (tr == nullptr) return;
    span = tr->open(0);
    span_start = now_ns();
    span_name = tr->name(name);
  }
  template <class Store>
  void before_rounds(Store& store) {
    r.before = store.stats();
    restarts0 = store.restarts();
    recoveries0 = store.recoveries();
  }
  template <class Store>
  void after_rounds(Store& store, LoopResult&& loop) {
    r.loop = std::move(loop);
    r.attempted += r.loop.total_ops;
    r.after = store.stats();
    r.restarts = store.restarts() - restarts0;
    r.recoveries = store.recoveries() - recoveries0;
  }
  void close(Tracer* tr) {
    if (tr != nullptr) tr->close(0, span, 0, span_name, span_start, now_ns());
  }

 private:
  std::uint32_t span_name = 0;
};

// --- list-mixed ------------------------------------------------------------
// HList over keys 0..511, half present at the start, 50% contains / 25%
// insert / 25% erase on uniform keys.

template <class Session>
struct ListWorker {
  Session s;
  Rng rng;
  ListLedger* ledger;

  OpKind op() {
    const std::uint64_t k = rng.below(kListKeys);
    const std::uint64_t roll = rng.below(100);
    if (roll < 50) {
      s.contains(k);
      return OpKind::kContains;
    }
    if (roll < 75) {
      if (s.insert(k, k)) ++ledger->net[k];
      return OpKind::kInsert;
    }
    if (s.erase(k)) {
      --ledger->net[k];
      ++ledger->erases;
    }
    return OpKind::kErase;
  }
};

template <class Store>
class ListMixed {
 public:
  ListMixed(std::uint64_t seed, unsigned workers, Tracer* tr)
      : seed_(seed), workers_(workers), tr_(tr), start_(kListKeys, 0) {
    // Exactly half the keys start present, chosen by the seed.
    std::vector<std::uint64_t> ks(kListKeys);
    std::iota(ks.begin(), ks.end(), 0);
    Rng rng(stream_seed(seed, 0x11));
    for (std::size_t i = ks.size() - 1; i > 0; --i)
      std::swap(ks[i], ks[rng.below(i + 1)]);
    for (std::size_t i = 0; i < kListKeys / 2; ++i) start_[ks[i]] = 1;
  }

  // Constructs the map with make_map() and prefills it.
  template <class MakeMap>
  void add_cell(MakeMap&& make_map, const std::string& scheme) {
    CellCommon cc;
    cc.r.scheme = scheme;
    cc.open(tr_, "cell list-mixed " + scheme);
    const std::uint64_t t0 = now_ns();
    cells_.push_back(std::unique_ptr<Cell>(new Cell{
        [&] {
          ScopedSpan s(tr_, cc.span, "construct");
          return make_map();
        }(),
        std::move(cc), std::vector<ListLedger>(workers_, ListLedger(kListKeys)),
        0}));
    Cell& c = *cells_.back();
    {
      ScopedSpan s(tr_, c.cc.span, "prefill");
      const std::uint64_t tp = now_ns();
      auto session = c.store.session();
      for (std::uint64_t k = 0; k < kListKeys; ++k) {
        if (start_[k] == 0) continue;
        ++c.cc.r.attempted;
        if (!session.insert(k, k))
          c.cc.r.verdict.fail("prefill insert of key " + std::to_string(k) +
                              " reported present");
      }
      c.cc.r.prefill_s = static_cast<double>(now_ns() - tp) * 1e-9;
    }
    c.cc.r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
    c.retired0 = c.store.stats().retired_total;
    c.cc.before_rounds(c.store);
  }

  std::size_t cells() const { return cells_.size(); }
  std::uint64_t cell_span(unsigned c) const { return cells_[c]->cc.span; }
  std::int64_t pending(unsigned c) { return cells_[c]->store.pending_nodes(); }

  auto make_worker(unsigned t, unsigned c) {
    Cell& cell = *cells_[c];
    return ListWorker<decltype(cell.store.session())>{
        cell.store.session(), Rng(stream_seed(seed_, 0x100 + 16 * c + t)),
        &cell.ledgers[t]};
  }

  // Folds in the rounds, runs the final checks, returns the results.
  std::vector<CellResult> finish(std::vector<LoopResult>&& loops) {
    std::vector<CellResult> out;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      Cell& c = *cells_[i];
      c.cc.after_rounds(c.store, std::move(loops[i]));
      {
        ScopedSpan s(tr_, c.cc.span, "check");
        auto session = c.store.session();
        c.cc.r.attempted += check_list_final(
            start_, c.ledgers, c.store, session, c.retired0, c.cc.r.verdict);
      }
      c.cc.close(tr_);
      out.push_back(std::move(c.cc.r));
    }
    return out;
  }

 private:
  struct Cell {
    Store store;
    CellCommon cc;
    std::vector<ListLedger> ledgers;  // one per worker
    std::uint64_t retired0;
  };

  std::uint64_t seed_;
  unsigned workers_;
  Tracer* tr_;
  std::vector<std::uint8_t> start_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

// --- kv-update / kv-read ---------------------------------------------------
// A loaded 1-shard store: every key of the key space, zipfian key choice,
// put_pct% puts (update-only: every key is loaded) and the rest gets.

struct KvMix {
  const KeySpace* keys;
  const Zipfian* zipf;
  std::uint64_t rank_salt;
  unsigned put_pct;
};

template <class Session>
struct KvWorker {
  Session s;
  Rng rng;
  KvLedger* ledger;
  const KvMix* mix;
  std::uint32_t self;
  unsigned writers;
  std::string out;
  char kb[kKeyLen];
  char vb[kValueLen];

  OpKind op() {
    // YCSB's scrambled zipfian: popular ranks scatter over the key space.
    const std::uint64_t id =
        mix64(mix->zipf->next(rng) ^ mix->rank_salt) % mix->keys->size();
    const std::string_view key = mix->keys->key(id, kb);
    if (rng.below(100) < mix->put_pct) {
      const std::uint32_t seq = ++ledger->seq;
      encode_value({id, self, seq}, vb);
      if (s.put(key, std::string_view(vb, kValueLen)))
        ledger->verdict.fail("put of loaded key " + std::to_string(id) +
                             " reported a new key");
      ledger->last_put[id] = seq;
      ++ledger->puts;
      return OpKind::kPut;
    }
    const bool hit = s.get(key, &out);
    if (!get_ok(id, hit, out, self, writers, *ledger))
      ledger->verdict.fail("get of key " + std::to_string(id) + " by writer " +
                           std::to_string(self) +
                           (hit ? " returned a wrong value" : " missed"));
    return OpKind::kGet;
  }
};

template <class Store>
class KvBench {
 public:
  KvBench(const KvMix& mix, std::uint64_t seed, unsigned workers, Tracer* tr,
          std::string workload)
      : mix_(mix), seed_(seed), workers_(workers), tr_(tr),
        workload_(std::move(workload)) {}

  // Constructs an empty store with make_store(), loads every key with
  // `workers` threads (resizing as it grows), then drains the last round.
  template <class MakeStore>
  void add_cell(MakeStore&& make_store, const std::string& scheme) {
    const KeySpace& keys = *mix_.keys;
    CellCommon cc;
    cc.r.scheme = scheme;
    cc.open(tr_, "cell " + workload_ + " " + scheme);
    const std::uint64_t t0 = now_ns();
    cells_.push_back(std::unique_ptr<Cell>(new Cell{
        [&] {
          ScopedSpan s(tr_, cc.span, "construct");
          return make_store();
        }(),
        std::move(cc), std::vector<KvLedger>(workers_, KvLedger(keys.size())),
        0}));
    Cell& c = *cells_.back();
    CellResult& r = c.cc.r;
    {
      ScopedSpan s(tr_, c.cc.span, "prefill");
      const std::uint64_t tp = now_ns();
      std::vector<std::uint64_t> bad(workers_, 0);
      std::vector<std::thread> ts;
      for (unsigned t = 0; t < workers_; ++t) {
        ts.emplace_back([&, t] {
          auto session = c.store.session();
          char kb[kKeyLen];
          char vb[kValueLen];
          for (std::uint64_t id = t; id < keys.size(); id += workers_) {
            encode_value({id, kLoader, 0}, vb);
            if (!session.put(keys.key(id, kb), std::string_view(vb, kValueLen)))
              ++bad[t];
          }
        });
      }
      for (auto& th : ts) th.join();
      for (const std::uint64_t b : bad)
        if (b != 0) r.verdict.fail("prefill put reported an existing key", b);
      r.prefill_s = static_cast<double>(now_ns() - tp) * 1e-9;
      r.attempted += keys.size();
    }
    {
      // size_unsafe() finishes any resize round still in flight.
      ScopedSpan s(tr_, c.cc.span, "resize_drain");
      const std::uint64_t size = c.store.size_unsafe();
      if (size != keys.size())
        r.verdict.fail("loaded " + std::to_string(keys.size()) +
                       " keys, size_unsafe() = " + std::to_string(size));
      if (c.store.pending_migration() != 0)
        r.verdict.fail("resize still pending after the drain");
    }
    r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
    r.migrated_buckets = c.store.migrated_buckets();
    c.retired0 = c.store.stats().retired_total;
    c.cc.before_rounds(c.store);
  }

  std::size_t cells() const { return cells_.size(); }
  std::uint64_t cell_span(unsigned c) const { return cells_[c]->cc.span; }
  std::int64_t pending(unsigned c) { return cells_[c]->store.pending_nodes(); }

  auto make_worker(unsigned t, unsigned c) {
    Cell& cell = *cells_[c];
    return KvWorker<decltype(cell.store.session())>{
        cell.store.session(),
        Rng(stream_seed(seed_, 0x200 + 16 * c + t)),
        &cell.ledgers[t],
        &mix_,
        t,
        workers_,
        {},
        {},
        {}};
  }

  std::vector<CellResult> finish(std::vector<LoopResult>&& loops) {
    std::vector<CellResult> out;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      Cell& c = *cells_[i];
      CellResult& r = c.cc.r;
      c.cc.after_rounds(c.store, std::move(loops[i]));
      {
        ScopedSpan s(tr_, c.cc.span, "check");
        std::uint64_t puts = 0;
        for (KvLedger& l : c.ledgers) {
          puts += l.puts;
          r.verdict.merge(std::move(l.verdict));
        }
        // Every put replaces a loaded key's blob, which is retired once.
        const std::uint64_t retired = r.after.retired_total - c.retired0;
        if (retired != puts)
          r.verdict.fail("retired " + std::to_string(retired) +
                         " nodes for " + std::to_string(puts) + " puts");
        // The sweep is split across the workers' count of threads.
        std::vector<Verdict> vs(workers_);
        std::vector<std::uint64_t> ops(workers_, 0);
        std::vector<std::thread> ts;
        for (unsigned t = 0; t < workers_; ++t) {
          ts.emplace_back([&, t] {
            auto session = c.store.session();
            ops[t] = check_kv_final(
                *mix_.keys, c.ledgers,
                [&](std::string_view k, std::string* v) {
                  return session.get(k, v);
                },
                vs[t], t, workers_);
          });
        }
        for (auto& th : ts) th.join();
        for (unsigned t = 0; t < workers_; ++t) {
          r.attempted += ops[t];
          r.verdict.merge(std::move(vs[t]));
        }
      }
      c.cc.close(tr_);
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  struct Cell {
    Store store;
    CellCommon cc;
    std::vector<KvLedger> ledgers;  // one per worker
    std::uint64_t retired0;
  };

  KvMix mix_;
  std::uint64_t seed_;
  unsigned workers_;
  Tracer* tr_;
  std::string workload_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

}  // namespace perfbench
