// The benchmark's own tests: run the real list-mixed and kv cell drivers,
// loops and checks against small in-memory stores, once correct and once
// with each deliberate fault (a dropped key, a stale or foreign value, a
// double retire), and require that the checks pass the correct store and
// flag every faulty one.  Exit code 0 = every expectation held.
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "cells.hpp"

namespace perfbench {
namespace {

enum class Fault { kNone, kDropKey, kStaleValue, kForeignValue, kDoubleRetire };

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::kNone: return "none";
    case Fault::kDropKey: return "dropped key";
    case Fault::kStaleValue: return "stale value";
    case Fault::kForeignValue: return "foreign value";
    case Fault::kDoubleRetire: return "double retire";
  }
  return "?";
}

// Observers every fake shares; the retire count is the only one checked.
struct FakeObservers {
  std::mutex m;
  std::uint64_t retired = 0;
  Fault fault = Fault::kNone;

  // Counts one retire, or two for the first one under kDoubleRetire.
  void retire() {
    retired += (fault == Fault::kDoubleRetire && retired == 0) ? 2 : 1;
  }
  scot::obs::StatsSnapshot stats() {
    std::lock_guard<std::mutex> g(m);
    scot::obs::StatsSnapshot s;
    s.retired_total = retired;
    return s;
  }
};

// A set of uint64 keys behind one mutex.  kDropKey: an insert of key 7
// reports success but stores nothing.
class FakeMap {
 public:
  explicit FakeMap(Fault f) : st_(std::make_unique<State>()) { st_->fault = f; }

  class Session {
   public:
    explicit Session(FakeMap* m) : m_(m) {}
    bool contains(std::uint64_t k) {
      std::lock_guard<std::mutex> g(m_->st_->m);
      return m_->st_->keys.count(k) != 0;
    }
    bool insert(std::uint64_t k, std::uint64_t) {
      State& st = *m_->st_;
      std::lock_guard<std::mutex> g(st.m);
      if (st.fault == Fault::kDropKey && k == 7) return st.keys.count(k) == 0;
      return st.keys.insert(k).second;
    }
    bool erase(std::uint64_t k) {
      State& st = *m_->st_;
      std::lock_guard<std::mutex> g(st.m);
      if (st.keys.erase(k) == 0) return false;
      st.retire();
      return true;
    }

   private:
    FakeMap* m_;
  };

  Session session() { return Session(this); }
  std::size_t size_unsafe() { return st_->keys.size(); }
  scot::obs::StatsSnapshot stats() { return st_->stats(); }
  std::int64_t pending_nodes() const { return 0; }
  std::uint64_t restarts() const { return 0; }
  std::uint64_t recoveries() const { return 0; }

 private:
  struct State : FakeObservers {
    std::set<std::uint64_t> keys;
  };
  std::unique_ptr<State> st_;
};

// A string map behind one mutex that keeps every key's previous value.
// kDropKey loses key `victim`; kStaleValue serves the previous value;
// kForeignValue serves another key's value for `victim`.
class FakeStore {
 public:
  FakeStore(Fault f, std::string victim, std::string other)
      : st_(std::make_unique<State>()) {
    st_->fault = f;
    st_->victim = std::move(victim);
    st_->other = std::move(other);
  }

  class Session {
   public:
    explicit Session(FakeStore* s) : s_(s) {}
    bool put(std::string_view key, std::string_view value) {
      State& st = *s_->st_;
      std::lock_guard<std::mutex> g(st.m);
      auto [it, inserted] = st.kv.try_emplace(std::string(key));
      if (!inserted) {
        st.prev[it->first] = it->second;
        st.retire();
      }
      it->second.assign(value);
      return inserted;
    }
    bool get(std::string_view key, std::string* out) {
      State& st = *s_->st_;
      std::lock_guard<std::mutex> g(st.m);
      const std::string k(key);
      if (st.fault == Fault::kDropKey && k == st.victim) return false;
      if (st.fault == Fault::kForeignValue && k == st.victim) {
        *out = st.kv.at(st.other);
        return true;
      }
      if (st.fault == Fault::kStaleValue) {
        const auto p = st.prev.find(k);
        if (p != st.prev.end()) {
          *out = p->second;
          return true;
        }
      }
      const auto it = st.kv.find(k);
      if (it == st.kv.end()) return false;
      *out = it->second;
      return true;
    }

   private:
    FakeStore* s_;
  };

  Session session() { return Session(this); }
  std::size_t size_unsafe() { return st_->kv.size(); }
  std::uint64_t pending_migration() const { return 0; }
  std::uint64_t migrated_buckets() const { return 0; }
  scot::obs::StatsSnapshot stats() { return st_->stats(); }
  std::int64_t pending_nodes() const { return 0; }
  std::uint64_t restarts() const { return 0; }
  std::uint64_t recoveries() const { return 0; }

 private:
  struct State : FakeObservers {
    std::string victim, other;
    std::map<std::string, std::string> kv, prev;
  };
  std::unique_ptr<State> st_;
};

LoopPlan small_plan() {
  LoopPlan p;
  p.workers = 2;
  p.first_warmup_s = 0.01;
  p.warmup_s = 0.005;
  p.segment_s = 0.02;
  p.rounds = 2;
  return p;
}

int failures = 0;

void expect(bool flagged_wanted, const CellResult& r, const char* workload,
            Fault f) {
  const bool flagged = r.verdict.failed > 0;
  const bool ok = flagged == flagged_wanted;
  if (!ok) ++failures;
  const std::string note =
      r.verdict.notes.empty() ? "" : "  (" + r.verdict.notes[0] + ")";
  std::printf("%-4s %-10s fault=%-13s failed=%llu%s\n", ok ? "ok" : "FAIL",
              workload, fault_name(f),
              static_cast<unsigned long long>(r.verdict.failed), note.c_str());
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  for (Fault f : {Fault::kNone, Fault::kDropKey, Fault::kDoubleRetire}) {
    ListMixed<FakeMap> bench(3, 2, nullptr);
    bench.add_cell([f] { return FakeMap(f); }, "fake");
    const auto r = bench.finish(run_rounds(small_plan(), bench, nullptr));
    expect(f != Fault::kNone, r[0], "list-mixed", f);
  }

  const KeySpace keys(4096, 5);
  const Zipfian zipf(keys.size(), 0.99);
  char a[kKeyLen], b[kKeyLen];
  const std::string victim(keys.key(0, a)), other(keys.key(1, b));
  for (unsigned put_pct : {50u, 0u}) {
    const KvMix mix{&keys, &zipf, 9, put_pct};
    const char* name = put_pct == 0 ? "kv-read" : "kv-update";
    for (Fault f : {Fault::kNone, Fault::kDropKey, Fault::kStaleValue,
                    Fault::kForeignValue, Fault::kDoubleRetire}) {
      // Without puts nothing is overwritten or retired.
      if (put_pct == 0 &&
          (f == Fault::kStaleValue || f == Fault::kDoubleRetire))
        continue;
      KvBench<FakeStore> bench(mix, 7, 2, nullptr, name);
      bench.add_cell([&] { return FakeStore(f, victim, other); }, "fake");
      const auto r = bench.finish(run_rounds(small_plan(), bench, nullptr));
      expect(f != Fault::kNone, r[0], name, f);
    }
  }
  std::printf("%s\n", failures == 0 ? "selftest: all checks behave"
                                    : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
