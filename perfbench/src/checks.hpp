// Independent correctness checks.  Each works from what the operations
// returned — per-thread ledgers of successful inserts/erases and of each
// writer's own puts — and from a sweep of the store after the workers
// stopped, never from a copy of earlier output.  Every violation counts as
// one failed operation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gen.hpp"

namespace perfbench {

struct Verdict {
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  // the first few violations, for humans

  void fail(std::string note, std::uint64_t n = 1) {
    failed += n;
    if (notes.size() < 8) notes.push_back(std::move(note));
  }

  void merge(Verdict&& o) {
    failed += o.failed;
    for (auto& n : o.notes)
      if (notes.size() < 8) notes.push_back(std::move(n));
  }
};

// --- list-mixed ------------------------------------------------------------

struct ListLedger {
  explicit ListLedger(std::size_t keys) : net(keys, 0) {}
  std::vector<std::int64_t> net;  // successful inserts minus erases per key
  std::uint64_t erases = 0;
};

// Per key, the starting presence plus every thread's successful inserts
// minus erases must be 0 or 1 and equal the key's presence in a
// single-threaded sweep; the live keys must sum to size_unsafe().  The
// sweep also erases every absent key (which must report "absent"): erase
// unlinks any logically deleted chain next to its key, so afterwards every
// unlinked node has been retired, and the retired count must equal the
// successful erases — each unlinked node is retired exactly once.
// Returns the number of sweep operations issued.
template <class Map, class Session>
std::uint64_t check_list_final(const std::vector<std::uint8_t>& start,
                               const std::vector<ListLedger>& ledgers,
                               Map& map, Session& s,
                               std::uint64_t retired_before, Verdict& v) {
  std::uint64_t ops = 0, live = 0, erases = 0;
  for (const ListLedger& l : ledgers) erases += l.erases;
  for (std::uint64_t k = 0; k < start.size(); ++k) {
    std::int64_t net = start[k];
    for (const ListLedger& l : ledgers) net += l.net[k];
    const bool present = s.contains(k);
    ++ops;
    if (net != 0 && net != 1) {
      v.fail("key " + std::to_string(k) + ": start + inserts - erases = " +
             std::to_string(net));
    } else if (present != (net == 1)) {
      v.fail("key " + std::to_string(k) + ": ledger says " +
             (net == 1 ? "present" : "absent") + ", sweep disagrees");
    }
    if (present) {
      ++live;
    } else {
      ++ops;
      if (s.erase(k))
        v.fail("key " + std::to_string(k) + ": absent but erased");
    }
  }
  const std::uint64_t size = map.size_unsafe();
  if (size != live)
    v.fail("size_unsafe() = " + std::to_string(size) + ", sweep found " +
           std::to_string(live));
  const std::uint64_t retired = map.stats().retired_total - retired_before;
  if (retired != erases)
    v.fail("retired " + std::to_string(retired) + " nodes for " +
           std::to_string(erases) + " successful erases");
  return ops;
}

// --- kv-update / kv-read ---------------------------------------------------

struct KvLedger {
  explicit KvLedger(std::size_t keys) : last_put(keys, 0) {}
  std::vector<std::uint32_t> last_put;  // this writer's latest seq, 0 = none
  std::uint32_t seq = 0;
  std::uint64_t puts = 0;
  Verdict verdict;
};

// One get by writer `self` of loaded key `id`: it must hit, return a
// well-formed value for that key, and — when the value is this thread's
// own — be its latest put; a thread that has put the key can no longer see
// the prefill value.
inline bool get_ok(std::uint64_t id, bool hit, std::string_view value,
                   std::uint32_t self, unsigned writers, const KvLedger& l) {
  if (!hit) return false;
  const auto f = decode_value(value);
  if (!f || f->key_id != id) return false;
  if (f->writer == kLoader) return f->seq == 0 && l.last_put[id] == 0;
  if (f->writer >= writers || f->seq == 0) return false;
  return f->writer != self || f->seq == l.last_put[id];
}

// Each key's final value must be the prefill value when no thread put the
// key, and otherwise the last put of the thread that wrote it.  Sweeps the
// ids first, first + step, ... with get(key, out) as the lookup, after the
// workers stopped.  Returns the number of sweep operations.
template <class Get>
std::uint64_t check_kv_final(const KeySpace& keys,
                             const std::vector<KvLedger>& ledgers, Get&& get,
                             Verdict& v, std::uint64_t first = 0,
                             std::uint64_t step = 1) {
  std::string out;
  char kb[kKeyLen];
  std::uint64_t ops = 0;
  for (std::uint64_t id = first; id < keys.size(); id += step) {
    ++ops;
    const bool hit = get(keys.key(id, kb), &out);
    const auto f = hit ? decode_value(out) : std::nullopt;
    if (!f || f->key_id != id) {
      v.fail("key " + std::to_string(id) +
             (hit ? ": malformed or foreign final value" : ": lost"));
      continue;
    }
    bool ok;
    if (f->writer == kLoader) {
      ok = f->seq == 0;
      for (const KvLedger& l : ledgers) ok = ok && l.last_put[id] == 0;
    } else {
      ok = f->writer < ledgers.size() && f->seq != 0 &&
           ledgers[f->writer].last_put[id] == f->seq;
    }
    if (!ok)
      v.fail("key " + std::to_string(id) + ": final value (writer " +
             std::to_string(f->writer) + ", seq " + std::to_string(f->seq) +
             ") is not that writer's last put");
  }
  return ops;
}

}  // namespace perfbench
