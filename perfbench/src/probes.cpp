#include "probes.hpp"

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/asymfence.hpp"
#include "gen.hpp"
#include "loop.hpp"
#include "smr/smr.hpp"

namespace perfbench {
namespace {

constexpr unsigned kRounds = 7;  // report the median round

struct ProbeNode : scot::ReclaimNode {
  std::atomic<ProbeNode*> next{nullptr};
};

std::atomic<std::uintptr_t> g_sink{0};

template <class Domain>
SchemeProbe probe(const scot::SmrConfig& cfg) {
  using Handle = typename Domain::Handle;
  Domain d(cfg);
  auto sh = scot::scoped_handle(d);
  Handle& h = sh.get();

  // A ring of live, never-retired nodes, walked the way a traversal walks
  // a list: alternate two slots, protecting each node's next link.
  constexpr unsigned kRing = 64, kPerGuard = 1024, kGuards = 256;
  std::vector<ProbeNode*> ring;
  for (unsigned i = 0; i < kRing; ++i)
    ring.push_back(h.template alloc<ProbeNode>());
  for (unsigned i = 0; i < kRing; ++i)
    ring[i]->next.store(ring[(i + 1) % kRing], std::memory_order_relaxed);
  std::atomic<ProbeNode*> head{ring[0]};

  std::uintptr_t sink = 0;
  std::vector<double> protect, begin_end;
  for (unsigned round = 0; round < kRounds; ++round) {
    std::uint64_t t0 = now_ns();
    for (unsigned g = 0; g < kGuards; ++g) {
      scot::TraversalGuard<Handle> guard(h);
      auto a = guard.template slot<ProbeNode>();
      auto b = guard.template slot<ProbeNode>();
      ProbeNode* cur = a.protect(head).get();
      for (unsigned i = 0; i < kPerGuard / 2; ++i) {
        cur = b.protect(cur->next).get();
        cur = a.protect(cur->next).get();
      }
      sink ^= reinterpret_cast<std::uintptr_t>(cur);
    }
    protect.push_back(static_cast<double>(now_ns() - t0) /
                      (double{kGuards} * (kPerGuard + 1)));

    constexpr unsigned kOps = 200000;
    t0 = now_ns();
    for (unsigned i = 0; i < kOps; ++i) scot::TraversalGuard<Handle> guard(h);
    begin_end.push_back(static_cast<double>(now_ns() - t0) / kOps);
  }
  g_sink.fetch_xor(sink, std::memory_order_relaxed);
  for (ProbeNode* n : ring) h.dealloc_unpublished(n);
  return {median(protect), median(begin_end)};
}

}  // namespace

SchemeProbe probe_scheme(scot::SchemeId scheme, const scot::SmrConfig& cfg) {
  switch (scheme) {
    case scot::SchemeId::kNR: return probe<scot::NoReclaimDomain>(cfg);
    case scot::SchemeId::kEBR: return probe<scot::EbrDomain>(cfg);
    case scot::SchemeId::kHP: return probe<scot::HpDomain>(cfg);
    case scot::SchemeId::kHPopt: return probe<scot::HpOptDomain>(cfg);
    case scot::SchemeId::kHE: return probe<scot::HeDomain>(cfg);
    case scot::SchemeId::kIBR: return probe<scot::IbrDomain>(cfg);
    case scot::SchemeId::kHLN: return probe<scot::HyalineDomain>(cfg);
  }
  return {};
}

double probe_heavy_barrier_ns() {
  const auto path = scot::asymfence::resolve(true);
  constexpr unsigned kCalls = 500;
  std::vector<double> rounds;
  for (unsigned r = 0; r < kRounds; ++r) {
    const std::uint64_t t0 = now_ns();
    for (unsigned i = 0; i < kCalls; ++i) scot::asymfence::heavy_barrier(path);
    rounds.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  return median(rounds);
}

std::string fence_path() { return scot::asymfence::runtime_path_name(); }

}  // namespace perfbench
