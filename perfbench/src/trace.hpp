// Span recorder for the traced run.  Every span is a name, a start, an end
// and the span that caused it; spans stay in per-thread buffers in memory
// and are written out once, after the last cell, as one JSON object per
// line.  Each thread appends only to its own buffer, so recording takes no
// lock; buffers are sized up front and spans past the cap are counted, not
// stored.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gen.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t name;  // index into Tracer::names()
  std::uint32_t thread;
};

class Tracer {
 public:
  // Slot 0 is the main thread; slots 1..workers are the workers.
  Tracer(unsigned workers, std::size_t cap_per_thread)
      : cap_(cap_per_thread), buffers_(workers + 1) {
    for (auto& b : buffers_) b.spans.reserve(cap_);
  }

  // Interns a span name (main thread only, before workers start).
  std::uint32_t name(const std::string& n) {
    for (std::uint32_t i = 0; i < names_.size(); ++i)
      if (names_[i] == n) return i;
    names_.push_back(n);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  // Reserves the id of a span that is still open, so that spans it causes
  // can name it as their parent before it ends.
  std::uint64_t open(unsigned thread) {
    Buffer& b = buffers_[thread];
    return (std::uint64_t{thread} << 40) | ++b.next_id;
  }

  void close(unsigned thread, std::uint64_t id, std::uint64_t parent,
             std::uint32_t name, std::uint64_t start_ns,
             std::uint64_t end_ns) {
    Buffer& b = buffers_[thread];
    if (b.spans.size() >= cap_) {
      ++b.dropped;
      return;
    }
    b.spans.push_back(Span{id, parent, start_ns, end_ns, name, thread});
  }

  void record(unsigned thread, std::uint64_t parent, std::uint32_t name,
              std::uint64_t start_ns, std::uint64_t end_ns) {
    close(thread, open(thread), parent, name, start_ns, end_ns);
  }

  std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const auto& b : buffers_) n += b.dropped;
    return n;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b.spans.size();
    return n;
  }

  // One JSON object per line: {"id","parent","name","thread","start_ns",
  // "end_ns"}; times are steady-clock nanoseconds.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const auto& b : buffers_) {
      for (const Span& s : b.spans) {
        std::fprintf(f,
                     "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                     "\"thread\":%u,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     names_[s.name].c_str(), s.thread,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  struct alignas(64) Buffer {
    std::vector<Span> spans;
    std::uint64_t next_id = 0;
    std::uint64_t dropped = 0;
  };

  std::size_t cap_;
  std::vector<Buffer> buffers_;
  std::vector<std::string> names_;
};

// RAII span on the main thread around one call into a layer (construct,
// prefill, drain, check); a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, std::uint64_t parent, const char* name)
      : t_(t), parent_(parent) {
    if (t_ == nullptr) return;
    name_ = t_->name(name);
    id_ = t_->open(0);
    start_ = now_ns();
  }
  ~ScopedSpan() {
    if (t_ != nullptr) t_->close(0, id_, parent_, name_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* t_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  std::uint32_t name_ = 0;
  std::uint64_t start_ = 0;
};

}  // namespace perfbench
