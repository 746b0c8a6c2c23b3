// Input generation for the benchmark: a seeded RNG, the YCSB zipfian rank
// generator, the key space and the self-describing value codec.  Kept here,
// not borrowed from the library, so that no edit to the library can change
// the inputs the benchmark feeds it.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// SplitMix64 finalizer: a bijection on 64 bits with full avalanche.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Independent stream `stream` of run seed `seed` (one per worker, one per
// prefill choice, ...), so adding a stream never shifts another.
inline std::uint64_t stream_seed(std::uint64_t seed,
                                 std::uint64_t stream) noexcept {
  return mix64(seed * 0x9e3779b97f4a7c15ULL + mix64(stream + 1));
}

// xoshiro256** seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept {
    for (auto& w : s_) {
      seed += 0x9e3779b97f4a7c15ULL;
      w = mix64(seed);
    }
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, n) by multiply-shift (Lemire), bias below 2^-64 * n.
  std::uint64_t below(std::uint64_t n) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

// Zipfian ranks in [0, n), rank 0 most popular (Gray et al., SIGMOD '94 —
// the construction YCSB uses).  zeta(n) is O(n) once; next() is O(1).
class Zipfian {
 public:
  Zipfian(std::uint64_t n, double theta)
      : n_(n < 3 ? 3 : n),
        theta_(theta),
        zetan_(zeta(n_, theta)),
        half_pow_theta_(std::pow(0.5, theta)),
        alpha_(1.0 / (1.0 - theta)),
        eta_((1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta)) /
             (1.0 - zeta(2, theta) / zetan_)) {}

  std::uint64_t next(Rng& rng) const noexcept {
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow_theta_) return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
  }

 private:
  static double zeta(std::uint64_t n, double theta) {
    double sum = 0;
    for (std::uint64_t i = 1; i <= n; ++i)
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
  }

  std::uint64_t n_;
  double theta_;
  double zetan_;
  double half_pow_theta_;
  double alpha_;
  double eta_;
};

inline constexpr std::size_t kKeyLen = 16;
inline constexpr std::size_t kValueLen = 128;
inline constexpr std::uint32_t kLoader = 0xffffffffu;  // writer id of prefill

// Key ids 0..n-1 map to 16-byte keys "user" + 12 hex digits of a
// seed-keyed bijection on 48 bits, so keys are distinct for every seed
// while their bytes (and hence their hash spread) depend on the seed.
class KeySpace {
 public:
  KeySpace(std::uint64_t n, std::uint64_t seed)
      : n_(n), salt_(stream_seed(seed, 0x6b6579) & kMask) {}

  std::uint64_t size() const noexcept { return n_; }

  std::string_view key(std::uint64_t id, char (&buf)[kKeyLen]) const noexcept {
    static constexpr char kHex[] = "0123456789abcdef";
    std::uint64_t x = perm48(id);
    std::memcpy(buf, "user", 4);
    for (int i = 15; i >= 4; --i) {
      buf[i] = kHex[x & 0xf];
      x >>= 4;
    }
    return {buf, kKeyLen};
  }

 private:
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << 48) - 1;
  // Each step is invertible mod 2^48: add, xor-shift right, odd multiply.
  std::uint64_t perm48(std::uint64_t id) const noexcept {
    std::uint64_t x = (id + salt_) & kMask;
    x ^= x >> 23;
    x = (x * 0x9e3779b97f4bULL) & kMask;
    x ^= x >> 19;
    x = (x * 0x5851f42d4c95ULL) & kMask;
    x ^= x >> 21;
    return x;
  }

  std::uint64_t n_;
  std::uint64_t salt_;
};

// Self-describing 128-byte value: key id, writer, writer sequence, and a
// filler derived from those three, so a reader can tell a torn, foreign or
// fabricated value from a real one without any copy of earlier output.
struct ValueFields {
  std::uint64_t key_id;
  std::uint32_t writer;
  std::uint64_t seq;
};

inline constexpr std::uint32_t kValueMagic = 0x5643424bu;  // "KBCV"
inline constexpr std::size_t kFillerWords = (kValueLen - 24) / 8;

inline std::uint64_t filler_seed(const ValueFields& f) noexcept {
  return mix64(f.key_id * 0x9e3779b97f4a7c15ULL ^
               (std::uint64_t{f.writer} << 40) ^ mix64(f.seq));
}

inline void encode_value(const ValueFields& f,
                         char (&buf)[kValueLen]) noexcept {
  std::memcpy(buf, &f.key_id, 8);
  std::memcpy(buf + 8, &f.writer, 4);
  std::memcpy(buf + 12, &kValueMagic, 4);
  std::memcpy(buf + 16, &f.seq, 8);
  const std::uint64_t h = filler_seed(f);
  for (std::size_t i = 0; i < kFillerWords; ++i) {
    const std::uint64_t w = h ^ (i * 0xd6e8feb86659fd93ULL);
    std::memcpy(buf + 24 + 8 * i, &w, 8);
  }
}

// The fields of a well-formed value, or nullopt for any malformed one.
inline std::optional<ValueFields> decode_value(std::string_view v) noexcept {
  if (v.size() != kValueLen) return std::nullopt;
  ValueFields f{};
  std::uint32_t magic = 0;
  std::memcpy(&f.key_id, v.data(), 8);
  std::memcpy(&f.writer, v.data() + 8, 4);
  std::memcpy(&magic, v.data() + 12, 4);
  std::memcpy(&f.seq, v.data() + 16, 8);
  if (magic != kValueMagic) return std::nullopt;
  const std::uint64_t h = filler_seed(f);
  for (std::size_t i = 0; i < kFillerWords; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, v.data() + 24 + 8 * i, 8);
    if (w != (h ^ (i * 0xd6e8feb86659fd93ULL))) return std::nullopt;
  }
  return f;
}

}  // namespace perfbench
