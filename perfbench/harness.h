// Measurement primitives of the perfbench benchmark: precise latency
// quantiles, in-memory span tracing, per-phase getrusage deltas and the
// result record. Everything here observes the program from outside and
// needs none of its headers.

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Sample 1 client op in kSampleEvery (a power of two) for latency.
constexpr uint64_t kSampleEvery = 16;

// ------------------------------------------------------------ quantiles
//
// Log-linear histogram with 2^kSubBits sub-buckets per power of two:
// values below 2^kSubBits are exact, larger ones land in buckets at most
// 2^-kSubBits wide relative to their lower edge, and a quantile reports
// the bucket midpoint, so its relative error is at most 2^-(kSubBits+1)
// (0.2%), far below any bound the benchmark sets. A 4-per-octave
// histogram (19% buckets) lets a p50 near an edge jump a whole bucket
// between otherwise equal runs.

class Histogram {
 public:
  static constexpr int kSubBits = 8;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

  Histogram() : buckets_(kBuckets, 0) {}

  void Record(uint64_t v) {
    ++buckets_[BucketOf(v)];
    ++count_;
  }
  void Merge(const Histogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  uint64_t count() const { return count_; }

  /// Nearest-rank quantile (the sample of rank ceil(p*n), 1-based),
  /// reported as its bucket's midpoint. 0 when empty.
  double Quantile(double p) const {
    if (count_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_)));
    rank = std::min<uint64_t>(std::max<uint64_t>(rank, 1), count_);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += buckets_[b];
      if (seen >= rank) return Mid(b);
    }
    return Mid(kBuckets - 1);
  }

  static size_t BucketOf(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return static_cast<size_t>(shift + 1) * kSub +
           static_cast<size_t>((v >> shift) & (kSub - 1));
  }
  static double Mid(size_t b) {
    if (b < kSub) return static_cast<double>(b);
    const int shift = static_cast<int>(b / kSub) - 1;
    const double low =
        std::ldexp(static_cast<double>(kSub + b % kSub), shift);
    return low + std::ldexp(1.0, shift) / 2 - 0.5;
  }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Nearest-rank quantile of raw samples (the reference the histogram is
/// tested against, and the estimator for small per-run sample sets).
inline double ExactQuantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

inline double Median(std::vector<double> v) { return ExactQuantile(std::move(v), 0.5); }

// --------------------------------------------------------------- rusage

struct Usage {
  double cpu_s = 0;
  long minflt = 0;
  long vol_csw = 0;
  long invol_csw = 0;
  long maxrss_kib = 0;

  static Usage Now() {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    u.minflt = ru.ru_minflt;
    u.vol_csw = ru.ru_nvcsw;
    u.invol_csw = ru.ru_nivcsw;
    u.maxrss_kib = ru.ru_maxrss;
    return u;
  }
  Usage operator-(const Usage& o) const {
    Usage d;
    d.cpu_s = cpu_s - o.cpu_s;
    d.minflt = minflt - o.minflt;
    d.vol_csw = vol_csw - o.vol_csw;
    d.invol_csw = invol_csw - o.invol_csw;
    d.maxrss_kib = maxrss_kib;
    return d;
  }
  Usage& operator+=(const Usage& o) {
    cpu_s += o.cpu_s;
    minflt += o.minflt;
    vol_csw += o.vol_csw;
    invol_csw += o.invol_csw;
    maxrss_kib = std::max(maxrss_kib, o.maxrss_kib);
    return *this;
  }
};

// -------------------------------------------------------------- tracing
//
// Spans are recorded by the benchmark around each call into a layer and
// kept in per-thread buffers; nothing is written until the run ends.
// Root spans are sampled client ops; a child carries its root's id as
// `parent`. Events drained from the program's TailEventRing join with
// parent 0. Self time = duration minus the union of child intervals.

struct Span {
  uint64_t id = 0;      // nonzero for roots; children reuse the root id
  uint64_t parent = 0;  // 0 for roots and ring events
  const char* name = "";
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class Tracer {
 public:
  /// Per-thread span buffer; `tid` must be unique per recording thread.
  class Buffer {
   public:
    Buffer(Tracer* t, uint32_t tid) : tracer_(t), tid_(tid) {}
    ~Buffer() { tracer_->Absorb(&spans_); }
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;

    uint64_t NewRoot() { return (uint64_t{tid_} << 40) | ++seq_; }
    void Add(uint64_t id, uint64_t parent, const char* name, uint64_t s,
             uint64_t e) {
      spans_.push_back({id, parent, name, tid_, s, e});
    }

   private:
    Tracer* tracer_;
    uint32_t tid_;
    uint64_t seq_ = 0;
    std::vector<Span> spans_;
  };

  void Absorb(std::vector<Span>* v) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.insert(spans_.end(), v->begin(), v->end());
    v->clear();
  }

  struct NameStats {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
    Histogram dur;
  };

  /// Per-name count, total and self time. Children are matched to their
  /// root by id; self time subtracts the union of child intervals
  /// clipped to the parent.
  std::map<std::string, NameStats> Summarize() const {
    std::map<uint64_t, std::vector<const Span*>> kids;
    for (const Span& s : spans_) {
      if (s.parent != 0) kids[s.parent].push_back(&s);
    }
    std::map<std::string, NameStats> out;
    for (const Span& s : spans_) {
      NameStats& ns = out[s.name];
      const uint64_t dur = s.end_ns - s.start_ns;
      ++ns.count;
      ns.total_ns += dur;
      ns.dur.Record(dur);
      uint64_t covered = 0;
      if (s.parent == 0 && s.id != 0) {
        auto it = kids.find(s.id);
        if (it != kids.end()) covered = Union(it->second, s.start_ns, s.end_ns);
      }
      ns.self_ns += dur - std::min(dur, covered);
    }
    return out;
  }

  /// Write every span as one JSON object per line, then a summary line
  /// per span name. Returns false on I/O failure.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"tid\":%u,"
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.tid,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    for (const auto& [name, ns] : Summarize()) {
      std::fprintf(f,
                   "{\"summary\":\"%s\",\"count\":%llu,\"total_ms\":%.3f,"
                   "\"self_ms\":%.3f,\"p50_ns\":%.0f,\"p99_ns\":%.0f}\n",
                   name.c_str(), static_cast<unsigned long long>(ns.count),
                   static_cast<double>(ns.total_ns) * 1e-6,
                   static_cast<double>(ns.self_ns) * 1e-6,
                   ns.dur.Quantile(0.5), ns.dur.Quantile(0.99));
    }
    return std::fclose(f) == 0;
  }

 private:
  static uint64_t Union(std::vector<const Span*> v, uint64_t lo, uint64_t hi) {
    std::sort(v.begin(), v.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
    uint64_t covered = 0, cur_s = 0, cur_e = 0;
    bool open = false;
    for (const Span* c : v) {
      const uint64_t s = std::max(c->start_ns, lo), e = std::min(c->end_ns, hi);
      if (s >= e) continue;
      if (open && s <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    }
    if (open) covered += cur_e - cur_s;
    return covered;
  }

  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call into a layer as a child span of the current root (a
/// no-op when the root is not sampled or tracing is off).
class ChildSpan {
 public:
  ChildSpan(Tracer::Buffer* buf, uint64_t root, const char* name)
      : buf_(root != 0 ? buf : nullptr), root_(root), name_(name),
        start_(buf_ != nullptr ? NowNs() : 0) {}
  ~ChildSpan() {
    if (buf_ != nullptr) buf_->Add(root_, root_, name_, start_, NowNs());
  }
  ChildSpan(const ChildSpan&) = delete;
  ChildSpan& operator=(const ChildSpan&) = delete;

 private:
  Tracer::Buffer* buf_;
  uint64_t root_;
  const char* name_;
  uint64_t start_;
};

// ---------------------------------------------------------- run result

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports: op accounting, the end-to-end metrics
/// (untraced phase) and the per-layer metrics (traced phase).
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool structure_ok = true;  // invariants, last_error, restore status
  std::vector<std::string> errors;  // first few failure descriptions
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, Metric> detail;  // printed, not part of the record

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

}  // namespace perfbench
