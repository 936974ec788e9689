// Self-test of the benchmark: its quantiles against sorted raw samples,
// and its checks against planted faults. Each workload runs small,
// single-client and for a fixed number of ops through an OrderedMap
// wrapper that plants one fault; every planted fault must be counted as
// a failed operation, and the clean run must count none.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "suite.h"

namespace {

using cpma::Key;
using cpma::OrderedMap;
using cpma::ScanCallback;
using cpma::Value;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

enum class Fault { kNone, kDropWrite, kWrongValue, kSkipKey, kRepeatKey };

const char* FaultName(Fault f) {
  switch (f) {
    case Fault::kNone: return "none";
    case Fault::kDropWrite: return "drop-write";
    case Fault::kWrongValue: return "wrong-value";
    case Fault::kSkipKey: return "skip-key";
    case Fault::kRepeatKey: return "repeat-key";
  }
  return "?";
}

/// Forwards to the program, planting `fault` once, on the `at`-th call
/// of the kind it affects, counted from 1: writes for kDropWrite, reads
/// (Find or Scan) for kWrongValue, Scan for the scan faults.
class FaultyMap : public OrderedMap {
 public:
  FaultyMap(OrderedMap* inner, Fault fault, uint64_t at, uint64_t* writes)
      : inner_(inner), fault_(fault), at_(at), writes_(writes) {}

  void Insert(Key k, Value v) override {
    if (++*writes_ == at_ && fault_ == Fault::kDropWrite) return;
    inner_->Insert(k, v);
  }
  void Remove(Key k) override { inner_->Remove(k); }
  bool Find(Key k, Value* v) const override {
    if (++reads_ == at_ && fault_ == Fault::kWrongValue) {
      return inner_->Find(k + 1, v) || inner_->Find(k - 1, v);
    }
    return inner_->Find(k, v);
  }
  uint64_t SumAll() const override { return inner_->SumAll(); }
  void Scan(Key lo, Key hi, const ScanCallback& cb) const override {
    const bool plant_value = ++reads_ == at_ && fault_ == Fault::kWrongValue;
    const bool plant_scan = ++scans_ == at_ &&
                            (fault_ == Fault::kSkipKey || fault_ == Fault::kRepeatKey);
    if (!plant_value && !plant_scan) {
      inner_->Scan(lo, hi, cb);
      return;
    }
    // Faults land on the second item, so the first still anchors the
    // scan at its start key; a wrong value is the next key's value.
    uint64_t n = 0;
    Key first_key = 0;
    inner_->Scan(lo, hi, [&](Key k, Value v) {
      ++n;
      if (plant_value) {
        if (n == 1) {
          first_key = k;
          return true;
        }
        if (n == 2 && !cb(first_key, v)) return false;
        return cb(k, v);
      }
      if (fault_ == Fault::kSkipKey && n == 2) return true;
      if (fault_ == Fault::kRepeatKey && n == 2 && !cb(k, v)) return false;
      return cb(k, v);
    });
  }
  size_t Size() const override { return inner_->Size(); }
  void Flush() override { inner_->Flush(); }
  std::string Name() const override { return "faulty(" + inner_->Name() + ")"; }

 private:
  OrderedMap* inner_;
  Fault fault_;
  uint64_t at_;
  uint64_t* writes_;
  mutable uint64_t reads_ = 0;
  mutable uint64_t scans_ = 0;
};

perfbench::Result Run(const std::string& workload, Fault fault, uint64_t at,
                      uint64_t* writes) {
  perfbench::Options o;
  o.seed = 7;
  o.scale_div = 64;
  o.op_budget = 4000;
  o.single_client = true;
  o.work_dir = "perfbench_test_work";
  std::filesystem::create_directories(o.work_dir);
  *writes = 0;
  o.wrap = [=](OrderedMap* m) -> std::unique_ptr<OrderedMap> {
    return std::make_unique<FaultyMap>(m, fault, at, writes);
  };
  return perfbench::RunWorkload(workload, o);
}

void TestFaultsAreCounted() {
  for (const std::string& w : perfbench::WorkloadNames()) {
    uint64_t writes = 0;
    const perfbench::Result clean = Run(w, Fault::kNone, 0, &writes);
    Expect(clean.failed == 0 && clean.structure_ok && clean.attempted > 0,
           w + ": clean run counts no failure (" + std::to_string(clean.attempted) +
               " attempted, " + std::to_string(clean.failed) + " failed" +
               (clean.errors.empty() ? "" : ": " + clean.errors[0]) + ")");
    // The last write is the one no later write can mask.
    const uint64_t last_write = writes;
    struct Plant {
      Fault fault;
      uint64_t at;
    };
    std::vector<Plant> plants = {{Fault::kDropWrite, last_write},
                                 {Fault::kSkipKey, 1},
                                 {Fault::kRepeatKey, 1}};
    // Every value of ingest_scan is 1, so another key's value is the
    // right value there; the other workloads read values that encode
    // their key.
    if (w != "ingest_scan") plants.push_back({Fault::kWrongValue, 1});
    for (const Plant& p : plants) {
      uint64_t n = 0;
      const perfbench::Result r = Run(w, p.fault, p.at, &n);
      Expect(r.failed >= 1, w + ": planted " + FaultName(p.fault) + " is counted (" +
                                std::to_string(r.failed) + " failed" +
                                (r.errors.empty() ? "" : ": " + r.errors[0]) + ")");
    }
  }
  std::error_code ec;
  std::filesystem::remove_all("perfbench_test_work", ec);
}

void TestQuantilesMatchSortedSamples() {
  cpma::Random rng(11);
  for (int shape = 0; shape < 3; ++shape) {
    perfbench::Histogram h;
    std::vector<double> raw;
    for (int i = 0; i < 200000; ++i) {
      uint64_t v;
      if (shape == 0) v = 1 + rng.NextBounded(100);          // exact range
      else if (shape == 1) v = 200 + rng.NextBounded(5000);  // uniform
      else v = static_cast<uint64_t>(std::exp(4 + 10 * rng.NextDouble()));  // log-uniform
      h.Record(v);
      raw.push_back(static_cast<double>(v));
    }
    for (double p : {0.01, 0.5, 0.9, 0.99, 0.999}) {
      const double exact = perfbench::ExactQuantile(raw, p);
      const double got = h.Quantile(p);
      const double err = std::fabs(got - exact) / exact;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "quantile shape %d p=%.3f: %.1f vs exact %.1f (error %.4f%%)",
                    shape, p, got, exact, err * 100);
      Expect(err <= 0.0025, buf);
    }
  }
}

}  // namespace

int main() {
  TestQuantilesMatchSortedSamples();
  TestFaultsAreCounted();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
