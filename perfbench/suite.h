// The four perfbench workloads. Each builds the program through its
// public API, drives it from at most nproc client threads, checks every
// result it reads, and reports into a Result (harness.h).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ordered_map.h"
#include "harness.h"

namespace perfbench {

struct Options {
  uint64_t seed = 1;
  double seconds = 10;
  /// false: one untraced phase of `seconds`, end-to-end metrics.
  /// true: an untraced then a traced phase of `seconds`/2 each,
  /// per-layer metrics plus trace.overhead_pct.
  bool trace = false;
  /// Checkpoints and the span file go here; must exist.
  std::string work_dir = ".";
  /// "pma" (what the benchmark measures), or "btree"/"art" for the
  /// README's reference figures on ycsb_a and ycsb_e.
  std::string backend = "pma";

  // Test knobs. A test shrinks the workload, runs it single-threaded
  // for a fixed number of ops so call sequences repeat exactly, and
  // interposes a wrapper between the clients/checks and the program.
  uint64_t scale_div = 1;   // divide every size by this
  uint64_t op_budget = 0;   // ops per client thread; 0 = run for seconds
  bool single_client = false;  // one client, no concurrent scanners
  std::function<std::unique_ptr<cpma::OrderedMap>(cpma::OrderedMap*)> wrap;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Unknown names abort (callers validate first).
Result RunWorkload(const std::string& name, const Options& opts);

}  // namespace perfbench
