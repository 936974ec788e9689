// perfbench: one checked benchmark run.
//
//   perfbench --workload <ycsb_a|ycsb_e|ingest_scan|sharded_ingest>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--backend <pma|btree|art>]
//
// --backend btree|art runs ycsb_a or ycsb_e on a baseline for the
// README's reference figures; the benchmark itself always measures pma.
//
// Prints the run's identity and figures as '#' lines, then one JSON
// record as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Exits 0 only when every check passed.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "common/hotpath/cpu_dispatch.h"
#include "suite.h"

extern char** environ;

namespace {

// Environment variables that change the program's behaviour; a run with
// any of them set would not measure the configuration it names.
const char* const kRefusedEnv[] = {
    "CPMA_SHARDS=",           "CPMA_COALESCE_",     "CPMA_OPTIMISTIC_RETRIES=",
    "CPMA_STRICT_ASYNC=",     "CPMA_FAILPOINTS=",   "CPMA_FORCE_NO_REWIRE=",
    "CPMA_DISABLE_AVX2=",     "CPMA_DISABLE_SSE42=", "CPMA_STREAM_BYTES=",
    "CPMA_WATCHDOG_MS=",      "CPMA_EBR_",
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--backend <pma|btree|art>]\n",
               why.c_str());
  return 2;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  *out = v;
  return true;
}

void PrintNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  for (char** e = environ; *e != nullptr; ++e) {
    for (const char* bad : kRefusedEnv) {
      if (std::strncmp(*e, bad, std::strlen(bad)) == 0) {
        return Usage(std::string("refusing to run with ") + *e +
                     " set: it changes the program under test");
      }
    }
  }

  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], value;
    if (arg.rfind("--", 0) != 0) return Usage("unexpected argument '" + arg + "'");
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(2, eq - 2);
    } else {
      arg = arg.substr(2);
      if (i + 1 >= argc) return Usage("--" + arg + " needs a value");
      value = argv[++i];
    }
    if (arg != "workload" && arg != "seed" && arg != "seconds" && arg != "trace" &&
        arg != "work-dir" && arg != "backend") {
      return Usage("unknown flag --" + arg);
    }
    if (!flags.emplace(arg, value).second) return Usage("--" + arg + " given twice");
  }
  for (const char* need : {"workload", "seed", "seconds", "trace"}) {
    if (flags.count(need) == 0) return Usage(std::string("missing --") + need);
  }

  perfbench::Options opts;
  const std::string workload = flags["workload"];
  bool known = false;
  for (const std::string& n : perfbench::WorkloadNames()) known |= n == workload;
  if (!known) return Usage("unknown workload '" + workload + "'");
  if (!ParseU64(flags["seed"], &opts.seed)) return Usage("--seed must be a whole number");
  uint64_t secs = 0;
  if (!ParseU64(flags["seconds"], &secs) || secs < 1 || secs > 600) {
    return Usage("--seconds must be a whole number from 1 to 600");
  }
  opts.seconds = static_cast<double>(secs);
  if (flags["trace"] != "0" && flags["trace"] != "1") return Usage("--trace must be 0 or 1");
  opts.trace = flags["trace"] == "1";
  if (flags.count("work-dir") != 0) opts.work_dir = flags["work-dir"];
  if (flags.count("backend") != 0) {
    opts.backend = flags["backend"];
    const bool baseline = opts.backend == "btree" || opts.backend == "art";
    const bool ycsb = workload == "ycsb_a" || workload == "ycsb_e";
    if (opts.backend != "pma" && !(baseline && ycsb)) {
      return Usage("--backend takes pma, or btree or art on ycsb_a and ycsb_e");
    }
  }

  std::printf("# perfbench workload=%s backend=%s seed=%llu seconds=%llu trace=%d\n",
              workload.c_str(), opts.backend.c_str(),
              static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(secs), opts.trace ? 1 : 0);
  std::printf("# host cpus=%u simd=%s copy=%s locate=%s\n",
              std::thread::hardware_concurrency(),
              cpma::hotpath::ActiveDispatchName(),
              cpma::hotpath::ActiveCopyDispatchName(),
              cpma::hotpath::ActiveLocateDispatchName());
  std::fflush(stdout);

  const perfbench::Result r = perfbench::RunWorkload(workload, opts);
  for (const std::string& e : r.errors) std::printf("# FAILED: %s\n", e.c_str());
  for (const auto& [name, m] : r.detail) {
    std::printf("# detail %s = %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  const auto& metrics = opts.trace ? r.per_layer : r.end_to_end;
  const bool correct = r.failed == 0 && r.structure_ok;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    PrintNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
