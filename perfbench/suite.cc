// The four perfbench workloads (README.md has the why, sizes, seeds and
// program configuration of each).
//
//   ycsb_a          YCSB A on a synchronous ConcurrentPMA: point path.
//   ycsb_e          YCSB E on the same kind of PMA: ScanCursor staging
//                   and tail-window rebalances from ordered appends.
//   ingest_scan     the paper's Figure 3 shape: async batch inserts grow
//                   a small PMA past L3 while live and snapshot scans run.
//   sharded_ingest  ShardedPMA with the coalescing front door.
//
// Every workload ends with the same epilogue on its final state: the
// structural checks, a full ordered scan against the key set replayed
// from the seeded generators, a snapshot fold, checkpoints, a verified
// read of the checkpoint and a restore into an empty structure.

#include "suite.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "baselines/art/art.h"
#include "baselines/btree/btree.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/event_ring.h"
#include "concurrent/snapshot.h"
#include "driver.h"
#include "persist/checkpoint.h"
#include "sharded/sharded_pma.h"
#include "workloads.h"  // bench/workloads.h: the YCSB generators

namespace perfbench {
namespace {

using cpma::ConcurrentConfig;
using cpma::ConcurrentPMA;
using cpma::Item;
using cpma::Key;
using cpma::OrderedMap;
using cpma::Random;
using cpma::ShardedConfig;
using cpma::ShardedPMA;
using cpma::Status;
using cpma::TailEvent;
using cpma::TailEventRecord;
using cpma::TailEventRing;
using cpma::Value;
using cpma::bench::TailRecorder;
using cpma::bench::WorkloadGenerator;
using cpma::bench::YcsbOp;
using cpma::bench::YcsbOpSpec;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kSetups = 3;            // set-ups per YCSB run (median)
constexpr int kCheckpoints = 3;       // checkpoints per run (median)
constexpr uint64_t kSlotBytes = sizeof(Item);

// ------------------------------------------------ program configuration

ConcurrentConfig PaperConfig(ConcurrentConfig::AsyncMode mode) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 128;
  cfg.segments_per_gate = 8;
  cfg.rebalancer_workers = 2;
  cfg.async_mode = mode;
  return cfg;
}

ShardedConfig FleetConfig() {
  ShardedConfig cfg;
  cfg.shard = PaperConfig(ConcurrentConfig::AsyncMode::kBatch);
  cfg.shard.rebalancer_workers = 1;
  cfg.num_shards = 4;
  cfg.partition = ShardedConfig::Partition::kHash;
  cfg.coalesce_ops = 64;
  cfg.coalesce_age_ms = 2;
  return cfg;
}

/// Value written for `key` by the writer tagged `tag` (< 2^24); reads
/// check that a value encodes the key it was read under.
Value Encode(Key key, uint32_t tag) { return (key << 24) | tag; }
bool EncodesKey(Value v, Key key) { return (v >> 24) == key; }

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xbf58476d1ce4e5b9ull);
  return cpma::SplitMix64(s);
}

std::vector<Key> Shuffled(std::vector<Key> v, uint64_t seed) {
  Random rng(seed);
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBounded(i)]);
  }
  return v;
}

// ---------------------------------------------------------------- target
//
// One structure under test: a ConcurrentPMA or a ShardedPMA fleet, with
// the layer calls the epilogue and the counters need.

class Target {
 public:
  explicit Target(const ConcurrentConfig& cfg)
      : single_(std::make_unique<ConcurrentPMA>(cfg)), cfg_(cfg) {}
  explicit Target(const ShardedConfig& cfg)
      : fleet_(std::make_unique<ShardedPMA>(cfg)), fleet_cfg_(cfg) {}
  /// A baseline for reference figures: no snapshot, checkpoint or
  /// layer counters.
  explicit Target(std::unique_ptr<OrderedMap> baseline)
      : baseline_(std::move(baseline)) {}

  bool is_pma() const { return baseline_ == nullptr; }

  std::unique_ptr<Target> EmptyTwin() const {
    return single_ ? std::make_unique<Target>(cfg_)
                   : std::make_unique<Target>(fleet_cfg_);
  }

  OrderedMap* map() const {
    if (baseline_) return baseline_.get();
    return single_ ? static_cast<OrderedMap*>(single_.get()) : fleet_.get();
  }
  ConcurrentPMA* single() const { return single_.get(); }
  ShardedPMA* fleet() const { return fleet_.get(); }

  std::vector<const ConcurrentPMA*> pmas() const {
    if (single_) return {single_.get()};
    std::vector<const ConcurrentPMA*> v;
    if (!fleet_) return v;
    for (size_t i = 0; i < fleet_->num_shards(); ++i) v.push_back(&fleet_->shard(i));
    return v;
  }

  bool CheckStructure(std::string* err) const {
    for (const ConcurrentPMA* p : pmas()) {
      if (!p->CheckInvariants(err)) return false;
    }
    const Status st = single_  ? single_->last_error()
                      : fleet_ ? fleet_->last_error()
                               : Status::OK();
    if (!st.ok()) {
      *err = "last_error: " + st.ToString();
      return false;
    }
    return true;
  }

  struct SnapFold {
    uint64_t capture_ns = 0, fold_ns = 0, sum = 0, count = 0;
    uint64_t latched = 0, retries = 0, cow_bytes = 0;
  };
  /// Capture a snapshot, fold it with SumAll (timed), count it (untimed
  /// check input), and sample the COW bytes it pins.
  SnapFold SnapshotFold() const {
    SnapFold f;
    const uint64_t t0 = NowNs();
    if (single_) {
      auto snap = single_->Snapshot();
      const uint64_t t1 = NowNs();
      f.sum = snap->SumAll();
      f.fold_ns = NowNs() - t1;
      f.capture_ns = t1 - t0;
      f.count = snap->CountItems();
      f.latched = snap->latched_gate_reads();
      f.retries = snap->scan_retries();
      f.cow_bytes = single_->cow_pages_retained_bytes();
    } else {
      auto snap = fleet_->Snapshot();
      const uint64_t t1 = NowNs();
      f.sum = snap->SumAll();
      f.fold_ns = NowNs() - t1;
      f.capture_ns = t1 - t0;
      f.count = snap->CountItems();
      for (size_t i = 0; i < snap->num_shards(); ++i) {
        f.latched += snap->shard_snapshot(i).latched_gate_reads();
        f.retries += snap->shard_snapshot(i).scan_retries();
      }
      f.cow_bytes = fleet_->GetStats().cow_retained_bytes;
    }
    return f;
  }

  Status Checkpoint(const cpma::persist::CheckpointOptions& o) const {
    return single_ ? cpma::persist::Checkpoint(*single_, o)
                   : cpma::persist::Checkpoint(*fleet_, o);
  }
  Status Restore(const std::string& dir) {
    return single_ ? cpma::persist::Restore(dir, single_.get())
                   : cpma::persist::Restore(dir, fleet_.get());
  }

 private:
  std::unique_ptr<ConcurrentPMA> single_;
  std::unique_ptr<ShardedPMA> fleet_;
  std::unique_ptr<OrderedMap> baseline_;
  ConcurrentConfig cfg_;
  ShardedConfig fleet_cfg_;
};

// ------------------------------------------------------------- counters

struct Counters {
  uint64_t local = 0, global = 0, resizes = 0, queued = 0, batches = 0;
  uint64_t fallbacks = 0, opt_gate_reads = 0;
  uint64_t remaps = 0, fallback_copies = 0, remap_failures = 0, page_bytes = 0;
  uint64_t capacity = 0, size = 0;
  uint64_t ebr_retired_bytes = 0, ebr_hwm = 0, ebr_collections = 0,
           ebr_advances = 0;
  uint64_t coalesced_ops = 0, coalesced_flushes = 0, age_flushes = 0;
  uint64_t max_shard = 0, pmas = 0;

  static Counters Of(const Target& t) {
    Counters c;
    for (const ConcurrentPMA* p : t.pmas()) {
      ++c.pmas;
      c.local += p->num_local_rebalances();
      c.global += p->num_global_rebalances();
      c.resizes += p->num_resizes();
      c.queued += p->num_queued_ops();
      c.batches += p->num_batches();
      c.fallbacks += p->num_read_fallbacks();
      c.opt_gate_reads += p->num_optimistic_gate_reads();
      c.remaps += p->storage_num_remaps();
      c.fallback_copies += p->storage_num_fallback_copies();
      c.remap_failures += p->storage_num_remap_failures();
      c.page_bytes = std::max<uint64_t>(c.page_bytes, p->storage_page_bytes());
      c.capacity += p->capacity();
      c.size += p->Size();
      c.max_shard = std::max<uint64_t>(c.max_shard, p->Size());
      const cpma::EpochGCStats e = p->ebr_stats();
      c.ebr_retired_bytes += e.retired_bytes;
      c.ebr_hwm = std::max(c.ebr_hwm, e.retired_bytes_hwm);
      c.ebr_collections += e.collections;
      c.ebr_advances += e.epoch_advances;
    }
    if (t.fleet() != nullptr) {
      const ShardedPMA::Stats s = t.fleet()->GetStats();
      c.coalesced_ops = s.coalesced_ops;
      c.coalesced_flushes = s.coalesced_flushes;
      c.age_flushes = s.age_flushes;
    }
    return c;
  }
};

// ------------------------------------------------- per-client statistics

struct ClientStats {
  Histogram all, write, read, scan;
  Histogram chunk_ns;
  uint64_t ops = 0, failed = 0;
  uint64_t scans = 0, chunks = 0, staged = 0, emitted = 0;
  std::string first_error;
  TailRecorder tail{512};

  void Fail(const std::string& what) {
    if (failed++ == 0) first_error = what;
  }
  void Merge(const ClientStats& o) {
    all.Merge(o.all);
    write.Merge(o.write);
    read.Merge(o.read);
    scan.Merge(o.scan);
    chunk_ns.Merge(o.chunk_ns);
    ops += o.ops;
    failed += o.failed;
    scans += o.scans;
    chunks += o.chunks;
    staged += o.staged;
    emitted += o.emitted;
    if (first_error.empty()) first_error = o.first_error;
    tail.Merge(o.tail);
  }
};

/// Everything measured in one traced or untraced phase, summed over
/// the rounds of the round-based workloads.
struct Phase {
  double secs = 0;          // measured time (client ops / secs = ops_mops)
  std::vector<double> round_mops;  // per round (round-based workloads)
  ClientStats clients;
  Usage usage;
  Counters delta;           // monotone counters, summed deltas
  Counters end;             // gauges at the end of the last round
  std::vector<TailEventRecord> events;
  uint64_t ring_rebalances = 0, ring_fallbacks = 0;
  double drain_ms = 0;      // final Flush() of the phase
  // ingest_scan live passes and snapshot folds.
  uint64_t live_elems = 0;
  double live_secs = 0;
  uint64_t snap_elems = 0;
  double snap_secs = 0;
  Histogram snap_capture_ns;
  uint64_t snap_latched = 0, snap_retries = 0, cow_peak = 0;
  double final_flush_ms = 0;

  double mops() const {
    if (!round_mops.empty()) return Median(round_mops);
    return secs > 0 ? static_cast<double>(clients.ops) / secs / 1e6 : 0;
  }
};

/// acc += a - b over the monotone counters.
void AddDelta(Counters* acc, const Counters& a, const Counters& b) {
  acc->local += a.local - b.local;
  acc->global += a.global - b.global;
  acc->resizes += a.resizes - b.resizes;
  acc->queued += a.queued - b.queued;
  acc->batches += a.batches - b.batches;
  acc->fallbacks += a.fallbacks - b.fallbacks;
  acc->opt_gate_reads += a.opt_gate_reads - b.opt_gate_reads;
  acc->ebr_retired_bytes += a.ebr_retired_bytes - b.ebr_retired_bytes;
  acc->ebr_collections += a.ebr_collections - b.ebr_collections;
  acc->ebr_advances += a.ebr_advances - b.ebr_advances;
  acc->coalesced_ops += a.coalesced_ops - b.coalesced_ops;
  acc->coalesced_flushes += a.coalesced_flushes - b.coalesced_flushes;
  acc->age_flushes += a.age_flushes - b.age_flushes;
}

/// Runs `body` around a traced or untraced window: resets and enables
/// the program's event ring only when traced, and captures usage and
/// counter deltas of `target`.
template <typename Body>
void Window(const Target& target, bool traced, Phase* ph, Body body) {
  TailEventRing& ring = TailEventRing::Global();
  if (traced) {
    ring.Reset();
    ring.Enable();
  }
  const Counters c0 = Counters::Of(target);
  const Usage u0 = Usage::Now();
  body();
  ph->usage += Usage::Now() - u0;
  const Counters c1 = Counters::Of(target);
  AddDelta(&ph->delta, c1, c0);
  ph->end = c1;
  if (traced) {
    ring.Disable();
    ring.Drain(&ph->events);
    ph->ring_rebalances += ring.count(TailEvent::kRebalanceWindow);
    ph->ring_fallbacks += ring.count(TailEvent::kReadFallback);
  }
}

/// Stops time-bounded clients; op_budget clients ignore it.
class StopClock {
 public:
  StopClock(double seconds, uint64_t op_budget)
      : deadline_(NowNs() + static_cast<uint64_t>(seconds * 1e9)),
        budget_(op_budget) {}
  /// Checked before op `i` of a client; time-bounded clients look at
  /// the clock every 64 ops.
  bool Done(uint64_t i) const {
    if (budget_ != 0) return i >= budget_;
    return (i & 63) == 0 && NowNs() >= deadline_;
  }

 private:
  uint64_t deadline_;
  uint64_t budget_;
};

/// One sampled op in kTraceEvery becomes a root span in traced phases;
/// every sampled op feeds the tail recorder there.
constexpr uint64_t kTraceEvery = 256;

uint64_t RootFor(Tracer::Buffer* buf, bool traced, uint64_t opno) {
  return traced && (opno & (kTraceEvery - 1)) == 0 ? buf->NewRoot() : 0;
}

/// Records one sampled client op: latency histograms (`by_type` may be
/// null when the caller records it there itself), tail, root span.
void RecordSample(ClientStats* st, Histogram* by_type, Tracer::Buffer* buf,
                  bool traced, uint64_t root, const char* name, uint64_t t0,
                  uint64_t t1) {
  st->all.Record(t1 - t0);
  if (by_type != nullptr) by_type->Record(t1 - t0);
  if (traced) st->tail.Offer(t0, t1);
  if (root != 0) buf->Add(root, 0, name, t0, t1);
}

// ------------------------------------------------------------- epilogue

/// The state a workload expects after its final Flush().
struct Expected {
  std::vector<Key> keys;  // sorted, unique
  std::function<bool(Key, Value)> value_ok;
};

struct EpilogueOut {
  double checkpoint_s = 0, restore_s = 0, read_verify_s = 0;
  double checkpoint_mib = 0;
  double bytes_per_item = 0;
  double final_scan_ms = 0;
  std::vector<Target::SnapFold> folds;
};

std::vector<Item> FullScan(const OrderedMap& m) {
  std::vector<Item> items;
  items.reserve(m.Size());
  m.Scan(cpma::kKeyMin, cpma::kKeyMax, [&](Key k, Value v) {
    items.push_back({k, v});
    return true;
  });
  return items;
}

bool SameItems(std::vector<Item> a, const std::vector<Item>& b, bool sort_a) {
  if (sort_a) {
    std::sort(a.begin(), a.end(),
              [](const Item& x, const Item& y) { return x.key < y.key; });
  }
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].value != b[i].value) return false;
  }
  return true;
}

std::string Describe(const std::vector<Item>& got, const Expected& exp) {
  const size_t n = std::min(got.size(), exp.keys.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i].key != exp.keys[i]) {
      return "position " + std::to_string(i) + ": key " +
             std::to_string(got[i].key) + ", expected " +
             std::to_string(exp.keys[i]);
    }
    if (!exp.value_ok(got[i].key, got[i].value)) {
      return "key " + std::to_string(got[i].key) + " holds value " +
             std::to_string(got[i].value);
    }
  }
  return "scan returned " + std::to_string(got.size()) + " items, expected " +
         std::to_string(exp.keys.size());
}

/// Checks and persists the final state. Each numbered step is one
/// attempted operation; a step whose result is wrong is one failure.
EpilogueOut Epilogue(std::unique_ptr<Target> target, OrderedMap* client,
                     const Expected& exp, const Options& opts, Result* r) {
  EpilogueOut out;
  std::string err;
  // 1. structure
  ++r->attempted;
  if (!target->CheckStructure(&err)) {
    r->structure_ok = false;
    r->Fail("structure: " + err);
  }
  // 2. full ordered scan == replayed key set, values as written
  ++r->attempted;
  const uint64_t q0 = NowNs();
  const std::vector<Item> live = FullScan(*client);
  out.final_scan_ms = static_cast<double>(NowNs() - q0) * 1e-6;
  bool scan_ok = live.size() == exp.keys.size();
  for (size_t i = 0; scan_ok && i < live.size(); ++i) {
    scan_ok = live[i].key == exp.keys[i] && exp.value_ok(live[i].key, live[i].value);
  }
  if (!scan_ok) r->Fail("final scan: " + Describe(live, exp));
  uint64_t live_sum = 0;
  for (const Item& it : live) live_sum += it.value;
  // 3. SumAll agrees with the scan
  ++r->attempted;
  if (client->SumAll() != live_sum) r->Fail("SumAll disagrees with the full scan");
  if (!target->is_pma()) return out;
  // 4. a snapshot folds to its own count and to the live state
  ++r->attempted;
  const Target::SnapFold f = target->SnapshotFold();
  out.folds.push_back(f);
  if (f.count != live.size() || f.sum != live_sum) {
    r->Fail("snapshot: SumAll " + std::to_string(f.sum) + " CountItems " +
            std::to_string(f.count) + " against " + std::to_string(live.size()) +
            " live items");
  }
  const Counters c = Counters::Of(*target);
  out.bytes_per_item =
      c.size == 0 ? 0 : static_cast<double>(c.capacity * kSlotBytes) / c.size;
  // 5. checkpoints (median of kCheckpoints)
  cpma::persist::CheckpointOptions co;
  co.dir = opts.work_dir + "/ckpt";
  co.keep = 1;
  std::error_code ec;
  std::filesystem::remove_all(co.dir, ec);  // a killed run's leftovers
  std::vector<double> ck;
  const uint64_t bytes0 = cpma::persist::Counters().checkpoint_bytes.load();
  for (int i = 0; i < kCheckpoints; ++i) {
    ++r->attempted;
    const uint64_t t0 = NowNs();
    const Status st = target->Checkpoint(co);
    ck.push_back(Seconds(NowNs() - t0));
    if (!st.ok()) {
      r->structure_ok = false;
      r->Fail("checkpoint: " + st.ToString());
    }
  }
  out.checkpoint_s = Median(ck);
  out.checkpoint_mib =
      static_cast<double>(cpma::persist::Counters().checkpoint_bytes.load() - bytes0) /
      kCheckpoints / kMiB;
  // 6. the checkpoint holds the live state
  ++r->attempted;
  {
    std::vector<Item> items;
    const uint64_t t0 = NowNs();
    const Status st = cpma::persist::ReadCheckpointItems(co.dir, &items);
    out.read_verify_s = Seconds(NowNs() - t0);
    if (!st.ok() || !SameItems(std::move(items), live, target->fleet() != nullptr)) {
      r->Fail("checkpoint items differ from the live state: " + st.ToString());
    }
  }
  // 7. a restore into an empty structure, which then holds the same state
  ++r->attempted;
  std::unique_ptr<Target> restored = target->EmptyTwin();
  target.reset();
  const uint64_t t0 = NowNs();
  const Status st = restored->Restore(co.dir);
  out.restore_s = Seconds(NowNs() - t0);
  if (!st.ok()) {
    r->structure_ok = false;
    r->Fail("restore: " + st.ToString());
  } else if (!SameItems(FullScan(*restored->map()), live, false)) {
    r->Fail("restored state differs from the checkpointed one");
  } else if (!restored->CheckStructure(&err)) {
    r->structure_ok = false;
    r->Fail("restored structure: " + err);
  }
  std::filesystem::remove_all(co.dir, ec);
  return out;
}

// -------------------------------------------------------- metric output

struct Collected {
  std::vector<double> setups;
  Phase untraced, traced;
  EpilogueOut epi;
  bool has_traced = false;
};

void Emit(const Collected& c, const Options& opts, Tracer* tracer,
          const std::string& name, Result* r) {
  auto e2e = [&](const char* n, double v, const char* unit) {
    r->end_to_end[n] = {v, unit};
  };
  auto layer = [&](const char* n, double v, const char* unit) {
    r->per_layer[n] = {v, unit};
  };
  auto detail = [&](const std::string& n, double v, const char* unit) {
    r->detail[n] = {v, unit};
  };
  const Phase& u = c.untraced;
  e2e("setup_s", Median(c.setups), "s");
  e2e("ops_mops", u.mops(), "Mops/s");
  e2e("op_p50_ns", u.clients.all.Quantile(0.5), "ns");
  e2e("op_p99_ns", u.clients.all.Quantile(0.99), "ns");
  e2e("write_p50_ns", u.clients.write.Quantile(0.5), "ns");
  e2e("bytes_per_item", c.epi.bytes_per_item, "B");

  // Workload-specific figures, printed for readers, not gated.
  auto lat = [&](const char* n, const Histogram& h) {
    if (h.count() == 0) return;
    detail(std::string(n) + "_p50_ns", h.Quantile(0.5), "ns");
    detail(std::string(n) + "_p99_ns", h.Quantile(0.99), "ns");
    detail(std::string(n) + "_samples", static_cast<double>(h.count()), "count");
  };
  lat("op", u.clients.all);
  lat("write", u.clients.write);
  lat("read", u.clients.read);
  lat("scan", u.clients.scan);
  if (u.live_secs > 0) detail("scan_meps", static_cast<double>(u.live_elems) / u.live_secs / 1e6, "Melem/s");
  if (u.snap_secs > 0) detail("snap_scan_meps", static_cast<double>(u.snap_elems) / u.snap_secs / 1e6, "Melem/s");
  detail("final_scan_ms", c.epi.final_scan_ms, "ms");
  detail("rounds", static_cast<double>(std::max<size_t>(u.round_mops.size(), 1)), "count");

  if (!c.has_traced) return;
  const Phase& t = c.traced;
  const double ops = static_cast<double>(std::max<uint64_t>(t.clients.ops, 1));
  // sharded
  layer("sharded.ops_per_flush",
        t.delta.coalesced_flushes == 0 ? 0
            : static_cast<double>(t.delta.coalesced_ops) / t.delta.coalesced_flushes,
        "ops");
  layer("sharded.age_flushes", static_cast<double>(t.delta.age_flushes), "count");
  Histogram flush_ns, window_ns;
  double flush_busy = 0, window_busy = 0, resize_busy = 0;
  for (const TailEventRecord& ev : t.events) {
    const uint64_t d = ev.end_ns - ev.start_ns;
    if (ev.type == TailEvent::kCoalesceFlush) { flush_ns.Record(d); flush_busy += d; }
    if (ev.type == TailEvent::kRebalanceWindow) { window_ns.Record(d); window_busy += d; }
    if (ev.type == TailEvent::kResize) resize_busy += d;
  }
  layer("sharded.flush_busy_ms", flush_busy * 1e-6, "ms");
  layer("sharded.flush_us_p99", flush_ns.Quantile(0.99) * 1e-3, "us");
  layer("sharded.final_flush_ms", t.final_flush_ms, "ms");
  layer("sharded.shard_skew",
        t.end.size == 0 || t.end.pmas < 2 ? 0
            : static_cast<double>(t.end.max_shard) * t.end.pmas / t.end.size,
        "ratio");
  // concurrent: point path
  layer("concurrent.read_fallbacks_per_mop", t.delta.fallbacks / ops * 1e6, "1/Mop");
  layer("concurrent.fallback_events", static_cast<double>(t.ring_fallbacks), "count");
  layer("concurrent.optimistic_gate_reads", static_cast<double>(t.delta.opt_gate_reads), "count");
  // concurrent: scan cursor
  const ClientStats& tc = t.clients;
  layer("scan.staged_per_emitted",
        tc.emitted == 0 ? 0 : static_cast<double>(tc.staged) / tc.emitted, "ratio");
  layer("scan.chunks_per_scan",
        tc.scans == 0 ? 0 : static_cast<double>(tc.chunks) / tc.scans, "ratio");
  layer("scan.chunk_ns_p50", tc.chunk_ns.Quantile(0.5), "ns");
  layer("scan.chunk_ns_p99", tc.chunk_ns.Quantile(0.99), "ns");
  // concurrent: rebalancer
  layer("rebal.windows", static_cast<double>(t.ring_rebalances), "count");
  layer("rebal.window_us_p50", window_ns.Quantile(0.5) * 1e-3, "us");
  layer("rebal.window_us_p99", window_ns.Quantile(0.99) * 1e-3, "us");
  layer("rebal.busy_ms", (window_busy + resize_busy) * 1e-6, "ms");
  layer("rebal.local", static_cast<double>(t.delta.local), "count");
  layer("rebal.global", static_cast<double>(t.delta.global), "count");
  layer("rebal.batches", static_cast<double>(t.delta.batches), "count");
  layer("rebal.queued_ops", static_cast<double>(t.delta.queued), "count");
  layer("rebal.resizes", static_cast<double>(t.delta.resizes), "count");
  layer("rebal.resize_ms", resize_busy * 1e-6, "ms");
  layer("rebal.drain_ms", t.drain_ms, "ms");
  // concurrent: snapshots (live folds in ingest_scan, else the epilogue's)
  Histogram cap = t.snap_capture_ns;
  uint64_t latched = t.snap_latched, retries = t.snap_retries, cow = t.cow_peak;
  for (const Target::SnapFold& f : c.epi.folds) {
    if (t.snap_capture_ns.count() == 0) cap.Record(f.capture_ns);
    latched += f.latched;
    retries += f.retries;
    cow = std::max(cow, f.cow_bytes);
  }
  layer("snap.capture_us_p50", cap.Quantile(0.5) * 1e-3, "us");
  layer("snap.cow_retained_mib_peak", static_cast<double>(cow) / kMiB, "MiB");
  layer("snap.latched_gate_reads", static_cast<double>(latched), "count");
  layer("snap.scan_retries", static_cast<double>(retries), "count");
  layer("live.scan_meps",
        t.live_secs > 0 ? static_cast<double>(t.live_elems) / t.live_secs / 1e6 : 0,
        "Melem/s");
  layer("live.snap_scan_meps",
        t.snap_secs > 0 ? static_cast<double>(t.snap_elems) / t.snap_secs / 1e6 : 0,
        "Melem/s");
  // rewiring (counters of the final storage; a resize starts new ones)
  layer("rewire.remaps", static_cast<double>(t.end.remaps), "count");
  layer("rewire.fallback_copies", static_cast<double>(t.end.fallback_copies), "count");
  layer("rewire.remap_failures", static_cast<double>(t.end.remap_failures), "count");
  layer("rewire.page_bytes", static_cast<double>(t.end.page_bytes), "B");
  // pma
  layer("pma.capacity_slots", static_cast<double>(t.end.capacity), "slots");
  layer("pma.density",
        t.end.capacity == 0 ? 0 : static_cast<double>(t.end.size) / t.end.capacity,
        "ratio");
  // common/epoch_gc
  layer("ebr.retired_mib", static_cast<double>(t.delta.ebr_retired_bytes) / kMiB, "MiB");
  layer("ebr.pending_peak_mib", static_cast<double>(t.end.ebr_hwm) / kMiB, "MiB");
  layer("ebr.collections", static_cast<double>(t.delta.ebr_collections), "count");
  layer("ebr.epoch_advances", static_cast<double>(t.delta.ebr_advances), "count");
  // persist
  layer("persist.checkpoint_s", c.epi.checkpoint_s, "s");
  layer("persist.checkpoint_mib", c.epi.checkpoint_mib, "MiB");
  layer("persist.restore_s", c.epi.restore_s, "s");
  layer("persist.read_verify_s", c.epi.read_verify_s, "s");
  layer("persist.reinsert_s", std::max(0.0, c.epi.restore_s - c.epi.read_verify_s), "s");
  // process, measured phase of the traced run
  layer("proc.cpu_s", t.usage.cpu_s, "s");
  layer("proc.cpu_us_per_op", t.usage.cpu_s * 1e6 / ops, "us");
  layer("proc.minflt", static_cast<double>(t.usage.minflt), "count");
  layer("proc.invol_csw", static_cast<double>(t.usage.invol_csw), "count");
  layer("proc.vol_csw", static_cast<double>(t.usage.vol_csw), "count");
  layer("proc.peak_rss_mib", static_cast<double>(Usage::Now().maxrss_kib) / 1024, "MiB");
  // tail attribution over the traced phase's ring events
  const TailRecorder::Attribution a = tc.tail.Attribute(t.events);
  layer("tail.attr_none", static_cast<double>(a.none), "count");
  layer("tail.attr_rebalance", static_cast<double>(a.rebalance), "count");
  layer("tail.attr_resize", static_cast<double>(a.resize), "count");
  layer("tail.attr_flush", static_cast<double>(a.flush), "count");
  layer("tail.attr_fallback", static_cast<double>(a.fallback), "count");
  layer("tail.attr_stall", static_cast<double>(a.stall), "count");
  layer("tail.thresh_ns", static_cast<double>(a.threshold_ns), "ns");
  const double um = u.mops(), tm = t.mops();
  layer("trace.overhead_pct", um > 0 ? (um - tm) / um * 100 : 0, "%");

  // Ring events join the trace as parentless spans; then write it once.
  {
    Tracer::Buffer buf(tracer, 0);
    for (const TailEventRecord& ev : t.events) {
      buf.Add(0, 0, cpma::TailEventName(ev.type), ev.start_ns, ev.end_ns);
    }
  }
  const std::string path = opts.work_dir + "/trace-" + name + ".jsonl";
  if (!tracer->Write(path)) {
    r->structure_ok = false;
    r->errors.push_back("cannot write " + path);
  }
}

void FoldClients(std::vector<ClientStats>& per, Phase* ph, Result* r) {
  for (ClientStats& s : per) {
    if (s.failed != 0 && r->errors.size() < 8) r->errors.push_back(s.first_error);
    r->failed += s.failed;
    r->attempted += s.ops;
    ph->clients.Merge(s);
  }
}

// ------------------------------------------------------------------ YCSB

struct Ycsb {
  const cpma::bench::MixSpec* mix;
  uint64_t records;
  int threads;
  std::vector<std::unique_ptr<WorkloadGenerator>> gens;
  std::vector<uint64_t> next_op;                     // per thread, across phases
  std::unique_ptr<std::atomic<uint64_t>[]> issued;   // inserts issued, per thread
  std::vector<std::vector<uint32_t>> last_tag;       // ycsb_a: per thread, per key
};

/// Checks one YCSB E scan of `len` items from `start`: the preload
/// [1, R] is dense and never shrinks, so the scan must return `start`,
/// then consecutive keys up to R, then only keys some generator issued,
/// ascending, each with a value that encodes it.
bool CheckShortScan(const std::vector<Item>& got, Key start, uint32_t len,
                    const Ycsb& y) {
  const uint64_t R = y.records;
  if (got.empty() || got.size() > len || got[0].key != start) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const Key k = got[i].key;
    if (!EncodesKey(got[i].value, k)) return false;
    if (i > 0 && got[i - 1].key < R && k != got[i - 1].key + 1) return false;
    if (i > 0 && k <= got[i - 1].key) return false;
    if (k > R) {
      const uint64_t j = k - R - 1;
      const uint64_t t = j % static_cast<uint64_t>(y.threads);
      if (j / static_cast<uint64_t>(y.threads) >=
          y.issued[t].load(std::memory_order_acquire)) {
        return false;
      }
    }
  }
  return got.size() == len || got.back().key >= R;
}

void YcsbPhase(Ycsb* y, Target* target, OrderedMap* client, bool traced,
               double seconds, const Options& opts, Tracer* tracer, Phase* ph,
               Result* r) {
  std::vector<ClientStats> per(static_cast<size_t>(y->threads));
  ConcurrentPMA* pma = target->single();
  Window(*target, traced, ph, [&] {
    StopClock clock(seconds, opts.op_budget);
    const uint64_t t0 = NowNs();
    std::vector<std::thread> th;
    for (int t = 0; t < y->threads; ++t) {
      th.emplace_back([&, t] {
        ClientStats& st = per[static_cast<size_t>(t)];
        cpma::PinThisThread(static_cast<unsigned>(t));
        Tracer::Buffer buf(tracer, static_cast<uint32_t>(t + 1));
        WorkloadGenerator& gen = *y->gens[static_cast<size_t>(t)];
        uint64_t& opno = y->next_op[static_cast<size_t>(t)];
        std::vector<Item> got, chunk;
        for (uint64_t i = 0; !clock.Done(i); ++i, ++opno) {
          const YcsbOpSpec spec = gen.Next();
          const bool sampled = (opno & (kSampleEvery - 1)) == 0;
          const uint64_t root = RootFor(&buf, traced, opno);
          const uint64_t s0 = sampled ? NowNs() : 0;
          const Key key = spec.key;
          switch (spec.op) {
            case YcsbOp::kRead: {
              Value v = 0;
              bool hit;
              {
                ChildSpan c(&buf, root, "ConcurrentPMA::Find");
                hit = client->Find(key, &v);
              }
              if (sampled) RecordSample(&st, &st.read, &buf, traced, root, "client.read", s0, NowNs());
              if (!hit || !EncodesKey(v, key)) {
                st.Fail("read of preloaded key " + std::to_string(key) +
                        (hit ? " returned value " + std::to_string(v) : " missed"));
              }
              break;
            }
            case YcsbOp::kUpdate: {
              const uint32_t tag = (static_cast<uint32_t>(t + 1) << 20) |
                                   static_cast<uint32_t>(opno & 0xFFFFF);
              {
                ChildSpan c(&buf, root, "ConcurrentPMA::Insert");
                client->Insert(key, Encode(key, tag));
              }
              if (sampled) RecordSample(&st, &st.write, &buf, traced, root, "client.update", s0, NowNs());
              y->last_tag[static_cast<size_t>(t)][key] = tag;
              break;
            }
            case YcsbOp::kInsert: {
              // Inserts are 5% of YCSB E: each one is timed, so the
              // write tail rests on every rebalance an insert paid for.
              y->issued[t].store(gen.inserted(), std::memory_order_release);
              const uint64_t w0 = NowNs();
              {
                ChildSpan c(&buf, root, "ConcurrentPMA::Insert");
                client->Insert(key, Encode(key, 0));
              }
              const uint64_t w1 = NowNs();
              st.write.Record(w1 - w0);
              if (sampled) RecordSample(&st, nullptr, &buf, traced, root, "client.insert", s0, w1);
              break;
            }
            case YcsbOp::kScan: {
              got.clear();
              const size_t len = spec.scan_len;
              if (!traced || pma == nullptr) {
                client->Scan(key, cpma::kKeyMax, [&](Key k, Value v) {
                  got.push_back({k, v});
                  return got.size() < len;
                });
              } else {
                // Scan() is this cursor plus a callback; calling the
                // cursor directly times each chunk it stages.
                ConcurrentPMA::ScanCursor cur(*pma, key, cpma::kKeyMax);
                while (got.size() < len) {
                  const uint64_t c0 = NowNs();
                  const bool more = cur.NextChunk(&chunk);
                  const uint64_t c1 = NowNs();
                  st.chunk_ns.Record(c1 - c0);
                  ++st.chunks;
                  if (root != 0) buf.Add(root, root, "ScanCursor::NextChunk", c0, c1);
                  if (!more) break;
                  st.staged += chunk.size();
                  for (size_t j = 0; j < chunk.size() && got.size() < len; ++j) {
                    got.push_back(chunk[j]);
                  }
                }
                ++st.scans;
                st.emitted += got.size();
              }
              if (sampled) RecordSample(&st, &st.scan, &buf, traced, root, "client.scan", s0, NowNs());
              if (!CheckShortScan(got, key, spec.scan_len, *y)) {
                std::string run;
                for (size_t j = 0; j < got.size() && j < 12; ++j) {
                  run += " " + std::to_string(got[j].key);
                }
                st.Fail("scan of " + std::to_string(len) + " from " +
                        std::to_string(key) + " returned a wrong run of " +
                        std::to_string(got.size()) + " items:" + run);
              }
              break;
            }
            case YcsbOp::kRmw:
              break;
          }
          ++st.ops;
        }
      });
    }
    for (std::thread& x : th) x.join();
    const uint64_t t1 = NowNs();
    target->map()->Flush();
    ph->drain_ms += static_cast<double>(NowNs() - t1) * 1e-6;
    ph->secs += Seconds(t1 - t0);
  });
  FoldClients(per, ph, r);
}

Result RunYcsb(char mix_name, const Options& opts) {
  Result r;
  Collected col;
  Tracer tracer;
  Ycsb y;
  y.mix = cpma::bench::FindMix(mix_name);
  y.records = (uint64_t{1} << 20) / opts.scale_div;
  // YCSB E runs one client: with several, a short scan racing a tail
  // rebalance can skip keys at its start (CHANGES.md, FOUND), and one
  // client is where the PMA loses most to the B+tree (ROADMAP).
  y.threads = opts.single_client || mix_name == 'E' ? 1 : 4;
  const int loaders = opts.single_client ? 1 : 4;
  const uint64_t R = y.records;

  // Load phase: keys 1..R in a seeded order (YCSB's hashed insert
  // order), split across the client threads, then Flush().
  std::vector<Key> keys(R);
  std::iota(keys.begin(), keys.end(), Key{1});
  const std::vector<Key> order = Shuffled(keys, Mix(opts.seed, 1, 0));
  std::unique_ptr<Target> target;
  for (int s = 0; s < kSetups; ++s) {
    target.reset();
    const uint64_t t0 = NowNs();
    if (opts.backend == "btree") {
      target = std::make_unique<Target>(std::make_unique<cpma::BTree>());
    } else if (opts.backend == "art") {
      target = std::make_unique<Target>(std::make_unique<cpma::ArtBTree>());
    } else {
      target = std::make_unique<Target>(PaperConfig(ConcurrentConfig::AsyncMode::kSync));
    }
    std::vector<std::thread> th;
    for (int t = 0; t < loaders; ++t) {
      th.emplace_back([&, t] {
        const size_t n = order.size(), T = static_cast<size_t>(loaders);
        for (size_t i = n * t / T; i < n * (t + 1) / T; ++i) {
          target->map()->Insert(order[i], Encode(order[i], 0));
        }
      });
    }
    for (std::thread& x : th) x.join();
    target->map()->Flush();
    col.setups.push_back(Seconds(NowNs() - t0));
  }
  std::unique_ptr<OrderedMap> wrapped = opts.wrap ? opts.wrap(target->map()) : nullptr;
  OrderedMap* client = wrapped ? wrapped.get() : target->map();

  for (int t = 0; t < y.threads; ++t) {
    y.gens.push_back(std::make_unique<WorkloadGenerator>(*y.mix, R, t, y.threads,
                                                         opts.seed));
  }
  y.next_op.assign(static_cast<size_t>(y.threads), 0);
  y.issued = std::make_unique<std::atomic<uint64_t>[]>(static_cast<size_t>(y.threads));
  if (mix_name == 'A') {
    y.last_tag.assign(static_cast<size_t>(y.threads), std::vector<uint32_t>(R + 1, 0));
  }

  const double secs = opts.trace ? opts.seconds / 2 : opts.seconds;
  YcsbPhase(&y, target.get(), client, false, secs, opts, &tracer, &col.untraced, &r);
  if (opts.trace) {
    YcsbPhase(&y, target.get(), client, true, secs, opts, &tracer, &col.traced, &r);
    col.has_traced = true;
  }

  Expected exp;
  if (mix_name == 'A') {
    exp.keys = std::move(keys);
    // The final value of a key is the last update some client made to
    // it (sync mode applies in order), or the preload if none did.
    exp.value_ok = [&y](Key k, Value v) {
      if (!EncodesKey(v, k)) return false;
      const uint32_t tag = static_cast<uint32_t>(v & 0xFFFFFF);
      if (tag == 0) {
        for (const auto& lt : y.last_tag) {
          if (lt[k] != 0) return false;
        }
        return true;
      }
      const size_t t = (tag >> 20) - 1;
      return t < y.last_tag.size() && y.last_tag[t][k] == tag;
    };
  } else {
    for (int t = 0; t < y.threads; ++t) {
      const uint64_t n = y.gens[static_cast<size_t>(t)]->inserted();
      for (uint64_t i = 0; i < n; ++i) {
        keys.push_back(R + 1 + static_cast<uint64_t>(t) + i * static_cast<uint64_t>(y.threads));
      }
    }
    std::sort(keys.begin(), keys.end());
    exp.keys = std::move(keys);
    exp.value_ok = [](Key k, Value v) { return v == Encode(k, 0); };
  }
  col.epi = Epilogue(std::move(target), client, exp, opts, &r);
  wrapped.reset();
  Emit(col, opts, &tracer, mix_name == 'A' ? "ycsb_a" : "ycsb_e", &r);
  return r;
}

// ------------------------------------------------------- ingest rounds
//
// ingest_scan and sharded_ingest repeat fixed-size rounds on a fresh
// structure until the phase's time is up, so every round grows the same
// structure the same way and per-round figures are comparable; the last
// round's structure goes through the epilogue.

constexpr uint64_t kSnapshotsPerRound = 8;

/// ingest_scan keys: uniform over [1, 2^27], the paper's key range.
Key UniformKey(Random& rng) { return 1 + rng.NextBounded(uint64_t{1} << 27); }

std::vector<Key> Dedup(std::vector<Key> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

Result RunIngestScan(const Options& opts) {
  Result r;
  Collected col;
  Tracer tracer;
  const uint64_t preload_n = (uint64_t{1} << 18) / opts.scale_div;
  const int writers = opts.single_client ? 1 : 2;
  const uint64_t per_writer = (uint64_t{4} << 20) / opts.scale_div /
                              static_cast<uint64_t>(writers);
  const bool scanners = !opts.single_client;

  std::unique_ptr<Target> target;
  std::unique_ptr<OrderedMap> wrapped;
  OrderedMap* client = nullptr;
  uint64_t round = 0;
  std::vector<Key> preload_keys;

  auto run_rounds = [&](bool traced, double seconds, Phase* ph) {
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    do {
      ++round;
      wrapped.reset();
      target.reset();
      // Set-up: a fresh PMA with a small uniform preload.
      Random prng(Mix(opts.seed, 2, round));
      preload_keys.clear();
      for (uint64_t i = 0; i < preload_n; ++i) preload_keys.push_back(UniformKey(prng));
      const uint64_t s0 = NowNs();
      target = std::make_unique<Target>(PaperConfig(ConcurrentConfig::AsyncMode::kBatch));
      {
        std::vector<std::thread> th;
        for (int t = 0; t < writers; ++t) {
          th.emplace_back([&, t] {
            const size_t n = preload_keys.size(), T = static_cast<size_t>(writers);
            for (size_t i = n * t / T; i < n * (t + 1) / T; ++i) {
              target->map()->Insert(preload_keys[i], 1);
            }
          });
        }
        for (std::thread& x : th) x.join();
      }
      target->map()->Flush();
      col.setups.push_back(Seconds(NowNs() - s0));
      preload_keys = Dedup(std::move(preload_keys));
      const uint64_t lo = preload_keys.size();
      wrapped = opts.wrap ? opts.wrap(target->map()) : nullptr;
      client = wrapped ? wrapped.get() : target->map();

      std::vector<ClientStats> per(static_cast<size_t>(writers));
      std::unique_ptr<std::atomic<uint64_t>[]> issued(
          new std::atomic<uint64_t>[static_cast<size_t>(writers) * 8]());
      auto issued_total = [&] {
        uint64_t s = 0;
        for (int t = 0; t < writers; ++t) s += issued[static_cast<size_t>(t) * 8].load(std::memory_order_acquire);
        return s;
      };
      std::atomic<bool> done{false};
      ClientStats live_st, snap_st;
      Window(*target, traced, ph, [&] {
        const uint64_t t0 = NowNs();
        std::vector<std::thread> th;
        for (int t = 0; t < writers; ++t) {
          th.emplace_back([&, t] {
            ClientStats& st = per[static_cast<size_t>(t)];
            cpma::PinThisThread(static_cast<unsigned>(t));
            Tracer::Buffer buf(&tracer, static_cast<uint32_t>(t + 1));
            Random rng(Mix(opts.seed, 3 + static_cast<uint64_t>(t), round));
            std::atomic<uint64_t>& iss = issued[static_cast<size_t>(t) * 8];
            for (uint64_t i = 0; i < per_writer; ++i) {
              const Key k = UniformKey(rng);
              iss.store(i + 1, std::memory_order_release);
              if ((i & (kSampleEvery - 1)) == 0) {
                const uint64_t root = RootFor(&buf, traced, i);
                const uint64_t s = NowNs();
                {
                  ChildSpan c(&buf, root, "ConcurrentPMA::Insert");
                  client->Insert(k, 1);
                }
                RecordSample(&st, &st.write, &buf, traced, root, "client.insert", s, NowNs());
              } else {
                client->Insert(k, 1);
              }
              ++st.ops;
            }
          });
        }
        std::vector<std::thread> sc;
        Phase live;
        if (scanners) {
          // Live folds: every value is 1, so SumAll counts the items the
          // pass delivered, which lies between the preload and the
          // preload plus every insert issued so far.
          sc.emplace_back([&] {
            cpma::PinThisThread(static_cast<unsigned>(writers));
            Tracer::Buffer buf(&tracer, 100);
            while (!done.load(std::memory_order_acquire)) {
              const uint64_t root = traced ? buf.NewRoot() : 0;
              const uint64_t s = NowNs();
              uint64_t c;
              {
                ChildSpan cs(&buf, root, "ConcurrentPMA::SumAll");
                c = target->map()->SumAll();
              }
              const uint64_t e = NowNs();
              if (root != 0) buf.Add(root, 0, "client.live_pass", s, e);
              const uint64_t hi = lo + issued_total();
              ++live_st.ops;
              if (c < lo || c > hi) {
                live_st.Fail("live pass counted " + std::to_string(c) +
                             " items, outside [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + "]");
              }
              live.live_elems += c;
              live.live_secs += Seconds(e - s);
            }
          });
          // Snapshot folds: capture plus SumAll; SumAll must equal the
          // snapshot's CountItems and obey the same bounds. One fold
          // starts at each kSnapshotsPerRound-th of the round's inserts:
          // back to back, the first-touch copies they impose slow the
          // writers more than tenfold.
          sc.emplace_back([&] {
            cpma::PinThisThread(static_cast<unsigned>(writers + 1));
            Tracer::Buffer buf(&tracer, 101);
            const uint64_t total = per_writer * static_cast<uint64_t>(writers);
            for (uint64_t k = 0; k < kSnapshotsPerRound; ++k) {
              while (issued_total() < total * k / kSnapshotsPerRound &&
                     !done.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
              }
              if (done.load(std::memory_order_acquire)) break;
              const uint64_t root = traced ? buf.NewRoot() : 0;
              const uint64_t s = NowNs();
              Target::SnapFold f;
              {
                ChildSpan cs(&buf, root, "ConcurrentPMA::Snapshot+SumAll");
                f = target->SnapshotFold();
              }
              if (root != 0) buf.Add(root, 0, "client.snapshot_pass", s, NowNs());
              const uint64_t hi = lo + issued_total();
              ++snap_st.ops;
              if (f.sum != f.count || f.count < lo || f.count > hi) {
                snap_st.Fail("snapshot SumAll " + std::to_string(f.sum) +
                             " CountItems " + std::to_string(f.count));
              }
              live.snap_elems += f.count;
              live.snap_secs += Seconds(f.capture_ns + f.fold_ns);
              live.snap_capture_ns.Record(f.capture_ns);
              live.snap_latched += f.latched;
              live.snap_retries += f.retries;
              live.cow_peak = std::max(live.cow_peak, f.cow_bytes);
            }
          });
        }
        for (std::thread& x : th) x.join();
        const uint64_t f0 = NowNs();
        target->map()->Flush();
        const uint64_t t1 = NowNs();
        done.store(true, std::memory_order_release);
        for (std::thread& x : sc) x.join();
        ph->drain_ms += static_cast<double>(t1 - f0) * 1e-6;
        ph->secs += Seconds(t1 - t0);
        ph->round_mops.push_back(static_cast<double>(per_writer * writers) /
                                 Seconds(t1 - t0) / 1e6);
        ph->live_elems += live.live_elems;
        ph->live_secs += live.live_secs;
        ph->snap_elems += live.snap_elems;
        ph->snap_secs += live.snap_secs;
        ph->snap_capture_ns.Merge(live.snap_capture_ns);
        ph->snap_latched += live.snap_latched;
        ph->snap_retries += live.snap_retries;
        ph->cow_peak = std::max(ph->cow_peak, live.cow_peak);
      });
      for (const ClientStats* s : {&live_st, &snap_st}) {
        if (s->failed != 0 && r.errors.size() < 8) r.errors.push_back(s->first_error);
        r.failed += s->failed;
        r.attempted += s->ops;
      }
      FoldClients(per, ph, &r);
    } while (NowNs() < deadline && opts.op_budget == 0);
  };

  const double secs = opts.trace ? opts.seconds / 2 : opts.seconds;
  run_rounds(false, secs, &col.untraced);
  if (opts.trace) {
    run_rounds(true, secs, &col.traced);
    col.has_traced = true;
  }

  // Replay the last round's generators for the expected key set.
  Expected exp;
  exp.keys = std::move(preload_keys);
  for (int t = 0; t < writers; ++t) {
    Random rng(Mix(opts.seed, 3 + static_cast<uint64_t>(t), round));
    for (uint64_t i = 0; i < per_writer; ++i) exp.keys.push_back(UniformKey(rng));
  }
  exp.keys = Dedup(std::move(exp.keys));
  exp.value_ok = [](Key, Value v) { return v == 1; };
  col.epi = Epilogue(std::move(target), client, exp, opts, &r);
  wrapped.reset();
  Emit(col, opts, &tracer, "ingest_scan", &r);
  return r;
}

// ------------------------------------------------------- sharded_ingest
//
// Producers insert fresh odd keys uniform over [1, 2^27) and read even
// preloaded keys (kReadShare of their ops) through the coalescing front
// door of a hash-partitioned fleet; the round ends with Flush() and an
// ordered cross-shard scan.

constexpr double kReadShare = 0.2;
constexpr uint64_t kOddKeys = uint64_t{1} << 26;

struct ShardedOp {
  bool read;
  Key key;
};

ShardedOp NextShardedOp(Random& rng, uint64_t preload) {
  if (rng.NextDouble() < kReadShare) return {true, 2 * (1 + rng.NextBounded(preload))};
  return {false, 2 * rng.NextBounded(kOddKeys) + 1};
}

Result RunShardedIngest(const Options& opts) {
  Result r;
  Collected col;
  Tracer tracer;
  const uint64_t preload_n = (uint64_t{1} << 18) / opts.scale_div;
  const int producers = opts.single_client ? 1 : 4;
  const uint64_t per_producer = (uint64_t{1} << 20) / opts.scale_div;

  std::vector<Key> preload(preload_n);
  for (uint64_t i = 0; i < preload_n; ++i) preload[i] = 2 * (i + 1);
  const std::vector<Key> order = Shuffled(preload, Mix(opts.seed, 4, 0));

  std::unique_ptr<Target> target;
  std::unique_ptr<OrderedMap> wrapped;
  OrderedMap* client = nullptr;
  uint64_t round = 0;

  auto run_rounds = [&](bool traced, double seconds, Phase* ph) {
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    do {
      ++round;
      wrapped.reset();
      target.reset();
      const uint64_t s0 = NowNs();
      target = std::make_unique<Target>(FleetConfig());
      {
        std::vector<std::thread> th;
        for (int t = 0; t < producers; ++t) {
          th.emplace_back([&, t] {
            const size_t n = order.size(), T = static_cast<size_t>(producers);
            for (size_t i = n * t / T; i < n * (t + 1) / T; ++i) {
              target->map()->Insert(order[i], Encode(order[i], 0));
            }
          });
        }
        for (std::thread& x : th) x.join();
      }
      target->map()->Flush();
      col.setups.push_back(Seconds(NowNs() - s0));
      wrapped = opts.wrap ? opts.wrap(target->map()) : nullptr;
      client = wrapped ? wrapped.get() : target->map();

      std::vector<ClientStats> per(static_cast<size_t>(producers));
      Window(*target, traced, ph, [&] {
        const uint64_t t0 = NowNs();
        std::vector<std::thread> th;
        for (int t = 0; t < producers; ++t) {
          th.emplace_back([&, t] {
            ClientStats& st = per[static_cast<size_t>(t)];
            cpma::PinThisThread(static_cast<unsigned>(t));
            Tracer::Buffer buf(&tracer, static_cast<uint32_t>(t + 1));
            Random rng(Mix(opts.seed, 5 + static_cast<uint64_t>(t), round));
            for (uint64_t i = 0; i < per_producer; ++i) {
              const ShardedOp op = NextShardedOp(rng, preload_n);
              const bool sampled = (i & (kSampleEvery - 1)) == 0;
              const uint64_t root = RootFor(&buf, traced, i);
              const uint64_t s = sampled ? NowNs() : 0;
              if (op.read) {
                Value v = 0;
                bool hit;
                {
                  ChildSpan c(&buf, root, "ShardedPMA::Find");
                  hit = client->Find(op.key, &v);
                }
                if (sampled) RecordSample(&st, &st.read, &buf, traced, root, "client.read", s, NowNs());
                if (!hit || !EncodesKey(v, op.key)) {
                  st.Fail("read of preloaded key " + std::to_string(op.key) +
                          (hit ? " returned value " + std::to_string(v) : " missed"));
                }
              } else {
                {
                  ChildSpan c(&buf, root, "ShardedPMA::Insert");
                  client->Insert(op.key, Encode(op.key, 0));
                }
                if (sampled) RecordSample(&st, &st.write, &buf, traced, root, "client.insert", s, NowNs());
              }
              ++st.ops;
            }
          });
        }
        for (std::thread& x : th) x.join();
        const uint64_t f0 = NowNs();
        target->map()->Flush();
        const uint64_t t1 = NowNs();
        ph->final_flush_ms = static_cast<double>(t1 - f0) * 1e-6;
        ph->drain_ms += ph->final_flush_ms;
        ph->secs += Seconds(t1 - t0);
        ph->round_mops.push_back(static_cast<double>(per_producer * producers) /
                                 Seconds(t1 - t0) / 1e6);
      });
      FoldClients(per, ph, &r);
    } while (NowNs() < deadline && opts.op_budget == 0);
  };

  const double secs = opts.trace ? opts.seconds / 2 : opts.seconds;
  run_rounds(false, secs, &col.untraced);
  if (opts.trace) {
    run_rounds(true, secs, &col.traced);
    col.has_traced = true;
  }

  Expected exp;
  exp.keys = preload;
  for (int t = 0; t < producers; ++t) {
    Random rng(Mix(opts.seed, 5 + static_cast<uint64_t>(t), round));
    for (uint64_t i = 0; i < per_producer; ++i) {
      const ShardedOp op = NextShardedOp(rng, preload_n);
      if (!op.read) exp.keys.push_back(op.key);
    }
  }
  exp.keys = Dedup(std::move(exp.keys));
  exp.value_ok = [](Key k, Value v) { return v == Encode(k, 0); };
  // The ordered cross-shard scan that ends the workload is the
  // epilogue's full scan (a k-way merge of the shards' cursors).
  col.epi = Epilogue(std::move(target), client, exp, opts, &r);
  wrapped.reset();
  Emit(col, opts, &tracer, "sharded_ingest", &r);
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"ycsb_a", "ycsb_e",
                                                  "ingest_scan", "sharded_ingest"};
  return kNames;
}

Result RunWorkload(const std::string& name, const Options& opts) {
  if (name == "ycsb_a") return RunYcsb('A', opts);
  if (name == "ycsb_e") return RunYcsb('E', opts);
  if (name == "ingest_scan") return RunIngestScan(opts);
  if (name == "sharded_ingest") return RunShardedIngest(opts);
  std::fprintf(stderr, "perfbench: unknown workload %s\n", name.c_str());
  std::abort();
}

}  // namespace perfbench
