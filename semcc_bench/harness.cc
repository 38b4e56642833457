// semcc end-to-end benchmark harness.
//
// One process measures one workload once. The measured time (`--seconds`) is
// split into kSegments segments; each loads a fresh order-entry database and
// drives the paper's transaction types (orderentry::T1_ShipTwoOrders ...
// TN_EnterOrder) through Database::RunTransaction from one closed-loop thread
// per CPU the process may run on, with zero think time. It then checks each
// segment's end state and prints one JSON object of measurements on stdout.
// run.py builds this program, runs it and turns the object into the
// benchmark's result line.
//
//   semcc_bench --workload oe-uniform --seed 1 --seconds 30 [--traced 0|1]
//
// --traced 0 measures the end-to-end metrics (no tracing; spans only around
// each RunTransaction call). --traced 1 is the separate per-layer run:
// ProtocolOptions::trace on, bench-side spans around every body attempt,
// Database::Stats() and buffer-pool / WAL counters, and then the layer
// probes, which time each module's public functions directly at 1 worker
// and at every worker.
//
// Every segment, traced or not, checks conservation of QuantityOnHand
// against a ledger of the ShipOrders that committed, and on the workloads
// with a WAL crashes and recovers the stable log into a fresh database and
// compares it with the crashed one. Violations are reported as counts, never as an early
// exit.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/orderentry/order_entry.h"
#include "cc/subtxn.h"
#include "core/database.h"
#include "object/schema.h"
#include "recovery/log_device.h"
#include "util/random.h"
#include "util/trace.h"

namespace semcc {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "semcc_bench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T OrDie(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

void OrDie(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

// --- workloads ---------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  int items;
  int orders_per_item;
  double zipf_theta;
  // Transaction mix in percent; the remainder is T5 (TotalPayment).
  int pct_t1;
  int pct_t2;
  int pct_t3;
  int pct_t4;
  int pct_new_order;
  bool wal;
  size_t pool_pages;
};

// Why each exists, and what was left out, is in README.md. The first two are
// the benchmark's workloads (BENCHMARK.json); the other two reproduce known
// defects of the library, so their runs report correct = false or failed
// transactions, and they are not measured.
constexpr WorkloadSpec kWorkloads[] = {
    {"oe-uniform", 1024, 32, 0.0, 25, 25, 15, 15, 0, false, 4096},
    {"oe-durable", 1024, 32, 0.0, 25, 25, 15, 15, 10, true, 4096},
    {"oe-hot", 64, 8, 0.99, 25, 25, 15, 15, 0, false, 4096},
    {"oe-durable-evict", 1024, 32, 0.0, 25, 25, 15, 15, 10, true, 512},
};

/// Simulated stable-storage latency of the in-memory log device (the same
/// 100 µs bench_recovery uses for its group-commit section).
constexpr uint32_t kSimulatedSyncMicros = 100;
constexpr int kMaxRetries = 16;
constexpr int64_t kInitialQoh = 1'000'000;
/// Fresh-database segments the measured time is split into.
constexpr int kSegments = 6;
/// Timed set-ups before each segment: one on each CPU the process may run
/// on, in turn, repeated until this much set-up time has accumulated in the
/// batch.
constexpr double kSetupSecondsPerSegment = 0.25;
/// Measuring time of each layer-probe rate.
constexpr double kProbeSeconds = 0.15;
/// A window in which the hypervisor stole less than this share of the
/// machine's CPU time counts as quiet (see Main).
constexpr double kQuietStealShare = 0.05;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

DatabaseOptions MakeOptions(const WorkloadSpec& spec, bool traced) {
  DatabaseOptions o;
  o.protocol.debug_lock_checks = false;
  o.protocol.trace = traced;
  o.record_history = false;
  o.buffer_pool_pages = spec.pool_pages;
  if (spec.wal) {
    o.enable_wal = true;
    o.recovery.group_commit = true;
    o.recovery.wal_flush_micros = kSimulatedSyncMicros;
  }
  return o;
}

orderentry::LoadSpec MakeLoadSpec(const WorkloadSpec& spec, uint64_t seed) {
  orderentry::LoadSpec ls;
  ls.num_items = spec.items;
  ls.orders_per_item = spec.orders_per_item;
  ls.initial_qoh = kInitialQoh;
  // Every preloaded order starts shipped and paid: T1/T2 only ever add those
  // events, so this is the state a run converges to anyway. Starting there
  // keeps the cost of TotalPayment (which reads Quantity for paid orders)
  // the same in the first second as in the last.
  ls.pre_shipped = 1.0;
  ls.pre_paid = 1.0;
  ls.seed = seed;
  return ls;
}

struct Loaded {
  std::unique_ptr<Database> db;
  orderentry::OrderEntryTypes types;
  orderentry::LoadedData data;
};

/// User + system CPU time of the process so far.
double CpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// CPUs this process may run on; their number is the worker count.
std::vector<int> AffinityCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) Die("sched_getaffinity");
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Restricts the calling thread to `cpus` (threads it starts inherit this).
void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) Die("sched_setaffinity");
}

/// Steal time of the machine so far, in CPU seconds summed over its CPUs:
/// time the hypervisor ran something else while a virtual CPU had work
/// (/proc/stat). Time this process's threads spend blocked or asleep on their
/// own (lock waits, group-commit syncs) is idle time, not steal. Reads 0
/// where /proc/stat is missing.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {0};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (double& x : field) stat >> x;
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Builds a database and returns it with the CPU seconds Install + Load took
/// (CPU time, not wall time: the host's steal is not charged to it).
Loaded SetUp(const WorkloadSpec& spec, uint64_t seed, bool traced,
             double* seconds) {
  Loaded l;
  l.db = std::make_unique<Database>(MakeOptions(spec, traced));
  const double t0 = CpuSeconds();
  orderentry::InstallOptions iopts;
  iopts.parameter_refined_item_matrix = true;  // "semantic-param"
  l.types = OrDie(orderentry::Install(l.db.get(), iopts), "Install");
  l.data = OrDie(orderentry::Load(l.db.get(), l.types, MakeLoadSpec(spec, seed)),
                 "Load");
  if (seconds != nullptr) *seconds = CpuSeconds() - t0;
  return l;
}

// --- closed-loop workers ----------------------------------------------------

struct AckedOrder {
  uint32_t item;
  int64_t order_no;
  int64_t customer;
  int64_t quantity;
};

/// Latency samples kept per worker and one-second window: a uniform
/// reservoir of at most this many RunTransaction calls. The reservoirs are
/// allocated and touched before the run, so the harness's own memory does
/// not grow with throughput and peak_rss_mb tracks the engine.
constexpr size_t kReservoir = 4096;
/// A failed call enters the percentiles at this duration (it missed any
/// latency goal) and does not count as a commit.
constexpr uint32_t kFailedLatencyNs = 0xffffffffu;

/// Per-worker tallies; merged after the workers are joined. Cache-line
/// aligned so that workers updating their own counters share no line.
struct alignas(64) Tally {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t deadlock = 0;
  uint64_t timed_out = 0;
  uint64_t aborted = 0;
  uint64_t corruption = 0;
  uint64_t other = 0;
  // Traced run only: time inside the body across all attempts.
  int64_t body_ns = 0;
  uint64_t body_attempts = 0;
  /// Sum of all RunTransaction durations.
  double latency_ns_sum = 0;
  /// Per window: calls that ended in it, commits among them, and the
  /// reservoir (window w owns latency_ns[w * kReservoir, +kReservoir)).
  std::vector<uint64_t> window_calls;
  std::vector<uint64_t> window_commits;
  std::vector<uint32_t> latency_ns;
  /// Committed ShipOrders per preloaded order, indexed
  /// item * orders_per_item + (order number - 1).
  std::vector<int32_t> ships;
  std::vector<AckedOrder> acked;

  /// Adds `o`'s counters and acknowledged orders (not windows or ships).
  void Add(const Tally& o) {
    attempted += o.attempted;
    committed += o.committed;
    deadlock += o.deadlock;
    timed_out += o.timed_out;
    aborted += o.aborted;
    corruption += o.corruption;
    other += o.other;
    body_ns += o.body_ns;
    body_attempts += o.body_attempts;
    latency_ns_sum += o.latency_ns_sum;
    acked.insert(acked.end(), o.acked.begin(), o.acked.end());
  }
};

class Worker {
 public:
  Worker(const Loaded& l, const WorkloadSpec& spec, uint64_t seed, int index,
         bool traced, int64_t run_start_ns, int64_t window_ns)
      : l_(l),
        spec_(spec),
        traced_(traced),
        run_start_ns_(run_start_ns),
        window_ns_(window_ns),
        reservoir_rng_(seed ^ (0x5a5a5a5aULL + static_cast<uint64_t>(index))),
        rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(index) + 1),
        zipf_(static_cast<uint64_t>(spec.items), spec.zipf_theta,
              seed * 0xc2b2ae3d27d4eb4fULL + static_cast<uint64_t>(index)) {}

  void RunOne(Tally* t) {
    const int roll = static_cast<int>(rng_.Uniform(100));
    uint32_t i1 = static_cast<uint32_t>(zipf_.Next());
    uint32_t i2 = static_cast<uint32_t>(zipf_.Next());
    // T1-T4 address two *different* items (paper §2.3).
    for (int guard = 0; i2 == i1 && guard < 16; ++guard) {
      i2 = static_cast<uint32_t>(zipf_.Next());
    }
    // Orders are picked among the preloaded ones only, so a worker's inputs
    // depend on the seed alone, not on which NewOrders happened to commit.
    const int64_t o1 = PickOrder();
    const int64_t o2 = PickOrder();
    const Oid item1 = l_.data.item_oids[i1];
    const Oid item2 = l_.data.item_oids[i2];

    enum Kind { kT1, kT2, kT3, kT4, kNewOrder, kT5 } kind = kT5;
    int acc = spec_.pct_t1;
    if (roll < acc) {
      kind = kT1;
    } else if (roll < (acc += spec_.pct_t2)) {
      kind = kT2;
    } else if (roll < (acc += spec_.pct_t3)) {
      kind = kT3;
    } else if (roll < (acc += spec_.pct_t4)) {
      kind = kT4;
    } else if (roll < (acc += spec_.pct_new_order)) {
      kind = kNewOrder;
    }
    const char* name = "T5";
    int64_t customer = 0;
    int64_t quantity = 0;
    TxnManager::Body body;
    switch (kind) {
      case kT1:
        name = "T1";
        body = orderentry::T1_ShipTwoOrders(item1, o1, item2, o2);
        break;
      case kT2:
        name = "T2";
        body = orderentry::T2_PayTwoOrders(item1, o1, item2, o2);
        break;
      case kT3:
        name = "T3";
        body = orderentry::T3_CheckShipment(item1, o1, item2, o2);
        break;
      case kT4:
        name = "T4";
        body = orderentry::T4_CheckPayment(item1, o1, item2, o2);
        break;
      case kNewOrder:
        name = "TN";
        customer = static_cast<int64_t>(rng_.Uniform(1000)) + 1;
        quantity = static_cast<int64_t>(rng_.Uniform(9)) + 1;
        body = orderentry::TN_EnterOrder(item1, customer, quantity);
        break;
      case kT5:
        body = orderentry::T5_TotalPayment(item1);
        break;
    }
    if (traced_) {
      // Bench-side span around every body attempt (retries included).
      body = [t, inner = std::move(body)](TxnCtx& ctx) -> Result<Value> {
        const int64_t b0 = NowNs();
        Result<Value> r = inner(ctx);
        t->body_ns += NowNs() - b0;
        t->body_attempts++;
        return r;
      };
    }

    const int64_t t0 = NowNs();
    Result<Value> r = l_.db->RunTransaction(name, body, kMaxRetries);
    const int64_t t1 = NowNs();
    t->attempted++;
    t->latency_ns_sum += static_cast<double>(t1 - t0);
    Record(t, t1, r.ok() ? std::min<int64_t>(t1 - t0, kFailedLatencyNs - 1)
                         : kFailedLatencyNs,
           r.ok());
    if (r.ok()) {
      t->committed++;
      if (kind == kT1) {
        t->ships[ShipIndex(i1, o1)]++;
        t->ships[ShipIndex(i2, o2)]++;
      } else if (kind == kNewOrder) {
        t->acked.push_back({i1, r.ValueOrDie().AsInt(), customer, quantity});
      }
      return;
    }
    const Status& st = r.status();
    if (st.IsDeadlock()) {
      t->deadlock++;
    } else if (st.IsTimedOut()) {
      t->timed_out++;
    } else if (st.IsAborted()) {
      t->aborted++;
    } else if (st.IsCorruption()) {
      t->corruption++;
    } else {
      t->other++;
    }
  }

 private:
  /// Reservoir-samples one call into the window it ended in.
  void Record(Tally* t, int64_t end_ns, int64_t latency_ns, bool committed) {
    const size_t w = std::min(
        t->window_calls.size() - 1,
        static_cast<size_t>((end_ns - run_start_ns_) / window_ns_));
    if (committed) t->window_commits[w]++;
    const uint64_t k = t->window_calls[w]++;
    const uint64_t slot = k < kReservoir ? k : reservoir_rng_.Uniform(k + 1);
    if (slot < kReservoir) {
      t->latency_ns[w * kReservoir + slot] = static_cast<uint32_t>(latency_ns);
    }
  }

  size_t ShipIndex(uint32_t item, int64_t order_no) const {
    return static_cast<size_t>(item) *
               static_cast<size_t>(spec_.orders_per_item) +
           static_cast<size_t>(order_no - 1);
  }

  int64_t PickOrder() {
    return static_cast<int64_t>(
               rng_.Uniform(static_cast<uint64_t>(spec_.orders_per_item))) +
           1;
  }

  const Loaded& l_;
  const WorkloadSpec& spec_;
  const bool traced_;
  const int64_t run_start_ns_;
  const int64_t window_ns_;
  Random reservoir_rng_;
  Random rng_;
  ZipfianGenerator zipf_;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Join(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

/// Order statistic at quantile q (nearest rank) of `v`; reorders `v`.
double Quantile(std::vector<uint32_t>* v, double q) {
  if (v->empty()) return 0;
  size_t k = static_cast<size_t>(q * static_cast<double>(v->size()));
  k = std::min(k, v->size() - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(k),
                   v->end());
  return static_cast<double>((*v)[k]);
}

struct SegmentResult {
  double elapsed_s = 0;
  Tally total;  ///< summed counters; no per-window data
  /// Commits/s, p50, p90 and p99 latency (µs) and the process's CPU time
  /// per commit (µs) of every one-second window, and the share of the
  /// machine's CPU time the hypervisor stole in it.
  std::vector<double> tps;
  std::vector<double> p50_us;
  std::vector<double> p90_us;
  std::vector<double> p99_us;
  std::vector<double> cpu_us_per_commit;
  std::vector<double> steal;
  size_t min_window_samples = 0;  ///< fewest latency samples in a window
};

SegmentResult Drive(const Loaded& l, const WorkloadSpec& spec, uint64_t seed,
                  int workers, double seconds, bool traced) {
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(seconds));
  const int64_t window_ns =
      static_cast<int64_t>(seconds * 1e9 / static_cast<double>(windows));
  const size_t ship_slots =
      static_cast<size_t>(spec.items) * static_cast<size_t>(spec.orders_per_item);
  std::vector<Tally> tallies(static_cast<size_t>(workers));
  for (Tally& t : tallies) {
    t.window_calls.assign(windows, 0);
    t.window_commits.assign(windows, 0);
    t.latency_ns.assign(windows * kReservoir, 0);
    t.ships.assign(ship_slots, 0);
  }
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> start_ns{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w]() {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Worker worker(l, spec, seed, w, traced, start_ns.load(), window_ns);
      Tally* t = &tallies[static_cast<size_t>(w)];
      while (!stop.load(std::memory_order_relaxed)) worker.RunOne(t);
    });
  }
  SegmentResult out;
  const Clock::time_point start = Clock::now();
  start_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     start.time_since_epoch())
                     .count());
  go.store(true, std::memory_order_release);
  // The otherwise idle main thread samples the steal time and the process's
  // CPU time at each window boundary.
  const double machine_cpus =
      static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  double steal = StealSeconds();
  double cpu = CpuSeconds();
  std::vector<double> window_cpu_s;
  for (size_t w = 0; w < windows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(window_ns * static_cast<int64_t>(w + 1)));
    const double now = StealSeconds();
    out.steal.push_back((now - steal) * 1e9 /
                        (static_cast<double>(window_ns) * machine_cpus));
    steal = now;
    const double cpu_now = CpuSeconds();
    window_cpu_s.push_back(cpu_now - cpu);
    cpu = cpu_now;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();

  out.elapsed_s = (NowNs() - start_ns.load()) * 1e-9;
  Tally& m = out.total;
  m.ships.assign(ship_slots, 0);
  for (const Tally& t : tallies) {
    m.Add(t);
    for (size_t i = 0; i < ship_slots; ++i) m.ships[i] += t.ships[i];
  }
  out.min_window_samples = SIZE_MAX;
  for (size_t w = 0; w < windows; ++w) {
    uint64_t commits = 0;
    std::vector<uint32_t> lat;
    for (const Tally& t : tallies) {
      commits += t.window_commits[w];
      const auto first = t.latency_ns.begin() +
                         static_cast<ptrdiff_t>(w * kReservoir);
      lat.insert(lat.end(), first,
                 first + static_cast<ptrdiff_t>(std::min<uint64_t>(
                             t.window_calls[w], kReservoir)));
    }
    out.tps.push_back(static_cast<double>(commits) * 1e9 /
                      static_cast<double>(window_ns));
    out.cpu_us_per_commit.push_back(window_cpu_s[w] * 1e6 /
                                    static_cast<double>(std::max<uint64_t>(commits, 1)));
    out.p50_us.push_back(Quantile(&lat, 0.50) / 1e3);
    out.p90_us.push_back(Quantile(&lat, 0.90) / 1e3);
    out.p99_us.push_back(Quantile(&lat, 0.99) / 1e3);
    out.min_window_samples = std::min(out.min_window_samples, lat.size());
  }
  return out;
}

// --- correctness checks --------------------------------------------------------

Result<int64_t> ReadOrderField(Database* db, Oid item, int64_t order_no,
                               const char* field) {
  SEMCC_ASSIGN_OR_RETURN(Oid order, orderentry::FindOrder(db, item, order_no));
  SEMCC_ASSIGN_OR_RETURN(Oid atom, db->store()->Component(order, field));
  SEMCC_ASSIGN_OR_RETURN(Value v, db->store()->Get(atom));
  return v.AsInt();
}

/// Items whose QuantityOnHand differs from the initial quantity minus the
/// quantities of that item's committed ShipOrders (an item whose state cannot
/// be read counts too).
int64_t QohViolations(const Loaded& l, const WorkloadSpec& spec,
                      const Tally& t) {
  int64_t violations = 0;
  for (size_t i = 0; i < l.data.item_oids.size(); ++i) {
    const Oid item = l.data.item_oids[i];
    int64_t shipped = 0;
    bool readable = true;
    for (int o = 1; o <= spec.orders_per_item; ++o) {
      const int32_t n =
          t.ships[i * static_cast<size_t>(spec.orders_per_item) +
                  static_cast<size_t>(o - 1)];
      if (n == 0) continue;
      Result<int64_t> qty = ReadOrderField(l.db.get(), item, o, "Quantity");
      readable = readable && qty.ok();
      if (qty.ok()) shipped += n * qty.ValueOrDie();
    }
    Result<int64_t> qoh = orderentry::ReadQohRaw(l.db.get(), item);
    if (!readable || !qoh.ok() || qoh.ValueOrDie() != kInitialQoh - shipped) {
      ++violations;
    }
  }
  return violations;
}

struct RestartResult {
  double seconds = 0;
  int64_t mismatches = 0;
};

/// Crash and restart: keep the stable log records, destroy the live
/// database, recover the records into a fresh one, and compare every item's
/// QuantityOnHand and every acknowledged NewOrder with what the live
/// database held. Timed from reading the log to the end of the comparison.
///
/// The fresh database runs without a WAL: RecoverFrom into a WAL-enabled
/// database would re-log every REDO record (a chained checkpoint), which the
/// in-place restart path (Database::RestartFromLog) does not do, and which
/// would double the memory of this phase.
RestartResult CrashAndRestart(Loaded* l, const WorkloadSpec& spec,
                              const Tally& t) {
  std::vector<Result<int64_t>> live_qoh;
  for (Oid item : l->data.item_oids) {
    live_qoh.push_back(orderentry::ReadQohRaw(l->db.get(), item));
  }
  RestartResult out;
  const int64_t t0 = NowNs();
  std::vector<LogRecord> log =
      OrDie(l->db->wal()->StableRecords(), "read stable log");
  l->db.reset();
  WorkloadSpec plain = spec;
  plain.wal = false;
  Database recovered(MakeOptions(plain, /*traced=*/false));
  orderentry::InstallOptions iopts;
  iopts.parameter_refined_item_matrix = true;
  iopts.register_only = true;
  (void)OrDie(orderentry::Install(&recovered, iopts), "Install (recovery)");
  const Status recovered_st = recovered.RecoverFrom(log).status();
  if (!recovered_st.ok()) {
    std::fprintf(stderr, "semcc_bench: RecoverFrom: %s\n",
                 recovered_st.ToString().c_str());
  }
  log.clear();
  log.shrink_to_fit();
  // RecoverFrom keeps the original object ids, so the live oids address the
  // recovered objects.
  for (size_t i = 0; i < live_qoh.size(); ++i) {
    Result<int64_t> back =
        orderentry::ReadQohRaw(&recovered, l->data.item_oids[i]);
    if (!back.ok() || !live_qoh[i].ok() ||
        back.ValueOrDie() != live_qoh[i].ValueOrDie()) {
      ++out.mismatches;
    }
  }
  for (const AckedOrder& a : t.acked) {
    const Oid item = l->data.item_oids[a.item];
    Result<int64_t> cust =
        ReadOrderField(&recovered, item, a.order_no, "CustomerNo");
    Result<int64_t> qty =
        ReadOrderField(&recovered, item, a.order_no, "Quantity");
    if (!cust.ok() || !qty.ok() || cust.ValueOrDie() != a.customer ||
        qty.ValueOrDie() != a.quantity) {
      ++out.mismatches;
    }
  }
  out.seconds = (NowNs() - t0) * 1e-9;
  return out;
}

// --- layer probes ---------------------------------------------------------------

/// One thread's probe operation; a non-OK status counts as a failed call.
using ProbeOp = std::function<Status(Random&)>;
/// Builds thread `i`'s operation.
using ProbeOpFactory = std::function<ProbeOp(int i)>;

class Prober {
 public:
  Prober(int workers, double seconds) : workers_(workers), seconds_(seconds) {}

  /// Calls of `make_op`'s operation per second from `threads` threads.
  double Rate(int threads, const ProbeOpFactory& make_op) {
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::vector<uint64_t> ops(static_cast<size_t>(threads), 0);
    std::vector<uint64_t> failed(static_cast<size_t>(threads), 0);
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back([&, i]() {
        ProbeOp op = make_op(i);
        Random rng(0x51ed + static_cast<uint64_t>(i));
        uint64_t n = 0;
        uint64_t bad = 0;
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        while (!stop.load(std::memory_order_relaxed)) {
          for (int k = 0; k < 64; ++k) bad += op(rng).ok() ? 0 : 1;
          n += 64;
        }
        ops[static_cast<size_t>(i)] = n;
        failed[static_cast<size_t>(i)] = bad;
      });
    }
    const int64_t t0 = NowNs();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds_));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& th : pool) th.join();
    const double elapsed = (NowNs() - t0) * 1e-9;
    uint64_t total = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      total += ops[i];
      failures_ += failed[i];
    }
    return static_cast<double>(total) / elapsed;
  }

  /// ns per call at 1 worker, and calls/s at all workers over calls/s at 1.
  std::pair<double, double> NsAndScaling(const ProbeOpFactory& make_op) {
    const double one = Rate(1, make_op);
    const double many = Rate(workers_, make_op);
    return {1e9 / one, many / one};
  }

  uint64_t failures() const { return failures_; }

 private:
  const int workers_;
  const double seconds_;
  uint64_t failures_ = 0;
};

struct JsonOut {
  std::string s = "{";
  void Add(const char* key, double v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", s.size() > 1 ? ", " : "",
                  key, v);
    s += buf;
  }
  void Add(const char* key, const char* v) {
    s += std::string(s.size() > 1 ? ", " : "") + "\"" + key + "\": \"" + v +
         "\"";
  }
};

void RunProbes(const WorkloadSpec& spec, uint64_t seed, int workers,
               double seconds, JsonOut* out) {
  // A probe database of its own, loaded like the workload's (same sizes and
  // buffer pool) but with no WAL, so each probe prices one layer.
  WorkloadSpec plain = spec;
  plain.wal = false;
  Loaded l = SetUp(plain, seed, /*traced=*/false, nullptr);
  Database* db = l.db.get();
  ObjectStore* store = db->store();
  std::vector<Oid> atoms;
  std::vector<Oid> sets;
  std::vector<PageId> pages;
  for (Oid item : l.data.item_oids) {
    atoms.push_back(OrDie(store->Component(item, "QuantityOnHand"), "qoh"));
    sets.push_back(OrDie(store->Component(item, "Orders"), "orders"));
  }
  for (Oid a : atoms) pages.push_back(OrDie(store->PageOf(a), "page"));
  for (Oid s : sets) {
    for (const auto& [key, order] : OrDie(store->SetScan(s), "scan")) {
      (void)key;
      pages.push_back(OrDie(store->PageOf(order), "page"));
    }
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

  auto pick = [](Random& rng, const auto& v) -> const auto& {
    return v[static_cast<size_t>(rng.Uniform(v.size()))];
  };
  Prober prober(workers, seconds);

  // MethodRegistry::Find over every registered (type, method) pair.
  const std::vector<std::pair<TypeId, std::string>> methods = {
      {l.types.item, "NewOrder"},      {l.types.item, "ShipOrder"},
      {l.types.item, "PayOrder"},      {l.types.item, "TotalPayment"},
      {l.types.order, "ChangeStatus"}, {l.types.order, "UnchangeStatus"},
      {l.types.order, "TestStatus"}};
  auto [find_ns, find_scaling] = prober.NsAndScaling([&](int) {
    return [&](Random& rng) {
      const auto& [type, name] = pick(rng, methods);
      return db->methods()->Find(type, name).status();
    };
  });
  out->Add("txn.find_ns", find_ns);
  out->Add("txn.find_scaling", find_scaling);

  // LockManager::Acquire -> OnSubTxnCompleted -> ReleaseTree of one
  // TotalPayment lock (it commutes with itself, so the probe never blocks)
  // on an item picked the way the workload picks items.
  LockManager* lm = db->locks();
  auto [acq_ns, acq_scaling] = prober.NsAndScaling([&](int i) {
    auto zipf = std::make_shared<ZipfianGenerator>(
        l.data.item_oids.size(), spec.zipf_theta,
        seed + static_cast<uint64_t>(i));
    return [&, zipf](Random&) {
      const Oid item = l.data.item_oids[static_cast<size_t>(zipf->Next())];
      TxnTree tree(TxnTree::NextId(), "probe", kDatabaseOid,
                   Schema::kDatabaseTypeId);
      SubTxn* root = tree.root();
      root->set_grant_seq(lm->NextSeq());
      SubTxn* node =
          tree.NewNode(root, item, l.types.item, "TotalPayment", {});
      Status st = lm->Acquire(node, LockTarget::ForObject(item), false);
      node->set_state(TxnState::kCommitted);
      lm->OnSubTxnCompleted(node);
      root->set_state(TxnState::kCommitted);
      lm->OnSubTxnCompleted(root);
      lm->ReleaseTree(root);
      return st;
    };
  });
  out->Add("cc.acquire_release_ns", acq_ns);
  out->Add("cc.acquire_release_scaling", acq_scaling);

  auto [get_ns, get_scaling] = prober.NsAndScaling([&](int) {
    return [&](Random& rng) { return store->Get(pick(rng, atoms)).status(); };
  });
  out->Add("object.get_ns", get_ns);
  out->Add("object.scaling", get_scaling);
  const double put_rate = prober.Rate(1, [&](int) {
    return [&](Random& rng) {
      return store->Put(pick(rng, atoms), Value(kInitialQoh));
    };
  });
  out->Add("object.put_ns", 1e9 / put_rate);
  const double scan_rate = prober.Rate(1, [&](int) {
    return [&](Random& rng) { return store->SetScan(pick(rng, sets)).status(); };
  });
  out->Add("object.setscan_ns_per_member",
           1e9 / scan_rate / static_cast<double>(spec.orders_per_item));

  BufferPool* bp = db->buffer_pool();
  auto [fetch_ns, fetch_scaling] = prober.NsAndScaling([&](int) {
    return [&](Random& rng) { return bp->FetchPage(pick(rng, pages)).status(); };
  });
  out->Add("storage.fetch_ns", fetch_ns);
  out->Add("storage.fetch_scaling", fetch_scaling);

  // WriteAheadLog::Append + FlushTo on a zero-latency in-memory device: the
  // WAL's own CPU cost per commit-sized force. Each rate gets a fresh log so
  // the retained records do not pile up across measurements.
  std::unique_ptr<WriteAheadLog> wal;
  auto make_append = [&](int) {
    return [&](Random& rng) {
      LogRecord rec;
      rec.type = LogType::kAtomWrite;
      rec.object = pick(rng, atoms);
      rec.value = Value(static_cast<int64_t>(rng.Uniform(1000)));
      return wal->FlushTo(wal->Append(std::move(rec)));
    };
  };
  wal = std::make_unique<WriteAheadLog>(std::make_unique<InMemoryLogDevice>(0));
  const double append_one = prober.Rate(1, make_append);
  wal = std::make_unique<WriteAheadLog>(std::make_unique<InMemoryLogDevice>(0));
  const double append_many = prober.Rate(workers, make_append);
  wal.reset();
  out->Add("wal.append_ns", 1e9 / append_one);
  out->Add("wal.append_scaling", append_many / append_one);
  out->Add("probe.failures", static_cast<double>(prober.failures()));
}

// --- main -------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--traced") {
      a.traced = std::atoi(v) != 0;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
#ifndef NDEBUG
  Die("refusing to measure a build with assertions on (not Release)");
#endif
  if (std::strcmp(SEMCC_BENCH_BUILD_TYPE, "Release") != 0) {
    Die(std::string("refusing to measure a ") + SEMCC_BENCH_BUILD_TYPE +
        " build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  const std::vector<int> cpus = AffinityCpus();
  const int workers = static_cast<int>(cpus.size());

  JsonOut out;
  out.Add("workload", spec->name);
  out.Add("build_type", SEMCC_BENCH_BUILD_TYPE);
  out.Add("seed", static_cast<double>(args.seed));
  out.Add("workers", workers);
  out.Add("nproc", std::thread::hardware_concurrency());

  // The measured time is split into segments, each on a freshly loaded
  // database driven by fresh worker threads. On a shared host a run lands in
  // a fast or slow regime for seconds at a time; independent segments give
  // several draws of it, and the medians below are taken over the one-second
  // windows of every segment. Before each segment a batch of set-ups is
  // timed (each database destroyed before the next is built), so the set-up
  // samples, too, are spread over the whole run. Each batch builds one
  // database on every CPU in turn: on a shared host one virtual CPU can run
  // Install + Load 1.7x slower than another at the same moment, and a
  // thread left to the scheduler stays on one of them for a whole batch.
  std::vector<double> setups;
  Tally t;
  SegmentResult windows;
  windows.min_window_samples = SIZE_MAX;
  double elapsed_s = 0;
  double cpu_s = 0;
  int64_t qoh_violations = 0;
  LockStats locks;
  std::vector<double> wait_p99, flush_p50, restart_s;
  uint64_t hits = 0, misses = 0, wal_records = 0, syncs = 0, log_bytes = 0;
  int64_t mismatches = 0;
  const double segment_s = args.seconds / kSegments;
  for (int seg = 0; seg < kSegments; ++seg) {
    const uint64_t seed = args.seed * 1000 + static_cast<uint64_t>(seg);
    double batch_s = 0;
    while (batch_s < kSetupSecondsPerSegment) {
      for (int c : cpus) {
        PinTo({c});
        double s = 0;
        SetUp(*spec, seed, args.traced, &s);
        setups.push_back(s);
        batch_s += s;
      }
      PinTo(cpus);
    }
    Loaded l = SetUp(*spec, seed, args.traced, nullptr);
    Database* db = l.db.get();
    const uint64_t hits0 = db->buffer_pool()->hits();
    const uint64_t misses0 = db->buffer_pool()->misses();
    WalStats wal0;
    uint64_t syncs0 = 0;
    if (spec->wal) {
      OrDie(db->wal()->Flush(), "flush load records");
      wal0 = db->wal()->stats();
      syncs0 = db->wal()->device()->sync_count();
    }

    const double cpu0 = CpuSeconds();
    SegmentResult run = Drive(l, *spec, seed, workers, segment_s, args.traced);
    cpu_s += CpuSeconds() - cpu0;
    elapsed_s += run.elapsed_s;
    const Tally& r = run.total;
    t.Add(r);
    windows.tps.insert(windows.tps.end(), run.tps.begin(), run.tps.end());
    windows.p50_us.insert(windows.p50_us.end(), run.p50_us.begin(),
                          run.p50_us.end());
    windows.p90_us.insert(windows.p90_us.end(), run.p90_us.begin(),
                          run.p90_us.end());
    windows.p99_us.insert(windows.p99_us.end(), run.p99_us.begin(),
                          run.p99_us.end());
    windows.cpu_us_per_commit.insert(windows.cpu_us_per_commit.end(),
                                     run.cpu_us_per_commit.begin(),
                                     run.cpu_us_per_commit.end());
    windows.steal.insert(windows.steal.end(), run.steal.begin(),
                         run.steal.end());
    windows.min_window_samples =
        std::min(windows.min_window_samples, run.min_window_samples);
    qoh_violations += QohViolations(l, *spec, r);

    const LockStats k = db->Stats().locks;
    locks.acquires += k.acquires;
    locks.blocked_acquires += k.blocked_acquires;
    locks.commute_grants += k.commute_grants;
    locks.case1_grants += k.case1_grants;
    locks.case2_waits += k.case2_waits;
    locks.root_waits += k.root_waits;
    locks.deadlocks += k.deadlocks;
    locks.timeouts += k.timeouts;
    locks.fast_path_hits += k.fast_path_hits;
    locks.coalesced_grants += k.coalesced_grants;
    locks.memo_hits += k.memo_hits;
    locks.wait_micros.sum += k.wait_micros.sum;
    locks.wait_micros.count += k.wait_micros.count;
    wait_p99.push_back(static_cast<double>(k.wait_micros.p99));
    hits += db->buffer_pool()->hits() - hits0;
    misses += db->buffer_pool()->misses() - misses0;
    if (spec->wal) {
      OrDie(db->wal()->Flush(), "final flush");
      const WalStats wal1 = db->wal()->stats();
      wal_records += wal1.appends - wal0.appends;
      syncs += db->wal()->device()->sync_count() - syncs0;
      log_bytes += wal1.stable_bytes - wal0.stable_bytes;
      flush_p50.push_back(static_cast<double>(wal1.flush_micros.p50));
      const RestartResult restart = CrashAndRestart(&l, *spec, r);
      restart_s.push_back(restart.seconds);
      mismatches += restart.mismatches;
    }
  }
  out.Add("setup_s", Median(setups));
  out.Add("setup_samples", static_cast<double>(setups.size()));
  const double commits = static_cast<double>(std::max<uint64_t>(t.committed, 1));

  out.Add("segments", kSegments);
  out.Add("elapsed_s", elapsed_s);
  out.Add("cpu_s", cpu_s);
  out.Add("attempted", static_cast<double>(t.attempted));
  out.Add("committed", static_cast<double>(t.committed));
  out.Add("failed", static_cast<double>(t.attempted - t.committed));
  out.Add("fail.deadlock", static_cast<double>(t.deadlock));
  out.Add("fail.timed_out", static_cast<double>(t.timed_out));
  out.Add("fail.aborted", static_cast<double>(t.aborted));
  out.Add("fail.corruption", static_cast<double>(t.corruption));
  out.Add("fail.other", static_cast<double>(t.other));
  out.Add("fail_share", static_cast<double>(t.attempted - t.committed) /
                            static_cast<double>(std::max<uint64_t>(t.attempted, 1)));
  // Throughput, latency and CPU time per commit come from the windows in
  // which the hypervisor stole no more of the machine's CPU time than in the
  // median window, or less than kQuietStealShare of it: a window in which
  // the host took the CPUs away measures the host. Windows in which the
  // workers idle on their own (lock waits, stalls, syncs) stay in.
  const double steal_cut = std::max(Median(windows.steal), kQuietStealShare);
  SegmentResult kept;
  for (size_t w = 0; w < windows.tps.size(); ++w) {
    if (windows.steal[w] > steal_cut) continue;
    kept.tps.push_back(windows.tps[w]);
    kept.p50_us.push_back(windows.p50_us[w]);
    kept.p90_us.push_back(windows.p90_us[w]);
    kept.p99_us.push_back(windows.p99_us[w]);
    kept.cpu_us_per_commit.push_back(windows.cpu_us_per_commit[w]);
  }
  out.Add("commit_tps", Median(kept.tps));
  out.Add("commit_tps_whole_run", static_cast<double>(t.committed) / elapsed_s);
  out.Add("cpu_us_per_commit", Median(kept.cpu_us_per_commit));
  out.Add("cpu_us_per_commit_whole_run", cpu_s * 1e6 / commits);
  out.Add("latency_p50_us", Median(kept.p50_us));
  out.Add("latency_p90_us", Median(kept.p90_us));
  out.Add("latency_p99_us", Median(kept.p99_us));
  out.Add("windows", static_cast<double>(windows.tps.size()));
  out.Add("windows_used", static_cast<double>(kept.tps.size()));
  out.Add("window_steal", Join(windows.steal).c_str());
  out.Add("window_tps", Join(windows.tps).c_str());
  out.Add("window_p50_us", Join(windows.p50_us).c_str());
  out.Add("window_p90_us", Join(windows.p90_us).c_str());
  out.Add("window_p99_us", Join(windows.p99_us).c_str());
  out.Add("window_cpu_us_per_commit", Join(windows.cpu_us_per_commit).c_str());
  out.Add("latency_min_samples_per_window",
          static_cast<double>(windows.min_window_samples));
  out.Add("qoh_violations", static_cast<double>(qoh_violations));
  out.Add("lock_timeouts", static_cast<double>(locks.timeouts));
  out.Add("storage.hit_rate", static_cast<double>(hits) /
                                  static_cast<double>(std::max<uint64_t>(hits + misses, 1)));
  out.Add("storage.misses_per_commit", static_cast<double>(misses) / commits);

  if (args.traced) {
    out.Add("txn.body_us_per_commit", static_cast<double>(t.body_ns) / 1e3 / commits);
    out.Add("txn.overhead_us_per_commit",
            (t.latency_ns_sum - static_cast<double>(t.body_ns)) / 1e3 / commits);
    out.Add("txn.attempts_per_commit", static_cast<double>(t.body_attempts) / commits);
    const LockStats& k = locks;
    const double acquires = static_cast<double>(std::max<uint64_t>(k.acquires, 1));
    const double verdicts = static_cast<double>(std::max<uint64_t>(
        k.commute_grants + k.case1_grants + k.case2_waits + k.root_waits, 1));
    out.Add("cc.acquires_per_commit", static_cast<double>(k.acquires) / commits);
    out.Add("cc.fast_path_share", static_cast<double>(k.fast_path_hits) / acquires);
    out.Add("cc.coalesced_share", static_cast<double>(k.coalesced_grants) / acquires);
    out.Add("cc.memo_hits", static_cast<double>(k.memo_hits));
    out.Add("cc.blocked_share", static_cast<double>(k.blocked_acquires) / acquires);
    // LockStats::wait_micros aggregates the same per-wait microseconds the
    // kGrantAfterWait trace events carry, without the ring's wraparound.
    out.Add("cc.wait_us_per_commit", static_cast<double>(k.wait_micros.sum) / commits);
    out.Add("cc.wait_p99_us", Median(wait_p99));
    out.Add("cc.wait_samples", static_cast<double>(k.wait_micros.count));
    out.Add("cc.deadlocks_per_1k", static_cast<double>(k.deadlocks) * 1e3 / commits);
    out.Add("cc.timeouts", static_cast<double>(k.timeouts));
    out.Add("cc.commute_share", static_cast<double>(k.commute_grants) / verdicts);
    out.Add("cc.case1_share", static_cast<double>(k.case1_grants) / verdicts);
    out.Add("cc.case2_share", static_cast<double>(k.case2_waits) / verdicts);
    out.Add("cc.root_wait_share", static_cast<double>(k.root_waits) / verdicts);
    out.Add("trace.events_dropped", static_cast<double>(trace::TotalDropped()));
  }

  if (spec->wal) {
    out.Add("wal.records_per_commit", static_cast<double>(wal_records) / commits);
    out.Add("wal.commits_per_sync",
            commits / static_cast<double>(std::max<uint64_t>(syncs, 1)));
    out.Add("wal.flush_p50_us", Median(flush_p50));
    out.Add("log_bytes_per_commit", static_cast<double>(log_bytes) / commits);
    out.Add("restart_s", Median(restart_s));
    out.Add("recovery_mismatches", static_cast<double>(mismatches));
    out.Add("acked_new_orders", static_cast<double>(t.acked.size()));
  }

  if (args.traced) {
    RunProbes(*spec, args.seed, workers, kProbeSeconds, &out);
  }

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  out.Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  std::printf("%s}\n", out.s.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace semcc

int main(int argc, char** argv) { return semcc::bench::Main(argc, argv); }
