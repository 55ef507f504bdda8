// perfbench driver: runs one named workload through harness::execute_full
// for a given number of wall seconds, single-threaded, and prints one JSON
// object with the raw per-iteration measurements, the simulated outcomes
// and the correctness checks. run.py turns it into the benchmark's metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --scratch <dir>
//
// Host time is the thread's CPU time with the reference kernel's samples
// removed (refkernel.h); each iteration also records the kernel's mean
// sample time, which run.py uses to normalize.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/signer.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "refkernel.h"
#include "sim/simulator.h"
#include "storage/block_store.h"
#include "trace.h"
#include "workloads.h"

namespace {

using bamboo::harness::RunOutput;
using bamboo::harness::RunResult;
using bamboo::harness::RunSpec;
using perfbench::Stamp;

// --- set-up boundary -------------------------------------------------------
// execute_full builds the cluster and installs the workload, then calls
// Simulator::run_until for the first time. Both builds wrap that symbol:
// its first call after a run starts marks the end of set-up. A set-up
// probe throws there, abandoning the run before any simulated event.

bool g_await_setup_end = false;
bool g_abort_at_setup_end = false;
Stamp g_setup_end;

struct SetupAbort {};

}  // namespace

extern "C" void __real__ZN6bamboo3sim9Simulator9run_untilEl(
    bamboo::sim::Simulator* self, bamboo::sim::Time deadline);
extern "C" void __wrap__ZN6bamboo3sim9Simulator9run_untilEl(
    bamboo::sim::Simulator* self, bamboo::sim::Time deadline) {
  if (g_await_setup_end) {
    g_await_setup_end = false;
    g_setup_end = perfbench::stamp();
    if (g_abort_at_setup_end) throw SetupAbort{};
  }
  __real__ZN6bamboo3sim9Simulator9run_untilEl(self, deadline);
}

namespace {

constexpr int kSamplerIntervalUs = 2000;
constexpr int kMinIterations = 3;  // the first is a warm-up
constexpr int kMaxIterations = 1000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string scratch;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --scratch <dir>\nworkloads:";
  for (const auto& n : perfbench::workload_names()) std::cerr << ' ' << n;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--scratch") a.scratch = val;
      else usage("unknown flag " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty() || a.scratch.empty() || !(a.seconds > 0))
    usage("--workload, --scratch and a positive --seconds are required");
  return a;
}

// --- output helpers --------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + '"';
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
T median(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// --- one iteration ---------------------------------------------------------

struct Iteration {
  // Host times of the iteration's grid of runs; "norm" ones are normalized
  // (refkernel.h), the others are CPU time with the kernel removed.
  double setup_norm_ns = 0;       ///< median over the set-up repetitions
  double host_norm_ns = 0;        ///< simulated runs, after set-up
  std::int64_t run_setup_ns = 0;  ///< set-up of the simulated runs
  std::int64_t host_ns = 0;
  std::int64_t raw_cpu_ns = 0;
  std::int64_t raw_wall_ns = 0;
  double ref_ns = 0;  ///< mean kernel sample time during the iteration
  std::uint64_t events = 0;
  perfbench::trace::Totals trace;
  std::vector<RunResult> results;
};

void clear_store(const perfbench::Workload& w) {
  if (w.store_dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(w.store_dir, ec);
}

Iteration run_iteration(const perfbench::Workload& w) {
  Iteration it;
  const Stamp begin = perfbench::stamp();

  std::vector<double> setups;
  for (int p = 0; p < w.setup_probes; ++p) {
    double total = 0;
    for (const RunSpec& spec : w.specs) {
      clear_store(w);
      g_abort_at_setup_end = true;
      g_await_setup_end = true;
      const Stamp a = perfbench::stamp();
      try {
        (void)bamboo::harness::execute_full(spec);
        throw std::runtime_error("set-up probe ran past set-up");
      } catch (const SetupAbort&) {
      }
      total += perfbench::norm_ns(a, g_setup_end);
    }
    setups.push_back(total);
  }
  g_abort_at_setup_end = false;

  perfbench::trace::reset();
  double setup_norm = 0;
  for (const RunSpec& spec : w.specs) {
    clear_store(w);
    g_await_setup_end = true;
    const Stamp a = perfbench::stamp();
    RunOutput out = bamboo::harness::execute_full(spec);
    const Stamp z = perfbench::stamp();
    if (g_await_setup_end)
      throw std::runtime_error("the run never reached Simulator::run_until");
    it.run_setup_ns += perfbench::host_ns(a, g_setup_end);
    setup_norm += perfbench::norm_ns(a, g_setup_end);
    it.host_ns += perfbench::host_ns(g_setup_end, z);
    it.host_norm_ns += perfbench::norm_ns(g_setup_end, z);
    it.raw_cpu_ns += z.cpu_ns - a.cpu_ns;
    it.raw_wall_ns += z.wall_ns - a.wall_ns;
    it.events += out.events_executed;
    it.results.push_back(std::move(out.result));
  }
  it.trace = perfbench::trace::read();
  setups.push_back(setup_norm);
  it.setup_norm_ns = median(setups);
  it.ref_ns = perfbench::ref_mean_ns(begin, perfbench::stamp());
  return it;
}

// --- simulated outcomes and checks -----------------------------------------

struct Outcome {
  double tps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double recovery_ms = 0;
  std::uint64_t fingerprint = 0;  ///< hash of every run's full report row
};

// Latency quantiles are the runs' exact sample percentiles (averaged over
// the grid): the histogram's bucketed quantiles read the same on every seed
// of a workload, which hides a change that moves latency by less than a
// bucket.
Outcome outcome_of(const perfbench::Workload& w,
                   const std::vector<RunResult>& results) {
  Outcome o;
  double committed = 0, seconds = 0;
  o.fingerprint = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    committed += r.throughput_tps * r.measured_s;
    seconds += r.measured_s;
    o.p50_ms += r.latency_ms_p50;
    o.p99_ms += r.latency_ms_p99;
    o.recovery_ms += r.recovery_ms;
    const auto rec = bamboo::harness::report::make_run_record(
        "perfbench", w.name, "run", static_cast<std::uint32_t>(i),
        w.specs[i], 0, 1, r);
    o.fingerprint =
        fnv1a(bamboo::harness::report::csv_row(rec), o.fingerprint);
  }
  const auto runs = static_cast<double>(results.size());
  o.tps = seconds > 0 ? committed / seconds : 0;
  o.p50_ms /= runs;
  o.p99_ms /= runs;
  return o;
}

struct Accounting {
  std::uint64_t runs = 0;
  std::uint64_t failed_runs = 0;
  std::uint64_t offered = 0;
  std::uint64_t refused = 0;
  std::vector<std::string> failures;  ///< first few, for the log
};

void check(const perfbench::Workload& w, const std::vector<RunResult>& results,
           Accounting& acc) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::string why;
    if (!r.consistent) why = "inconsistent committed prefix";
    else if (r.safety_violations != 0) why = "safety violations";
    else if (r.blocks_committed == 0) why = "no commits";
    else if (w.forged[i] && r.certs_rejected == 0) why = "forged QC accepted";
    else if (!w.forged[i] && r.certs_rejected != 0)
      why = "certificate rejected";
    ++acc.runs;
    acc.offered +=
        static_cast<std::uint64_t>(r.offered_tps * r.measured_s + 0.5);
    acc.refused += r.rejected;
    if (!why.empty()) {
      ++acc.failed_runs;
      if (acc.failures.size() < 8)
        acc.failures.push_back(w.specs[i].cfg.protocol + " run " +
                               std::to_string(i) + ": " + why);
    }
  }
}

// --- probes the wrappers cannot reach (traced build only) ------------------

struct StorageProbe {
  double append_ns = 0;   ///< median per append
  double read_ns = 0;     ///< median per point read
  double recover_ns = 0;  ///< median reopen (recovery scan) of the whole log
};

// FileBlockStore calls are virtual, so they are timed through the public
// API on a chain of blocks shaped like the workload's: bsize transactions
// and a quorum-sized justify QC.
StorageProbe probe_storage(const RunSpec& spec, const std::string& dir,
                           Accounting& acc) {
  namespace types = bamboo::types;
  const auto& cfg = spec.cfg;
  const bamboo::crypto::KeyStore keys(cfg.seed, cfg.n_replicas);
  constexpr int kBlocks = 64;
  constexpr int kRounds = 5;
  std::vector<types::BlockPtr> chain;
  types::BlockPtr parent = types::Block::genesis();
  for (int h = 1; h <= kBlocks; ++h) {
    types::Block::Fields f;
    f.parent_hash = parent->hash();
    f.view = static_cast<types::View>(h);
    f.height = static_cast<types::Height>(h);
    f.proposer = static_cast<types::NodeId>(h % cfg.n_replicas);
    f.justify.view = f.view - 1;
    f.justify.height = f.height - 1;
    f.justify.block_hash = parent->hash();
    for (std::uint32_t s = 0; s < cfg.quorum(); ++s)
      f.justify.sigs.push_back(keys.sign(s, parent->hash()));
    for (std::uint32_t t = 0; t < cfg.bsize; ++t) {
      types::Transaction tx;
      tx.id = static_cast<types::TxId>(h) * cfg.bsize + t + 1;
      tx.payload_size = cfg.psize;
      f.txns.push_back(tx);
    }
    parent = std::make_shared<const types::Block>(std::move(f));
    chain.push_back(parent);
  }

  std::vector<std::int64_t> appends, reads, recovers;
  const std::string path = dir + "/probe.blk";
  for (int round = 0; round < kRounds; ++round) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      bamboo::storage::FileBlockStore store(path);
      for (const auto& b : chain) {
        const Stamp a = perfbench::stamp();
        store.append(b);
        appends.push_back(perfbench::host_ns(a, perfbench::stamp()));
      }
      for (const auto& b : chain) {
        const Stamp a = perfbench::stamp();
        const types::BlockPtr got = store.read(b->hash());
        reads.push_back(perfbench::host_ns(a, perfbench::stamp()));
        if (!got || got->hash() != b->hash()) {
          ++acc.failed_runs;
          acc.failures.push_back("storage probe: read back a wrong block");
          return {};
        }
      }
    }
    const Stamp a = perfbench::stamp();
    bamboo::storage::FileBlockStore reopened(path);
    recovers.push_back(perfbench::host_ns(a, perfbench::stamp()));
    if (reopened.size() != chain.size()) {
      ++acc.failed_runs;
      acc.failures.push_back("storage probe: recovery lost blocks");
      return {};
    }
  }
  std::filesystem::remove_all(dir);
  return {static_cast<double>(median(appends)),
          static_cast<double>(median(reads)),
          static_cast<double>(median(recovers))};
}

// Emitting one run's Record through the CSV and JSON report sinks.
double probe_report(const perfbench::Workload& w,
                    const std::vector<RunResult>& results) {
  constexpr int kRounds = 9;
  std::vector<std::int64_t> per_round;
  std::size_t bytes = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Stamp a = perfbench::stamp();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto rec = bamboo::harness::report::make_run_record(
          "perfbench", w.name, "run", static_cast<std::uint32_t>(i),
          w.specs[i], 0, 1, results[i]);
      bamboo::harness::report::CsvSink csv;
      bamboo::harness::report::JsonSink json;
      csv.add(rec);
      json.add(rec);
      bytes += csv.serialize().size() + json.serialize().size();
    }
    per_round.push_back(perfbench::host_ns(a, perfbench::stamp()));
  }
  if (bytes == 0) throw std::runtime_error("report sinks emitted nothing");
  return static_cast<double>(median(per_round)) /
         static_cast<double>(results.size());
}

// --- main ------------------------------------------------------------------

int run(const Args& args) {
  const perfbench::Workload w =
      perfbench::make_workload(args.workload, args.seed, args.scratch);
  std::filesystem::create_directories(args.scratch);

  perfbench::ref_start(kSamplerIntervalUs);
  const Stamp start = perfbench::stamp();
  std::vector<Iteration> iters;
  Accounting acc;
  Outcome first{};
  bool deterministic = true;
  while (true) {
    Iteration it = run_iteration(w);
    check(w, it.results, acc);
    const Outcome o = outcome_of(w, it.results);
    if (iters.empty()) first = o;
    else if (o.fingerprint != first.fingerprint) deterministic = false;
    iters.push_back(std::move(it));
    const double elapsed = static_cast<double>(perfbench::stamp().wall_ns -
                                               start.wall_ns) / 1e9;
    if (static_cast<int>(iters.size()) >= kMinIterations &&
        elapsed >= args.seconds)
      break;
    if (static_cast<int>(iters.size()) >= kMaxIterations) break;
  }

  StorageProbe storage;
  double report_ns = 0;
  if (perfbench::trace::enabled()) {
    storage = probe_storage(w.specs.front(), args.scratch + "/probe", acc);
    report_ns = probe_report(w, iters.front().results);
  }
  perfbench::ref_stop();
  clear_store(w);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // Counters of the simulated runs, summed over the grid (identical in
  // every iteration; taken from the first).
  RunResult sum;
  for (const RunResult& r : iters.front().results) {
    sum.views += r.views;
    sum.timeouts += r.timeouts;
    sum.blocks_forked += r.blocks_forked;
    sum.blocks_committed += r.blocks_committed;
    sum.net_bytes += r.net_bytes;
    sum.certs_verified += r.certs_verified;
    sum.certs_rejected += r.certs_rejected;
    sum.mem_admitted += r.mem_admitted;
    sum.mem_rejected += r.mem_rejected;
    sum.sync_requests += r.sync_requests;
    sum.sync_blocks += r.sync_blocks;
    sum.snapshot_bytes += r.snapshot_bytes;
    sum.disk_bytes_written += r.disk_bytes_written;
    sum.store_reads += r.store_reads;
  }
  double wa = 0;
  for (const RunResult& r : iters.front().results) wa += r.write_amplification;
  wa /= static_cast<double>(iters.front().results.size());
  const std::uint32_t sync_batch = w.specs.front().cfg.sync_batch;

  std::ostringstream os;
  os << "{\"workload\":" << quoted(w.name) << ",\"seed\":" << args.seed
     << ",\"traced\":" << (perfbench::trace::enabled() ? "true" : "false")
     << ",\"deterministic\":" << (deterministic ? "true" : "false")
     << ",\"runs\":" << acc.runs << ",\"failed_runs\":" << acc.failed_runs
     << ",\"offered\":" << acc.offered << ",\"refused\":" << acc.refused
     << ",\"failures\":[";
  for (std::size_t i = 0; i < acc.failures.size(); ++i)
    os << (i ? "," : "") << quoted(acc.failures[i]);
  os << "],\"peak_rss_kb\":" << ru.ru_maxrss << ",\"sim\":{\"tps\":"
     << num(first.tps) << ",\"p50_ms\":" << num(first.p50_ms)
     << ",\"p99_ms\":" << num(first.p99_ms)
     << ",\"recovery_ms\":" << num(first.recovery_ms) << ",\"fingerprint\":\""
     << std::hex << first.fingerprint << std::dec << "\"},\"counters\":{"
     << "\"views\":" << sum.views << ",\"timeouts\":" << sum.timeouts
     << ",\"blocks_forked\":" << sum.blocks_forked
     << ",\"blocks_committed\":" << sum.blocks_committed
     << ",\"net_bytes\":" << sum.net_bytes
     << ",\"certs_verified\":" << sum.certs_verified
     << ",\"certs_rejected\":" << sum.certs_rejected
     << ",\"mem_admitted\":" << sum.mem_admitted
     << ",\"mem_rejected\":" << sum.mem_rejected
     << ",\"sync_requests\":" << sum.sync_requests
     << ",\"sync_blocks\":" << sum.sync_blocks
     << ",\"sync_batch\":" << sync_batch
     << ",\"snapshot_bytes\":" << sum.snapshot_bytes
     << ",\"disk_bytes_written\":" << sum.disk_bytes_written
     << ",\"write_amplification\":" << num(wa)
     << ",\"store_reads\":" << sum.store_reads
     << "},\"storage\":{\"append_ns\":"
     << num(storage.append_ns) << ",\"read_ns\":" << num(storage.read_ns)
     << ",\"recover_ns\":" << num(storage.recover_ns)
     << "},\"report_ns\":" << num(report_ns) << ",\"iterations\":[";
  for (std::size_t i = 0; i < iters.size(); ++i) {
    const Iteration& it = iters[i];
    os << (i ? "," : "") << "{\"setup_norm_ns\":" << num(it.setup_norm_ns)
       << ",\"host_norm_ns\":" << num(it.host_norm_ns)
       << ",\"run_setup_ns\":" << it.run_setup_ns
       << ",\"host_ns\":" << it.host_ns << ",\"raw_cpu_ns\":" << it.raw_cpu_ns
       << ",\"raw_wall_ns\":" << it.raw_wall_ns << ",\"ref_ns\":"
       << num(it.ref_ns) << ",\"events\":" << it.events
       << ",\"verifies\":" << it.trace.verifies
       << ",\"blocks_committed\":" << it.trace.blocks_committed
       << ",\"layers\":{";
    for (int l = 0; l < perfbench::trace::kLayerCount; ++l) {
      os << (l ? "," : "") << quoted(perfbench::trace::kLayerNames[l])
         << ":{\"calls\":" << it.trace.calls[l]
         << ",\"total_ns\":" << it.trace.total_ns[l]
         << ",\"self_ns\":" << it.trace.self_ns[l] << "}";
    }
    os << "}}";
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
