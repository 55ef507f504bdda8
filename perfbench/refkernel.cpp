#include "refkernel.h"

#include <sys/time.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <memory>

namespace perfbench {
namespace {

// --- the kernel: frozen, self-contained, no simulator code -----------------

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// `Lanes` independent SHA-256 compressions, interleaved so that a
// multi-lane call exposes instruction-level parallelism and a one-lane
// call is a dependency chain.
template <int Lanes>
__attribute__((noinline)) void compress(std::uint32_t (&h)[Lanes][8]) {
  std::uint32_t w[Lanes][64];
  for (int l = 0; l < Lanes; ++l)
    for (int i = 0; i < 16; ++i)
      w[l][i] = h[l][i & 7] + static_cast<std::uint32_t>(i);
  for (int i = 16; i < 64; ++i) {
    for (int l = 0; l < Lanes; ++l) {
      const std::uint32_t* x = w[l];
      const std::uint32_t s0 =
          rotr(x[i - 15], 7) ^ rotr(x[i - 15], 18) ^ (x[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(x[i - 2], 17) ^ rotr(x[i - 2], 19) ^ (x[i - 2] >> 10);
      w[l][i] = x[i - 16] + s0 + x[i - 7] + s1;
    }
  }
  std::uint32_t v[Lanes][8];
  for (int l = 0; l < Lanes; ++l)
    for (int j = 0; j < 8; ++j) v[l][j] = h[l][j];
  for (int i = 0; i < 64; ++i) {
    for (int l = 0; l < Lanes; ++l) {
      std::uint32_t* s = v[l];
      const std::uint32_t t1 =
          s[7] + (rotr(s[4], 6) ^ rotr(s[4], 11) ^ rotr(s[4], 25)) +
          ((s[4] & s[5]) ^ (~s[4] & s[6])) + kK[i] + w[l][i];
      const std::uint32_t t2 =
          (rotr(s[0], 2) ^ rotr(s[0], 13) ^ rotr(s[0], 22)) +
          ((s[0] & s[1]) ^ (s[0] & s[2]) ^ (s[1] & s[2]));
      s[7] = s[6];
      s[6] = s[5];
      s[5] = s[4];
      s[4] = s[3] + t1;
      s[3] = s[2];
      s[2] = s[1];
      s[1] = s[0];
      s[0] = t1 + t2;
    }
  }
  for (int l = 0; l < Lanes; ++l)
    for (int j = 0; j < 8; ++j) h[l][j] += v[l][j];
}

// 256 KiB: an eighth of the 2 MiB per-core L2 of the Xeon KVM guests the
// kernel was tuned on, so the probe measures the L2 path without being
// evicted to memory by the simulator between two samples.
constexpr std::uint32_t kTableWords = 1u << 16;

struct KernelState {
  std::unique_ptr<std::uint32_t[]> table;
  std::uint64_t counter = 1;
  std::uint32_t one[1][8] = {{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}};
  std::uint32_t four[4][8] = {{1}, {2}, {3}, {4}};
};
KernelState g_kernel;
volatile std::uint64_t g_sink = 0;  // keeps the kernel's work observable

void build_table() {
  g_kernel.table = std::make_unique<std::uint32_t[]>(kTableWords);
  for (std::uint32_t i = 0; i < kTableWords; ++i) g_kernel.table[i] = i * 7;
}

// One sample: interleaved four-lane SHA-256 (execution throughput, about
// half the sample), one-lane SHA-256 (dependency chains) and independent
// loads at pseudo-random table slots (the L2 path), in time shares of
// about 2:1:1. Measured against the simulator's workloads on shared
// virtual machines, this mix tracked its speed best. Dependent walks and
// scattered loads over tables larger than L2, indirect calls over a large
// code footprint and system calls tracked it worse than raw time did on
// some workloads; a 1 MiB table was evicted by some workloads and added
// noise of its own.
__attribute__((noinline)) void run_kernel() {
  for (int r = 0; r < 6; ++r) compress<4>(g_kernel.four);
  for (int r = 0; r < 8; ++r) compress<1>(g_kernel.one);
  const std::uint32_t* t = g_kernel.table.get();
  std::uint64_t sum = 0;
  std::uint64_t c = g_kernel.counter;
  for (int i = 0; i < 550; ++i) {
    const std::uint64_t x = (c++) * 0x9e3779b97f4a7c15ULL;
    sum += t[(x >> 40) & (kTableWords - 1)];
  }
  g_kernel.counter = c;
  g_sink = sum + g_kernel.four[0][0] + g_kernel.one[0][0];
}

// --- clocks ----------------------------------------------------------------

inline std::int64_t read_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Written only by the signal handler, which runs on the main thread between
// two of its instructions; readers re-read when `g_samples` moved. Lock-free
// atomics, so sharing them with a signal handler is well defined.
std::atomic<std::uint64_t> g_samples{0};
std::atomic<std::int64_t> g_kernel_ns{0};
// Normalized time of the slices between samples: each slice of simulator
// CPU time is scaled by the sample taken right after it, so a change of
// machine speed within an iteration is accounted slice by slice.
std::atomic<double> g_norm_ns{0};
std::atomic<std::int64_t> g_slice_start_cpu{0};  // CPU time at last sample end
std::atomic<double> g_last_ref_ns{kNominalRefNs};
static_assert(std::atomic<double>::is_always_lock_free &&
              std::atomic<std::int64_t>::is_always_lock_free);
bool g_running = false;

void on_sigprof(int) {
  constexpr auto relaxed = std::memory_order_relaxed;
  const int saved_errno = errno;
  const std::int64_t c0 = read_clock(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t t0 = read_clock(CLOCK_MONOTONIC);
  run_kernel();
  const std::int64_t d = read_clock(CLOCK_MONOTONIC) - t0;
  const double slice =
      static_cast<double>(c0 - g_slice_start_cpu.load(relaxed));
  g_norm_ns.store(g_norm_ns.load(relaxed) +
                      slice * kNominalRefNs / static_cast<double>(d),
                  relaxed);
  g_last_ref_ns.store(static_cast<double>(d), relaxed);
  g_slice_start_cpu.store(read_clock(CLOCK_THREAD_CPUTIME_ID), relaxed);
  g_kernel_ns.store(g_kernel_ns.load(relaxed) + d, relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  g_samples.store(g_samples.load(relaxed) + 1, relaxed);
  errno = saved_errno;
}

}  // namespace

void ref_start(int interval_us) {
  if (g_running) return;
  if (!g_kernel.table) build_table();
  struct sigaction sa {};
  sa.sa_handler = on_sigprof;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;  // file-store I/O must not see EINTR
  g_slice_start_cpu.store(read_clock(CLOCK_THREAD_CPUTIME_ID));
  sigaction(SIGPROF, &sa, nullptr);
  itimerval it{};
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = interval_us;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, nullptr);
  g_running = true;
}

void ref_stop() {
  if (!g_running) return;
  itimerval it{};
  setitimer(ITIMER_PROF, &it, nullptr);
  signal(SIGPROF, SIG_IGN);
  g_running = false;
}

Stamp stamp() {
  Stamp s;
  std::uint64_t before = 0;
  do {
    before = g_samples.load(std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    s.kernel_ns = g_kernel_ns.load(std::memory_order_relaxed);
    s.cpu_ns = read_clock(CLOCK_THREAD_CPUTIME_ID);
    s.wall_ns = read_clock(CLOCK_MONOTONIC);
    s.norm_ns = g_norm_ns.load(std::memory_order_relaxed) +
                static_cast<double>(s.cpu_ns - g_slice_start_cpu.load(
                                                   std::memory_order_relaxed)) *
                    kNominalRefNs /
                    g_last_ref_ns.load(std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    s.samples = g_samples.load(std::memory_order_relaxed);
  } while (s.samples != before);
  return s;
}

std::int64_t span_clock_ns() {
  std::uint64_t before = 0;
  std::int64_t t = 0;
  do {
    before = g_samples.load(std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    t = read_clock(CLOCK_MONOTONIC) -
        g_kernel_ns.load(std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
  } while (g_samples.load(std::memory_order_relaxed) != before);
  return t;
}

}  // namespace perfbench
