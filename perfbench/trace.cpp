// The traced build: one wrapper per symbol in wrapped_symbols.txt. The
// linker routes every cross-file call of a wrapped symbol to __wrap_<sym>,
// and __real_<sym> back to the original. Each wrapper opens a span, calls
// the original with the same arguments, and returns its result untouched,
// so the traced simulation is bit-identical to the untraced one.
//
// Member functions are declared here as free functions taking `this` as
// their first argument, which is how the Itanium C++ ABI passes it. The
// __real_ declarations are weak, so a symbol that a later revision renames
// or removes leaves its layer at zero calls instead of breaking the link.

#include <optional>
#include <vector>

#include "crypto/signer.h"
#include "forest/block_forest.h"
#include "harness/cluster.h"
#include "mempool/mempool.h"
#include "net/network.h"
#include "quorum/cert_verifier.h"
#include "quorum/vote_aggregator.h"
#include "refkernel.h"
#include "sim/event_queue.h"
#include "sync/syncer.h"
#include "trace.h"

namespace perfbench::trace {
namespace {

struct Frame {
  std::int64_t start = 0;
  std::int64_t child_ns = 0;
};

constexpr int kMaxDepth = 256;
Frame g_stack[kMaxDepth];
int g_depth = 0;
Totals g_totals;

class Span {
 public:
  explicit Span(Layer layer) : layer_(layer) {
    if (g_depth < kMaxDepth) g_stack[g_depth] = {span_clock_ns(), 0};
    ++g_depth;
  }
  ~Span() {
    --g_depth;
    ++g_totals.calls[layer_];
    if (g_depth >= kMaxDepth) return;  // too deep to time; counted only
    const Frame f = g_stack[g_depth];
    const std::int64_t d = span_clock_ns() - f.start;
    g_totals.total_ns[layer_] += d;
    g_totals.self_ns[layer_] += d - f.child_ns;
    if (g_depth > 0) g_stack[g_depth - 1].child_ns += d;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
};

}  // namespace

bool enabled() { return true; }
void reset() { g_totals = Totals{}; }
Totals read() { return g_totals; }

}  // namespace perfbench::trace

using perfbench::trace::Span;
namespace L = perfbench::trace;

using bamboo::crypto::Digest;
using bamboo::crypto::KeyStore;
using bamboo::crypto::Signature;
using bamboo::crypto::SignerId;
using bamboo::forest::AddResult;
using bamboo::forest::BlockForest;
using bamboo::harness::Cluster;
using bamboo::mempool::Mempool;
using bamboo::net::SimNetwork;
using bamboo::quorum::CertCheck;
using bamboo::quorum::CertVerifier;
using bamboo::quorum::TimeoutAggregator;
using bamboo::quorum::VoteAggregator;
using bamboo::sim::EventQueue;
using bamboo::sync::Syncer;
using bamboo::types::BlockPtr;
using bamboo::types::MessagePtr;
using bamboo::types::NodeId;
using bamboo::types::QuorumCert;
using bamboo::types::TimeoutCert;
using bamboo::types::Transaction;
using Txns = std::vector<Transaction>;
using CommitResult = std::optional<std::vector<BlockPtr>>;

// Declares __real_<SYM> and defines __wrap_<SYM>, which calls it inside a
// span of LAYER.
#define PB_WRAP(LAYER, SYM, RET, PARAMS, ARGS)              \
  extern "C" RET __real_##SYM PARAMS __attribute__((weak)); \
  extern "C" RET __wrap_##SYM PARAMS {                      \
    Span span(LAYER);                                       \
    return __real_##SYM ARGS;                               \
  }

// --- forest ------------------------------------------------------------------
PB_WRAP(L::kForest,
        _ZN6bamboo6forest11BlockForest3addESt10shared_ptrIKNS_5types5BlockEE,
        AddResult, (BlockForest * self, BlockPtr block),
        (self, std::move(block)))
PB_WRAP(L::kForest,
        _ZN6bamboo6forest11BlockForest6add_qcERKNS_5types10QuorumCertE, bool,
        (BlockForest * self, const QuorumCert& qc), (self, qc))
PB_WRAP(L::kForest, _ZN6bamboo6forest11BlockForest5pruneEv,
        std::vector<BlockPtr>, (BlockForest * self), (self))
PB_WRAP(L::kForest, _ZN6bamboo6forest11BlockForest11prune_belowEm,
        std::size_t, (BlockForest * self, bamboo::types::Height horizon),
        (self, horizon))

// commit also counts the blocks it commits (crypto.verifies_per_block).
extern "C" CommitResult
__real__ZN6bamboo6forest11BlockForest6commitERKSt5arrayIhLm32EE(
    BlockForest* self, const Digest& target) __attribute__((weak));
extern "C" CommitResult
__wrap__ZN6bamboo6forest11BlockForest6commitERKSt5arrayIhLm32EE(
    BlockForest* self, const Digest& target) {
  CommitResult out;
  {
    Span span(L::kForest);
    out = __real__ZN6bamboo6forest11BlockForest6commitERKSt5arrayIhLm32EE(
        self, target);
  }
  if (out) L::g_totals.blocks_committed += out->size();
  return out;
}

// --- quorum ------------------------------------------------------------------
PB_WRAP(L::kQuorum,
        _ZN6bamboo6quorum12CertVerifier8check_qcERKNS_5types10QuorumCertE,
        CertCheck, (CertVerifier * self, const QuorumCert& qc), (self, qc))
PB_WRAP(L::kQuorum,
        _ZN6bamboo6quorum12CertVerifier8check_tcERKNS_5types11TimeoutCertE,
        CertCheck, (CertVerifier * self, const TimeoutCert& tc), (self, tc))
PB_WRAP(L::kQuorum,
        _ZN6bamboo6quorum14VoteAggregator3addERKNS_5types7VoteMsgE,
        std::optional<QuorumCert>,
        (VoteAggregator * self, const bamboo::types::VoteMsg& vote),
        (self, vote))
PB_WRAP(L::kQuorum,
        _ZN6bamboo6quorum17TimeoutAggregator3addERKNS_5types10TimeoutMsgE,
        std::optional<TimeoutCert>,
        (TimeoutAggregator * self, const bamboo::types::TimeoutMsg& msg),
        (self, msg))

// --- crypto ------------------------------------------------------------------
PB_WRAP(L::kCrypto, _ZNK6bamboo6crypto8KeyStore4signEjRKSt5arrayIhLm32EE,
        Signature,
        (const KeyStore* self, SignerId signer, const Digest& message),
        (self, signer, message))

// verify also counts its calls (crypto.verifies_per_block).
extern "C" bool
__real__ZNK6bamboo6crypto8KeyStore6verifyERKNS0_9SignatureERKSt5arrayIhLm32EE(
    const KeyStore* self, const Signature& sig, const Digest& message)
    __attribute__((weak));
extern "C" bool
__wrap__ZNK6bamboo6crypto8KeyStore6verifyERKNS0_9SignatureERKSt5arrayIhLm32EE(
    const KeyStore* self, const Signature& sig, const Digest& message) {
  ++L::g_totals.verifies;
  Span span(L::kCrypto);
  return __real__ZNK6bamboo6crypto8KeyStore6verifyERKNS0_9SignatureERKSt5arrayIhLm32EE(
      self, sig, message);
}

// --- net ---------------------------------------------------------------------
PB_WRAP(L::kNet,
        _ZN6bamboo3net10SimNetwork4sendEjjSt10shared_ptrIKSt7variantIJNS_5types11ProposalMsgENS4_7VoteMsgENS4_10TimeoutMsgENS4_5TcMsgENS4_16ClientRequestMsgENS4_17ClientResponseMsgENS4_15ChainRequestMsgENS4_16ChainResponseMsgENS4_5QcMsgENS4_18SnapshotRequestMsgENS4_16SnapshotChunkMsgEEEE,
        void, (SimNetwork * self, NodeId from, NodeId to, MessagePtr msg),
        (self, from, to, std::move(msg)))
PB_WRAP(L::kNet,
        _ZN6bamboo3net10SimNetwork9broadcastEjjRKSt10shared_ptrIKSt7variantIJNS_5types11ProposalMsgENS4_7VoteMsgENS4_10TimeoutMsgENS4_5TcMsgENS4_16ClientRequestMsgENS4_17ClientResponseMsgENS4_15ChainRequestMsgENS4_16ChainResponseMsgENS4_5QcMsgENS4_18SnapshotRequestMsgENS4_16SnapshotChunkMsgEEEE,
        void,
        (SimNetwork * self, NodeId from, std::uint32_t n_replicas,
         const MessagePtr& msg),
        (self, from, n_replicas, msg))

// --- sim ---------------------------------------------------------------------
PB_WRAP(L::kSim,
        _ZN6bamboo3sim10EventQueue8scheduleElNS0_14InlineFunctionILm64EEE,
        bamboo::sim::EventId,
        (EventQueue * self, bamboo::sim::Time at, EventQueue::Callback fn),
        (self, at, std::move(fn)))
PB_WRAP(L::kSim, _ZN6bamboo3sim10EventQueue3popEv, EventQueue::Fired,
        (EventQueue * self), (self))

// --- sync --------------------------------------------------------------------
PB_WRAP(L::kSync, _ZN6bamboo4sync6Syncer7requestERKSt5arrayIhLm32EEj, void,
        (Syncer * self, const Digest& want, NodeId from), (self, want, from))
PB_WRAP(L::kSync,
        _ZN6bamboo4sync6Syncer10on_requestERKNS_5types15ChainRequestMsgEj,
        void,
        (Syncer * self, const bamboo::types::ChainRequestMsg& req,
         NodeId from),
        (self, req, from))
PB_WRAP(L::kSync,
        _ZN6bamboo4sync6Syncer11on_responseERKNS_5types16ChainResponseMsgEj,
        void,
        (Syncer * self, const bamboo::types::ChainResponseMsg& resp,
         NodeId from),
        (self, resp, from))
PB_WRAP(L::kSync,
        _ZN6bamboo4sync6Syncer19on_snapshot_requestERKNS_5types18SnapshotRequestMsgEj,
        void,
        (Syncer * self, const bamboo::types::SnapshotRequestMsg& req,
         NodeId from),
        (self, req, from))
PB_WRAP(L::kSync,
        _ZN6bamboo4sync6Syncer17on_snapshot_chunkERKNS_5types16SnapshotChunkMsgEj,
        void,
        (Syncer * self, const bamboo::types::SnapshotChunkMsg& chunk,
         NodeId from),
        (self, chunk, from))

// --- mempool -----------------------------------------------------------------
PB_WRAP(L::kMempool, _ZN6bamboo7mempool7Mempool7add_newENS_5types11TransactionE,
        bool, (Mempool * self, Transaction tx), (self, tx))
PB_WRAP(L::kMempool, _ZN6bamboo7mempool7Mempool4takeEm, Txns,
        (Mempool * self, std::size_t max_n), (self, max_n))
PB_WRAP(L::kMempool,
        _ZN6bamboo7mempool7Mempool7recycleERKSt6vectorINS_5types11TransactionESaIS4_EE,
        std::size_t, (Mempool * self, const Txns& txns), (self, txns))
PB_WRAP(L::kMempool, _ZN6bamboo7mempool7Mempool14mark_committedEm, void,
        (Mempool * self, bamboo::types::TxId id), (self, id))

// --- harness -----------------------------------------------------------------
PB_WRAP(L::kHarness, _ZN6bamboo7harness7ClusterC1ENS_4core6ConfigE, void,
        (Cluster * self, bamboo::core::Config config),
        (self, std::move(config)))
