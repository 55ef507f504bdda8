#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "types/block.h"
#include "types/certificates.h"

namespace bamboo::forest {

/// Result of inserting a block.
enum class AddResult {
  kAdded,      ///< inserted and connected to its parent
  kDuplicate,  ///< already present
  kOrphaned,   ///< parent unknown; buffered until the parent arrives
  kInvalid,    ///< height does not equal parent height + 1
};

/// The paper's *data* module: a height-indexed forest of blocks with a QC
/// store, orphan buffering, main-chain (committed) tracking, and pruning.
///
/// Invariants maintained:
///  * every connected vertex has height == parent height + 1;
///  * committed blocks form a single chain from genesis (the main chain);
///  * after prune(), every stored block is the committed tip, one of its
///    ancestors on the main chain, or a descendant of the committed tip.
///
/// Pruning is incremental: prune() walks only the main-chain segment
/// committed since its last call, plus the late forks ("side roots")
/// that connected below the tip since then, so a commit costs
/// O(newly committed blocks + dropped blocks), not O(forest).
class BlockForest {
 public:
  BlockForest();

  /// Insert a block. Orphans (parent not yet known) are buffered and
  /// connected automatically when the parent arrives; the return value for
  /// the *triggering* block is still kOrphaned in that case.
  AddResult add(types::BlockPtr block);

  [[nodiscard]] bool contains(const crypto::Digest& hash) const;
  [[nodiscard]] types::BlockPtr get(const crypto::Digest& hash) const;

  /// Record a QC. Keeps the highest-view QC reachable via high_qc().
  /// Returns true if this certifies a block for the first time.
  bool add_qc(const types::QuorumCert& qc);

  [[nodiscard]] bool is_certified(const crypto::Digest& hash) const;
  [[nodiscard]] const types::QuorumCert* qc_for(
      const crypto::Digest& hash) const;
  [[nodiscard]] const types::QuorumCert& high_qc() const { return high_qc_; }

  /// Block certified by the highest QC, if present in the forest.
  [[nodiscard]] types::BlockPtr high_qc_block() const;

  /// True if `descendant` has `ancestor` on its parent path (or equals it).
  /// Unknown hashes yield false.
  [[nodiscard]] bool extends(const crypto::Digest& descendant,
                             const crypto::Digest& ancestor) const;

  /// k-th ancestor of a block (k=0 returns the block itself); nullptr when
  /// the walk leaves the forest.
  [[nodiscard]] types::BlockPtr ancestor(const types::BlockPtr& block,
                                         std::uint32_t k) const;

  /// Direct children currently known.
  [[nodiscard]] std::vector<types::BlockPtr> children(
      const crypto::Digest& hash) const;

  /// Commit `target` and all its uncommitted ancestors. Returns the newly
  /// committed blocks in ascending height order. Returns nullopt — and
  /// commits nothing — if target does not extend the committed tip
  /// (a safety violation in the calling protocol).
  std::optional<std::vector<types::BlockPtr>> commit(
      const crypto::Digest& target);

  [[nodiscard]] types::BlockPtr committed_tip() const { return committed_tip_; }
  [[nodiscard]] types::Height committed_height() const {
    return committed_tip_->height();
  }

  /// Hash of the committed block at a height (consistency checks across
  /// replicas, paper §III-A); nullopt if not yet committed that far.
  [[nodiscard]] std::optional<crypto::Digest> committed_hash_at(
      types::Height h) const;

  /// The whole committed-hash chain, indexed by height (snapshot builds
  /// serve slices of this; never pruned, 32 bytes per committed block).
  [[nodiscard]] const std::vector<crypto::Digest>& committed_hashes() const {
    return committed_hashes_;
  }

  /// Drop every block that is not on the main chain and not a descendant of
  /// the committed tip. Returns the dropped blocks (the forked-out blocks
  /// whose transactions the replica recycles into its mempool) in a
  /// deterministic order: main chain upwards, each forked subtree
  /// depth-first, then the late side roots in arrival order.
  std::vector<types::BlockPtr> prune();

  /// Retention pruning (durable ledger): drop committed vertices strictly
  /// below `horizon` from the in-memory forest. Their bodies live in the
  /// replica's BlockStore; their hashes stay in committed_hashes_, so
  /// consistency checks and snapshot serving are unaffected. Returns the
  /// number of vertices dropped (these are NOT forks — their transactions
  /// committed — so they are not recycled).
  std::size_t prune_below(types::Height horizon);

  /// Snapshot install (state transfer): adopt `hashes` — the serving
  /// peer's committed-hash chain for heights [0, anchor->height()] — and
  /// `anchor` as the new committed tip, certified by `anchor_qc` (already
  /// verified by the caller through quorum::CertVerifier). Refuses (false,
  /// no change) when the snapshot is stale (anchor at or below our
  /// committed tip), internally inconsistent (length/tail mismatch), or
  /// conflicts with a hash this replica already committed.
  bool install_snapshot(const types::BlockPtr& anchor,
                        const types::QuorumCert& anchor_qc,
                        const std::vector<crypto::Digest>& hashes);

  /// Tip of the longest certified ("notarized") chain — Streamlet's
  /// proposing base. Ties break toward the higher view, then lower hash.
  [[nodiscard]] types::BlockPtr longest_certified_tip() const;

  /// Hashes whose parents are missing (targets for chain sync).
  [[nodiscard]] std::vector<crypto::Digest> missing_parents() const;

  /// True if `hash` sits in the orphan buffer: the block arrived (e.g.
  /// via a sync batch) but is not yet connected to the forest.
  [[nodiscard]] bool buffered(const crypto::Digest& hash) const;

  /// The buffered orphan with this hash, if any (pipelined sync descends
  /// through fetched-but-unconnected segments to the first real hole).
  [[nodiscard]] types::BlockPtr buffered_get(const crypto::Digest& hash) const;

  [[nodiscard]] std::size_t size() const { return vertices_.size(); }
  [[nodiscard]] std::size_t orphan_count() const {
    return orphan_index_.size();
  }

 private:
  struct Vertex {
    types::BlockPtr block;
    std::vector<crypto::Digest> children;
    bool committed = false;
  };

  void connect(types::BlockPtr block);
  void flush_orphans_of(const crypto::Digest& parent_hash);
  /// Drop every uncommitted child subtree of `v` and unlink it.
  void drop_forks_of(Vertex& v, std::vector<types::BlockPtr>& dropped);
  /// Drop `root` and its descendants (committed vertices are kept).
  void drop_subtree(const crypto::Digest& root,
                    std::vector<types::BlockPtr>& dropped);
  void drop_stale_orphans();
  /// Candidate for longest_certified_ (a block that just became certified
  /// and connected).
  void offer_certified(const types::BlockPtr& block);

  std::unordered_map<crypto::Digest, Vertex> vertices_;
  std::unordered_map<crypto::Digest, types::QuorumCert> qcs_;
  // Orphans, bucketed by the missing parent (connect order), indexed by
  // their own hash, and by height for the stale-orphan sweep. The height
  // index is lazy: entries of orphans that connected since are skipped.
  std::unordered_map<crypto::Digest, std::vector<types::BlockPtr>> orphans_;
  std::unordered_map<crypto::Digest, types::BlockPtr> orphan_index_;
  std::map<types::Height, std::vector<crypto::Digest>> orphan_heights_;
  // Uncommitted blocks that hang off a committed block below the tip —
  // late forks, or children of blocks prune_below() dropped. The chain
  // walk of prune() cannot reach them, so prune() drops them from here.
  std::vector<crypto::Digest> side_roots_;
  // prune() has dropped the forks of main-chain blocks below this height.
  types::Height pruned_height_ = 0;
  // prune_below() has dropped the committed blocks below this height.
  types::Height retained_from_ = 0;
  types::QuorumCert high_qc_;
  types::BlockPtr committed_tip_;
  std::vector<crypto::Digest> committed_hashes_;  // indexed by height
  types::BlockPtr longest_certified_;
};

}  // namespace bamboo::forest
