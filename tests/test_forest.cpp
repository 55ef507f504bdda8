// Tests for the block forest (the paper's data module): insertion, orphan
// buffering, QC tracking, commits, pruning, longest-notarized-tip, and a
// differential test of the incremental pruning against a full-sweep model.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "forest/block_forest.h"
#include "util/rng.h"

namespace bamboo {
namespace {

using forest::AddResult;
using forest::BlockForest;
using types::BlockPtr;

BlockPtr child_of(const BlockPtr& parent, types::View view,
                  types::NodeId proposer = 0) {
  types::Block::Fields f;
  f.parent_hash = parent->hash();
  f.view = view;
  f.height = parent->height() + 1;
  f.proposer = proposer;
  f.justify.view = parent->view();
  f.justify.height = parent->height();
  f.justify.block_hash = parent->hash();
  return std::make_shared<const types::Block>(std::move(f));
}

types::QuorumCert qc_for(const BlockPtr& b) {
  types::QuorumCert qc;
  qc.view = b->view();
  qc.height = b->height();
  qc.block_hash = b->hash();
  qc.sigs.resize(3);
  return qc;
}

class ForestFixture : public ::testing::Test {
 protected:
  BlockForest forest;
  BlockPtr genesis = types::Block::genesis();
};

TEST_F(ForestFixture, StartsWithCommittedGenesis) {
  EXPECT_TRUE(forest.contains(genesis->hash()));
  EXPECT_EQ(forest.committed_tip()->hash(), genesis->hash());
  EXPECT_EQ(forest.committed_height(), 0u);
  EXPECT_EQ(forest.high_qc().view, types::kGenesisView);
  EXPECT_EQ(forest.longest_certified_tip()->hash(), genesis->hash());
}

TEST_F(ForestFixture, AddConnectsChild) {
  const auto b1 = child_of(genesis, 1);
  EXPECT_EQ(forest.add(b1), AddResult::kAdded);
  EXPECT_TRUE(forest.contains(b1->hash()));
  EXPECT_EQ(forest.get(b1->hash())->view(), 1u);
  const auto children = forest.children(genesis->hash());
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0]->hash(), b1->hash());
}

TEST_F(ForestFixture, DuplicateAddIsDetected) {
  const auto b1 = child_of(genesis, 1);
  EXPECT_EQ(forest.add(b1), AddResult::kAdded);
  EXPECT_EQ(forest.add(b1), AddResult::kDuplicate);
}

TEST_F(ForestFixture, WrongHeightIsInvalid) {
  types::Block::Fields f;
  f.parent_hash = genesis->hash();
  f.view = 1;
  f.height = 5;  // must be 1
  f.proposer = 0;
  const auto bad = std::make_shared<const types::Block>(std::move(f));
  EXPECT_EQ(forest.add(bad), AddResult::kInvalid);
}

TEST_F(ForestFixture, OrphanBufferedAndFlushed) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  EXPECT_EQ(forest.add(b2), AddResult::kOrphaned);
  EXPECT_FALSE(forest.contains(b2->hash()));
  EXPECT_EQ(forest.orphan_count(), 1u);
  ASSERT_EQ(forest.missing_parents().size(), 1u);
  EXPECT_EQ(forest.missing_parents()[0], b1->hash());

  EXPECT_EQ(forest.add(b1), AddResult::kAdded);
  EXPECT_TRUE(forest.contains(b2->hash()));  // flushed automatically
  EXPECT_EQ(forest.orphan_count(), 0u);
}

TEST_F(ForestFixture, OrphanChainFlushesRecursively) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  const auto b3 = child_of(b2, 3);
  EXPECT_EQ(forest.add(b3), AddResult::kOrphaned);
  EXPECT_EQ(forest.add(b2), AddResult::kOrphaned);
  EXPECT_EQ(forest.add(b1), AddResult::kAdded);
  EXPECT_TRUE(forest.contains(b2->hash()));
  EXPECT_TRUE(forest.contains(b3->hash()));
}

TEST_F(ForestFixture, ExtendsWalksParents) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  const auto fork = child_of(genesis, 3);
  forest.add(b1);
  forest.add(b2);
  forest.add(fork);
  EXPECT_TRUE(forest.extends(b2->hash(), genesis->hash()));
  EXPECT_TRUE(forest.extends(b2->hash(), b1->hash()));
  EXPECT_TRUE(forest.extends(b1->hash(), b1->hash()));  // reflexive
  EXPECT_FALSE(forest.extends(b2->hash(), fork->hash()));
  EXPECT_FALSE(forest.extends(b1->hash(), b2->hash()));  // wrong direction
}

TEST_F(ForestFixture, AncestorWalk) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  const auto b3 = child_of(b2, 3);
  forest.add(b1);
  forest.add(b2);
  forest.add(b3);
  EXPECT_EQ(forest.ancestor(b3, 0)->hash(), b3->hash());
  EXPECT_EQ(forest.ancestor(b3, 1)->hash(), b2->hash());
  EXPECT_EQ(forest.ancestor(b3, 2)->hash(), b1->hash());
  EXPECT_EQ(forest.ancestor(b3, 3)->hash(), genesis->hash());
  EXPECT_EQ(forest.ancestor(b3, 4), nullptr);
}

TEST_F(ForestFixture, QcTrackingAndHighQc) {
  const auto b1 = child_of(genesis, 1);
  forest.add(b1);
  EXPECT_FALSE(forest.is_certified(b1->hash()));
  EXPECT_TRUE(forest.add_qc(qc_for(b1)));
  EXPECT_TRUE(forest.is_certified(b1->hash()));
  EXPECT_EQ(forest.high_qc().view, 1u);
  EXPECT_EQ(forest.high_qc_block()->hash(), b1->hash());
  EXPECT_FALSE(forest.add_qc(qc_for(b1)));  // duplicate
}

TEST_F(ForestFixture, LongestCertifiedTipFollowsQcs) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  const auto fork = child_of(genesis, 3);
  forest.add(b1);
  forest.add(b2);
  forest.add(fork);

  forest.add_qc(qc_for(fork));
  EXPECT_EQ(forest.longest_certified_tip()->hash(), fork->hash());

  forest.add_qc(qc_for(b1));
  // Same height (1): tie breaks toward the higher view (fork, view 3).
  EXPECT_EQ(forest.longest_certified_tip()->hash(), fork->hash());

  forest.add_qc(qc_for(b2));
  EXPECT_EQ(forest.longest_certified_tip()->hash(), b2->hash());
}

TEST_F(ForestFixture, CommitReturnsAscendingChain) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  const auto b3 = child_of(b2, 3);
  forest.add(b1);
  forest.add(b2);
  forest.add(b3);

  const auto chain = forest.commit(b2->hash());
  ASSERT_TRUE(chain.has_value());
  ASSERT_EQ(chain->size(), 2u);
  EXPECT_EQ((*chain)[0]->hash(), b1->hash());
  EXPECT_EQ((*chain)[1]->hash(), b2->hash());
  EXPECT_EQ(forest.committed_height(), 2u);
  EXPECT_EQ(forest.committed_hash_at(1), b1->hash());
  EXPECT_EQ(forest.committed_hash_at(2), b2->hash());
  EXPECT_EQ(forest.committed_hash_at(3), std::nullopt);
}

TEST_F(ForestFixture, RecommitIsEmptyNotError) {
  const auto b1 = child_of(genesis, 1);
  forest.add(b1);
  ASSERT_TRUE(forest.commit(b1->hash()).has_value());
  const auto again = forest.commit(b1->hash());
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->empty());
}

TEST_F(ForestFixture, ConflictingCommitIsRefused) {
  const auto b1 = child_of(genesis, 1);
  const auto fork = child_of(genesis, 2);
  const auto fork2 = child_of(fork, 3);
  forest.add(b1);
  forest.add(fork);
  forest.add(fork2);
  ASSERT_TRUE(forest.commit(b1->hash()).has_value());
  // fork2 does not extend the committed tip b1: must refuse.
  EXPECT_FALSE(forest.commit(fork2->hash()).has_value());
  // And a conflicting block at the committed height as well.
  EXPECT_FALSE(forest.commit(fork->hash()).has_value());
}

TEST_F(ForestFixture, PruneDropsForkedBranchesAndReturnsThem) {
  const auto b1 = child_of(genesis, 1);
  const auto fork = child_of(genesis, 2, /*proposer=*/3);
  const auto b2 = child_of(b1, 3);
  forest.add(b1);
  forest.add(fork);
  forest.add(b2);
  forest.commit(b1->hash());

  const auto dropped = forest.prune();
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0]->hash(), fork->hash());
  EXPECT_FALSE(forest.contains(fork->hash()));
  EXPECT_TRUE(forest.contains(b1->hash()));  // committed chain kept
  EXPECT_TRUE(forest.contains(b2->hash()));  // descendant of tip kept
}

TEST_F(ForestFixture, PruneDropsDescendantsOfForkedBranches) {
  const auto b1 = child_of(genesis, 1);
  const auto fork = child_of(genesis, 2);
  const auto fork_child = child_of(fork, 4);
  forest.add(b1);
  forest.add(fork);
  forest.add(fork_child);
  forest.commit(b1->hash());

  const auto dropped = forest.prune();
  EXPECT_EQ(dropped.size(), 2u);
  EXPECT_FALSE(forest.contains(fork->hash()));
  EXPECT_FALSE(forest.contains(fork_child->hash()));
}

TEST_F(ForestFixture, PruneRepairsLongestCertifiedTip) {
  const auto b1 = child_of(genesis, 1);
  const auto fork = child_of(genesis, 2);
  const auto fork_child = child_of(fork, 3);
  forest.add(b1);
  forest.add(fork);
  forest.add(fork_child);
  forest.add_qc(qc_for(fork_child));  // certified tip is on the fork
  EXPECT_EQ(forest.longest_certified_tip()->hash(), fork_child->hash());

  forest.add_qc(qc_for(b1));
  forest.commit(b1->hash());
  forest.prune();
  // The certified fork is gone; the tip must fall back to the main chain.
  EXPECT_EQ(forest.longest_certified_tip()->hash(), b1->hash());
}

TEST_F(ForestFixture, CommitOfUnknownBlockFails) {
  const auto b1 = child_of(genesis, 1);
  EXPECT_FALSE(forest.commit(b1->hash()).has_value());
}

TEST_F(ForestFixture, QcBeforeBlockIsRememberedOnConnect) {
  const auto b1 = child_of(genesis, 1);
  forest.add_qc(qc_for(b1));  // QC arrives first
  EXPECT_TRUE(forest.is_certified(b1->hash()));
  EXPECT_EQ(forest.high_qc_block(), nullptr);
  forest.add(b1);
  EXPECT_EQ(forest.high_qc_block()->hash(), b1->hash());
  EXPECT_EQ(forest.longest_certified_tip()->hash(), b1->hash());
}

TEST_F(ForestFixture, DeepChainCommitCollapsesPrefix) {
  BlockPtr tip = genesis;
  std::vector<BlockPtr> blocks;
  for (types::View v = 1; v <= 50; ++v) {
    tip = child_of(tip, v);
    blocks.push_back(tip);
    forest.add(tip);
  }
  const auto chain = forest.commit(tip->hash());
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->size(), 50u);
  EXPECT_EQ(forest.committed_height(), 50u);
  for (types::Height h = 1; h <= 50; ++h) {
    EXPECT_EQ(forest.committed_hash_at(h), blocks[h - 1]->hash());
  }
}

TEST_F(ForestFixture, BufferedReportsOrphansUntilTheyConnect) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  EXPECT_EQ(forest.add(b2), AddResult::kOrphaned);
  EXPECT_TRUE(forest.buffered(b2->hash()));
  EXPECT_FALSE(forest.contains(b2->hash()));
  EXPECT_FALSE(forest.buffered(b1->hash()));
  forest.add(b1);
  EXPECT_FALSE(forest.buffered(b2->hash()));
  EXPECT_TRUE(forest.contains(b2->hash()));
}

TEST_F(ForestFixture, OrphanBufferPropertyUnderLongPartitionArrivals) {
  // A replica behind a long partition receives the missed range in an
  // arbitrary interleaving of proposals, sync batches and stragglers —
  // i.e. an arbitrary permutation, possibly with duplicates. Whatever
  // the order:
  //  * every block is either connected or buffered (never dropped),
  //  * missing_parents() names exactly the parents of disconnected
  //    subtrees — each either a known hash (a gap inside the range) or
  //    the not-yet-seen ancestor,
  //  * once all blocks arrived the forest is fully connected with an
  //    empty orphan buffer,
  //  * buffered() and contains() partition the seen, unconnected set.
  util::Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    BlockForest forest2;
    // A main chain of 40 with a short fork hanging off height 20 — the
    // shape a forking leader leaves behind a partition.
    std::vector<BlockPtr> blocks;
    BlockPtr tip = types::Block::genesis();
    for (types::View v = 1; v <= 40; ++v) {
      tip = child_of(tip, v);
      blocks.push_back(tip);
    }
    BlockPtr fork = blocks[19];
    for (types::View v = 41; v <= 44; ++v) {
      fork = child_of(fork, v);
      blocks.push_back(fork);
    }
    // Random arrival order with ~20% duplicated deliveries.
    std::vector<BlockPtr> arrivals = blocks;
    for (const BlockPtr& b : blocks) {
      if (rng.bernoulli(0.2)) arrivals.push_back(b);
    }
    for (std::size_t i = arrivals.size(); i > 1; --i) {
      std::swap(arrivals[i - 1], arrivals[rng.uniform_u64(i)]);
    }

    std::unordered_set<crypto::Digest> seen;
    for (const BlockPtr& b : arrivals) {
      forest2.add(b);
      seen.insert(b->hash());

      std::size_t connected = 0, buffered = 0;
      for (const BlockPtr& block : blocks) {
        if (seen.count(block->hash()) == 0) continue;
        const bool in_forest = forest2.contains(block->hash());
        const bool in_buffer = forest2.buffered(block->hash());
        EXPECT_NE(in_forest, in_buffer);  // exactly one, never both/neither
        connected += in_forest;
        buffered += in_buffer;
        // Connectivity invariant: a connected non-genesis block's parent
        // is connected too.
        if (in_forest) {
          EXPECT_TRUE(forest2.contains(block->parent_hash()));
        }
      }
      EXPECT_EQ(buffered, forest2.orphan_count());

      // missing_parents() lists exactly the parents of orphan buckets,
      // and none of them is a connected hash.
      for (const crypto::Digest& parent : forest2.missing_parents()) {
        EXPECT_FALSE(forest2.contains(parent));
      }
    }
    EXPECT_EQ(forest2.orphan_count(), 0u);
    EXPECT_TRUE(forest2.missing_parents().empty());
    for (const BlockPtr& b : blocks) {
      EXPECT_TRUE(forest2.contains(b->hash()));
      EXPECT_FALSE(forest2.buffered(b->hash()));
    }
  }
}

TEST_F(ForestFixture, CertifiedTipTieBreaksTowardLowerHash) {
  // Two certified blocks at the same height and view (two proposers in
  // one view): the lower hash wins whichever QC or block arrives first.
  const auto a = child_of(genesis, 1, /*proposer=*/1);
  const auto b = child_of(genesis, 1, /*proposer=*/2);
  const auto low = a->hash() < b->hash() ? a : b;
  const auto high = a->hash() < b->hash() ? b : a;
  for (const bool low_first : {true, false}) {
    // Via add_qc() on connected blocks.
    BlockForest f1;
    f1.add(low);
    f1.add(high);
    f1.add_qc(qc_for(low_first ? low : high));
    f1.add_qc(qc_for(low_first ? high : low));
    EXPECT_EQ(f1.longest_certified_tip()->hash(), low->hash());
    // Via connect() of blocks whose QCs arrived first.
    BlockForest f2;
    f2.add_qc(qc_for(low));
    f2.add_qc(qc_for(high));
    f2.add(low_first ? low : high);
    f2.add(low_first ? high : low);
    EXPECT_EQ(f2.longest_certified_tip()->hash(), low->hash());
  }
  // Via the prune() rescan: a certified fork that outranked both is
  // dropped, and the rescan of the tip's descendants must pick `low`.
  BlockForest f3;
  const auto base = child_of(genesis, 1);
  const auto x = child_of(base, 2, /*proposer=*/1);
  const auto y = child_of(base, 2, /*proposer=*/2);
  const auto fork = child_of(genesis, 3);
  const auto fork2 = child_of(fork, 4);
  const auto fork3 = child_of(fork2, 5);
  for (const auto& blk : {base, y, x, fork, fork2, fork3}) f3.add(blk);
  for (const auto& blk : {base, y, x, fork3}) f3.add_qc(qc_for(blk));
  EXPECT_EQ(f3.longest_certified_tip()->hash(), fork3->hash());
  f3.commit(base->hash());
  EXPECT_EQ(f3.prune().size(), 3u);
  EXPECT_EQ(f3.longest_certified_tip()->hash(),
            std::min(x->hash(), y->hash()));
}

// ---------------------------------------------------------------------------
// Differential test: incremental prune()/prune_below() against a model
// that keeps the original full-sweep algorithm — rebuild the keep-set from
// the committed tip, rescan every vertex and every child list.
// ---------------------------------------------------------------------------

bool model_outranks(const types::Block& a, const types::Block& b) {
  if (a.height() != b.height()) return a.height() > b.height();
  if (a.view() != b.view()) return a.view() > b.view();
  return a.hash() < b.hash();
}

class FullSweepForest {
 public:
  FullSweepForest() {
    const BlockPtr g = types::Block::genesis();
    vertices_[g->hash()] = {g, {}, true};
    tip_ = g;
    hashes_.push_back(g->hash());
    qcs_.insert(g->hash());
    longest_ = g;
  }

  void add(const BlockPtr& b) {
    if (vertices_.count(b->hash()) > 0) return;
    const auto parent = vertices_.find(b->parent_hash());
    if (parent == vertices_.end()) {
      auto& bucket = orphans_[b->parent_hash()];
      for (const BlockPtr& o : bucket) {
        if (o->hash() == b->hash()) return;
      }
      bucket.push_back(b);
      return;
    }
    if (b->height() != parent->second.block->height() + 1) return;
    connect(b);
  }

  void add_qc(const types::QuorumCert& qc) {
    if (!qcs_.insert(qc.block_hash).second) return;
    const auto it = vertices_.find(qc.block_hash);
    if (it != vertices_.end()) offer(it->second.block);
  }

  bool commit(const crypto::Digest& target) {
    const auto it = vertices_.find(target);
    if (it == vertices_.end()) return false;
    const BlockPtr t = it->second.block;
    if (t->height() <= tip_->height()) {
      return hashes_[t->height()] == t->hash();
    }
    std::vector<BlockPtr> chain;
    BlockPtr cursor = t;
    while (cursor && cursor->height() > tip_->height()) {
      chain.push_back(cursor);
      const auto p = vertices_.find(cursor->parent_hash());
      cursor = p == vertices_.end() ? nullptr : p->second.block;
    }
    if (!cursor || cursor->hash() != tip_->hash()) return false;
    std::reverse(chain.begin(), chain.end());
    for (const BlockPtr& b : chain) {
      vertices_[b->hash()].committed = true;
      hashes_.push_back(b->hash());
    }
    tip_ = t;
    return true;
  }

  std::vector<crypto::Digest> prune() {
    std::unordered_set<crypto::Digest> keep;
    std::vector<crypto::Digest> stack{tip_->hash()};
    while (!stack.empty()) {
      const crypto::Digest h = stack.back();
      stack.pop_back();
      keep.insert(h);
      const auto it = vertices_.find(h);
      if (it == vertices_.end()) continue;
      for (const crypto::Digest& c : it->second.children) stack.push_back(c);
    }
    std::vector<crypto::Digest> dropped;
    for (auto it = vertices_.begin(); it != vertices_.end();) {
      if (it->second.committed || keep.count(it->first) > 0) {
        ++it;
        continue;
      }
      dropped.push_back(it->first);
      qcs_.erase(it->first);
      it = vertices_.erase(it);
    }
    sweep_child_lists();
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      std::erase_if(it->second, [this](const BlockPtr& b) {
        return b->height() <= tip_->height();
      });
      it = it->second.empty() ? orphans_.erase(it) : std::next(it);
    }
    if (vertices_.count(longest_->hash()) == 0) {
      longest_ = tip_;
      for (const auto& [hash, v] : vertices_) {
        if (qcs_.count(hash) > 0) offer(v.block);
      }
    }
    std::sort(dropped.begin(), dropped.end());
    return dropped;
  }

  std::size_t prune_below(types::Height horizon) {
    horizon = std::min(horizon, tip_->height());
    std::size_t dropped = 0;
    for (auto it = vertices_.begin(); it != vertices_.end();) {
      if (!it->second.committed || it->second.block->height() >= horizon) {
        ++it;
        continue;
      }
      qcs_.erase(it->first);
      it = vertices_.erase(it);
      ++dropped;
    }
    if (dropped == 0) return 0;
    sweep_child_lists();
    if (vertices_.count(longest_->hash()) == 0) longest_ = tip_;
    return dropped;
  }

  bool install_snapshot(const BlockPtr& anchor,
                        const std::vector<crypto::Digest>& hashes) {
    if (anchor->height() <= tip_->height()) return false;
    for (std::size_t h = 0; h < hashes_.size(); ++h) {
      if (hashes[h] != hashes_[h]) return false;
    }
    hashes_ = hashes;
    auto [it, inserted] = vertices_.try_emplace(anchor->hash());
    if (inserted) it->second.block = anchor;
    for (const crypto::Digest& h : hashes_) {
      const auto v = vertices_.find(h);
      if (v != vertices_.end()) v->second.committed = true;
    }
    tip_ = anchor;
    if (qcs_.insert(anchor->hash()).second) offer(it->second.block);
    if (anchor->height() > longest_->height()) longest_ = anchor;
    flush(anchor->hash());
    return true;
  }

  [[nodiscard]] bool contains(const crypto::Digest& h) const {
    return vertices_.count(h) > 0;
  }
  [[nodiscard]] bool buffered(const crypto::Digest& h) const {
    for (const auto& [parent, bucket] : orphans_) {
      for (const BlockPtr& b : bucket) {
        if (b->hash() == h) return true;
      }
    }
    return false;
  }
  [[nodiscard]] std::vector<crypto::Digest> children(
      const crypto::Digest& h) const {
    std::vector<crypto::Digest> out;
    const auto it = vertices_.find(h);
    if (it == vertices_.end()) return out;
    for (const crypto::Digest& c : it->second.children) {
      if (contains(c)) out.push_back(c);
    }
    return out;
  }
  [[nodiscard]] std::size_t size() const { return vertices_.size(); }
  [[nodiscard]] const BlockPtr& longest_certified_tip() const {
    return longest_;
  }

 private:
  struct Vertex {
    BlockPtr block;
    std::vector<crypto::Digest> children;
    bool committed = false;
  };

  void offer(const BlockPtr& b) {
    if (model_outranks(*b, *longest_)) longest_ = b;
  }

  void connect(const BlockPtr& b) {
    vertices_[b->parent_hash()].children.push_back(b->hash());
    vertices_[b->hash()] = {b, {}, false};
    if (qcs_.count(b->hash()) > 0) offer(b);
    flush(b->hash());
  }

  void flush(const crypto::Digest& parent) {
    const auto it = orphans_.find(parent);
    if (it == orphans_.end()) return;
    const std::vector<BlockPtr> pending = std::move(it->second);
    orphans_.erase(it);
    for (const BlockPtr& o : pending) {
      const auto p = vertices_.find(parent);
      if (p != vertices_.end() &&
          o->height() == p->second.block->height() + 1 &&
          vertices_.count(o->hash()) == 0) {
        connect(o);
      }
    }
  }

  void sweep_child_lists() {
    for (auto& [hash, v] : vertices_) {
      std::erase_if(v.children,
                    [this](const crypto::Digest& c) { return !contains(c); });
    }
  }

  std::unordered_map<crypto::Digest, Vertex> vertices_;
  std::unordered_set<crypto::Digest> qcs_;
  std::unordered_map<crypto::Digest, std::vector<BlockPtr>> orphans_;
  std::vector<crypto::Digest> hashes_;
  BlockPtr tip_;
  BlockPtr longest_;
};

/// Drives the forest and the full-sweep model in lockstep over a tree of
/// generated blocks, checking that every operation agrees.
struct Lockstep {
  BlockForest forest;
  FullSweepForest model;
  std::vector<BlockPtr> made{types::Block::genesis()};
  std::unordered_map<crypto::Digest, BlockPtr> by_hash{
      {made.front()->hash(), made.front()}};

  /// A new block (not delivered); nullptr if that exact block exists.
  BlockPtr make(const BlockPtr& parent, types::View view,
                types::NodeId proposer = 0) {
    BlockPtr b = child_of(parent, view, proposer);
    if (!by_hash.emplace(b->hash(), b).second) return nullptr;
    made.push_back(b);
    return b;
  }

  void deliver(const BlockPtr& b) {
    forest.add(b);
    model.add(b);
  }

  void add_qc(const BlockPtr& b) {
    forest.add_qc(qc_for(b));
    model.add_qc(qc_for(b));
  }

  bool commit(const BlockPtr& b) {
    const bool ok = forest.commit(b->hash()).has_value();
    EXPECT_EQ(ok, model.commit(b->hash()));
    return ok;
  }

  std::size_t prune() {
    std::vector<crypto::Digest> dropped;
    for (const BlockPtr& d : forest.prune()) dropped.push_back(d->hash());
    std::sort(dropped.begin(), dropped.end());
    EXPECT_EQ(dropped, model.prune());
    return dropped.size();
  }

  std::size_t prune_below(types::Height horizon) {
    const std::size_t n = forest.prune_below(horizon);
    EXPECT_EQ(n, model.prune_below(horizon));
    return n;
  }

  /// The committed-hash chain from genesis to `b` in the generated tree.
  [[nodiscard]] std::vector<crypto::Digest> chain_to(BlockPtr b) const {
    std::vector<crypto::Digest> out{b->hash()};
    while (!b->is_genesis()) {
      b = by_hash.at(b->parent_hash());
      out.push_back(b->hash());
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  bool install_snapshot(const BlockPtr& anchor) {
    const auto hashes = chain_to(anchor);
    const bool ok = forest.install_snapshot(anchor, qc_for(anchor), hashes);
    EXPECT_EQ(ok, model.install_snapshot(anchor, hashes));
    return ok;
  }

  /// Same survivors, orphans, child lists and certified tip.
  void expect_same() const {
    EXPECT_EQ(forest.size(), model.size());
    std::size_t buffered = 0;
    for (const BlockPtr& b : made) {
      const crypto::Digest& h = b->hash();
      EXPECT_EQ(forest.contains(h), model.contains(h));
      EXPECT_EQ(forest.buffered(h), model.buffered(h));
      buffered += model.buffered(h) ? 1 : 0;
      std::vector<crypto::Digest> kids;
      for (const BlockPtr& c : forest.children(h)) kids.push_back(c->hash());
      EXPECT_EQ(kids, model.children(h));
    }
    EXPECT_EQ(forest.orphan_count(), buffered);
    EXPECT_EQ(forest.longest_certified_tip()->hash(),
              model.longest_certified_tip()->hash());
  }
};

TEST(ForestDifferential, IncrementalPruneMatchesFullSweep) {
  util::Rng rng(20211);
  std::size_t total_dropped = 0, total_side = 0, total_snapshots = 0;
  std::size_t total_multi = 0, total_below = 0, total_orphans = 0;
  for (int trial = 0; trial < 240 && !::testing::Test::HasFailure();
       ++trial) {
    Lockstep t;
    std::vector<BlockPtr> held;  // generated, not yet delivered
    types::View view = 1;
    const std::uint32_t retention =
        trial % 3 == 0 ? 0 : static_cast<std::uint32_t>(1 + rng.uniform_u64(6));

    for (int step = 0; step < 120 && !::testing::Test::HasFailure();
         ++step) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " step "
                                        << step);
      const std::uint64_t op = rng.uniform_u64(100);
      const std::vector<BlockPtr>& made = t.made;
      if (op < 35) {
        // A new block. Parents lean toward the recent end of the tree,
        // but any generated block — including committed blocks far below
        // the tip (late side branches) — can be chosen. One block in ten
        // reuses the previous view (equal-view forks for the tie-break).
        const std::size_t recent = std::min<std::size_t>(made.size(), 6);
        const BlockPtr parent =
            rng.bernoulli(0.7)
                ? made[made.size() - 1 - rng.uniform_u64(recent)]
                : made[rng.uniform_u64(made.size())];
        const types::View v =
            rng.bernoulli(0.1) && view > 1 ? view - 1 : view++;
        const BlockPtr b = t.make(
            parent, v, static_cast<types::NodeId>(rng.uniform_u64(4)));
        if (!b) continue;
        if (rng.bernoulli(0.3)) {
          held.push_back(b);  // arrives later, possibly as an orphan
        } else {
          t.deliver(b);
        }
      } else if (op < 50 && !held.empty()) {
        const std::size_t i = rng.uniform_u64(held.size());
        const BlockPtr b = held[i];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        total_orphans += t.forest.contains(b->parent_hash()) ? 0 : 1;
        t.deliver(b);
      } else if (op < 55) {
        // Re-delivery of any generated block (duplicates, and blocks a
        // prune already dropped coming back).
        t.deliver(made[rng.uniform_u64(made.size())]);
      } else if (op < 68) {
        t.add_qc(made[rng.uniform_u64(made.size())]);  // maybe ahead of it
      } else if (op < 88) {
        // Commit a recent block, often several above the tip.
        const BlockPtr b = made[made.size() - 1 -
                                rng.uniform_u64(std::min<std::size_t>(
                                    made.size(), 10))];
        const types::Height before = t.forest.committed_height();
        const bool ok = t.commit(b);
        total_multi += t.forest.committed_height() > before + 1 ? 1 : 0;
        // Mostly prune right away, as a replica does; sometimes let
        // commits pile up (as a store reload does).
        if (ok && rng.bernoulli(0.8)) total_dropped += t.prune();
        const types::Height tip = t.forest.committed_height();
        if (retention > 0 && tip > retention) {
          total_below += t.prune_below(tip - retention);
        }
      } else if (op < 95) {
        // A late block below the committed tip: a child of a committed
        // block that is not the tip.
        const types::Height tip = t.forest.committed_height();
        if (tip == 0) continue;
        const crypto::Digest parent =
            *t.forest.committed_hash_at(rng.uniform_u64(tip));
        const BlockPtr b = t.make(t.by_hash.at(parent), view++, 3);
        total_side += t.forest.contains(parent) ? 1 : 0;
        t.deliver(b);
      } else if (op < 97) {
        t.prune();
      } else {
        // Snapshot install: adopt a generated block that extends our
        // committed tip (delivered or not) as the new anchor.
        const types::Height tip = t.forest.committed_height();
        std::vector<BlockPtr> candidates;
        for (const BlockPtr& b : made) {
          if (b->height() > tip &&
              t.chain_to(b)[tip] == t.forest.committed_tip()->hash()) {
            candidates.push_back(b);
          }
        }
        if (candidates.empty()) continue;
        total_snapshots += t.install_snapshot(
            candidates[rng.uniform_u64(candidates.size())]);
      }
      t.expect_same();
    }
  }
  // The generator must actually reach every case it is meant to cover.
  EXPECT_GT(total_dropped, 0u);
  EXPECT_GT(total_side, 0u);
  EXPECT_GT(total_snapshots, 0u);
  EXPECT_GT(total_multi, 0u);
  EXPECT_GT(total_below, 0u);
  EXPECT_GT(total_orphans, 0u);
}

// A block from a snapshot gap arrives late, gains a fork child, and only
// then does a second snapshot mark it committed: the next prune() must
// still collect the fork, although its height is below the last walk.
TEST(ForestDifferential, SnapshotMarksLateGapBlockWithForkChild) {
  Lockstep t;
  std::vector<BlockPtr> chain{t.made.front()};
  for (types::View v = 1; v <= 6; ++v) {
    chain.push_back(t.make(chain.back(), v));
  }
  t.deliver(chain[1]);
  t.deliver(chain[2]);
  ASSERT_TRUE(t.commit(chain[2]));
  t.prune();
  ASSERT_TRUE(t.install_snapshot(chain[4]));  // gap at height 3
  t.prune();
  t.deliver(chain[3]);  // late gap block: connected, not committed
  t.deliver(t.make(chain[3], 40));  // a fork under it
  t.deliver(chain[5]);
  ASSERT_TRUE(t.install_snapshot(chain[6]));  // marks chain[3] committed
  t.expect_same();
  EXPECT_EQ(t.prune(), 1u);
  t.expect_same();
}

// Same shape for retention: a snapshot marks committed blocks below the
// height prune_below() has already walked; its next call drops them.
TEST(ForestDifferential, SnapshotMarksBlocksBelowRetentionHorizon) {
  Lockstep t;
  std::vector<BlockPtr> chain{t.made.front()};
  for (types::View v = 1; v <= 6; ++v) {
    chain.push_back(t.make(chain.back(), v));
  }
  t.deliver(chain[1]);
  ASSERT_TRUE(t.commit(chain[1]));
  ASSERT_TRUE(t.install_snapshot(chain[4]));  // gap at heights 2-3
  t.deliver(chain[2]);
  t.deliver(chain[3]);
  EXPECT_EQ(t.prune_below(4), 2u);  // genesis and chain[1]
  ASSERT_TRUE(t.install_snapshot(chain[6]));  // marks chain[2], chain[3]
  EXPECT_EQ(t.prune_below(5), 3u);
  t.expect_same();
}

}  // namespace
}  // namespace bamboo
