#include "forest/block_forest.h"

#include <algorithm>

namespace bamboo::forest {

using types::Block;
using types::BlockPtr;
using types::QuorumCert;

namespace {

// The longest_certified_tip() order: higher height, then higher view, then
// lower hash — so the winner never depends on arrival or map order.
bool outranks(const Block& a, const Block& b) {
  if (a.height() != b.height()) return a.height() > b.height();
  if (a.view() != b.view()) return a.view() > b.view();
  return a.hash() < b.hash();
}

}  // namespace

BlockForest::BlockForest() {
  BlockPtr genesis = Block::genesis();
  Vertex v;
  v.block = genesis;
  v.committed = true;
  vertices_.emplace(genesis->hash(), std::move(v));
  committed_tip_ = genesis;
  committed_hashes_.push_back(genesis->hash());
  high_qc_ = Block::genesis_qc();
  qcs_.emplace(genesis->hash(), high_qc_);
  longest_certified_ = genesis;
}

AddResult BlockForest::add(BlockPtr block) {
  if (!block) return AddResult::kInvalid;
  if (vertices_.count(block->hash()) > 0) return AddResult::kDuplicate;

  const auto parent_it = vertices_.find(block->parent_hash());
  if (parent_it == vertices_.end()) {
    // Avoid unbounded duplicates in the orphan buffer.
    if (!orphan_index_.emplace(block->hash(), block).second) {
      return AddResult::kOrphaned;
    }
    orphan_heights_[block->height()].push_back(block->hash());
    orphans_[block->parent_hash()].push_back(std::move(block));
    return AddResult::kOrphaned;
  }

  if (block->height() != parent_it->second.block->height() + 1) {
    return AddResult::kInvalid;
  }

  connect(std::move(block));
  return AddResult::kAdded;
}

void BlockForest::connect(BlockPtr block) {
  const crypto::Digest hash = block->hash();
  Vertex& parent = vertices_[block->parent_hash()];
  parent.children.push_back(hash);
  // A late fork below the committed tip: prune()'s chain walk may already
  // have passed its parent.
  if (parent.committed &&
      parent.block->height() < committed_tip_->height()) {
    side_roots_.push_back(hash);
  }
  Vertex v;
  v.block = std::move(block);
  const BlockPtr& b = vertices_.emplace(hash, std::move(v)).first->second.block;
  // If this block was certified before it arrived (QC travelled faster),
  // refresh the certified-tip tracking now.
  if (qcs_.count(hash) > 0) offer_certified(b);
  flush_orphans_of(hash);
}

void BlockForest::flush_orphans_of(const crypto::Digest& parent_hash) {
  const auto it = orphans_.find(parent_hash);
  if (it == orphans_.end()) return;
  std::vector<BlockPtr> pending = std::move(it->second);
  orphans_.erase(it);
  for (const BlockPtr& orphan : pending) orphan_index_.erase(orphan->hash());
  for (BlockPtr& orphan : pending) {
    const auto parent_it = vertices_.find(parent_hash);
    if (parent_it != vertices_.end() &&
        orphan->height() == parent_it->second.block->height() + 1 &&
        vertices_.count(orphan->hash()) == 0) {
      connect(std::move(orphan));
    }
  }
}

bool BlockForest::contains(const crypto::Digest& hash) const {
  return vertices_.count(hash) > 0;
}

BlockPtr BlockForest::get(const crypto::Digest& hash) const {
  const auto it = vertices_.find(hash);
  return it == vertices_.end() ? nullptr : it->second.block;
}

bool BlockForest::add_qc(const QuorumCert& qc) {
  const auto [it, inserted] = qcs_.emplace(qc.block_hash, qc);
  if (!inserted && qc.view > it->second.view) it->second = qc;
  // (view, slot) lexicographic freshness: slot ties only arise under
  // multi-leader elections — single-leader QCs all carry slot 0, where
  // this is exactly the legacy view comparison.
  if (qc.view > high_qc_.view ||
      (qc.view == high_qc_.view && qc.slot > high_qc_.slot)) {
    high_qc_ = qc;
  }

  if (inserted) {
    if (const BlockPtr block = get(qc.block_hash)) offer_certified(block);
  }
  return inserted;
}

void BlockForest::offer_certified(const BlockPtr& block) {
  if (!longest_certified_ || outranks(*block, *longest_certified_)) {
    longest_certified_ = block;
  }
}

bool BlockForest::is_certified(const crypto::Digest& hash) const {
  return qcs_.count(hash) > 0;
}

const QuorumCert* BlockForest::qc_for(const crypto::Digest& hash) const {
  const auto it = qcs_.find(hash);
  return it == qcs_.end() ? nullptr : &it->second;
}

BlockPtr BlockForest::high_qc_block() const { return get(high_qc_.block_hash); }

bool BlockForest::extends(const crypto::Digest& descendant,
                          const crypto::Digest& ancestor) const {
  const BlockPtr anc = get(ancestor);
  if (!anc) return false;
  BlockPtr cursor = get(descendant);
  while (cursor) {
    if (cursor->hash() == ancestor) return true;
    if (cursor->height() <= anc->height()) return false;
    cursor = get(cursor->parent_hash());
  }
  return false;
}

BlockPtr BlockForest::ancestor(const BlockPtr& block, std::uint32_t k) const {
  BlockPtr cursor = block;
  for (std::uint32_t i = 0; i < k && cursor; ++i) {
    cursor = get(cursor->parent_hash());
  }
  return cursor;
}

std::vector<BlockPtr> BlockForest::children(const crypto::Digest& hash) const {
  std::vector<BlockPtr> out;
  const auto it = vertices_.find(hash);
  if (it == vertices_.end()) return out;
  out.reserve(it->second.children.size());
  for (const crypto::Digest& child : it->second.children) {
    if (const BlockPtr b = get(child)) out.push_back(b);
  }
  return out;
}

std::optional<std::vector<BlockPtr>> BlockForest::commit(
    const crypto::Digest& target) {
  const BlockPtr tip = get(target);
  if (!tip) return std::nullopt;
  if (tip->height() <= committed_tip_->height()) {
    // Already committed (or conflicts below the committed tip).
    if (committed_hash_at(tip->height()) == tip->hash()) {
      return std::vector<BlockPtr>{};
    }
    return std::nullopt;
  }

  // Walk down from the target to the committed tip, collecting the chain.
  std::vector<BlockPtr> chain;
  BlockPtr cursor = tip;
  while (cursor && cursor->height() > committed_tip_->height()) {
    chain.push_back(cursor);
    cursor = get(cursor->parent_hash());
  }
  if (!cursor || cursor->hash() != committed_tip_->hash()) {
    return std::nullopt;  // does not extend the main chain: refuse
  }
  std::reverse(chain.begin(), chain.end());
  for (const BlockPtr& b : chain) {
    vertices_[b->hash()].committed = true;
    committed_hashes_.push_back(b->hash());
  }
  committed_tip_ = tip;
  return chain;
}

std::optional<crypto::Digest> BlockForest::committed_hash_at(
    types::Height h) const {
  if (h >= committed_hashes_.size()) return std::nullopt;
  return committed_hashes_[h];
}

std::vector<BlockPtr> BlockForest::prune() {
  // Keep: the committed chain (all heights), plus every descendant of the
  // committed tip. Only two places can hold anything else: the forks off
  // the segment committed since the last call, and the side roots.
  std::vector<BlockPtr> dropped;
  const types::Height tip = committed_tip_->height();
  for (types::Height h = pruned_height_; h < tip; ++h) {
    const auto it = vertices_.find(committed_hashes_[h]);
    if (it != vertices_.end() && it->second.committed) {
      drop_forks_of(it->second, dropped);
    }
  }
  pruned_height_ = tip;
  for (const crypto::Digest& root : side_roots_) {
    const auto it = vertices_.find(root);
    if (it == vertices_.end() || it->second.committed) continue;
    const auto parent = vertices_.find(it->second.block->parent_hash());
    if (parent != vertices_.end()) {
      drop_forks_of(parent->second, dropped);
    } else {
      drop_subtree(root, dropped);
    }
  }
  side_roots_.clear();
  drop_stale_orphans();

  // The longest certified tip may have been on a dropped branch. Every
  // survivor below the tip is committed, so none can outrank the tip; only
  // its descendants are candidates.
  if (!longest_certified_ ||
      vertices_.count(longest_certified_->hash()) == 0) {
    longest_certified_ = committed_tip_;
    std::vector<crypto::Digest> stack{committed_tip_->hash()};
    while (!stack.empty()) {
      const auto it = vertices_.find(stack.back());
      stack.pop_back();
      if (it == vertices_.end()) continue;
      if (qcs_.count(it->first) > 0) offer_certified(it->second.block);
      stack.insert(stack.end(), it->second.children.begin(),
                   it->second.children.end());
    }
  }
  return dropped;
}

void BlockForest::drop_forks_of(Vertex& v, std::vector<BlockPtr>& dropped) {
  std::erase_if(v.children, [&](const crypto::Digest& child) {
    const auto it = vertices_.find(child);
    if (it == vertices_.end()) return true;
    if (it->second.committed) return false;
    drop_subtree(child, dropped);
    return true;
  });
}

void BlockForest::drop_subtree(const crypto::Digest& root,
                               std::vector<BlockPtr>& dropped) {
  std::vector<crypto::Digest> stack{root};
  while (!stack.empty()) {
    const auto it = vertices_.find(stack.back());
    stack.pop_back();
    if (it == vertices_.end() || it->second.committed) continue;
    dropped.push_back(std::move(it->second.block));
    stack.insert(stack.end(), it->second.children.begin(),
                 it->second.children.end());
    qcs_.erase(it->first);
    vertices_.erase(it);
  }
}

void BlockForest::drop_stale_orphans() {
  const types::Height tip = committed_tip_->height();
  for (auto level = orphan_heights_.begin();
       level != orphan_heights_.end() && level->first <= tip;
       level = orphan_heights_.erase(level)) {
    for (const crypto::Digest& hash : level->second) {
      const auto it = orphan_index_.find(hash);
      if (it == orphan_index_.end()) continue;  // connected since
      const auto bucket = orphans_.find(it->second->parent_hash());
      std::erase_if(bucket->second,
                    [&](const BlockPtr& b) { return b->hash() == hash; });
      if (bucket->second.empty()) orphans_.erase(bucket);
      orphan_index_.erase(it);
    }
  }
}

std::size_t BlockForest::prune_below(types::Height horizon) {
  if (horizon > committed_tip_->height()) horizon = committed_tip_->height();
  // No survivor has a child below the horizon (a committed block's parent
  // is committed, and is dropped with it), so no child list needs editing.
  std::size_t dropped = 0;
  for (types::Height h = retained_from_; h < horizon; ++h) {
    const auto it = vertices_.find(committed_hashes_[h]);
    if (it == vertices_.end() || !it->second.committed) continue;
    // Forks prune() has not collected yet lose their parent here.
    for (const crypto::Digest& child : it->second.children) {
      const auto c = vertices_.find(child);
      if (c != vertices_.end() && !c->second.committed) {
        side_roots_.push_back(child);
      }
    }
    qcs_.erase(it->first);
    vertices_.erase(it);
    ++dropped;
  }
  retained_from_ = std::max(retained_from_, horizon);
  if (dropped == 0) return 0;
  // The certified-tip cache cannot point below the committed tip once
  // anything was dropped below it; refresh defensively anyway.
  if (!longest_certified_ ||
      vertices_.count(longest_certified_->hash()) == 0) {
    longest_certified_ = committed_tip_;
  }
  return dropped;
}

bool BlockForest::install_snapshot(const BlockPtr& anchor,
                                   const QuorumCert& anchor_qc,
                                   const std::vector<crypto::Digest>& hashes) {
  if (!anchor || anchor_qc.block_hash != anchor->hash()) return false;
  if (anchor->height() <= committed_tip_->height()) return false;  // stale
  if (hashes.size() != anchor->height() + 1) return false;
  if (hashes.back() != anchor->hash()) return false;
  // The snapshot must agree with everything this replica already
  // committed — a mismatched prefix is a Byzantine snapshot, not a merge.
  for (std::size_t h = 0; h < committed_hashes_.size(); ++h) {
    if (hashes[h] != committed_hashes_[h]) return false;
  }

  committed_hashes_ = hashes;
  Vertex v;
  v.block = anchor;
  v.committed = true;
  auto [it, inserted] = vertices_.emplace(anchor->hash(), std::move(v));
  if (!inserted) it->second.committed = true;
  // Mark any locally present blocks on the snapshot chain committed (the
  // gap region is absent by definition, but blocks near our old tip may
  // overlap the chain). A block marked below a height the pruning walks
  // have passed moves them back, so they visit it on their next call.
  for (types::Height h = 0; h < committed_hashes_.size(); ++h) {
    const auto vit = vertices_.find(committed_hashes_[h]);
    if (vit == vertices_.end() || vit->second.committed) continue;
    vit->second.committed = true;
    pruned_height_ = std::min(pruned_height_, h);
    retained_from_ = std::min(retained_from_, h);
  }
  committed_tip_ = anchor;
  add_qc(anchor_qc);
  if (!longest_certified_ ||
      anchor->height() > longest_certified_->height()) {
    longest_certified_ = anchor;
  }
  // Buffered children of the anchor (from concurrent chain sync or live
  // traffic) can connect now.
  flush_orphans_of(anchor->hash());
  return true;
}

BlockPtr BlockForest::longest_certified_tip() const {
  return longest_certified_ ? longest_certified_ : committed_tip_;
}

std::vector<crypto::Digest> BlockForest::missing_parents() const {
  std::vector<crypto::Digest> out;
  out.reserve(orphans_.size());
  for (const auto& [parent_hash, bucket] : orphans_) {
    if (!bucket.empty()) out.push_back(parent_hash);
  }
  return out;
}

bool BlockForest::buffered(const crypto::Digest& hash) const {
  return orphan_index_.count(hash) > 0;
}

types::BlockPtr BlockForest::buffered_get(const crypto::Digest& hash) const {
  const auto it = orphan_index_.find(hash);
  return it == orphan_index_.end() ? nullptr : it->second;
}

}  // namespace bamboo::forest
