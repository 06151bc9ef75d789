#ifndef SEMITRI_INDEX_RSTAR_TREE_H_
#define SEMITRI_INDEX_RSTAR_TREE_H_

// R*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD 1990), the index
// the paper applies to semantic regions and road segments ([2] in the
// paper). Full variant:
//   * ChooseSubtree: least overlap enlargement at the leaf-parent level,
//     least area enlargement above.
//   * Split: choose split axis by minimum margin sum, then the
//     distribution with minimum overlap (ties: minimum area).
//   * Forced reinsertion of the 30% farthest-from-center entries, once
//     per level per insertion.
//
// The tree stores (BoundingBox, T) pairs. T is typically an integer id
// into an external table. Supports box/point queries, k-nearest-neighbor
// and radius queries, and a bounded nearest-match walk.
//
// Queries are const and keep no scratch state, so a shared repository
// (`RegionSet`, `RoadNetwork`, `PoiSet`) may serve many annotation
// workers at once; shards query the shared repositories concurrently.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "common/check.h"
#include "geo/box.h"
#include "geo/point.h"

namespace semitri::index {

template <typename T>
class RStarTree {
 public:
  struct Entry {
    geo::BoundingBox box;
    T value;
  };

  // min_entries/max_entries follow the usual m = 40% of M default.
  explicit RStarTree(size_t max_entries = 16)
      : max_entries_(max_entries < 4 ? 4 : max_entries),
        min_entries_(std::max<size_t>(2, max_entries_ * 2 / 5)),
        reinsert_count_(std::max<size_t>(1, max_entries_ * 3 / 10)) {
    root_ = std::make_unique<Node>(/*leaf=*/true);
  }

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;
  RStarTree(RStarTree&&) = default;
  RStarTree& operator=(RStarTree&&) = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Height of the tree (1 = single leaf root).
  size_t Height() const {
    size_t h = 1;
    const Node* n = root_.get();
    while (!n->leaf) {
      n = n->children.front().get();
      ++h;
    }
    return h;
  }

  geo::BoundingBox Bounds() const { return NodeBounds(*root_); }

  void Insert(const geo::BoundingBox& box, T value) {
    reinserted_levels_.assign(Height() + 2, false);
    InsertEntry(Entry{box, std::move(value)}, /*target_level=*/0);
    ++size_;
  }

  // Bulk loads a tree with Sort-Tile-Recursive packing (Leutenegger et
  // al.): O(n log n) construction with near-full nodes — much faster
  // than repeated insertion for static datasets (landuse grids, road
  // networks). The resulting tree supports all queries and subsequent
  // inserts.
  static RStarTree BulkLoad(std::vector<Entry> entries,
                            size_t max_entries = 16) {
    RStarTree tree(max_entries);
    if (entries.empty()) return tree;
    tree.size_ = entries.size();
    const size_t cap = tree.max_entries_;

    // Pack leaves: sort by x-center, slice into vertical strips of
    // ~sqrt(n/cap) * cap entries, sort each strip by y-center, cut runs
    // of `cap`.
    std::vector<std::unique_ptr<Node>> level;
    {
      std::stable_sort(entries.begin(), entries.end(),
                       [](const Entry& a, const Entry& b) {
                         return a.box.Center().x < b.box.Center().x;
                       });
      size_t num_leaves = (entries.size() + cap - 1) / cap;
      size_t strips = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(num_leaves))));
      size_t strip_size = strips * cap;
      for (size_t s = 0; s < entries.size(); s += strip_size) {
        size_t strip_end = std::min(entries.size(), s + strip_size);
        std::stable_sort(entries.begin() + s, entries.begin() + strip_end,
                         [](const Entry& a, const Entry& b) {
                           return a.box.Center().y < b.box.Center().y;
                         });
        for (size_t i = s; i < strip_end; i += cap) {
          auto leaf = std::make_unique<Node>(/*leaf=*/true);
          size_t end = std::min(strip_end, i + cap);
          for (size_t e = i; e < end; ++e) {
            leaf->entries.push_back(std::move(entries[e]));
          }
          leaf->bounds = ComputeShallowBounds(*leaf);
          level.push_back(std::move(leaf));
        }
      }
    }
    // Pack upper levels the same way over node centers.
    while (level.size() > 1) {
      std::stable_sort(level.begin(), level.end(),
                       [](const std::unique_ptr<Node>& a,
                          const std::unique_ptr<Node>& b) {
                         return a->bounds.Center().x < b->bounds.Center().x;
                       });
      size_t num_parents = (level.size() + cap - 1) / cap;
      size_t strips = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(num_parents))));
      size_t strip_size = strips * cap;
      std::vector<std::unique_ptr<Node>> parents;
      for (size_t s = 0; s < level.size(); s += strip_size) {
        size_t strip_end = std::min(level.size(), s + strip_size);
        std::stable_sort(level.begin() + s, level.begin() + strip_end,
                         [](const std::unique_ptr<Node>& a,
                            const std::unique_ptr<Node>& b) {
                           return a->bounds.Center().y <
                                  b->bounds.Center().y;
                         });
        for (size_t i = s; i < strip_end; i += cap) {
          auto parent = std::make_unique<Node>(/*leaf=*/false);
          size_t end = std::min(strip_end, i + cap);
          for (size_t c = i; c < end; ++c) {
            level[c]->parent = parent.get();
            parent->children.push_back(std::move(level[c]));
          }
          parent->bounds = ComputeShallowBounds(*parent);
          parents.push_back(std::move(parent));
        }
      }
      level.swap(parents);
    }
    tree.root_ = std::move(level.front());
    tree.root_->parent = nullptr;
    return tree;
  }

  // All values whose box intersects `query`.
  std::vector<T> Query(const geo::BoundingBox& query) const {
    std::vector<T> out;
    QueryVisit(query, [&](const Entry& e) { out.push_back(e.value); });
    return out;
  }

  // All values whose box contains the point.
  std::vector<T> QueryPoint(const geo::Point& p) const {
    return Query(geo::BoundingBox::FromPoint(p));
  }

  // Visitor form; `visit` receives each intersecting entry.
  void QueryVisit(const geo::BoundingBox& query,
                  const std::function<void(const Entry&)>& visit) const {
    if (size_ == 0) return;
    QueryNode(*root_, query, visit);
  }

  // Values whose box lies within `radius` of point `p` (box distance).
  std::vector<T> QueryRadius(const geo::Point& p, double radius) const {
    std::vector<T> out;
    QueryRadiusInto(p, radius, &out);
    return out;
  }

  // Appending form of QueryRadius: pushes matches onto `out` without
  // clearing it, so a caller-owned buffer is reused across queries (the
  // annotation hot loops run one query per GPS point).
  void QueryRadiusInto(const geo::Point& p, double radius,
                       std::vector<T>* out) const {
    geo::BoundingBox window =
        geo::BoundingBox::FromPoint(p).Inflated(radius);
    QueryVisit(window, [&](const Entry& e) {
      if (e.box.DistanceTo(p) <= radius) out->push_back(e.value);
    });
  }

  // k nearest entries to `p` by box distance (best-first search).
  std::vector<Entry> NearestNeighbors(const geo::Point& p, size_t k) const {
    std::vector<Entry> out;
    if (k == 0) return out;
    BestFirst(p, std::numeric_limits<double>::infinity(),
              [&](const Entry& e) {
                out.push_back(e);
                return out.size() >= k;
              });
    return out;
  }

  // The first entry `accept` takes, in NearestNeighbors order, among
  // those within `max_distance` of `p` (box distance); null when there
  // is none. One best-first walk: `accept` is asked as entries are
  // popped, so the order is exactly NearestNeighbors', ties included,
  // and the walk stops once the frontier lies beyond `max_distance`.
  template <typename Accept>
  const Entry* NearestMatching(const geo::Point& p, double max_distance,
                               Accept accept) const {
    const Entry* hit = nullptr;
    BestFirst(p, max_distance, [&](const Entry& e) {
      if (accept(e)) hit = &e;
      return hit != nullptr;
    });
    return hit;
  }

 private:
  struct Node {
    explicit Node(bool leaf_in) : leaf(leaf_in) {}
    bool leaf;
    Node* parent = nullptr;
    // Cached bounding box of the node's content; maintained by every
    // mutation (a naive recursive recomputation would make inserts O(n)
    // and bulk construction O(n^2)).
    geo::BoundingBox bounds;
    std::vector<Entry> entries;                   // leaf payload
    std::vector<std::unique_ptr<Node>> children;  // inner payload
  };

  // Reads the cached bounds.
  static const geo::BoundingBox& NodeBounds(const Node& n) {
    return n.bounds;
  }

  // Pops entries in order of box distance to `p` and hands each to
  // `visit` until it returns true, the tree is exhausted, or the next
  // item lies beyond `max_distance`. Node boxes contain their entries,
  // so popped distances never decrease.
  template <typename Visit>
  void BestFirst(const geo::Point& p, double max_distance,
                 Visit visit) const {
    if (size_ == 0) return;
    struct QueueItem {
      double dist;
      const Node* node;    // nullptr when this is a data entry
      const Entry* entry;  // valid when node == nullptr
      bool operator>(const QueueItem& o) const { return dist > o.dist; }
    };
    std::priority_queue<QueueItem, std::vector<QueueItem>,
                        std::greater<QueueItem>>
        frontier;
    frontier.push({NodeBounds(*root_).DistanceTo(p), root_.get(), nullptr});
    while (!frontier.empty()) {
      QueueItem item = frontier.top();
      frontier.pop();
      if (item.dist > max_distance) return;
      if (item.node == nullptr) {
        if (visit(*item.entry)) return;
        continue;
      }
      const Node& n = *item.node;
      if (n.leaf) {
        for (const Entry& e : n.entries) {
          frontier.push({e.box.DistanceTo(p), nullptr, &e});
        }
      } else {
        for (const auto& child : n.children) {
          frontier.push({NodeBounds(*child).DistanceTo(p), child.get(),
                         nullptr});
        }
      }
    }
  }

  // Recomputes a single node's bounds from its direct content (children
  // bounds are taken from their caches).
  static geo::BoundingBox ComputeShallowBounds(const Node& n) {
    geo::BoundingBox box;
    if (n.leaf) {
      for (const Entry& e : n.entries) box.ExpandToInclude(e.box);
    } else {
      for (const auto& c : n.children) box.ExpandToInclude(c->bounds);
    }
    return box;
  }

  // Refreshes cached bounds from `n` up to the root.
  static void UpdatePathBounds(Node* n) {
    while (n != nullptr) {
      n->bounds = ComputeShallowBounds(*n);
      n = n->parent;
    }
  }

  size_t NodeLevel(const Node* n) const {
    // Leaf level = 0; root is highest.
    size_t level = 0;
    const Node* cur = n;
    while (!cur->leaf) {
      cur = cur->children.front().get();
      ++level;
    }
    return level;
  }

  void QueryNode(const Node& n, const geo::BoundingBox& query,
                 const std::function<void(const Entry&)>& visit) const {
    if (n.leaf) {
      for (const Entry& e : n.entries) {
        if (e.box.Intersects(query)) visit(e);
      }
      return;
    }
    for (const auto& child : n.children) {
      if (NodeBounds(*child).Intersects(query)) {
        QueryNode(*child, query, visit);
      }
    }
  }

  // --- insertion -----------------------------------------------------

  // Chooses the child of `n` (an inner node) to descend into for a new
  // box, per the R* ChooseSubtree heuristics.
  Node* ChooseChild(Node* n, const geo::BoundingBox& box) const {
    bool children_are_leaves = n->children.front()->leaf;
    Node* best = nullptr;
    double best_primary = std::numeric_limits<double>::infinity();
    double best_secondary = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (const auto& child : n->children) {
      geo::BoundingBox cb = NodeBounds(*child);
      double area = cb.Area();
      double enlargement = cb.Enlargement(box);
      double primary;
      if (children_are_leaves) {
        // Overlap enlargement against siblings.
        geo::BoundingBox enlarged = cb.Union(box);
        double overlap_before = 0.0, overlap_after = 0.0;
        for (const auto& other : n->children) {
          if (other.get() == child.get()) continue;
          geo::BoundingBox ob = NodeBounds(*other);
          overlap_before += cb.OverlapArea(ob);
          overlap_after += enlarged.OverlapArea(ob);
        }
        primary = overlap_after - overlap_before;
      } else {
        primary = enlargement;
      }
      double secondary = children_are_leaves ? enlargement : area;
      if (primary < best_primary ||
          (primary == best_primary && secondary < best_secondary) ||
          (primary == best_primary && secondary == best_secondary &&
           area < best_area)) {
        best_primary = primary;
        best_secondary = secondary;
        best_area = area;
        best = child.get();
      }
    }
    return best;
  }

  // Descends to the node at `target_level` (0 = leaf) best suited for box.
  Node* ChooseSubtree(const geo::BoundingBox& box, size_t target_level) {
    Node* n = root_.get();
    size_t level = NodeLevel(n);
    while (level > target_level) {
      n = ChooseChild(n, box);
      --level;
    }
    return n;
  }

  void InsertEntry(Entry entry, size_t target_level) {
    Node* n = ChooseSubtree(entry.box, target_level);
    SEMITRI_DCHECK(n->leaf)
        << "ChooseSubtree(level 0) must land on a leaf for data entries";
    n->entries.push_back(std::move(entry));
    UpdatePathBounds(n);
    HandleOverflow(n);
  }

  // Inserts an orphaned subtree rooted at `subtree` at the given level.
  void InsertSubtree(std::unique_ptr<Node> subtree, size_t target_level) {
    geo::BoundingBox box = NodeBounds(*subtree);
    Node* n = ChooseSubtree(box, target_level);
    SEMITRI_DCHECK(!n->leaf)
        << "subtree reinsertion at level " << target_level
        << " must target an inner node";
    subtree->parent = n;
    n->children.push_back(std::move(subtree));
    UpdatePathBounds(n);
    HandleOverflow(n);
  }

  size_t NodeFill(const Node* n) const {
    return n->leaf ? n->entries.size() : n->children.size();
  }

  void HandleOverflow(Node* n) {
    while (n != nullptr && NodeFill(n) > max_entries_) {
      size_t level = NodeLevel(n);
      if (n != root_.get() && level + 1 < reinserted_levels_.size() &&
          !reinserted_levels_[level]) {
        reinserted_levels_[level] = true;
        Reinsert(n);
        return;  // Reinsert restarts overflow handling per reinserted item.
      }
      Node* parent = n->parent;
      SplitNode(n);
      n = parent;
    }
  }

  // Forced reinsertion: remove the p entries farthest from the node's
  // center and insert them again from the top (close-reinsert order).
  void Reinsert(Node* n) {
    geo::Point center = NodeBounds(*n).Center();
    size_t level = NodeLevel(n);
    if (n->leaf) {
      std::stable_sort(n->entries.begin(), n->entries.end(),
                       [&](const Entry& a, const Entry& b) {
                         return a.box.Center().SquaredDistanceTo(center) <
                                b.box.Center().SquaredDistanceTo(center);
                       });
      std::vector<Entry> evicted;
      size_t keep = n->entries.size() - reinsert_count_;
      evicted.assign(std::make_move_iterator(n->entries.begin() + keep),
                     std::make_move_iterator(n->entries.end()));
      n->entries.resize(keep);
      UpdatePathBounds(n);
      for (Entry& e : evicted) InsertEntry(std::move(e), level);
    } else {
      std::stable_sort(n->children.begin(), n->children.end(),
                       [&](const std::unique_ptr<Node>& a,
                           const std::unique_ptr<Node>& b) {
                         return NodeBounds(*a).Center().SquaredDistanceTo(
                                    center) <
                                NodeBounds(*b).Center().SquaredDistanceTo(
                                    center);
                       });
      std::vector<std::unique_ptr<Node>> evicted;
      size_t keep = n->children.size() - reinsert_count_;
      evicted.assign(std::make_move_iterator(n->children.begin() + keep),
                     std::make_move_iterator(n->children.end()));
      n->children.resize(keep);
      UpdatePathBounds(n);
      for (auto& c : evicted) InsertSubtree(std::move(c), level);
    }
  }

  // --- R* split -------------------------------------------------------

  // A candidate distribution is a prefix/suffix split of a sorted entry
  // ordering. Evaluates margin/overlap/area goodness values.
  template <typename Item, typename BoxOf>
  static std::pair<size_t, bool> ChooseSplit(std::vector<Item>& items,
                                             const BoxOf& box_of,
                                             size_t min_entries,
                                             size_t max_entries) {
    // For each axis and each sort key (by min then by max), compute the
    // margin sum over all legal distributions; the axis with the least
    // total margin wins, then pick the distribution minimizing overlap.
    struct AxisResult {
      double margin_sum = 0.0;
      double best_overlap = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      size_t best_split = 0;
      bool sort_by_max = false;
    };
    size_t total = items.size();
    size_t num_dists = max_entries - 2 * min_entries + 2;
    AxisResult best_axis;
    double best_margin = std::numeric_limits<double>::infinity();
    int best_axis_id = -1;

    for (int axis = 0; axis < 2; ++axis) {
      AxisResult result;
      double margin_sum = 0.0;
      for (int by_max = 0; by_max < 2; ++by_max) {
        std::stable_sort(items.begin(), items.end(),
                         [&](const Item& a, const Item& b) {
                           const geo::BoundingBox& ba = box_of(a);
                           const geo::BoundingBox& bb = box_of(b);
                           double ka = axis == 0
                                           ? (by_max ? ba.max.x : ba.min.x)
                                           : (by_max ? ba.max.y : ba.min.y);
                           double kb = axis == 0
                                           ? (by_max ? bb.max.x : bb.min.x)
                                           : (by_max ? bb.max.y : bb.min.y);
                           return ka < kb;
                         });
        // Prefix/suffix bounding boxes for O(n) distribution evaluation.
        std::vector<geo::BoundingBox> prefix(total), suffix(total);
        geo::BoundingBox acc;
        for (size_t i = 0; i < total; ++i) {
          acc.ExpandToInclude(box_of(items[i]));
          prefix[i] = acc;
        }
        acc = geo::BoundingBox();
        for (size_t i = total; i-- > 0;) {
          acc.ExpandToInclude(box_of(items[i]));
          suffix[i] = acc;
        }
        for (size_t d = 0; d < num_dists; ++d) {
          size_t first_count = min_entries + d;
          const geo::BoundingBox& left = prefix[first_count - 1];
          const geo::BoundingBox& right = suffix[first_count];
          margin_sum += left.Margin() + right.Margin();
          double overlap = left.OverlapArea(right);
          double area = left.Area() + right.Area();
          if (overlap < result.best_overlap ||
              (overlap == result.best_overlap && area < result.best_area)) {
            result.best_overlap = overlap;
            result.best_area = area;
            result.best_split = first_count;
            result.sort_by_max = (by_max == 1);
          }
        }
      }
      result.margin_sum = margin_sum;
      if (margin_sum < best_margin) {
        best_margin = margin_sum;
        best_axis = result;
        best_axis_id = axis;
      }
    }
    // Re-sort items along the winning axis/key so callers can split by
    // index.
    bool by_max = best_axis.sort_by_max;
    std::stable_sort(items.begin(), items.end(),
                     [&](const Item& a, const Item& b) {
                       const geo::BoundingBox& ba = box_of(a);
                       const geo::BoundingBox& bb = box_of(b);
                       double ka = best_axis_id == 0
                                       ? (by_max ? ba.max.x : ba.min.x)
                                       : (by_max ? ba.max.y : ba.min.y);
                       double kb = best_axis_id == 0
                                       ? (by_max ? bb.max.x : bb.min.x)
                                       : (by_max ? bb.max.y : bb.min.y);
                       return ka < kb;
                     });
    return {best_axis.best_split, by_max};
  }

  void SplitNode(Node* n) {
    auto sibling = std::make_unique<Node>(n->leaf);
    if (n->leaf) {
      auto box_of = [](const Entry& e) -> const geo::BoundingBox& {
        return e.box;
      };
      size_t split = ChooseSplit(n->entries, box_of, min_entries_,
                                 max_entries_ + 1)
                         .first;
      sibling->entries.assign(
          std::make_move_iterator(n->entries.begin() + split),
          std::make_move_iterator(n->entries.end()));
      n->entries.resize(split);
    } else {
      auto box_of_node = [](const std::unique_ptr<Node>& c) {
        return NodeBounds(*c);
      };
      // ChooseSplit wants a reference-returning accessor for efficiency;
      // cache child bounds alongside pointers instead.
      struct ChildWithBox {
        std::unique_ptr<Node> node;
        geo::BoundingBox box;
      };
      std::vector<ChildWithBox> items;
      items.reserve(n->children.size());
      for (auto& c : n->children) {
        geo::BoundingBox b = box_of_node(c);
        items.push_back({std::move(c), b});
      }
      n->children.clear();
      auto box_of = [](const ChildWithBox& c) -> const geo::BoundingBox& {
        return c.box;
      };
      size_t split =
          ChooseSplit(items, box_of, min_entries_, max_entries_ + 1).first;
      for (size_t i = 0; i < items.size(); ++i) {
        Node* target = i < split ? n : sibling.get();
        items[i].node->parent = target;
        target->children.push_back(std::move(items[i].node));
      }
    }
    n->bounds = ComputeShallowBounds(*n);
    sibling->bounds = ComputeShallowBounds(*sibling);
    if (n == root_.get()) {
      auto new_root = std::make_unique<Node>(/*leaf=*/false);
      sibling->parent = new_root.get();
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(sibling));
      root_ = std::move(new_root);
      root_->children[0]->parent = root_.get();
      root_->bounds = ComputeShallowBounds(*root_);
    } else {
      sibling->parent = n->parent;
      n->parent->children.push_back(std::move(sibling));
      UpdatePathBounds(n->parent);
    }
  }

  size_t max_entries_;
  size_t min_entries_;
  size_t reinsert_count_;
  size_t size_ = 0;
  std::unique_ptr<Node> root_;
  std::vector<bool> reinserted_levels_;
};

}  // namespace semitri::index

#endif  // SEMITRI_INDEX_RSTAR_TREE_H_
