#ifndef SEMITRI_INDEX_SPATIAL_INDEX_H_
#define SEMITRI_INDEX_SPATIAL_INDEX_H_

// Unified spatial-index interface for the semantic-place repositories.
//
// The paper indexes regions and road segments with an R*-tree ([2]) and
// discretizes the POI observation model over a uniform grid (§4.3); the
// repositories (`PoiSet`, `RoadNetwork`, `RegionSet`) program against
// this interface so the backend is a configuration choice rather than a
// per-layer hard-coding — the R*-vs-grid comparison of
// `bench_ablation_index` is a config flip.
//
// Both backends implement the same contract:
//   * Insert / BulkLoad of (BoundingBox, T) entries,
//   * box intersection queries (and point/radius convenience forms),
//   * k-nearest-neighbor by box distance, nondecreasing, and
//   * Bounds() over all entries.
//
// Queries are const and thread-safe (no mutable scratch state), so a
// shared repository may serve many annotation workers at once.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.h"
#include "geo/box.h"
#include "geo/point.h"
#include "index/grid_index.h"
#include "index/rstar_tree.h"

namespace semitri::index {

// Available index implementations.
enum class IndexBackend {
  kRStarTree,    // R*-tree (Beckmann et al. '90), the paper's choice
  kUniformGrid,  // uniform grid buckets over the data extent
};

inline const char* IndexBackendName(IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kRStarTree: return "rstar_tree";
    case IndexBackend::kUniformGrid: return "uniform_grid";
  }
  return "unknown";
}

struct SpatialIndexConfig {
  IndexBackend backend = IndexBackend::kRStarTree;
  // R*-tree node fanout (see RStarTree).
  size_t rstar_max_entries = 16;
  // Grid cell size in meters; 0 derives a cell size from the data extent
  // targeting a few entries per cell.
  double grid_cell_size = 0.0;
};

template <typename T>
struct SpatialEntry {
  geo::BoundingBox box;
  T value;
};

template <typename T>
class SpatialIndex {
 public:
  using Entry = SpatialEntry<T>;

  virtual ~SpatialIndex() = default;

  virtual IndexBackend backend() const = 0;
  virtual size_t size() const = 0;
  bool empty() const { return size() == 0; }

  // Bounding box of all entries (empty box when empty).
  virtual geo::BoundingBox Bounds() const = 0;

  virtual void Insert(const geo::BoundingBox& box, T value) = 0;

  // Replaces the content with `entries`, using the backend's bulk
  // construction path (STR packing for the R*-tree, one grid build).
  virtual void BulkLoad(std::vector<Entry> entries) = 0;

  // All values whose box intersects `query`.
  virtual std::vector<T> Query(const geo::BoundingBox& query) const = 0;

  // All values whose box contains the point.
  std::vector<T> QueryPoint(const geo::Point& p) const {
    return Query(geo::BoundingBox::FromPoint(p));
  }

  // Values whose box lies within `radius` of `p` (box distance).
  virtual std::vector<T> QueryRadius(const geo::Point& p,
                                     double radius) const = 0;

  // Appending form of QueryRadius: pushes matches onto `out` without
  // clearing it, so a caller-owned buffer is reused across queries (the
  // annotation hot loops run one query per GPS point). Same values in
  // the same order as QueryRadius.
  virtual void QueryRadiusInto(const geo::Point& p, double radius,
                               std::vector<T>* out) const {
    for (T& value : QueryRadius(p, radius)) {
      out->push_back(std::move(value));
    }
  }

  // k nearest entries to `p` by box distance, nondecreasing.
  virtual std::vector<Entry> NearestNeighbors(const geo::Point& p,
                                              size_t k) const = 0;
};

// --- R*-tree backend ---------------------------------------------------

template <typename T>
class RStarSpatialIndex final : public SpatialIndex<T> {
 public:
  using Entry = SpatialEntry<T>;

  explicit RStarSpatialIndex(const SpatialIndexConfig& config = {})
      : max_entries_(config.rstar_max_entries), tree_(max_entries_) {}

  IndexBackend backend() const override { return IndexBackend::kRStarTree; }
  size_t size() const override { return tree_.size(); }
  geo::BoundingBox Bounds() const override { return tree_.Bounds(); }

  void Insert(const geo::BoundingBox& box, T value) override {
    tree_.Insert(box, std::move(value));
  }

  void BulkLoad(std::vector<Entry> entries) override {
    std::vector<typename RStarTree<T>::Entry> tree_entries;
    tree_entries.reserve(entries.size());
    for (Entry& e : entries) {
      tree_entries.push_back({e.box, std::move(e.value)});
    }
    tree_ = RStarTree<T>::BulkLoad(std::move(tree_entries), max_entries_);
  }

  std::vector<T> Query(const geo::BoundingBox& query) const override {
    return tree_.Query(query);
  }

  std::vector<T> QueryRadius(const geo::Point& p,
                             double radius) const override {
    return tree_.QueryRadius(p, radius);
  }

  void QueryRadiusInto(const geo::Point& p, double radius,
                       std::vector<T>* out) const override {
    geo::BoundingBox window = geo::BoundingBox::FromPoint(p).Inflated(radius);
    tree_.QueryVisit(window, [&](const typename RStarTree<T>::Entry& e) {
      if (e.box.DistanceTo(p) <= radius) out->push_back(e.value);
    });
  }

  std::vector<Entry> NearestNeighbors(const geo::Point& p,
                                      size_t k) const override {
    std::vector<Entry> out;
    for (auto& e : tree_.NearestNeighbors(p, k)) {
      out.push_back({e.box, std::move(e.value)});
    }
    return out;
  }

  const RStarTree<T>& tree() const { return tree_; }

 private:
  size_t max_entries_;
  RStarTree<T> tree_;
};

// --- uniform-grid backend ----------------------------------------------

// Buckets entry indices by the grid cells their box overlaps. The grid
// extent follows the data: inserting outside the current extent rebuilds
// the grid over the grown bounds (with slack, so repeated out-of-extent
// inserts amortize).
template <typename T>
class GridSpatialIndex final : public SpatialIndex<T> {
 public:
  using Entry = SpatialEntry<T>;

  explicit GridSpatialIndex(const SpatialIndexConfig& config = {})
      : configured_cell_(config.grid_cell_size) {}

  IndexBackend backend() const override { return IndexBackend::kUniformGrid; }
  size_t size() const override { return entries_.size(); }
  geo::BoundingBox Bounds() const override { return bounds_; }

  void Insert(const geo::BoundingBox& box, T value) override {
    SEMITRI_CHECK(!box.IsEmpty()) << "cannot index an empty box";
    size_t entry_index = entries_.size();
    entries_.push_back({box, std::move(value)});
    bounds_.ExpandToInclude(box);
    if (grid_.has_value() && grid_->extent().Contains(box)) {
      InsertIntoGrid(entry_index);
    } else {
      Rebuild();
    }
  }

  void BulkLoad(std::vector<Entry> entries) override {
    entries_ = std::move(entries);
    bounds_ = geo::BoundingBox();
    for (const Entry& e : entries_) {
      SEMITRI_CHECK(!e.box.IsEmpty()) << "cannot index an empty box";
      bounds_.ExpandToInclude(e.box);
    }
    Rebuild();
  }

  std::vector<T> Query(const geo::BoundingBox& query) const override {
    std::vector<T> out;
    for (size_t index : CandidateIndices(query)) {
      if (entries_[index].box.Intersects(query)) {
        out.push_back(entries_[index].value);
      }
    }
    return out;
  }

  std::vector<T> QueryRadius(const geo::Point& p,
                             double radius) const override {
    geo::BoundingBox window = geo::BoundingBox::FromPoint(p).Inflated(radius);
    std::vector<T> out;
    for (size_t index : CandidateIndices(window)) {
      if (entries_[index].box.DistanceTo(p) <= radius) {
        out.push_back(entries_[index].value);
      }
    }
    return out;
  }

  std::vector<Entry> NearestNeighbors(const geo::Point& p,
                                      size_t k) const override {
    std::vector<Entry> out;
    if (entries_.empty() || k == 0) return out;
    k = std::min(k, entries_.size());

    // Expanding ring search from the cell containing p. Ring r is only
    // examined when its cells could still beat the current k-th best
    // distance; the exact per-ring lower bound comes from the ring's
    // cell rectangles, so points outside the grid extent are handled.
    struct Candidate {
      double dist;
      size_t index;
      bool operator<(const Candidate& o) const {
        return dist < o.dist || (dist == o.dist && index < o.index);
      }
    };
    std::vector<Candidate> best;  // kept sorted, at most k entries
    std::vector<char> seen(entries_.size(), 0);
    auto consider = [&](size_t index) {
      if (seen[index]) return;
      seen[index] = 1;
      Candidate c{entries_[index].box.DistanceTo(p), index};
      if (best.size() == k && !(c < best.back())) return;
      best.insert(std::upper_bound(best.begin(), best.end(), c), c);
      if (best.size() > k) best.pop_back();
    };

    const GridIndex<size_t>& grid = *grid_;
    auto [cx, cy] = grid.CellOf(p);
    size_t max_ring = std::max(std::max(cx, grid.cols() - 1 - cx),
                               std::max(cy, grid.rows() - 1 - cy));
    for (size_t ring = 0; ring <= max_ring; ++ring) {
      if (best.size() == k && RingLowerBound(p, cx, cy, ring) > best.back().dist) {
        break;
      }
      VisitRing(cx, cy, ring, [&](size_t gx, size_t gy) {
        for (size_t index : grid.Cell(gx, gy)) consider(index);
      });
    }
    out.reserve(best.size());
    for (const Candidate& c : best) {
      out.push_back(entries_[c.index]);
    }
    return out;
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  // Cells of the current grid overlapped by `box`, clamped to the grid.
  struct CellRange {
    size_t x0, y0, x1, y1;
  };
  CellRange RangeOf(const geo::BoundingBox& box) const {
    auto [x0, y0] = grid_->CellOf(box.min);
    auto [x1, y1] = grid_->CellOf(box.max);
    return {x0, y0, x1, y1};
  }

  // Entry indices bucketed in cells overlapping `window`, deduplicated
  // (an entry spanning several cells appears once), ascending.
  std::vector<size_t> CandidateIndices(const geo::BoundingBox& window) const {
    std::vector<size_t> out;
    if (entries_.empty() || window.IsEmpty() ||
        !window.Intersects(grid_->extent())) {
      return out;
    }
    CellRange r = RangeOf(window);
    for (size_t y = r.y0; y <= r.y1; ++y) {
      for (size_t x = r.x0; x <= r.x1; ++x) {
        const std::vector<size_t>& bucket = grid_->Cell(x, y);
        out.insert(out.end(), bucket.begin(), bucket.end());
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  // Minimum possible distance from p to any cell on Chebyshev ring
  // `ring` around cell (cx, cy).
  double RingLowerBound(const geo::Point& p, size_t cx, size_t cy,
                        size_t ring) const {
    double bound = std::numeric_limits<double>::infinity();
    VisitRing(cx, cy, ring, [&](size_t gx, size_t gy) {
      bound = std::min(bound, grid_->CellBounds(gx, gy).DistanceTo(p));
    });
    return bound;
  }

  template <typename Visit>
  void VisitRing(size_t cx, size_t cy, size_t ring,
                 const Visit& visit) const {
    const GridIndex<size_t>& grid = *grid_;
    size_t x0 = cx >= ring ? cx - ring : 0;
    size_t y0 = cy >= ring ? cy - ring : 0;
    size_t x1 = std::min(grid.cols() - 1, cx + ring);
    size_t y1 = std::min(grid.rows() - 1, cy + ring);
    for (size_t y = y0; y <= y1; ++y) {
      for (size_t x = x0; x <= x1; ++x) {
        // Interior cells belong to smaller rings.
        size_t dx = x > cx ? x - cx : cx - x;
        size_t dy = y > cy ? y - cy : cy - y;
        if (std::max(dx, dy) != ring) continue;
        visit(x, y);
      }
    }
  }

  void InsertIntoGrid(size_t entry_index) {
    CellRange r = RangeOf(entries_[entry_index].box);
    for (size_t y = r.y0; y <= r.y1; ++y) {
      for (size_t x = r.x0; x <= r.x1; ++x) {
        grid_->InsertAtCell(x, y, entry_index);
      }
    }
  }

  void Rebuild() {
    if (entries_.empty()) {
      grid_.reset();
      return;
    }
    // Slack around the data bounds so near-boundary growth does not
    // trigger an immediate rebuild again.
    double diag = std::hypot(bounds_.Width(), bounds_.Height());
    double slack = std::max(0.25 * diag, 1.0);
    geo::BoundingBox extent = bounds_.Inflated(slack);
    double cell = configured_cell_;
    if (cell <= 0.0) {
      // Target roughly one entry per cell over the data extent.
      double per_cell = std::max(extent.Width(), extent.Height()) /
                        std::sqrt(static_cast<double>(entries_.size()));
      cell = std::max(per_cell, 1e-6);
    }
    grid_.emplace(extent, cell);
    for (size_t i = 0; i < entries_.size(); ++i) InsertIntoGrid(i);
  }

  double configured_cell_;
  geo::BoundingBox bounds_;
  std::vector<Entry> entries_;
  std::optional<GridIndex<size_t>> grid_;
};

// Factory: the backend the config names, ready for Insert/BulkLoad.
template <typename T>
std::unique_ptr<SpatialIndex<T>> MakeSpatialIndex(
    const SpatialIndexConfig& config = {}) {
  switch (config.backend) {
    case IndexBackend::kRStarTree:
      return std::make_unique<RStarSpatialIndex<T>>(config);
    case IndexBackend::kUniformGrid:
      return std::make_unique<GridSpatialIndex<T>>(config);
  }
  return std::make_unique<RStarSpatialIndex<T>>(config);
}

}  // namespace semitri::index

#endif  // SEMITRI_INDEX_SPATIAL_INDEX_H_
