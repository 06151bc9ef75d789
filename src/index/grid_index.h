#ifndef SEMITRI_INDEX_GRID_INDEX_H_
#define SEMITRI_INDEX_GRID_INDEX_H_

// Uniform grid over a bounded area. Used by the Semantic Point Annotation
// layer to discretize the POI observation model (Pr(grid_jk | Ci), §4.3).

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "geo/box.h"
#include "geo/point.h"

namespace semitri::index {

// Maps points to integer cells of a fixed-resolution grid and stores a
// bucket of T per cell. The buckets are allocated by the first Insert,
// so a grid used only for its geometry costs no per-cell storage.
template <typename T>
class GridIndex {
 public:
  GridIndex(const geo::BoundingBox& extent, double cell_size)
      : extent_(extent), cell_size_(cell_size) {
    SEMITRI_CHECK(cell_size > 0.0)
        << "grid cell size must be positive, got " << cell_size;
    cols_ = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(extent.Width() / cell_size)));
    rows_ = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(extent.Height() / cell_size)));
  }

  size_t cols() const { return cols_; }
  size_t rows() const { return rows_; }
  double cell_size() const { return cell_size_; }

  // Column/row of the cell containing p (clamped to the grid).
  std::pair<size_t, size_t> CellOf(const geo::Point& p) const {
    double fx = (p.x - extent_.min.x) / cell_size_;
    double fy = (p.y - extent_.min.y) / cell_size_;
    size_t cx = static_cast<size_t>(
        std::clamp(fx, 0.0, static_cast<double>(cols_ - 1)));
    size_t cy = static_cast<size_t>(
        std::clamp(fy, 0.0, static_cast<double>(rows_ - 1)));
    return {cx, cy};
  }

  geo::BoundingBox CellBounds(size_t cx, size_t cy) const {
    geo::Point lo{extent_.min.x + cx * cell_size_,
                  extent_.min.y + cy * cell_size_};
    return {lo, {lo.x + cell_size_, lo.y + cell_size_}};
  }

  geo::Point CellCenter(size_t cx, size_t cy) const {
    return CellBounds(cx, cy).Center();
  }

  void Insert(const geo::Point& p, T value) {
    if (cells_.empty()) cells_.resize(cols_ * rows_);
    auto [cx, cy] = CellOf(p);
    cells_[cy * cols_ + cx].push_back(std::move(value));
  }

  // Collects values in all cells within `ring` cells of the cell holding p
  // (a (2*ring+1)^2 neighborhood) — the paper's "neighboring POIs in that
  // box" pruning.
  std::vector<T> Neighborhood(const geo::Point& p, size_t ring) const {
    auto [cx, cy] = CellOf(p);
    std::vector<T> out;
    if (cells_.empty()) return out;
    size_t x0 = cx >= ring ? cx - ring : 0;
    size_t y0 = cy >= ring ? cy - ring : 0;
    size_t x1 = std::min(cols_ - 1, cx + ring);
    size_t y1 = std::min(rows_ - 1, cy + ring);
    for (size_t y = y0; y <= y1; ++y) {
      for (size_t x = x0; x <= x1; ++x) {
        const auto& bucket = cells_[y * cols_ + x];
        out.insert(out.end(), bucket.begin(), bucket.end());
      }
    }
    return out;
  }

 private:
  geo::BoundingBox extent_;
  double cell_size_;
  size_t cols_ = 0;
  size_t rows_ = 0;
  std::vector<std::vector<T>> cells_;
};

}  // namespace semitri::index

#endif  // SEMITRI_INDEX_GRID_INDEX_H_
