#include "poi/observation_model.h"

#include <algorithm>
#include <cmath>

namespace semitri::poi {

namespace {

geo::BoundingBox GridExtent(const PoiSet& pois, double cell) {
  geo::BoundingBox extent = pois.Bounds();
  if (extent.IsEmpty()) {
    extent = geo::BoundingBox({0.0, 0.0}, {cell, cell});
  }
  // Pad so stops slightly outside the POI hull still land on the grid.
  return extent.Inflated(2.0 * cell);
}

}  // namespace

void AccumulateGaussianDensities(const double* px, const double* py,
                                 const double* two_sigma2, const double* norm,
                                 const int32_t* cat, size_t n, double qx,
                                 double qy, double* out) {
  for (size_t i = 0; i < n; ++i) {
    double dx = qx - px[i];
    double dy = qy - py[i];
    double d2 = dx * dx + dy * dy;
    // Isotropic 2-D Gaussian with covariance diag(σ_c², σ_c²).
    out[static_cast<size_t>(cat[i])] +=
        std::exp(-d2 / two_sigma2[i]) / norm[i];
  }
}

PoiObservationModel::PoiObservationModel(const PoiSet* pois,
                                         ObservationModelConfig config)
    : pois_(pois),
      config_(std::move(config)),
      grid_(GridExtent(*pois, config_.grid_cell_meters),
            config_.grid_cell_meters) {
  // Mirror the POIs into SoA form (indexed by PlaceId) and register them
  // in grid cells.
  const std::vector<Poi>& all = pois_->pois();
  poi_x_.reserve(all.size());
  poi_y_.reserve(all.size());
  poi_two_sigma2_.reserve(all.size());
  poi_norm_.reserve(all.size());
  poi_cat_.reserve(all.size());
  for (const Poi& p : all) {
    double sigma = SigmaFor(p.category);
    poi_x_.push_back(p.position.x);
    poi_y_.push_back(p.position.y);
    poi_two_sigma2_.push_back(2.0 * sigma * sigma);
    poi_norm_.push_back(2.0 * M_PI * sigma * sigma);
    poi_cat_.push_back(static_cast<int32_t>(p.category));
    grid_.Insert(p.position, p.id);
  }
  // Precompute Pr(grid_jk | Ci) for every cell: sum of Gaussian
  // influences of the POIs in the neighborhood box of that cell. The
  // SoA mirror is re-ordered into a slab sorted by (grid row, grid
  // column, insertion order) with per-bucket offsets, so a cell's
  // neighborhood is one contiguous slice per box row — no per-cell
  // gather or bucket walk. The slice concatenation visits POIs in
  // exactly the order GridIndex::Neighborhood yields them (box rows
  // ascending, buckets left to right, insertion order within a
  // bucket), so the accumulated densities are bit-identical to the
  // gather-per-cell pass this replaces.
  const size_t cols = grid_.cols();
  const size_t rows = grid_.rows();
  const size_t num_cat = pois_->num_categories();
  cell_densities_.assign(cols * rows * num_cat, 0.0);
  const size_t num_pois = all.size();
  std::vector<size_t> bucket_begin(rows * cols + 1, 0);
  std::vector<size_t> bucket_of(num_pois);
  for (size_t p = 0; p < num_pois; ++p) {
    auto [bx, by] = grid_.CellOf(all[p].position);
    bucket_of[p] = by * cols + bx;
    ++bucket_begin[bucket_of[p] + 1];
  }
  for (size_t b = 1; b <= rows * cols; ++b) {
    bucket_begin[b] += bucket_begin[b - 1];
  }
  std::vector<double> sx(num_pois), sy(num_pois), ss2(num_pois),
      sn(num_pois);
  std::vector<int32_t> sc(num_pois);
  std::vector<size_t> fill(bucket_begin.begin(), bucket_begin.end() - 1);
  for (size_t p = 0; p < num_pois; ++p) {
    size_t at = fill[bucket_of[p]]++;
    sx[at] = poi_x_[p];
    sy[at] = poi_y_[p];
    ss2[at] = poi_two_sigma2_[p];
    sn[at] = poi_norm_[p];
    sc[at] = poi_cat_[p];
  }
  const size_t ring = config_.neighbor_ring;
  for (size_t cy = 0; cy < rows; ++cy) {
    const size_t y0 = cy >= ring ? cy - ring : 0;
    const size_t y1 = std::min(rows - 1, cy + ring);
    for (size_t cx = 0; cx < cols; ++cx) {
      const size_t x0 = cx >= ring ? cx - ring : 0;
      const size_t x1 = std::min(cols - 1, cx + ring);
      geo::Point center = grid_.CellCenter(cx, cy);
      double* out = cell_densities_.data() + (cy * cols + cx) * num_cat;
      for (size_t y = y0; y <= y1; ++y) {
        const size_t first = bucket_begin[y * cols + x0];
        const size_t last = bucket_begin[y * cols + x1 + 1];
        if (first == last) continue;
        AccumulateGaussianDensities(sx.data() + first, sy.data() + first,
                                    ss2.data() + first, sn.data() + first,
                                    sc.data() + first, last - first,
                                    center.x, center.y, out);
      }
    }
  }
}

double PoiObservationModel::SigmaFor(int category) const {
  size_t c = static_cast<size_t>(category);
  if (c < config_.category_sigma.size() && config_.category_sigma[c] > 0.0) {
    return config_.category_sigma[c];
  }
  return config_.default_sigma_meters;
}

std::span<const double> PoiObservationModel::CellDensities(size_t cx,
                                                           size_t cy) const {
  const size_t num_cat = pois_->num_categories();
  return {cell_densities_.data() + (cy * grid_.cols() + cx) * num_cat,
          num_cat};
}

void PoiObservationModel::EmissionsAtInto(const geo::Point& center,
                                          std::span<double> out) const {
  auto [cx, cy] = grid_.CellOf(center);
  std::span<const double> cell = CellDensities(cx, cy);
  std::copy(cell.begin(), cell.end(), out.begin());
}

std::vector<double> PoiObservationModel::EmissionsAt(
    const geo::Point& center) const {
  std::vector<double> out(pois_->num_categories());
  EmissionsAtInto(center, out);
  return out;
}

std::vector<double> PoiObservationModel::EmissionsFor(
    const geo::BoundingBox& box) const {
  auto [x0, y0] = grid_.CellOf(box.min);
  auto [x1, y1] = grid_.CellOf(box.max);
  std::vector<double> out(pois_->num_categories(), 0.0);
  size_t count = 0;
  for (size_t cy = y0; cy <= y1; ++cy) {
    for (size_t cx = x0; cx <= x1; ++cx) {
      std::span<const double> cell = CellDensities(cx, cy);
      for (size_t c = 0; c < out.size(); ++c) out[c] += cell[c];
      ++count;
    }
  }
  if (count > 0) {
    for (double& v : out) v /= static_cast<double>(count);
  }
  return out;
}

std::vector<double> PoiObservationModel::EmissionsExact(
    const geo::Point& center) const {
  std::vector<double> out(pois_->num_categories(), 0.0);
  AccumulateGaussianDensities(poi_x_.data(), poi_y_.data(),
                              poi_two_sigma2_.data(), poi_norm_.data(),
                              poi_cat_.data(), poi_x_.size(), center.x,
                              center.y, out.data());
  return out;
}

}  // namespace semitri::poi
