#ifndef SEMITRI_POI_OBSERVATION_MODEL_H_
#define SEMITRI_POI_OBSERVATION_MODEL_H_

// The HMM observation model B of the Semantic Point Annotation Layer
// (paper §4.3, Lemma 1).
//
// The influence of a POI on a stop is a 2-D Gaussian centered on the POI
// with category-specific bandwidth σ_c; Pr(o | Ci) is proportional to the
// sum of influences of the category's POIs (Lemma 1). For efficiency the
// model discretizes space into a grid and precomputes per-cell,
// per-category densities, summing only POIs in a neighborhood box of
// cells (the paper's discretization + neighboring pruning). An exact
// (non-discretized, all-POIs) evaluation is kept for the ablation bench.
//
// Data plane: POIs are mirrored into structure-of-arrays form
// (x/y/2σ²/normalizer/category) at construction and all density sums run
// through the batched AccumulateGaussianDensities kernel; the per-cell
// density table is one flat row-major array with stride num_categories.

#include <cstdint>
#include <span>
#include <vector>

#include "geo/box.h"
#include "geo/point.h"
#include "index/grid_index.h"
#include "poi/poi_set.h"

namespace semitri::poi {

// Batched Lemma-1 kernel: accumulates the Gaussian influence of each POI
// lane i at query (qx, qy) into its category's sum,
//   out[cat[i]] += exp(-d² / two_sigma2[i]) / norm[i],
// with d² = (qx - px[i])² + (qy - py[i])², in lane order (bit-identical
// to the scalar per-POI accumulation it replaces). `out` must hold every
// category in `cat` and is NOT cleared here.
void AccumulateGaussianDensities(const double* px, const double* py,
                                 const double* two_sigma2, const double* norm,
                                 const int32_t* cat, size_t n, double qx,
                                 double qy, double* out);

struct ObservationModelConfig {
  double grid_cell_meters = 30.0;
  // Neighborhood pruning: POIs within this many cells of the query cell
  // contribute (a (2·ring+1)² cell box). Defaults cover ~2.5σ.
  size_t neighbor_ring = 5;
  // Default Gaussian bandwidth σ_c (meters) applied to every category;
  // override per category via `category_sigma`.
  double default_sigma_meters = 60.0;
  std::vector<double> category_sigma;  // optional, size = num categories
};

class PoiObservationModel {
 public:
  // `pois` must outlive the model. Precomputes the discretized densities.
  PoiObservationModel(const PoiSet* pois, ObservationModelConfig config = {});

  size_t num_categories() const { return pois_->num_categories(); }

  // Pr(o | Ci) up to a common factor, for a stop observed at `center`
  // (discretized: reads the precomputed cell), written into `out`
  // (size num_categories()). One entry per category.
  void EmissionsAtInto(const geo::Point& center, std::span<double> out) const;
  // Allocating convenience for EmissionsAtInto.
  std::vector<double> EmissionsAt(const geo::Point& center) const;

  // Bounding-rectangle form (Pr(boundRectangle|Ci)): averages the cells
  // the box covers.
  std::vector<double> EmissionsFor(const geo::BoundingBox& box) const;

  // Exact evaluation (no grid, no pruning) — ablation reference.
  std::vector<double> EmissionsExact(const geo::Point& center) const;

  // Per-category density at a grid cell (testing / visualization).
  std::span<const double> CellDensities(size_t cx, size_t cy) const;

  const index::GridIndex<core::PlaceId>& grid() const { return grid_; }
  double SigmaFor(int category) const;

 private:
  const PoiSet* pois_;
  ObservationModelConfig config_;
  index::GridIndex<core::PlaceId> grid_;
  // POI mirror in SoA form, indexed by PlaceId (= PoiSet index), feeding
  // the batched kernel.
  std::vector<double> poi_x_, poi_y_, poi_two_sigma2_, poi_norm_;
  std::vector<int32_t> poi_cat_;
  // Flat row-major density table: cell (cx, cy) is the row
  // cell_densities_[(cy * cols + cx) * num_categories ...].
  std::vector<double> cell_densities_;
};

}  // namespace semitri::poi

#endif  // SEMITRI_POI_OBSERVATION_MODEL_H_
