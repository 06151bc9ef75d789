#include "road/map_matcher.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "geo/kernels.h"

namespace semitri::road {

double GlobalMapMatcher::MedianSpacing(const traj::PointView& pts,
                                       std::vector<double>* scratch) {
  if (pts.size < 2) return 1.0;
  std::vector<double> local;
  std::vector<double>& spacings = scratch != nullptr ? *scratch : local;
  spacings.clear();
  spacings.reserve(pts.size - 1);
  for (size_t i = 1; i < pts.size; ++i) {
    spacings.push_back(
        std::hypot(pts.xs[i] - pts.xs[i - 1], pts.ys[i] - pts.ys[i - 1]));
  }
  size_t mid = spacings.size() / 2;
  std::nth_element(spacings.begin(), spacings.begin() + mid, spacings.end());
  double median = spacings[mid];
  return median > 1e-6 ? median : 1.0;
}

std::vector<MatchedPoint> GlobalMapMatcher::MatchPoints(
    const traj::PointView& pts) const {
  std::vector<MatchedPoint> out;
  MatchPoints(pts, /*scratch=*/nullptr, &out);
  return out;
}

void GlobalMapMatcher::MatchPoints(const traj::PointView& pts,
                                   MatchScratch* scratch,
                                   std::vector<MatchedPoint>* out) const {
  const size_t n = pts.size;
  out->clear();
  out->resize(n);
  if (n == 0) return;

  MatchScratch local;
  MatchScratch& s = scratch != nullptr ? *scratch : local;

  const double spacing = MedianSpacing(pts, &s.spacings);
  const double radius_m = config_.view_radius * spacing;
  const double sigma_m = config_.sigma_ratio * radius_m;
  const double two_sigma2 = 2.0 * sigma_m * sigma_m;

  // Pass 1 — per-point candidate sets and localScores (Eq. 2) into the
  // CSR table. localScore is dmin/d in (0, 1], 1 for the closest
  // candidate. Rows are sorted by segment id so pass 2 can look
  // neighbors' scores up by binary search.
  const std::span<const double> net_ax = network_->seg_ax();
  const std::span<const double> net_ay = network_->seg_ay();
  const std::span<const double> net_bx = network_->seg_bx();
  const std::span<const double> net_by = network_->seg_by();
  // Consecutive points share one spatial-index query: a group of points
  // within `radius` of its anchor is served by a single anchor query
  // with the radius inflated by the group spread (triangle inequality
  // on the point-to-segment metric, plus a 1e-6 m guard against
  // boundary rounding), then refined per point with the exact batched
  // distances. Row membership, score values and their order are
  // bit-identical to a query-per-point pass.
  s.row_begin.clear();
  s.cand_ids.clear();
  s.cand_scores.clear();
  const double radius = config_.candidate_radius_meters;
  constexpr size_t kMaxGroupPoints = 16;
  size_t group_start = 0;
  while (group_start < n) {
    size_t group_end = group_start + 1;
    double spread = 0.0;
    while (group_end < n && group_end - group_start < kMaxGroupPoints) {
      double d = std::hypot(pts.xs[group_end] - pts.xs[group_start],
                            pts.ys[group_end] - pts.ys[group_start]);
      if (d > radius) break;
      spread = std::max(spread, d);
      ++group_end;
    }
    network_->CandidateSegments(pts.point(group_start),
                                radius + spread + 1e-6, &s.candidates);
    std::sort(s.candidates.begin(), s.candidates.end());
    const size_t m = s.candidates.size();
    s.ax.resize(m);
    s.ay.resize(m);
    s.bx.resize(m);
    s.by.resize(m);
    s.dists.resize(m);
    for (size_t c = 0; c < m; ++c) {
      const size_t seg = static_cast<size_t>(s.candidates[c]);
      s.ax[c] = net_ax[seg];
      s.ay[c] = net_ay[seg];
      s.bx[c] = net_bx[seg];
      s.by[c] = net_by[seg];
    }
    for (size_t i = group_start; i < group_end; ++i) {
      s.row_begin.push_back(s.cand_ids.size());
      if (m == 0) continue;
      geo::DistancesToSegments(s.ax.data(), s.ay.data(), s.bx.data(),
                               s.by.data(), m, pts.xs[i], pts.ys[i],
                               s.dists.data());
      const size_t row_first = s.cand_ids.size();
      double dmin = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < m; ++c) {
        // Keep only this point's true neighbors (Algorithm 2's
        // candidateSegs), then floor d so a point exactly on a segment
        // still yields the finite ratio dmin/d = 1 for that segment
        // (Eq. 2 is undefined at d = 0).
        if (s.dists[c] > radius) continue;
        double d = std::max(s.dists[c], 1e-3);
        dmin = std::min(dmin, d);
        s.cand_ids.push_back(s.candidates[c]);
        s.cand_scores.push_back(d);
      }
      for (size_t c = row_first; c < s.cand_scores.size(); ++c) {
        s.cand_scores[c] = dmin / s.cand_scores[c];
      }
    }
    group_start = group_end;
  }
  s.row_begin.push_back(s.cand_ids.size());

  // Pass 2 — globalScore per point over its candidates (Eq. 3–4).
  for (size_t i = 0; i < n; ++i) {
    const size_t row_first = s.row_begin[i];
    const size_t row_last = s.row_begin[i + 1];
    if (row_first == row_last) {
      (*out)[i].snapped = pts.point(i);
      continue;
    }
    // Context window: neighbors within spatial radius R of Q (bounded).
    s.window_index.clear();
    s.window_weight.clear();
    s.window_index.push_back(i);
    s.window_weight.push_back(1.0);  // w0 = exp(0) = 1
    for (size_t k = 1; k <= config_.max_window_points; ++k) {
      bool any = false;
      if (i >= k) {
        double d = std::hypot(pts.xs[i] - pts.xs[i - k],
                              pts.ys[i] - pts.ys[i - k]);
        if (d < radius_m) {
          s.window_index.push_back(i - k);
          s.window_weight.push_back(std::exp(-(d * d) / two_sigma2));
          any = true;
        }
      }
      if (i + k < n) {
        double d = std::hypot(pts.xs[i] - pts.xs[i + k],
                              pts.ys[i] - pts.ys[i + k]);
        if (d < radius_m) {
          s.window_index.push_back(i + k);
          s.window_weight.push_back(std::exp(-(d * d) / two_sigma2));
          any = true;
        }
      }
      if (!any) break;  // both directions left the view radius
    }

    // Accumulate every candidate's Eq. 3 numerator in one sorted-row
    // merge per window neighbor instead of a binary search per
    // (candidate, neighbor) pair. Each num[c] still receives its
    // contributions in window order and den is the same window-order
    // sum, so the floating-point result is bit-identical to the
    // per-candidate inner loop this replaces.
    const size_t row_size = row_last - row_first;
    const size_t window_size = s.window_index.size();
    s.num.assign(row_size, 0.0);
    double den = 0.0;
    for (size_t w = 0; w < window_size; ++w) {
      const double weight = s.window_weight[w];
      den += weight;
      size_t a = row_first;
      size_t b = s.row_begin[s.window_index[w]];
      const size_t b_end = s.row_begin[s.window_index[w] + 1];
      while (a < row_last && b < b_end) {
        if (s.cand_ids[a] < s.cand_ids[b]) {
          ++a;
        } else if (s.cand_ids[b] < s.cand_ids[a]) {
          ++b;
        } else {
          s.num[a - row_first] += weight * s.cand_scores[b];
          ++a;
          ++b;
        }
      }
    }
    core::PlaceId best_seg = core::kInvalidPlaceId;
    double best_score = -1.0;
    for (size_t c = 0; c < row_size; ++c) {
      const core::PlaceId seg = s.cand_ids[row_first + c];
      double score =
          den > 0.0 ? s.num[c] / den : s.cand_scores[row_first + c];
      if (score > best_score || (score == best_score && seg < best_seg)) {
        best_score = score;
        best_seg = seg;
      }
    }
    // The row is non-empty here, so some candidate must have won: the
    // segment lookup below would be out of bounds on the sentinel id.
    SEMITRI_CHECK(best_seg != core::kInvalidPlaceId)
        << "globalScore selected no segment for point " << i << " with "
        << (row_last - row_first) << " candidates";
    (*out)[i].segment = best_seg;
    (*out)[i].score = best_score;
    (*out)[i].snapped =
        network_->segment(best_seg).shape.ClosestPoint(pts.point(i));
  }
}

std::vector<MatchedPoint> GeometricMapMatcher::MatchPoints(
    const traj::PointView& pts) const {
  std::vector<MatchedPoint> out(pts.size);
  for (size_t i = 0; i < pts.size; ++i) {
    core::PlaceId seg = network_->NearestSegment(pts.point(i));
    out[i].segment = seg;
    if (seg != core::kInvalidPlaceId) {
      out[i].snapped =
          network_->segment(seg).shape.ClosestPoint(pts.point(i));
      out[i].score = 1.0;
    } else {
      out[i].snapped = pts.point(i);
    }
  }
  return out;
}

double MatchingAccuracy(const std::vector<MatchedPoint>& matches,
                        const std::vector<core::PlaceId>& ground_truth) {
  size_t considered = 0;
  size_t correct = 0;
  size_t n = std::min(matches.size(), ground_truth.size());
  for (size_t i = 0; i < n; ++i) {
    if (ground_truth[i] == core::kInvalidPlaceId) continue;
    ++considered;
    if (matches[i].segment == ground_truth[i]) ++correct;
  }
  return considered == 0
             ? 0.0
             : static_cast<double>(correct) / static_cast<double>(considered);
}

}  // namespace semitri::road
