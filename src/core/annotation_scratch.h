#ifndef SEMITRI_CORE_ANNOTATION_SCRATCH_H_
#define SEMITRI_CORE_ANNOTATION_SCRATCH_H_

// Per-run working memory of the annotation data plane.
//
// One AnnotationScratch is owned by whoever drives repeated annotation
// runs (stream::AnnotationSession, batch drivers) and threaded to the
// pipeline's stages via AnnotationContext. It holds the trajectory's
// SoA point batch plus every layer's reusable buffers, so steady-state
// annotation performs no heap allocation: buffers grow to the high-water
// mark of the workload and are then only cleared/reused (see DESIGN.md
// "Data plane layout" and tests/stream_scratch_test.cc).

#include "poi/point_annotator.h"
#include "road/line_annotator.h"
#include "traj/point_batch.h"

namespace semitri::core {

struct AnnotationScratch {
  // SoA mirror of the cleaned trajectory, built once per run by
  // AnnotationContext::PointsBatch().
  traj::PointBatch batch;
  road::LineScratch line;
  poi::PointScratch point;

  // Total reserved capacity across all scratch buffers (the arena's
  // block bytes included) — stability of this value across runs is the
  // steady-state allocation contract.
  size_t capacity_bytes() const {
    return batch.capacity() * sizeof(double) + line.capacity_bytes() +
           point.capacity_bytes();
  }
};

}  // namespace semitri::core

#endif  // SEMITRI_CORE_ANNOTATION_SCRATCH_H_
