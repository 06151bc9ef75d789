#ifndef SEMITRI_SEMITRI_H_
#define SEMITRI_SEMITRI_H_

// Umbrella header: the public API of the SeMiTri library (EDBT 2011
// reproduction). Include individual headers for faster builds; include
// this for exploration and prototyping.

// Error model & utilities.
#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

// Geometry substrate.
#include "geo/box.h"
#include "geo/latlon.h"
#include "geo/point.h"
#include "geo/polygon.h"
#include "geo/segment.h"
#include "geo/simplify.h"

// Spatial indexing.
#include "index/grid_index.h"
#include "index/rstar_tree.h"

// Data model and pipeline.
#include "core/annotation_context.h"
#include "core/annotation_model.h"
#include "core/health.h"
#include "core/ingest.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "core/types.h"

// Trajectory Computation Layer.
#include "traj/identification.h"
#include "traj/preprocess.h"
#include "traj/segmentation.h"

// Online streaming annotation.
#include "stream/annotation_session.h"
#include "stream/episode_detector.h"
#include "stream/session_manager.h"

// Semantic Region Annotation Layer.
#include "region/landuse.h"
#include "region/region_annotator.h"
#include "region/region_set.h"

// Semantic Line Annotation Layer.
#include "road/line_annotator.h"
#include "road/map_matcher.h"
#include "road/road_network.h"
#include "road/router.h"
#include "road/transport_mode.h"

// Semantic Point Annotation Layer.
#include "hmm/hmm.h"
#include "poi/observation_model.h"
#include "poi/point_annotator.h"
#include "poi/poi_set.h"

// Analytics.
#include "analytics/distribution.h"
#include "analytics/latency_profiler.h"
#include "analytics/personal_places.h"
#include "analytics/sequence_mining.h"
#include "analytics/timeline.h"
#include "analytics/trajectory_stats.h"

// Storage, I/O and export.
#include "export/html_report.h"
#include "export/kml_writer.h"
#include "io/world_io.h"
#include "store/semantic_trajectory_store.h"

// Synthetic worlds & workloads.
#include "datagen/movement.h"
#include "datagen/presets.h"
#include "datagen/world.h"

#endif  // SEMITRI_SEMITRI_H_
