// Version-watermark reclamation (MVCC-style): the version-keyed body
// (version_reclaimer.hpp) with the watermark pin rule.
//
// A reader announces the version counter *before* loading the root. The
// counter is bumped after the root CAS, so it never runs ahead of the
// root, and the announcement is <= the version of the root the reader
// then loads. A bundle that died at transition-to-d may be referenced by
// any version <= d-1, hence is freed once every announcement is >= d:
// the watermark, the smallest announced version.
//
// Unlike EBR this scheme supports long-lived snapshots: pin_snapshot()
// returns a handle that keeps one version pinned for arbitrary time,
// blocking only bundles that died after it — exactly the watermark
// mechanism of multi-version databases the paper borrows from (Sun et
// al., VLDB'19).
#pragma once

#include <atomic>
#include <cstdint>

#include "reclaim/version_reclaimer.hpp"
#include "util/modelcheck.hpp"

namespace pathcopy::reclaim {

/// Announce the version, then load the root: pinning is conservative,
/// never unsafe.
struct WatermarkPin {
  static const void* pin(std::atomic<std::uint64_t>& announced,
                         const std::atomic<const void*>& root,
                         const std::atomic<std::uint64_t>& version) {
    announced.store(version.load(std::memory_order_acquire),
                    std::memory_order_seq_cst);
    // A writer may retire the root and collect between these two lines.
    PC_YIELD("reclaim.pin");
    return root.load(std::memory_order_seq_cst);
  }
};

using WatermarkReclaimer = VersionReclaimer<WatermarkPin>;

}  // namespace pathcopy::reclaim
