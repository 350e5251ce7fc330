// Hazard-era reclamation specialized for path-copied versions: the
// version-keyed body (version_reclaimer.hpp) with the hazard-era pin
// rule.
//
// Interior nodes of a persistent tree are immutable, so a reader only
// ever needs to protect one pointer: the version root it loaded. This
// collapses the general hazard-pointer scheme to the classic
// load/announce/validate loop on Root_Ptr, with the protection keyed on
// *eras* (hazard-era style): pin reads the version counter, loads the
// root, announces the era it read, and re-loads the root, retrying if it
// moved. The counter trails the root (writers bump it after their CAS),
// so the announced era e lower-bounds the pinned root's version, and
// every node the reader can touch — the pinned snapshot plus anything
// the reader itself publishes afterwards — dies at a version > e. A
// bundle with death version d is freed only when every announced era is
// >= d.
//
// Keying on the announced era rather than on a root -> version side map
// matters: a map entry can only be registered *after* the installing
// CAS publishes the root, so a reader can validly pin a root the map
// has never heard of, and map entries keyed by address are exposed to
// reuse ABA. The era is announced by the reader itself, is always
// conservative, and needs no shared lookup state.
#pragma once

#include <atomic>
#include <cstdint>

#include "reclaim/version_reclaimer.hpp"
#include "util/modelcheck.hpp"

namespace pathcopy::reclaim {

/// Load the version and the root, announce the era, validate the root.
struct HazardEraPin {
  static const void* pin(std::atomic<std::uint64_t>& announced,
                         const std::atomic<const void*>& root,
                         const std::atomic<std::uint64_t>& version) {
    for (;;) {
      const std::uint64_t e = version.load(std::memory_order_seq_cst);
      const void* r = root.load(std::memory_order_seq_cst);
      // A writer may retire r and collect before the era is announced.
      PC_YIELD("reclaim.validate");
      announced.store(e, std::memory_order_seq_cst);
      PC_YIELD("reclaim.pin");
      // If the root moved since the load, r may already be retired:
      // retry until the announcement covers the root we return.
      if (root.load(std::memory_order_seq_cst) == r) return r;
    }
  }
};

using HazardRootReclaimer = VersionReclaimer<HazardEraPin>;

}  // namespace pathcopy::reclaim
