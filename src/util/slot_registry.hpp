// SlotRegistry: the one registry of per-thread announcement slots.
//
// Each reclaimer keeps one slot per registered thread (EBR's epoch
// records, the version-keyed schemes' pins), and the store keeps one
// epoch mark per session. An owner writes its slot on the hot path
// through a raw pointer, with no lock; a scanner reads every slot
// rarely. So slots sit on their own cache lines at stable addresses, and
// a released slot goes to the next acquire(), which keeps the registry
// from growing when threads churn. Scans visit released slots too: an
// owner puts its slot back in the idle state before it releases it.
//
// acquire(), release() and every scan take the registry's lock. The lock
// orders a slot's release before its next owner's first use, so the
// next owner sees the previous owner's last writes. A scan that spins
// (the store's epoch drain) runs on list(), a copy taken under the lock.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "util/align.hpp"

namespace pathcopy::util {

template <class Slot>
class SlotRegistry {
 public:
  /// A released slot if there is one, else a new default-constructed one.
  Slot* acquire() {
    const std::lock_guard lock(mu_);
    if (free_.empty()) {
      slots_.push_back(std::make_unique<Padded<Slot>>());
      free_.reserve(slots_.size());  // release() never allocates
      return &slots_.back()->value;
    }
    Slot* s = free_.back();
    free_.pop_back();
    return s;
  }

  /// Hands `s` to a later acquire(). The caller has made it idle.
  void release(Slot* s) noexcept {
    const std::lock_guard lock(mu_);
    free_.push_back(s);
  }

  /// Calls f on every slot, released ones included, under the lock.
  template <class F>
  void for_each(F&& f) {
    const std::lock_guard lock(mu_);
    for (const auto& s : slots_) f(s->value);
  }

  /// Every slot, released ones included, for a scan that spins.
  std::vector<Slot*> list() {
    std::vector<Slot*> out;
    for_each([&out](Slot& s) { out.push_back(&s); });
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Padded<Slot>>> slots_;  // only grows
  std::vector<Slot*> free_;
};

}  // namespace pathcopy::util
