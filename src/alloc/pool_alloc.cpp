#include "alloc/pool_alloc.hpp"

#include <algorithm>
#include <new>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pathcopy::alloc {

PoolBackend::~PoolBackend() = default;

void* PoolBackend::allocate(std::size_t bytes, std::size_t align) {
  if (bytes > kMaxPooled || align > alignof(std::max_align_t)) {
    stats_.on_alloc(bytes);
    return ::operator new(bytes, std::align_val_t{align});
  }
  const std::size_t cls = class_of(bytes);
  stats_.on_alloc(class_bytes(cls));
  std::lock_guard lock(mu_);
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  auto& stack = classes_[cls].free;
  if (!stack.empty()) {
    void* p = stack.back();
    stack.pop_back();
    return p;
  }
  return carve_locked(cls);
}

void PoolBackend::deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
  if (bytes > kMaxPooled || align > alignof(std::max_align_t)) {
    stats_.on_free(bytes);
    ::operator delete(p, std::align_val_t{align});
    return;
  }
  const std::size_t cls = class_of(bytes);
  stats_.on_free(class_bytes(cls));
  std::lock_guard lock(mu_);
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  check_class_locked(p, cls);
  classes_[cls].free.push_back(p);
}

void PoolBackend::free_batch(void* const* items, std::size_t n, std::size_t bytes,
                             std::size_t align) noexcept {
  if (n == 0) return;
  if (bytes > kMaxPooled || align > alignof(std::max_align_t)) {
    for (std::size_t i = 0; i < n; ++i) {
      stats_.on_free(bytes);
      ::operator delete(items[i], std::align_val_t{align});
    }
    return;
  }
  const std::size_t cls = class_of(bytes);
  stats_.on_free_n(n, class_bytes(cls) * n);
  push_batch(cls, items, n);
}

std::size_t PoolBackend::pop_batch(std::size_t size_class, void** out, std::size_t n) {
  PC_DASSERT(size_class < kClasses, "size class out of range");
  std::lock_guard lock(mu_);
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  auto& stack = classes_[size_class].free;
  const std::size_t got = std::min(n, stack.size());
  // The top of the stack lands at the end of out, where a magazine pops
  // first.
  std::copy(stack.end() - got, stack.end(), out);
  stack.erase(stack.end() - got, stack.end());
  for (std::size_t i = got; i < n; ++i) {
    out[i] = carve_locked(size_class);
  }
  return n;
}

void PoolBackend::push_batch(std::size_t size_class, void* const* items,
                             std::size_t n) noexcept {
  PC_DASSERT(size_class < kClasses, "size class out of range");
  std::lock_guard lock(mu_);
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    check_class_locked(items[i], size_class);
  }
  auto& stack = classes_[size_class].free;
  stack.insert(stack.end(), items, items + n);
}

void PoolBackend::check_class_locked(const void* p, std::size_t size_class) const noexcept {
#ifndef NDEBUG
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  const PageSlot& slot = pages_[probe_locked(a / kSlabBytes)];
  const auto base = [](const Slab* s) { return reinterpret_cast<std::uintptr_t>(s->mem.get()); };
  // `first` starts at or before the page, so only `second` needs a
  // lower-bound test.
  const Slab* s =
      (slot.second != nullptr && a >= base(slot.second)) ? slot.second : slot.first;
  const bool carved = s != nullptr && a < reinterpret_cast<std::uintptr_t>(s->bump) &&
                      (a - base(s)) % class_bytes(s->size_class) == 0;
  PC_DASSERT(carved, "freed pointer was never carved from this pool");
  PC_DASSERT(s->size_class == size_class, "pointer freed with a different size class than it was allocated with");
#else
  (void)p;
  (void)size_class;
#endif
}

void* PoolBackend::carve_locked(std::size_t size_class) {
  const std::size_t sz = class_bytes(size_class);
  Slab* s = classes_[size_class].open;
  if (s == nullptr || static_cast<std::size_t>(s->mem.get() + kSlabBytes - s->bump) < sz) {
    open_slab_locked(size_class);
    s = classes_[size_class].open;
  }
  char* p = s->bump;
  s->bump += sz;
  return p;
}

void PoolBackend::open_slab_locked(std::size_t size_class) {
  // Everything that can throw comes before the first change that would
  // need undoing.
  SizeClass& c = classes_[size_class];
  const std::size_t need = (c.slabs + 1) * (kSlabBytes / class_bytes(size_class));
  if (c.free.capacity() < need) {
    c.free.reserve(std::max(need, 2 * c.free.capacity()));
  }
  grow_pages_locked();
  // Not value-initialized: nothing reads a block before its owner writes it.
  Slab& s = slabs_.emplace_back(
      Slab{std::make_unique_for_overwrite<char[]>(kSlabBytes), nullptr, size_class});
  s.bump = s.mem.get();
  const auto a = reinterpret_cast<std::uintptr_t>(s.bump);
  if (a % kSlabBytes == 0) {
    page_slot_locked(a / kSlabBytes).first = &s;
  } else {
    page_slot_locked(a / kSlabBytes).second = &s;
    page_slot_locked(a / kSlabBytes + 1).first = &s;
  }
  c.open = &s;
  ++c.slabs;
}

std::size_t PoolBackend::probe_locked(std::uintptr_t page) const noexcept {
  const std::size_t mask = pages_.size() - 1;
  std::size_t i = util::mix64(page) & mask;
  while (pages_[i].used() && pages_[i].page != page) {
    i = (i + 1) & mask;
  }
  return i;
}

PoolBackend::PageSlot& PoolBackend::page_slot_locked(std::uintptr_t page) noexcept {
  PageSlot& slot = pages_[probe_locked(page)];
  if (!slot.used()) {
    slot.page = page;
    ++pages_used_;
  }
  return slot;
}

void PoolBackend::grow_pages_locked() {
  if (2 * (pages_used_ + 2) <= pages_.size()) return;
  std::vector<PageSlot> old(2 * pages_.size());
  old.swap(pages_);
  for (const PageSlot& slot : old) {
    if (slot.used()) pages_[probe_locked(slot.page)] = slot;
  }
}

}  // namespace pathcopy::alloc
