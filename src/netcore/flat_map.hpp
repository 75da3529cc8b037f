// Minimal open-addressing hash map for per-packet indices. The watch tap
// path (Watcher, RuleEngine) and the exposure fold's AnnouncementMemo run
// once per delivered frame, where std::map probes dominated; they use this
// instead: nonzero uint64 keys (callers bias small key spaces by +1 so the
// all-zero MAC stays representable), Fibonacci hashing, linear probing,
// power-of-two capacity. Nothing is allocated until the first insert, so an
// idle instance costs no heap. Values must be trivially cheap to
// default-construct and copy (pointers, PODs).
// Determinism: lookup results depend only on the key set, never on probe
// order, and the map is never iterated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace roomnet {

template <typename Value>
class FlatMap {
 public:
  /// Null when absent. The pointer is invalidated by the next insert().
  [[nodiscard]] Value* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    std::size_t i = index(key);
    while (keys_[i] != 0) {
      if (keys_[i] == key) return &values_[i];
      i = (i + 1) & (keys_.size() - 1);
    }
    return nullptr;
  }

  /// Returns the slot for `key`, default-constructed on first use.
  Value& insert(std::uint64_t key) {
    if ((size_ + 1) * 4 >= keys_.size() * 3) grow();
    std::size_t i = index(key);
    while (keys_[i] != 0) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & (keys_.size() - 1);
    }
    keys_[i] = key;
    ++size_;
    return values_[i];
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kInitialCapacity = 64;

  [[nodiscard]] std::size_t index(std::uint64_t key) const {
    const std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h ^ (h >> 32)) & (keys_.size() - 1);
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    const std::size_t capacity =
        old_keys.empty() ? kInitialCapacity : old_keys.size() * 2;
    keys_.assign(capacity, 0);
    values_.assign(capacity, Value{});
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i)
      if (old_keys[i] != 0) insert(old_keys[i]) = old_values[i];
  }

  std::vector<std::uint64_t> keys_;
  std::vector<Value> values_;
  std::size_t size_ = 0;
};

}  // namespace roomnet
