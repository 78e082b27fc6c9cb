// Open-addressing hash containers for the consensus hot path.
//
// The replica receive path is dominated by small map operations — client
// timestamp maps, reply caches, the instance log's overflow — where
// std::map's per-node allocation and pointer chasing cost more than the
// lookup itself. FlatHashMap stores key/value pairs contiguously with
// linear probing (power-of-two capacity, byte-per-slot metadata), so a hot
// lookup is one hash, one cache line of control bytes, and usually one slot
// probe, with zero allocations after the table reaches steady-state size.
//
// Deliberate non-goals, and what call sites must do about them:
//   - Iteration order is UNSPECIFIED and changes across rehashes. Anything
//     that feeds ordered output (wire encoding, snapshots, reports) must
//     collect and sort at read time — never iterate one of these straight
//     into an Encoder. DESIGN.md §10 lists the call sites this applies to.
//   - References/iterators are invalidated by any mutating operation
//     (rehash moves slots). Don't hold them across inserts.
//   - Erase uses tombstones; the table rehashes in place once tombstones
//     outnumber live entries, keeping probe chains short.

#ifndef SEEMORE_UTIL_FLAT_HASH_MAP_H_
#define SEEMORE_UTIL_FLAT_HASH_MAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace seemore {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class FlatHashMap {
 public:
  using value_type = std::pair<K, V>;

  FlatHashMap() = default;

  template <bool kConst>
  class Iter {
   public:
    using Owner = std::conditional_t<kConst, const FlatHashMap, FlatHashMap>;
    using Ref = std::conditional_t<kConst, const value_type&, value_type&>;
    using Ptr = std::conditional_t<kConst, const value_type*, value_type*>;

    Iter() = default;
    Iter(Owner* owner, size_t idx) : owner_(owner), idx_(idx) { SkipDead(); }

    Ref operator*() const { return owner_->slots_[idx_]; }
    Ptr operator->() const { return &owner_->slots_[idx_]; }
    Iter& operator++() {
      ++idx_;
      SkipDead();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.idx_ == b.idx_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.idx_ != b.idx_;
    }
    // const_iterator from iterator (no-op self-conversion excluded).
    template <bool C = kConst, std::enable_if_t<!C, int> = 0>
    operator Iter<true>() const {
      return Iter<true>(owner_, idx_);
    }

   private:
    friend class FlatHashMap;
    void SkipDead() {
      while (owner_ != nullptr && idx_ < owner_->state_.size() &&
             owner_->state_[idx_] != kFull) {
        ++idx_;
      }
    }
    Owner* owner_ = nullptr;
    size_t idx_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, state_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, state_.size()); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    state_.assign(state_.size(), kEmpty);
    for (auto& s : slots_) s = value_type();  // release held payloads
    size_ = 0;
    tombstones_ = 0;
  }

  /// Pre-size for at least `n` entries without rehashing.
  void reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 3 / 4 < n) cap <<= 1;
    if (cap > state_.size()) Rehash(cap);
  }

  iterator find(const K& key) {
    size_t idx = FindIndex(key);
    return idx == kNotFound ? end() : iterator(this, idx);
  }
  const_iterator find(const K& key) const {
    size_t idx = FindIndex(key);
    return idx == kNotFound ? end() : const_iterator(this, idx);
  }
  bool contains(const K& key) const { return FindIndex(key) != kNotFound; }
  size_t count(const K& key) const { return contains(key) ? 1 : 0; }

  V& operator[](const K& key) { return TryEmplace(key).first->second; }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    return TryEmplace(key, std::forward<Args>(args)...);
  }

  std::pair<iterator, bool> insert(const value_type& kv) {
    return TryEmplaceFrom(kv.first, kv.second);
  }
  std::pair<iterator, bool> insert(value_type&& kv) {
    return TryEmplaceFrom(kv.first, std::move(kv.second));
  }

  template <typename... Args>
  std::pair<iterator, bool> emplace(const K& key, Args&&... args) {
    return TryEmplace(key, std::forward<Args>(args)...);
  }

  size_t erase(const K& key) {
    size_t idx = FindIndex(key);
    if (idx == kNotFound) return 0;
    EraseSlot(idx);
    return 1;
  }

  iterator erase(iterator it) {
    EraseSlot(it.idx_);
    ++it.idx_;
    it.SkipDead();
    return it;
  }

 private:
  static constexpr uint8_t kEmpty = 0;
  static constexpr uint8_t kFull = 1;
  static constexpr uint8_t kTombstone = 2;
  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  size_t Mask() const { return state_.size() - 1; }

  size_t FindIndex(const K& key) const {
    if (state_.empty()) return kNotFound;
    size_t idx = Hash{}(key)&Mask();
    for (;;) {
      uint8_t s = state_[idx];
      if (s == kEmpty) return kNotFound;
      if (s == kFull && Eq{}(slots_[idx].first, key)) return idx;
      idx = (idx + 1) & Mask();
    }
  }

  template <typename... Args>
  std::pair<iterator, bool> TryEmplace(const K& key, Args&&... args) {
    size_t idx = PrepareInsert(key);
    if (state_[idx] == kFull) return {iterator(this, idx), false};
    if (state_[idx] == kTombstone) --tombstones_;
    state_[idx] = kFull;
    slots_[idx].first = key;
    slots_[idx].second = V(std::forward<Args>(args)...);
    ++size_;
    return {iterator(this, idx), true};
  }

  template <typename VV>
  std::pair<iterator, bool> TryEmplaceFrom(const K& key, VV&& value) {
    size_t idx = PrepareInsert(key);
    if (state_[idx] == kFull) return {iterator(this, idx), false};
    if (state_[idx] == kTombstone) --tombstones_;
    state_[idx] = kFull;
    slots_[idx].first = key;
    slots_[idx].second = std::forward<VV>(value);
    ++size_;
    return {iterator(this, idx), true};
  }

  /// Index of `key` if present (state kFull), else the slot to insert into
  /// (state kEmpty or kTombstone). Grows/cleans the table as needed first.
  size_t PrepareInsert(const K& key) {
    if (state_.empty()) {
      Rehash(kMinCapacity);
    } else if ((size_ + tombstones_ + 1) * 4 > state_.size() * 3) {
      // Grow on live load; rehash in place when tombstones are the cause.
      Rehash(size_ + 1 > state_.size() * 3 / 8 ? state_.size() * 2
                                               : state_.size());
    }
    size_t idx = Hash{}(key)&Mask();
    size_t insert_at = kNotFound;
    for (;;) {
      uint8_t s = state_[idx];
      if (s == kEmpty) {
        return insert_at == kNotFound ? idx : insert_at;
      }
      if (s == kTombstone) {
        if (insert_at == kNotFound) insert_at = idx;
      } else if (Eq{}(slots_[idx].first, key)) {
        return idx;
      }
      idx = (idx + 1) & Mask();
    }
  }

  void EraseSlot(size_t idx) {
    state_[idx] = kTombstone;
    slots_[idx] = value_type();  // drop payload eagerly (frees Bytes etc.)
    --size_;
    ++tombstones_;
  }

  void Rehash(size_t new_cap) {
    std::vector<uint8_t> old_state = std::move(state_);
    std::vector<value_type> old_slots = std::move(slots_);
    state_.assign(new_cap, kEmpty);
    slots_ = std::vector<value_type>(new_cap);  // move-only V stays legal
    size_ = 0;
    tombstones_ = 0;
    for (size_t i = 0; i < old_state.size(); ++i) {
      if (old_state[i] != kFull) continue;
      size_t idx = Hash{}(old_slots[i].first) & Mask();
      while (state_[idx] == kFull) idx = (idx + 1) & Mask();
      state_[idx] = kFull;
      slots_[idx] = std::move(old_slots[i]);
      ++size_;
    }
  }

  std::vector<uint8_t> state_;
  std::vector<value_type> slots_;
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace seemore

#endif  // SEEMORE_UTIL_FLAT_HASH_MAP_H_
