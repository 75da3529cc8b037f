// FrameStore: an append-only chunked arena that owns the raw bytes of every
// captured frame. Frames are packed back-to-back into large chunks; the
// returned views stay valid for the lifetime of the store because chunks are
// never reallocated or compacted (append-only, stable addresses).
//
// This is the single owner on the zero-copy capture path: the switch's
// packet tap copies each frame into the arena exactly once, and every
// downstream consumer (side index, flow table, analyses) holds BytesView
// slices into it. See DESIGN.md §10 for the ownership rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "netcore/bytes.hpp"
#include "prof/counters.hpp"

namespace roomnet {

class FrameStore {
 public:
  /// 256 KiB chunks amortize the allocation cost over ~170 full-size
  /// Ethernet frames while keeping the wasted tail of the last chunk small.
  static constexpr std::size_t kDefaultChunkSize = 256 * 1024;

  explicit FrameStore(std::size_t chunk_size = kDefaultChunkSize)
      : chunk_size_(chunk_size == 0 ? kDefaultChunkSize : chunk_size) {}

  FrameStore(const FrameStore&) = delete;
  FrameStore& operator=(const FrameStore&) = delete;
  FrameStore(FrameStore&&) = default;
  FrameStore& operator=(FrameStore&&) = default;

  /// Copies `frame` into the arena and returns a stable view of the copy.
  /// Frames larger than the chunk size get a dedicated chunk.
  BytesView append(BytesView frame) {
    const std::size_t n = frame.size();
    if (n == 0) return {};
    std::uint8_t* dst = allocate(n);
    std::memcpy(dst, frame.data(), n);
    ++frames_;
    bytes_ += n;
    return BytesView(dst, n);
  }

  [[nodiscard]] std::size_t frame_count() const { return frames_; }
  [[nodiscard]] std::size_t byte_count() const { return bytes_; }
  [[nodiscard]] std::size_t chunk_count() const {
    return chunks_.size() + large_chunks_.size();
  }
  /// Oversize frames that earned a dedicated chunk (each one is arena waste
  /// pressure: its bytes are reserved exactly, but it cost an allocation).
  [[nodiscard]] std::size_t large_chunk_count() const {
    return large_chunks_.size();
  }
  /// Total bytes reserved from the allocator (>= byte_count(): chunk tails
  /// left unfilled when the next frame does not fit are never reused).
  [[nodiscard]] std::size_t capacity() const {
    return chunk_capacity_total_;
  }

 private:
  std::uint8_t* allocate(std::size_t n) {
    if (n > chunk_size_) {
      // Oversize frame: dedicated chunk on its own list, so the active
      // chunk's free tail stays usable for subsequent small frames.
      large_chunks_.push_back(std::make_unique<std::uint8_t[]>(n));
      chunk_capacity_total_ += n;
      prof::note_arena_alloc(n);
      return large_chunks_.back().get();
    }
    if (chunks_.empty() || used_ + n > chunk_size_) {
      chunks_.push_back(std::make_unique<std::uint8_t[]>(chunk_size_));
      chunk_capacity_total_ += chunk_size_;
      prof::note_arena_alloc(chunk_size_);
      used_ = 0;
    }
    std::uint8_t* p = chunks_.back().get() + used_;
    used_ += n;
    return p;
  }

  std::size_t chunk_size_;
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  std::vector<std::unique_ptr<std::uint8_t[]>> large_chunks_;
  std::size_t used_ = 0;  // bytes used in chunks_.back()
  std::size_t frames_ = 0;
  std::size_t bytes_ = 0;
  std::size_t chunk_capacity_total_ = 0;
};

}  // namespace roomnet
