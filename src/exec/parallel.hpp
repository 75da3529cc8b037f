// Fork-join helpers over TaskPool: parallel_for / parallel_map /
// parallel_reduce.
//
// All helpers shard [0, n) into min(pool.threads(), n) CONTIGUOUS chunks and
// combine per-chunk results in chunk (= index) order on the calling thread.
// Consequence: whenever the merge operation is associative across chunk
// boundaries — integer counts, ordered-map accumulation, concatenation,
// writes to disjoint slots — the final result is byte-identical for every
// worker count, and threads == 1 reproduces the plain sequential loop
// exactly. Floating-point reductions are NOT associative; keep those in the
// sequential aggregation stage after the parallel map (as the analyses here
// do) or accept chunk-count-dependent rounding.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/task_pool.hpp"

namespace roomnet::exec {

/// [begin, end) of chunk `i` when [0, n) splits into `chunks` contiguous
/// pieces, remainder spread over the leading chunks.
[[nodiscard]] inline std::pair<std::size_t, std::size_t> chunk_bounds(
    std::size_t n, std::size_t chunks, std::size_t i) {
  const std::size_t base = n / chunks;
  const std::size_t remainder = n % chunks;
  const std::size_t begin = i * base + (i < remainder ? i : remainder);
  return {begin, begin + base + (i < remainder ? 1 : 0)};
}

/// Calls `fn(i)` for every i in [0, n). `fn` must be safe to call
/// concurrently for distinct indices (writes to disjoint state only).
template <typename Fn>
void parallel_for(TaskPool& pool, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  const std::size_t chunks = std::min(pool.threads(), n);
  pool.run_chunks(chunks, [&](std::size_t chunk) {
    const auto [begin, end] = chunk_bounds(n, chunks, chunk);
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

/// Returns {fn(0), ..., fn(n-1)} with every result in its index slot, so
/// the output vector is identical for any worker count. The result type
/// must be default-constructible.
template <typename Fn>
[[nodiscard]] auto parallel_map(TaskPool& pool, std::size_t n, Fn&& fn) {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<R> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Ordered reduction: each chunk folds its contiguous index range into a
/// private accumulator seeded from a copy of `init` via `fold(acc, i)`, then
/// the partials merge left-to-right in chunk order via `merge(acc, part)` on
/// the calling thread. threads == 1 degenerates to the plain sequential
/// fold. `init` must be the identity of `merge` (empty counts, zero sums) —
/// with multiple chunks it seeds every partial, so a non-identity init
/// would be counted once per chunk and break worker-count invariance.
template <typename T, typename Fold, typename Merge>
[[nodiscard]] T parallel_reduce(TaskPool& pool, std::size_t n, T init,
                                Fold&& fold, Merge&& merge) {
  if (n == 0) return init;
  const std::size_t chunks = std::min(pool.threads(), n);
  if (chunks == 1) {
    T acc = std::move(init);
    for (std::size_t i = 0; i < n; ++i) fold(acc, i);
    return acc;
  }
  std::vector<T> partials(chunks, init);
  pool.run_chunks(chunks, [&](std::size_t chunk) {
    const auto [begin, end] = chunk_bounds(n, chunks, chunk);
    for (std::size_t i = begin; i < end; ++i) fold(partials[chunk], i);
  });
  T acc = std::move(partials[0]);
  for (std::size_t chunk = 1; chunk < chunks; ++chunk)
    merge(acc, std::move(partials[chunk]));
  return acc;
}

}  // namespace roomnet::exec
