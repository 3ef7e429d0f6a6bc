// Batched accumulation kernels for the TGM candidate-generation pass.
//
// The hot loop of a query adds a per-token weight into a group-counter
// array for every group present in that token's bitmap column (Equation
// 2/4). Walking each column bit-by-bit through ForEach wastes the
// container structure Roaring maintains; BatchGroupCountAccumulator
// instead lets each container kind use its natural batch shape:
//
//   - array containers bulk-add into the counter array,
//   - bitset containers scan words and add per set bit (no per-value
//     callback, no re-derived base offsets),
//   - run containers record (start, end, weight) into a difference array
//     in O(1) per run; one prefix-sum pass at Finish() folds every run of
//     every column into the counters at once.
//
// The accumulator holds one counter row per query of a batch; a single
// query is the one-row case. The difference array uses unsigned
// wrap-around arithmetic: the prefix sums are exact modulo 2^32 and every
// true counter fits in uint32, so the folded values are exact.

#ifndef LES3_BITMAP_KERNELS_H_
#define LES3_BITMAP_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitmap/kernels_simd.h"
#include "core/simd_dispatch.h"

namespace les3 {
namespace bitmap {

/// \brief Scalar word-scan accumulation kernel: one ctz + clear-lowest per
/// set bit. Exported for the forced-path differential tests; production
/// code calls the dispatching AccumulateWords below.
inline void AccumulateWordsScalar(const uint64_t* words, size_t num_words,
                                  uint32_t base, uint32_t* counts,
                                  uint32_t weight) {
  for (size_t w = 0; w < num_words; ++w) {
    if (words[w] != 0) {
      AccumulateWordBits(words[w], base + (static_cast<uint32_t>(w) << 6),
                         counts, weight);
    }
  }
}

/// \brief Word-scan accumulation kernel shared by the dense BitVector and
/// the Roaring bitset container: adds `weight` to `counts[base + i]` for
/// every set bit i of `words[0 .. num_words)`. One pass over the words,
/// direct adds, no per-value callback. Dispatches on the active SIMD level
/// (core/simd_dispatch.h); `counts_size` is the number of addressable
/// entries of `counts` — the vector kernels read-modify-write the full
/// 64-counter span of a dense word and need to know where the array ends
/// (words whose span crosses it take the per-bit path, so results are
/// identical at every level).
inline void AccumulateWords(const uint64_t* words, size_t num_words,
                            uint32_t base, uint32_t* counts, uint32_t weight,
                            size_t counts_size) {
  switch (simd::ActiveLevel()) {
    case simd::Level::kAvx512:
      AccumulateWordsAvx512(words, num_words, base, counts, weight,
                            counts_size);
      return;
    case simd::Level::kAvx2:
      AccumulateWordsAvx2(words, num_words, base, counts, weight,
                          counts_size);
      return;
    case simd::Level::kScalar:
      break;
  }
  AccumulateWordsScalar(words, num_words, base, counts, weight);
}

/// \brief Bulk-add for a sorted, duplicate-free array of 16-bit offsets
/// (the Roaring array-container shape): adds `weight` to counts[base + v]
/// for every value. AVX-512 uses gather/scatter; the other levels run the
/// scalar loop (AVX2 has no scatter).
inline void ArrayAccumulate(const uint16_t* values, size_t n, uint32_t base,
                            uint32_t* counts, uint32_t weight) {
  if (simd::ActiveLevel() == simd::Level::kAvx512) {
    ArrayAccumulateAvx512(values, n, base, counts, weight);
    return;
  }
  for (size_t i = 0; i < n; ++i) counts[base + values[i]] += weight;
}

/// \brief One subscriber of a shared column walk: query row `query` wants
/// this column's groups added with weight `weight` (the query's token
/// multiplicity).
struct QueryWeight {
  uint32_t query;
  uint32_t weight;
};

/// \brief Weighted Q x num_groups group-counter matrix with an
/// O(1)-per-run side channel, for batched probes.
///
/// Usage: Reset over the target counter vector, stream any number of
/// columns through the AccumulateIntoBatch kernels (each column decoded
/// once and fanned out to every subscribing row), then call Finish()
/// exactly once before reading the counters. Rows never interact, so row q
/// holds exactly what a one-row batch over query q's columns would.
class BatchGroupCountAccumulator {
 public:
  /// An unbound accumulator; call Reset before use. Default-constructible
  /// so call sites can keep one thread_local instance and amortize the
  /// difference-array allocation across probes.
  BatchGroupCountAccumulator() = default;

  /// Binds to `counts`, resizing it to num_queries * num_groups zeros.
  /// `counts` must outlive the accumulator.
  void Reset(uint32_t num_queries, uint32_t num_groups,
             std::vector<uint32_t>* counts) {
    counts_ = counts;
    counts_->assign(static_cast<size_t>(num_queries) * num_groups, 0);
    // The difference matrix is kept all-zero between uses (Finish
    // re-zeroes the entries it folds), so resets normally never re-clear
    // it. A prior binding abandoned after AddRange without Finish() would
    // leak its deltas into this use, so discard any it left behind.
    if (has_ranges_) std::fill(diff_.begin(), diff_.end(), 0);
    size_t diff_needed =
        static_cast<size_t>(num_queries) * (static_cast<size_t>(num_groups) + 1);
    if (diff_.size() < diff_needed) diff_.resize(diff_needed, 0);
    if (row_has_ranges_.size() < num_queries) {
      row_has_ranges_.resize(num_queries, 0);
    }
    std::fill(row_has_ranges_.begin(),
              row_has_ranges_.begin() + num_queries, 0);
    num_queries_ = num_queries;
    num_groups_ = num_groups;
    has_ranges_ = false;
  }

  uint32_t num_queries() const { return num_queries_; }
  uint32_t num_groups() const { return num_groups_; }

  /// Query q's counter row (num_groups entries); the direct target for the
  /// array and bitset kernels.
  uint32_t* row(uint32_t q) {
    return counts_->data() + static_cast<size_t>(q) * num_groups_;
  }

  /// Adds `weight` to every group in [first, last] inclusive of query q's
  /// row, in O(1).
  void AddRange(uint32_t q, uint32_t first, uint32_t last, uint32_t weight) {
    uint32_t* d =
        diff_.data() + static_cast<size_t>(q) * (num_groups_ + size_t{1});
    d[first] += weight;
    d[last + 1] -= weight;  // unsigned wrap-around is intentional
    row_has_ranges_[q] = 1;
    has_ranges_ = true;
  }

  /// Folds pending ranges of every dirty row into its counters, re-zeroing
  /// the difference matrix. Call once per Reset, before reading counts.
  void Finish() {
    if (!has_ranges_) return;
    for (uint32_t q = 0; q < num_queries_; ++q) {
      if (!row_has_ranges_[q]) continue;
      row_has_ranges_[q] = 0;
      uint32_t* d =
          diff_.data() + static_cast<size_t>(q) * (num_groups_ + size_t{1});
      uint32_t running = 0;
      uint32_t* c = row(q);
      for (uint32_t g = 0; g < num_groups_; ++g) {
        running += d[g];
        d[g] = 0;
        c[g] += running;
      }
      d[num_groups_] = 0;  // AddRange(.., num_groups - 1, ..) writes here
    }
    has_ranges_ = false;
  }

 private:
  std::vector<uint32_t>* counts_ = nullptr;
  std::vector<uint32_t> diff_;  // num_queries rows of num_groups + 1
  std::vector<uint8_t> row_has_ranges_;
  uint32_t num_queries_ = 0;
  uint32_t num_groups_ = 0;
  bool has_ranges_ = false;
};

}  // namespace bitmap
}  // namespace les3

#endif  // LES3_BITMAP_KERNELS_H_
