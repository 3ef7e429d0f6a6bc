// Threshold-aware verification with early termination — the kernel suite
// behind every exact candidate check.
//
// The verify step computes Sim(Q, S) only to compare it against a threshold
// (the range δ or the current k-th best), so it can stop as soon as the
// remaining tokens cannot lift the overlap high enough: after consuming a
// prefix of both sorted arrays with `o` matches, the final overlap is at
// most o + min(remaining_a, remaining_b). Both kernels reduce that test to
// one integer comparison by precomputing the least overlap the threshold
// requires (MinOverlapForPair), instead of evaluating the similarity
// formula every merge step.
//
// Two layouts of the same exact computation:
//   - VerifyMerge: linear merge; right when |A| and |B| are comparable.
//   - VerifyGallop: iterate the smaller set, exponential-search the larger;
//     right when the sizes are skewed (O(|small| log |large|)).
// VerifyThreshold picks by size ratio (kGallopSizeRatio). All kernels
// preserve multiset min-multiplicity semantics (equal elements consumed
// pairwise) and produce bit-identical similarities to
// Similarity()/SimilarityFromOverlap on the pass path, so tie comparisons
// downstream are floating-point safe.
//
// The search pipelines verify thousands of candidates against one query,
// so they go through QueryVerifier instead: it marks the query's distinct
// tokens once in a per-thread bitmap over the token universe and then
// costs one bit test per candidate token (the ScanCount idea) — no merge.
// A bit cannot count multiplicities, so a candidate that repeats a token
// falls back to VerifyThreshold; one at least kGallopSizeRatio times
// larger than the query falls back to VerifyGallop (which reads
// O(|Q| log |S|) tokens instead of all |S|).

#ifndef LES3_CORE_VERIFY_H_
#define LES3_CORE_VERIFY_H_

#include <cstdint>

#include "core/similarity.h"

namespace les3 {

/// Result of a threshold verification.
struct VerifyResult {
  bool passed = false;    // Sim(a, b) >= threshold
  double similarity = 0;  // exact when passed; a valid upper bound when not
};

/// \brief Least multiset overlap o such that
/// SimilarityFromOverlap(m, o, size_a, size_b) >= threshold, under the
/// exact double arithmetic of the verifiers; min(size_a, size_b) + 1 when
/// no attainable overlap suffices. The integer form of the early-exit
/// bound shared by the kernels and their tests.
size_t MinOverlapForPair(SimilarityMeasure m, size_t size_a, size_t size_b,
                         double threshold);

/// Linear-merge kernel; best for similarly-sized operands.
VerifyResult VerifyMerge(SimilarityMeasure m, SetView a, SetView b,
                         double threshold);

/// Galloping kernel: walks the smaller operand and exponential-searches the
/// larger; best for heavily skewed sizes.
VerifyResult VerifyGallop(SimilarityMeasure m, SetView a, SetView b,
                          double threshold);

/// Variants taking the pair's MinOverlapForPair value precomputed — the
/// batch loops of search::CandidateVerifier verify size-sorted candidate
/// runs, so consecutive pairs share (|a|, |b|, threshold) and the bound is
/// hoisted out of the per-candidate path.
VerifyResult VerifyMerge(SimilarityMeasure m, SetView a, SetView b,
                         double threshold, size_t min_overlap);
VerifyResult VerifyGallop(SimilarityMeasure m, SetView a, SetView b,
                          double threshold, size_t min_overlap);
VerifyResult VerifyThreshold(SimilarityMeasure measure, SetView a, SetView b,
                             double threshold, size_t min_overlap);

/// Size ratio (larger / smaller) at which VerifyThreshold switches from the
/// linear merge to the galloping kernel.
inline constexpr size_t kGallopSizeRatio = 16;

/// \brief Checks Sim(a, b) >= threshold, stopping early when impossible;
/// dispatches to the kernel fitting the operand sizes.
///
/// When the verification fails early, `similarity` holds an upper bound on
/// the true similarity (sufficient for all callers, which discard failed
/// candidates). When it passes, `similarity` is exact.
VerifyResult VerifyThreshold(SimilarityMeasure measure, SetView a, SetView b,
                             double threshold);

/// \brief Verifies many candidates against one query through a per-thread
/// token bitmap.
///
/// Binding sets one bit per distinct query token in a thread-local
/// uint64_t word array of ceil(universe / 64) words, which grows on demand
/// and never shrinks; query tokens at or above `universe` are skipped,
/// since no stored set can contain them. The bind happens lazily, at the
/// first Verify, so a query that verifies nothing pays nothing; the
/// destructor clears exactly the bits the bind set, so the array is all
/// zero whenever no verifier is bound. At most one verifier may be bound
/// per thread at a time (checked).
///
/// Verify keeps the VerifyThreshold contract — the same `passed`, and on a
/// pass the bit-identical similarity — with SimilarityFromOverlap(m, o,
/// |query|, |candidate|) as the similarity, so the query is the first
/// operand (containment is asymmetric).
///
/// Every candidate token must lie below the bound `universe`: candidates
/// are stored sets of a database whose num_tokens() was passed in.
class QueryVerifier {
 public:
  QueryVerifier(SetView query, size_t universe)
      : query_(query), universe_(universe) {}
  ~QueryVerifier();

  QueryVerifier(const QueryVerifier&) = delete;
  QueryVerifier& operator=(const QueryVerifier&) = delete;

  /// Checks Sim(query, candidate) >= threshold given the pair's
  /// MinOverlapForPair value; dispatches to the bitmap scan, or to
  /// VerifyThreshold / VerifyGallop for the duplicate and skew cases.
  VerifyResult Verify(SimilarityMeasure m, SetView candidate,
                      double threshold, size_t min_overlap);

  /// The bitmap scan without the skew fallback (duplicate fallback kept):
  /// one bit test per candidate token, with the suffix bound o + remaining
  /// < min_overlap checked every 8 tokens; a candidate that repeats a
  /// token goes to VerifyThreshold. Exposed for the kernel tests and
  /// bench/micro_verify.cc; production code calls Verify.
  VerifyResult Scan(SimilarityMeasure m, SetView candidate, double threshold,
                    size_t min_overlap);

 private:
  void Bind();

  SetView query_;
  size_t universe_;
  const uint64_t* words_ = nullptr;
  bool bound_ = false;
};

}  // namespace les3

#endif  // LES3_CORE_VERIFY_H_
