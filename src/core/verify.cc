#include "core/verify.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/verify_simd.h"
#include "util/logging.h"

namespace les3 {

namespace {

/// First index >= `from` with v[index] >= t, by exponential probe from
/// `from` followed by a lower-bound search over the bracketed run — the
/// finishing search dispatches to the active SIMD level (verify_simd.h).
size_t GallopLowerBound(SetView v, size_t from, TokenId t) {
  if (from >= v.size() || v[from] >= t) return from;
  size_t lo = from;  // v[lo] < t throughout
  size_t step = 1;
  while (lo + step < v.size() && v[lo + step] < t) {
    lo += step;
    step <<= 1;
  }
  size_t hi = std::min(lo + step, v.size());  // v[hi] >= t, or hi == size
  return simd::LowerBound(v, lo + 1, hi, t);
}

/// Finalizes a kernel run: exact similarity from the accumulated overlap.
VerifyResult Finish(SimilarityMeasure m, size_t overlap, size_t size_a,
                    size_t size_b, double threshold) {
  VerifyResult result;
  result.similarity = SimilarityFromOverlap(m, overlap, size_a, size_b);
  result.passed = result.similarity >= threshold;
  return result;
}

/// Early-exit result: the best-case similarity is a valid upper bound.
VerifyResult Abort(SimilarityMeasure m, size_t max_overlap, size_t size_a,
                   size_t size_b) {
  VerifyResult result;
  result.similarity = SimilarityFromOverlap(m, max_overlap, size_a, size_b);
  result.passed = false;
  return result;
}

/// The per-thread query bitmap behind QueryVerifier: all zero while
/// unbound, and never shrunk, so a thread pays the allocation once for the
/// largest universe it has served.
struct ThreadBitmap {
  std::vector<uint64_t> words;
  bool bound = false;
};

ThreadBitmap& ThreadQueryBitmap() {
  static thread_local ThreadBitmap bitmap;
  return bitmap;
}

}  // namespace

size_t MinOverlapForPair(SimilarityMeasure m, size_t size_a, size_t size_b,
                         double threshold) {
  if (threshold <= 0.0) return 0;
  const size_t max_overlap = std::min(size_a, size_b);
  // NaN fails every comparison (including the `<= 0.0` gate above), and
  // +inf exceeds every reachable similarity; for both, no overlap can
  // pass, and letting a non-finite estimate reach the double->size_t cast
  // below would be undefined behavior. max_overlap + 1 is the canonical
  // "unsatisfiable" value (the fix-up loop exits there too).
  if (!std::isfinite(threshold)) return max_overlap + 1;
  auto pass = [&](size_t o) {
    return SimilarityFromOverlap(m, o, size_a, size_b) >= threshold;
  };
  // Closed-form estimate of the boundary (solving Sim(o) = threshold for
  // o), then a linear fix-up against the exact double predicate. The
  // estimate lands within one or two of the true crossover, and
  // SimilarityFromOverlap is monotone in the overlap for fixed sizes (the
  // numerator grows, the denominator shrinks or stays put, and double
  // division rounds monotonically), so the fix-up loops run O(1) steps and
  // the result is the exact least sufficient overlap. This runs once per
  // verified candidate — it must stay a handful of flops, not a binary
  // search.
  const double na = static_cast<double>(size_a);
  const double nb = static_cast<double>(size_b);
  double estimate = 0.0;
  switch (m) {
    case SimilarityMeasure::kJaccard:
      estimate = threshold * (na + nb) / (1.0 + threshold);
      break;
    case SimilarityMeasure::kDice:
      estimate = threshold * (na + nb) / 2.0;
      break;
    case SimilarityMeasure::kCosine:
      estimate = threshold * std::sqrt(na * nb);
      break;
    case SimilarityMeasure::kContainment:
      estimate = threshold * na;
      break;
  }
  size_t o = estimate <= 0.0 ? 0
             : estimate >= static_cast<double>(max_overlap)
                 ? max_overlap
                 : static_cast<size_t>(estimate);
  while (o <= max_overlap && !pass(o)) ++o;  // may exit at max_overlap + 1
  while (o > 0 && pass(o - 1)) --o;
  return o;
}

VerifyResult VerifyMerge(SimilarityMeasure m, SetView a, SetView b,
                         double threshold) {
  return VerifyMerge(m, a, b, threshold,
                     MinOverlapForPair(m, a.size(), b.size(), threshold));
}

VerifyResult VerifyMerge(SimilarityMeasure m, SetView a, SetView b,
                         double threshold, size_t min_overlap) {
  // The intersection count runs in core/verify_simd.h: a vectorized
  // all-pairs block compare on AVX2/AVX-512 hardware, the branchless
  // scalar merge otherwise — identical overlap either way, with the
  // suffix bound (best-case final overlap against the precomputed
  // requirement) checked once per block. A sparser check only delays the
  // early exit; the final overlap (and so the answer) is untouched.
  simd::CountResult r = simd::IntersectCount(a, b, min_overlap);
  if (r.aborted) return Abort(m, r.value, a.size(), b.size());
  return Finish(m, r.value, a.size(), b.size(), threshold);
}

VerifyResult VerifyGallop(SimilarityMeasure m, SetView a, SetView b,
                          double threshold) {
  return VerifyGallop(m, a, b, threshold,
                      MinOverlapForPair(m, a.size(), b.size(), threshold));
}

VerifyResult VerifyGallop(SimilarityMeasure m, SetView a, SetView b,
                          double threshold, size_t min_overlap) {
  SetView small = a.size() <= b.size() ? a : b;
  SetView large = a.size() <= b.size() ? b : a;
  size_t i = 0, j = 0, overlap = 0;
  while (i < small.size() && j < large.size()) {
    size_t max_overlap =
        overlap + std::min(small.size() - i, large.size() - j);
    if (max_overlap < min_overlap) return Abort(m, max_overlap, a.size(),
                                                b.size());
    j = GallopLowerBound(large, j, small[i]);
    if (j >= large.size()) break;
    if (large[j] == small[i]) {
      // Pairwise consumption keeps multiset min-multiplicity semantics:
      // k duplicates in the small side match at most k in the large side.
      ++overlap;
      ++j;
    }
    ++i;
  }
  return Finish(m, overlap, a.size(), b.size(), threshold);
}

VerifyResult VerifyThreshold(SimilarityMeasure measure, SetView a, SetView b,
                             double threshold) {
  return VerifyThreshold(measure, a, b, threshold,
                         MinOverlapForPair(measure, a.size(), b.size(),
                                           threshold));
}

VerifyResult VerifyThreshold(SimilarityMeasure measure, SetView a, SetView b,
                             double threshold, size_t min_overlap) {
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  if (small > 0 && large / small >= kGallopSizeRatio) {
    return VerifyGallop(measure, a, b, threshold, min_overlap);
  }
  return VerifyMerge(measure, a, b, threshold, min_overlap);
}

QueryVerifier::~QueryVerifier() {
  if (!bound_) return;
  ThreadBitmap& bitmap = ThreadQueryBitmap();
  uint64_t* words = bitmap.words.data();
  for (TokenId t : query_) {
    if (t < universe_) words[t >> 6] &= ~(uint64_t{1} << (t & 63));
  }
  bitmap.bound = false;
}

void QueryVerifier::Bind() {
  ThreadBitmap& bitmap = ThreadQueryBitmap();
  LES3_CHECK(!bitmap.bound);  // one bound query per thread
  bitmap.bound = true;
  bound_ = true;
  const size_t num_words = (universe_ + 63) / 64;
  if (bitmap.words.size() < num_words) bitmap.words.resize(num_words, 0);
  uint64_t* words = bitmap.words.data();
  for (TokenId t : query_) {
    if (t < universe_) words[t >> 6] |= uint64_t{1} << (t & 63);
  }
  words_ = words;
}

VerifyResult QueryVerifier::Verify(SimilarityMeasure m, SetView candidate,
                                   double threshold, size_t min_overlap) {
  const size_t q = query_.size();
  if (q > 0 && candidate.size() / q >= kGallopSizeRatio) {
    return VerifyGallop(m, query_, candidate, threshold, min_overlap);
  }
  return Scan(m, candidate, threshold, min_overlap);
}

VerifyResult QueryVerifier::Scan(SimilarityMeasure m, SetView candidate,
                                 double threshold, size_t min_overlap) {
  if (!bound_) Bind();
  const uint64_t* words = words_;
  const TokenId* tokens = candidate.data();
  const size_t n = candidate.size();
  // A bit test per candidate token counts [t in Q] for every copy of t in
  // S, which is the multiset overlap (the sum of min(mult_Q(t),
  // mult_S(t))) exactly when S repeats no token. The adjacency test rides
  // along (`prev` starts unequal to the first token), and a block that
  // shows a repeat sends the pair to the merge kernels. A repeat only
  // makes the count overstate the overlap, so the suffix bound stays a
  // valid reason to stop early either way.
  constexpr size_t kCheckEvery = 8;
  size_t overlap = 0;
  TokenId prev = n > 0 ? tokens[0] + 1 : 0;
  bool repeated = false;
  for (size_t i = 0; i < n; i += kCheckEvery) {
    const size_t bound = overlap + (n - i);
    if (bound < min_overlap) return Abort(m, bound, query_.size(), n);
    const size_t end = std::min(i + kCheckEvery, n);
    for (size_t j = i; j < end; ++j) {
      const TokenId t = tokens[j];
      overlap += (words[t >> 6] >> (t & 63)) & 1;
      repeated |= t == prev;
      prev = t;
    }
    if (repeated) {
      return VerifyThreshold(m, query_, candidate, threshold, min_overlap);
    }
  }
  return Finish(m, overlap, query_.size(), n, threshold);
}

}  // namespace les3
