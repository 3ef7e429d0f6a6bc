// CandidateVerifier — the one cache-resident verification pipeline behind
// every LES3-family engine (memory, disk, and each shard of the sharded
// engine).
//
// The pipeline per query:
//   1. Candidate generation: Tgm::MatchedCandidatesBatch computes every
//      group's matched-token count for every query of the batch in one
//      fused column walk and prunes groups below the threshold-implied
//      minimum (Theorem 3.1). A single query is a batch of one.
//   2. Group traversal: range queries visit every surviving group; kNN
//      visits them in descending bound order off a binary heap and stops at
//      the first bound strictly below the running k-th best (groups never
//      popped count toward groups_pruned — they are pre-skipped without a
//      single member touched).
//   3. Length filter: each visited group's members are ordered by set size
//      (tgm/tgm.h), so the candidate-size window implied by the threshold
//      (core/similarity.h SizeBoundsForThreshold — for kNN, the running
//      k-th best) binary-searches down to the one contiguous run that can
//      still qualify; everything outside is counted in
//      QueryStats::candidates_size_skipped.
//   4. Kernel verification: survivors run through the adaptive
//      VerifyThreshold kernels (core/verify.h) over SetViews into the
//      database's CSR token arena — no per-candidate pointer chasing.
//
// Exactness: steps 2–4 only ever discard candidates whose best attainable
// similarity is STRICTLY below the governing threshold under the identical
// double arithmetic the verifier uses, so results — ties included — match
// brute force exactly (the property suite holds every backend to this).

#ifndef LES3_SEARCH_CANDIDATE_VERIFIER_H_
#define LES3_SEARCH_CANDIDATE_VERIFIER_H_

#include <functional>
#include <vector>

#include "core/database.h"
#include "core/similarity.h"
#include "core/types.h"
#include "search/query_stats.h"
#include "tgm/tgm.h"

namespace les3 {
namespace search {

/// \brief Shared candidate generation + size filter + kernel verification.
///
/// A thin view over an index's TGM, database, and measure (cheap to
/// construct per query); owns no state, so one instance is safe to use
/// from any number of threads.
class CandidateVerifier {
 public:
  /// Fires once per group whose members are about to be verified, with the
  /// number of candidates the size window let through — the disk engine
  /// charges its extent read here, and the maintenance layer
  /// (search/maintenance.h) accumulates per-group activity. Groups
  /// pre-skipped by the bound or emptied by the size window never fire.
  using GroupVisitFn = std::function<void(GroupId, size_t candidates)>;

  CandidateVerifier(const tgm::Tgm* tgm, const SetDatabase* db,
                    SimilarityMeasure measure)
      : tgm_(tgm), db_(db), measure_(measure) {}

  /// Exact kNN (Definition 2.1). Fills `stats` (ignored when null) and
  /// returns hits sorted by HitOrder. A one-query KnnBatch.
  std::vector<Hit> Knn(SetView query, size_t k, QueryStats* stats,
                       const GroupVisitFn& on_group = {}) const;

  /// Exact range search (Definition 2.2). A one-query RangeBatch.
  std::vector<Hit> Range(SetView query, double delta, QueryStats* stats,
                         const GroupVisitFn& on_group = {}) const;

  /// \brief Exact kNN for a batch: one shared column-major TGM probe
  /// (Tgm::MatchedCandidatesBatch) for the whole batch, then each query's
  /// traversal over its own counter row, so hits[q] and stats[q] do not
  /// depend on what else rides in the batch — micros aside: the shared
  /// probe's wall time is split evenly across the batch and each query
  /// adds its own traversal time.
  void KnnBatch(const SetView* queries, size_t num_queries, size_t k,
                std::vector<std::vector<Hit>>* hits,
                std::vector<QueryStats>* stats,
                const GroupVisitFn& on_group = {}) const;

  /// Exact range search for a batch; same contract as KnnBatch. Queries
  /// whose threshold is unreachable even by an identical set are answered
  /// empty without probing; a batch of only such queries returns before
  /// any per-group work.
  void RangeBatch(const SetView* queries, size_t num_queries, double delta,
                  std::vector<std::vector<Hit>>* hits,
                  std::vector<QueryStats>* stats,
                  const GroupVisitFn& on_group = {}) const;

 private:
  /// Steps 2-4 of the pipeline for one kNN query, off its already-computed
  /// counter row of the batch matrix.
  /// Fills every stats field except columns_scanned and micros (the
  /// caller's probe owns those).
  std::vector<Hit> KnnFromCounts(SetView query, size_t k, uint32_t min_count,
                                 const uint32_t* counts,
                                 const std::vector<GroupId>& candidates,
                                 QueryStats* stats,
                                 const GroupVisitFn& on_group) const;

  /// Range-query counterpart of KnnFromCounts (the min-count pruning is
  /// already folded into `candidates`, so no counter row is needed).
  std::vector<Hit> RangeFromCounts(SetView query, double delta,
                                   const std::vector<GroupId>& candidates,
                                   QueryStats* stats,
                                   const GroupVisitFn& on_group) const;

  const tgm::Tgm* tgm_;
  const SetDatabase* db_;
  SimilarityMeasure measure_;
};

}  // namespace search
}  // namespace les3

#endif  // LES3_SEARCH_CANDIDATE_VERIFIER_H_
