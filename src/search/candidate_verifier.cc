#include "search/candidate_verifier.h"

#include <algorithm>
#include <utility>

#include "core/verify.h"
#include "util/timer.h"

namespace les3 {
namespace search {
namespace {

/// Per-thread probe buffers. They carry no state between uses, so reuse
/// only saves the allocations that would otherwise weigh on a cheap
/// single-query probe (batches run on pool threads, so these must not be
/// members of the const verifier).
struct ProbeScratch {
  std::vector<uint32_t> min_counts;
  std::vector<uint32_t> counts;
  std::vector<std::vector<GroupId>> candidates;
  std::vector<size_t> columns_visited;
};

ProbeScratch& ThreadProbeScratch() {
  static thread_local ProbeScratch scratch;
  return scratch;
}

}  // namespace

std::vector<Hit> CandidateVerifier::KnnFromCounts(
    SetView query, size_t k, uint32_t min_count, const uint32_t* counts,
    const std::vector<GroupId>& candidates, QueryStats* stats,
    const GroupVisitFn& on_group) const {
  // Groups in descending bound order. Built as a flat vector heapified in
  // O(|candidates|) — no per-group push cost for groups that will never be
  // popped: the loop below stops at the first bound strictly below the
  // running k-th best (an equal bound may still yield an equal-similarity
  // hit with a smaller id), and everything still on the heap is pre-skipped
  // wholesale, counted in groups_pruned without touching a member.
  using GroupEntry = std::pair<double, GroupId>;
  std::vector<GroupEntry> heap;
  heap.reserve(candidates.size());
  for (GroupId g : candidates) {
    if (tgm_->group_size(g) == 0) continue;
    heap.emplace_back(GroupUpperBound(measure_, counts[g], query.size()), g);
  }
  std::make_heap(heap.begin(), heap.end());

  TopKHits best(k);
  // Size window implied by the running k-th best; recomputed only when the
  // k-th best moves. Until the heap is full no window applies (any
  // similarity can still enter). The pair-overlap bound is likewise cached
  // per (member size, threshold) run — members arrive size-sorted.
  SizeBounds window;
  double window_threshold = -1.0;
  bool have_window = false;
  size_t cached_size = static_cast<size_t>(-1);
  double cached_threshold = -1.0;
  size_t cached_min_overlap = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    auto [ub, g] = heap.back();
    heap.pop_back();
    if (best.full() && ub < best.WorstSimilarity()) break;
    tgm::Tgm::MemberWindow w;
    if (best.full()) {
      double threshold = best.WorstSimilarity();
      if (!have_window || threshold != window_threshold) {
        window = SizeBoundsForThreshold(measure_, query.size(), threshold);
        window_threshold = threshold;
        have_window = true;
      }
      w = tgm_->MembersInSizeWindow(g, window.lo, window.hi);
      stats->candidates_size_skipped += w.skipped;
      if (w.begin == w.end) continue;  // window emptied the group
    } else {
      w = tgm_->MembersInSizeWindow(g, 0, static_cast<size_t>(-1));
    }
    ++stats->groups_visited;
    if (on_group) on_group(g, w.count());
    const uint32_t* size = w.sizes;
    for (const SetId* member = w.begin; member != w.end; ++member, ++size) {
      SetId s = *member;
      ++stats->candidates_verified;
      if (!best.full()) {
        best.Offer(s, Similarity(measure_, query, db_->set(s)));
        continue;
      }
      // Early-terminating verification against the running k-th best; a
      // candidate tying the k-th similarity still wins on a smaller id,
      // which Offer resolves under HitOrder.
      double threshold = best.WorstSimilarity();
      if (*size != cached_size || threshold != cached_threshold) {
        cached_size = *size;
        cached_threshold = threshold;
        cached_min_overlap =
            MinOverlapForPair(measure_, query.size(), cached_size, threshold);
      }
      VerifyResult v = VerifyThreshold(measure_, query, db_->set(s),
                                       threshold, cached_min_overlap);
      if (v.passed) best.Offer(s, v.similarity);
    }
  }

  tgm_->BackfillZeroCountGroups(counts, min_count, &best);

  std::vector<Hit> out = best.Take();
  stats->groups_pruned = tgm_->num_nonempty_groups() - stats->groups_visited;
  stats->results = out.size();
  // Deleted ids are not searchable, so efficiency is against the live
  // population, not the id space.
  stats->pruning_efficiency =
      KnnPruningEfficiency(db_->num_live(), stats->candidates_verified, k);
  return out;
}

std::vector<Hit> CandidateVerifier::RangeFromCounts(
    SetView query, double delta, const std::vector<GroupId>& candidates,
    QueryStats* stats, const GroupVisitFn& on_group) const {
  // The δ-implied length filter, shared by every visited group.
  SizeBounds window = SizeBoundsForThreshold(measure_, query.size(), delta);
  std::vector<Hit> out;
  // Members come in ascending size order, so the pair-overlap bound — a
  // function of (|Q|, |S|, δ) only — is recomputed once per size run, not
  // per candidate.
  size_t cached_size = static_cast<size_t>(-1);
  size_t cached_min_overlap = 0;
  for (GroupId g : candidates) {
    if (tgm_->group_size(g) == 0) continue;
    // counts[g] >= min_count already implies UB(Q, G_g) >= delta
    // (GroupUpperBound is monotone in the matched count).
    tgm::Tgm::MemberWindow w =
        tgm_->MembersInSizeWindow(g, window.lo, window.hi);
    stats->candidates_size_skipped += w.skipped;
    if (w.begin == w.end) continue;  // every member outside the window
    ++stats->groups_visited;
    if (on_group) on_group(g, w.count());
    const uint32_t* size = w.sizes;
    for (const SetId* member = w.begin; member != w.end; ++member, ++size) {
      ++stats->candidates_verified;
      if (*size != cached_size) {
        cached_size = *size;
        cached_min_overlap =
            MinOverlapForPair(measure_, query.size(), cached_size, delta);
      }
      VerifyResult v = VerifyThreshold(measure_, query, db_->set(*member),
                                       delta, cached_min_overlap);
      if (v.passed) out.emplace_back(*member, v.similarity);
    }
  }
  SortHits(&out);
  stats->groups_pruned = tgm_->num_nonempty_groups() - stats->groups_visited;
  stats->results = out.size();
  stats->pruning_efficiency = RangePruningEfficiency(
      db_->num_live(), stats->candidates_verified, out.size());
  return out;
}

std::vector<Hit> CandidateVerifier::Knn(SetView query, size_t k,
                                        QueryStats* stats,
                                        const GroupVisitFn& on_group) const {
  static thread_local std::vector<std::vector<Hit>> hits;
  static thread_local std::vector<QueryStats> batch_stats;
  KnnBatch(&query, 1, k, &hits, &batch_stats, on_group);
  if (stats != nullptr) *stats = batch_stats[0];
  return std::move(hits[0]);
}

std::vector<Hit> CandidateVerifier::Range(SetView query, double delta,
                                          QueryStats* stats,
                                          const GroupVisitFn& on_group) const {
  static thread_local std::vector<std::vector<Hit>> hits;
  static thread_local std::vector<QueryStats> batch_stats;
  RangeBatch(&query, 1, delta, &hits, &batch_stats, on_group);
  if (stats != nullptr) *stats = batch_stats[0];
  return std::move(hits[0]);
}

void CandidateVerifier::KnnBatch(const SetView* queries, size_t num_queries,
                                 size_t k, std::vector<std::vector<Hit>>* hits,
                                 std::vector<QueryStats>* stats,
                                 const GroupVisitFn& on_group) const {
  hits->assign(num_queries, {});
  stats->assign(num_queries, QueryStats());
  if (num_queries == 0 || k == 0) return;

  WallTimer timer;
  // A group with matched count 0 shares no token with the query, so every
  // member has similarity exactly 0; such groups skip the bound heap
  // entirely and only backfill the result when it underflows k. The empty
  // query is the one exception (all counts are 0, yet empty sets have
  // similarity 1), so it keeps every group as a candidate.
  ProbeScratch& scratch = ThreadProbeScratch();
  std::vector<uint32_t>& min_counts = scratch.min_counts;
  min_counts.resize(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    min_counts[q] = queries[q].size() == 0 ? 0 : 1;
  }
  tgm_->MatchedCandidatesBatch(queries, num_queries, min_counts.data(),
                               &scratch.counts, &scratch.candidates,
                               &scratch.columns_visited);
  // The shared probe's cost is attributed evenly: it ran once for all Q
  // queries, and no per-query split of a fused column walk is meaningful.
  // Each query then adds its own traversal time, read off the same
  // running clock. With one query that sum is just the elapsed time, so
  // the post-probe clock read is skipped.
  double mark = num_queries > 1 ? timer.Micros() : 0.0;
  const double probe_share = mark / num_queries;

  const uint32_t num_groups = tgm_->num_groups();
  for (size_t q = 0; q < num_queries; ++q) {
    QueryStats& qstats = (*stats)[q];
    qstats.columns_scanned = scratch.columns_visited[q];
    (*hits)[q] = KnnFromCounts(
        queries[q], k, min_counts[q],
        scratch.counts.data() + q * static_cast<size_t>(num_groups),
        scratch.candidates[q], &qstats, on_group);
    const double now = timer.Micros();
    qstats.micros = probe_share + (now - mark);
    mark = now;
  }
}

void CandidateVerifier::RangeBatch(const SetView* queries, size_t num_queries,
                                   double delta,
                                   std::vector<std::vector<Hit>>* hits,
                                   std::vector<QueryStats>* stats,
                                   const GroupVisitFn& on_group) const {
  hits->assign(num_queries, {});
  stats->assign(num_queries, QueryStats());
  if (num_queries == 0) return;

  WallTimer timer;
  // Per-query least matched count any δ-result's group must reach; the
  // TGM prunes groups below it during candidate generation. A query whose
  // threshold is unreachable even by an identical set (min_count > |Q|)
  // skips probe and traversal entirely: the probe's attainable check
  // rejects it for free (attainable <= |Q|).
  ProbeScratch& scratch = ThreadProbeScratch();
  std::vector<uint32_t>& min_counts = scratch.min_counts;
  min_counts.resize(num_queries);
  bool any_reachable = false;
  for (size_t q = 0; q < num_queries; ++q) {
    size_t min_count =
        MinOverlapForThreshold(measure_, queries[q].size(), delta);
    any_reachable = any_reachable || min_count <= queries[q].size();
    min_counts[q] = static_cast<uint32_t>(
        std::min(min_count, queries[q].size() + 1));
  }
  if (!any_reachable) {
    // Nothing to probe: return before any O(num_groups) work.
    const double micros = timer.Micros() / num_queries;
    for (QueryStats& qstats : *stats) qstats.micros = micros;
    return;
  }
  tgm_->MatchedCandidatesBatch(queries, num_queries, min_counts.data(),
                               &scratch.counts, &scratch.candidates,
                               &scratch.columns_visited);
  // Probe share plus own traversal time, as in KnnBatch.
  double mark = num_queries > 1 ? timer.Micros() : 0.0;
  const double probe_share = mark / num_queries;

  for (size_t q = 0; q < num_queries; ++q) {
    QueryStats& qstats = (*stats)[q];
    if (min_counts[q] <= queries[q].size()) {
      qstats.columns_scanned = scratch.columns_visited[q];
      (*hits)[q] = RangeFromCounts(queries[q], delta, scratch.candidates[q],
                                   &qstats, on_group);
    }
    const double now = timer.Micros();
    qstats.micros = probe_share + (now - mark);
    mark = now;
  }
}

}  // namespace search
}  // namespace les3
