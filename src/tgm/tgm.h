// TGM — the token-group matrix (paper Section 3).
//
// M[g, t] = 1 iff some set in group G_g contains token t. The matrix is
// stored column-wise: one bitmap per token holding the groups that contain
// it, which lets a query compute the matched-token count of every group in
// one pass over its tokens (cost O(Σ_{t in Q} |column_t|), far below
// O(n |Q|) for sparse data). Columns live behind BitmapColumn, so one index
// can choose compressed Roaring storage or flat BitVector rows; either way
// the query pass runs the container-aware batch kernels of
// bitmap/kernels.h rather than per-bit iteration.
//
// Group membership lists are kept alongside so the search layer can verify
// candidates group-at-a-time. Members are ordered by (set size, id) with a
// parallel size array, so a searcher holding a candidate-size window
// [lo, hi] (core/similarity.h SizeBoundsForThreshold) binary-searches the
// window's member run and never touches a token of an out-of-window set.
// This order is an in-memory property — snapshots persist only the
// assignment, and the order is re-derived on open.
//
// Updates (paper Section 6): AddSet routes a new set to the group with the
// highest similarity upper bound (ties -> smallest group) and extends the
// matrix, growing new columns when previously unseen tokens appear and
// splicing the member into its group's size order.
//
// Mutation (docs/mutability.md): RemoveSet physically erases the member
// from its group's run — so verification, MatchedCandidates harvesting and
// the zero-count backfill can never see (or resurrect) a deleted id — and
// parks group_of_[id] at kInvalidGroup. Column bits are NOT cleared on the
// mutation path: a stale bit only over-approximates a group's matched
// count, which keeps every upper bound admissible (exactness is
// unaffected; only pruning quality degrades). Each group's stale-bit debt
// is tracked in a dirt counter; the maintenance layer
// (search/maintenance.h) calls RecomputeGroupColumns / SplitGroup to pay
// it down incrementally, and snapshot save compacts all columns at once.

#ifndef LES3_TGM_TGM_H_
#define LES3_TGM_TGM_H_

#include <vector>

#include "bitmap/bitmap_column.h"
#include "core/database.h"
#include "core/similarity.h"
#include "core/types.h"

namespace les3 {
namespace tgm {

/// Calls fn(token, multiplicity) for every distinct token of the sorted
/// token list `tokens`, ascending. The one query-canonicalization loop
/// shared by the Tgm count kernels (including the differential reference)
/// and Htgm::Canonicalize.
template <typename Tokens, typename Fn>
void ForEachTokenMultiplicity(const Tokens& tokens, Fn&& fn) {
  size_t i = 0;
  while (i < tokens.size()) {
    TokenId t = tokens[i];
    uint32_t multiplicity = 0;
    while (i < tokens.size() && tokens[i] == t) {
      ++multiplicity;
      ++i;
    }
    fn(t, multiplicity);
  }
}

/// \brief The token-group matrix plus group membership.
class Tgm {
 public:
  /// An empty matrix (no groups, no columns); the placeholder state a
  /// snapshot deserialization (persist/snapshot.h) fills in.
  Tgm() = default;

  /// Builds from a partitioning of `db` into `num_groups` groups, storing
  /// columns in the chosen bitmap representation.
  Tgm(const SetDatabase& db, const std::vector<GroupId>& assignment,
      uint32_t num_groups,
      bitmap::BitmapBackend bitmap_backend = bitmap::BitmapBackend::kRoaring);

  uint32_t num_groups() const {
    return static_cast<uint32_t>(members_.size());
  }
  uint32_t num_token_columns() const {
    return static_cast<uint32_t>(columns_.size());
  }
  bitmap::BitmapBackend bitmap_backend() const { return bitmap_backend_; }

  /// Members of group `g`, ordered by (set size, id) ascending.
  const std::vector<SetId>& group_members(GroupId g) const {
    return members_[g];
  }
  size_t group_size(GroupId g) const { return members_[g].size(); }

  /// The contiguous run of group `g`'s members whose set sizes fall in
  /// [lo, hi], plus how many members the window excluded. `sizes` walks in
  /// lockstep with [begin, end) — ascending, so verification loops can key
  /// per-size work (e.g. MinOverlapForPair) off size-run boundaries.
  struct MemberWindow {
    const SetId* begin = nullptr;
    const SetId* end = nullptr;
    const uint32_t* sizes = nullptr;  // parallel to begin
    size_t skipped = 0;               // members of g outside the window
    size_t count() const { return static_cast<size_t>(end - begin); }
  };

  /// \brief Binary-searches group `g`'s size-ordered members for the run
  /// with set size in [size_lo, size_hi]. O(log |G_g|); no token of an
  /// excluded member is ever touched.
  MemberWindow MembersInSizeWindow(GroupId g, size_t size_lo,
                                   size_t size_hi) const;

  /// Number of groups with at least one member (maintained across AddSet,
  /// so the search layer's pruning stats need no per-query group scan).
  uint32_t num_nonempty_groups() const { return nonempty_groups_; }

  /// Group of a set (maintained across AddSet).
  GroupId group_of(SetId id) const { return group_of_[id]; }

  /// The full per-set assignment (what a snapshot persists, and what the
  /// disk backends feed to DiskLayout::GroupContiguous on reload).
  const std::vector<GroupId>& group_assignment() const { return group_of_; }

  /// \brief Fills `counts[g]` with Σ_{t in Q} M[g, t] (query multiplicity
  /// counted, per Equation 2/4). `counts` is resized to num_groups().
  /// Returns the number of non-empty token columns visited. A one-query
  /// MatchedCountsBatch.
  size_t MatchedCounts(SetView query, std::vector<uint32_t>* counts) const;

  /// \brief Threshold-aware MatchedCounts: additionally fills `candidates`
  /// with the groups whose count reached `min_count` (ascending GroupId).
  /// A one-query MatchedCandidatesBatch.
  size_t MatchedCandidates(SetView query, uint32_t min_count,
                           std::vector<uint32_t>* counts,
                           std::vector<GroupId>* candidates) const;

  /// \brief MatchedCounts over `num_queries` canonicalized queries at once:
  /// inverts the batch into a token -> subscriber plan and walks each
  /// referenced column once, fanning its decoded containers out to every
  /// subscribing query's counter row through the container-aware kernels
  /// of bitmap/kernels.h. `counts` is resized to num_queries * num_groups()
  /// (row-major; row q is query q's counter array, independent of what
  /// else rides in the batch). `columns_visited` is resized to the
  /// per-query non-empty column counts. Returns the number of *distinct*
  /// columns walked — the work the batch actually did.
  size_t MatchedCountsBatch(const SetView* queries, size_t num_queries,
                            std::vector<uint32_t>* counts,
                            std::vector<size_t>* columns_visited) const;

  /// \brief Threshold-aware MatchedCountsBatch: per-query thresholds in
  /// `min_counts[0 .. num_queries)`. A query whose attainable count (the
  /// summed multiplicity of its tokens with non-empty columns) falls below
  /// its threshold is excluded from the shared walk entirely (zero counter
  /// row, empty candidate list, columns_visited 0), and hopeless groups are
  /// skipped during the harvest. With min_count == 0 every group is a
  /// candidate. `candidates[q]` gets query q's qualifying groups
  /// ascending. Returns the number of distinct columns walked.
  size_t MatchedCandidatesBatch(const SetView* queries, size_t num_queries,
                                const uint32_t* min_counts,
                                std::vector<uint32_t>* counts,
                                std::vector<std::vector<GroupId>>* candidates,
                                std::vector<size_t>* columns_visited) const;

  /// \brief kNN backfill for the zero-count groups MatchedCandidates
  /// pruned: their members all have similarity exactly 0, so they are only
  /// offered (at similarity 0) when the result underflowed k, or when
  /// similarity-0 hits made the cut and a smaller id might exist among
  /// them (HitOrder tie-handling). No-op when min_count == 0 — nothing was
  /// pruned. Shared by the memory and disk LES3 engines through
  /// search::CandidateVerifier so the subtle tie rule lives in one place.
  void BackfillZeroCountGroups(const std::vector<uint32_t>& counts,
                               uint32_t min_count, TopKHits* best) const;

  /// Pointer variant over one row of a batch counts matrix (`counts` has
  /// num_groups() entries).
  void BackfillZeroCountGroups(const uint32_t* counts, uint32_t min_count,
                               TopKHits* best) const;

  /// \brief Reference per-bit implementation of MatchedCounts (a plain
  /// ForEach loop, sharing no code with the batched kernels). Kept as the
  /// independent differential oracle for the tests and the micro benches;
  /// not used on the query path.
  size_t MatchedCountsReference(SetView query,
                                std::vector<uint32_t>* counts) const;

  /// \brief Similarity upper bounds UB(Q, G_g) for all groups.
  /// Returns the number of token columns visited.
  size_t UpperBounds(SetView query, SimilarityMeasure measure,
                     std::vector<double>* ubs) const;

  /// \brief Inserts a new set (already appended to the caller's database as
  /// `id`) per Section 6; returns the chosen group.
  GroupId AddSet(SetId id, SetView set, SimilarityMeasure measure);

  /// \brief Removes set `id` from its group. `size` is the set's size at
  /// insert time (the caller reads db.set_size(id) before tombstoning the
  /// database entry); it keys the O(log |G|) binary search into the
  /// (size, id)-ordered member run. group_of(id) becomes kInvalidGroup and
  /// the group's dirt counter is charged one stale-bit debt. Returns false
  /// when `id` is unknown or already removed.
  bool RemoveSet(SetId id, uint32_t size);

  /// \brief Re-routes a previously removed id with new content (Update
  /// keeps the id stable). Requires group_of(id) == kInvalidGroup. Same
  /// Section 6 routing as AddSet; the member is spliced at its exact
  /// (size, id) position since a reinserted id need not be the largest.
  GroupId ReinsertSet(SetId id, SetView set, SimilarityMeasure measure);

  /// Stale-bit debt of group `g`: members removed (or moved out by a
  /// split) since its columns were last recomputed. Monotone between
  /// RecomputeGroupColumns calls; the maintenance policy triggers on the
  /// ratio of dirt to live size.
  uint32_t group_dirt(GroupId g) const { return group_dirt_[g]; }

  /// Total stale-bit debt across groups. Zero means the in-memory columns
  /// are exact (no bit without a live member behind it), so snapshot save
  /// can serialize them as-is instead of compacting.
  uint64_t TotalDirt() const {
    uint64_t total = 0;
    for (uint32_t d : group_dirt_) total += d;
    return total;
  }

  /// \brief Splits group `g` at its size median: the upper half of the
  /// (size, id)-ordered member run moves to a new group appended at
  /// num_groups(). Column bits for the new group are built from the moved
  /// members' tokens (read from `db`); the source group's bits for those
  /// tokens become stale debt. Both halves stay (size, id)-ordered.
  /// Returns the new group id, or kInvalidGroup when |G_g| < 2.
  GroupId SplitGroup(GroupId g, const SetDatabase& db);

  /// \brief Drops group `g`'s stale column bits: recomputes the exact
  /// token set of its live members from `db` and removes the bit g from
  /// every column not in it. O(num_token_columns) — a background
  /// maintenance cost, never on the query path. Resets the dirt counter.
  /// Returns the number of bits dropped.
  size_t RecomputeGroupColumns(GroupId g, const SetDatabase& db);

  /// Compresses columns with run encoding where beneficial (Roaring
  /// backend only; the dense backend is already fixed-shape).
  void RunOptimize();

  /// Bytes of the bitmap columns (the "TGM size" of Figure 11).
  uint64_t BitmapBytes() const;

  /// BitmapBytes plus the group membership arrays (ids and sizes).
  uint64_t MemoryBytes() const;

  /// Direct bit probe M[g, t] (test/debug; O(log) inside the column).
  bool Test(GroupId g, TokenId t) const;

  /// \brief Serializes the bitmap backend tag plus every column's exact
  /// container state (the snapshot's TGMC chunk). The partition half of
  /// the matrix — num_groups + assignment — travels in its own chunk, so
  /// it is not repeated here. Member order is NOT persisted: it is an
  /// in-memory property re-derived from the set sizes on open.
  void SerializeColumns(persist::ByteWriter* writer) const;

  /// \brief Rebuilds a matrix from a loaded partition plus serialized
  /// columns. `set_sizes` holds the database's set sizes parallel to
  /// `assignment` (the decoder reads them off the already-loaded DB chunk)
  /// so membership lists come back in the same (size, id) order the
  /// building constructor produces. A kInvalidGroup entry is a tombstoned
  /// id (tombstone-flagged snapshots persist holes that way) and joins no
  /// group; every
  /// other assignment entry must be < `num_groups`, and every column value
  /// must be < `num_groups` (membership arrays and count kernels index by
  /// those values); malformed input returns a Status.
  static Result<Tgm> Deserialize(const std::vector<GroupId>& assignment,
                                 uint32_t num_groups,
                                 const std::vector<uint32_t>& set_sizes,
                                 persist::ByteReader* reader);

  /// \brief SerializeColumns variant for save-time compaction: serializes
  /// columns rebuilt from the live members only — exactly what a fresh
  /// build over the same live assignment would produce, with every stale
  /// bit dropped — without mutating this matrix. The column count is
  /// db.num_tokens(), matching the building constructor.
  void SerializeCompactedColumns(const SetDatabase& db,
                                 persist::ByteWriter* writer) const;

 private:
  /// Re-sorts every group's members by (size, id) and (re)builds the
  /// parallel size arrays; `size_of(id)` returns a set's size.
  template <typename SizeFn>
  void OrderMembersBySize(const SizeFn& size_of);

  /// Section 6 stage 1: best group by UB (ties -> smallest group).
  GroupId RouteBestGroup(SetView set, SimilarityMeasure measure) const;

  /// Splices (id, size) at its (size, id) position in group g's run.
  void InsertMember(GroupId g, SetId id, uint32_t size);

  /// Sets M[g, t] = 1 for every distinct token of `set`, growing columns
  /// for unseen tokens.
  void AddColumnBits(GroupId g, SetView set);

  bitmap::BitmapBackend bitmap_backend_;
  std::vector<bitmap::BitmapColumn> columns_;  // per token: groups with it
  std::vector<std::vector<SetId>> members_;    // per group, (size, id) order
  std::vector<std::vector<uint32_t>> member_sizes_;  // parallel to members_
  std::vector<GroupId> group_of_;
  std::vector<uint32_t> group_dirt_;  // per group, stale-bit debt
  uint32_t nonempty_groups_ = 0;
};

}  // namespace tgm
}  // namespace les3

#endif  // LES3_TGM_TGM_H_
