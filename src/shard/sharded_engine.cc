#include "shard/sharded_engine.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "search/builder.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace les3 {
namespace shard {
namespace {

size_t HardwareThreads() {
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

/// Queries per (chunk, shard) sub-batch probe. Large enough that the
/// fused column walk amortizes, small enough that the per-chunk counts
/// matrix stays cache-resident and chunks spread across the pool.
constexpr size_t kBatchChunk = 64;

}  // namespace

ShardedEngine::ShardedEngine(std::shared_ptr<SetDatabase> db,
                             size_t num_shards, SimilarityMeasure measure,
                             bitmap::BitmapBackend bitmap_backend,
                             size_t num_threads, bool from_snapshot)
    : api::SearchEngine(num_threads),
      global_db_(std::move(db)),
      measure_(measure),
      bitmap_backend_(bitmap_backend),
      from_snapshot_(from_snapshot) {
  auto locals = SplitDb(global_db_, num_shards);
  shards_.reserve(num_shards);
  activities_.reserve(num_shards);
  for (auto& local : locals) {
    auto s = std::make_unique<Shard>();
    s->db = std::move(local);
    shards_.push_back(std::move(s));
    // Grown to the shard's group count once its index exists; the vector
    // itself is never resized again, so queries index it lock-free.
    activities_.push_back(std::make_unique<search::GroupActivity>());
  }
}

std::vector<std::shared_ptr<SetDatabase>> ShardedEngine::SplitDb(
    const std::shared_ptr<SetDatabase>& db, size_t num_shards) {
  std::vector<std::shared_ptr<SetDatabase>> locals(num_shards);
  if (num_shards == 1) {
    // The 1-shard special case: the slice IS the global database — no
    // copy, and Insert appends exactly once.
    locals[0] = db;
    return locals;
  }
  for (auto& local : locals) local = std::make_shared<SetDatabase>();
  for (SetId gid = 0; gid < db->size(); ++gid) {
    SetId local = locals[gid % num_shards]->AddSet(db->set(gid));
    // Tombstones survive the split (a reopened flagged snapshot): the
    // deleted entry occupies its local id so the arithmetic mapping
    // holds, and the slice's live count matches its share of the global.
    if (db->is_deleted(gid)) locals[gid % num_shards]->DeleteSet(local);
  }
  return locals;
}

std::unique_ptr<ShardedEngine> ShardedEngine::Build(
    std::shared_ptr<SetDatabase> db, const api::EngineOptions& options) {
  size_t num_shards = options.num_shards == 0 ? 1 : options.num_shards;
  // Clamp so every shard starts with at least one set (residues 0..S-1
  // all occur when S <= |D|); insert routing uses the clamped count.
  if (num_shards > db->size()) num_shards = db->size();
  std::unique_ptr<ShardedEngine> engine(new ShardedEngine(
      std::move(db), num_shards, options.measure, options.bitmap_backend,
      options.num_threads, /*from_snapshot=*/false));

  search::Les3BuildOptions build;
  build.measure = options.measure;
  build.num_groups = options.num_groups;
  build.cascade = options.cascade;
  build.bitmap_backend = options.bitmap_backend;
  // Sharded snapshots do not carry trained cascades (format v2).
  build.cascade.keep_models = false;
  size_t hw = HardwareThreads();
  if (build.cascade.num_threads == 0) {
    // Shard-level parallelism replaces cascade-level parallelism: S
    // concurrent builds each training on hw/S threads keeps the machine
    // busy without oversubscribing it S-fold.
    build.cascade.num_threads = std::max<size_t>(1, hw / num_shards);
  }
  // Constant TOTAL training budget across the fleet: each shard's split
  // problems involve 1/S of the data, and pruning is insensitive to sample
  // count beyond a modest threshold (paper Section 7.1), so each shard's
  // models train on pairs_per_model / S samples (floored, and never raised
  // above the caller's setting). Together with the cross-shard parallelism
  // above, this is why sharded build scales: less work per model AND
  // concurrent shards.
  size_t floor = std::min<size_t>(2000, build.cascade.pairs_per_model);
  build.cascade.pairs_per_model =
      std::max(floor, build.cascade.pairs_per_model / num_shards);

  // One shard builds on the calling thread (a one-cell ParallelFor).
  ThreadPool build_pool(std::min(num_shards, hw));
  build_pool.ParallelFor(num_shards, [&](size_t s) {
    engine->shards_[s]->index = std::make_unique<search::Les3Index>(
        search::BuildIndexOverShared(engine->shards_[s]->db, build));
    engine->activities_[s]->Grow(engine->shards_[s]->index->tgm().num_groups());
  });
  return engine;
}

std::unique_ptr<ShardedEngine> ShardedEngine::FromSnapshot(
    persist::LoadedSnapshot snapshot, const api::OpenOptions& options) {
  size_t num_shards = snapshot.shards.size();
  std::unique_ptr<ShardedEngine> engine(new ShardedEngine(
      std::move(snapshot.db), num_shards, snapshot.meta.measure,
      snapshot.meta.bitmap_backend, options.num_threads,
      /*from_snapshot=*/true));
  for (size_t s = 0; s < num_shards; ++s) {
    engine->shards_[s]->index = std::make_unique<search::Les3Index>(
        engine->shards_[s]->db, std::move(snapshot.shards[s].tgm),
        snapshot.meta.measure);
    engine->activities_[s]->Grow(engine->shards_[s]->index->tgm().num_groups());
  }
  return engine;
}

void ShardedEngine::ProbeChunk(size_t s, const SetView* queries, size_t nq,
                               const QuerySpec& spec, Probe* out,
                               size_t stride) const {
  std::vector<std::vector<Hit>> hits;
  std::vector<search::QueryStats> stats;
  uint64_t live = 0;
  const Shard& sh = *shards_[s];
  {
    std::shared_lock<std::shared_mutex> lock(sh.mu);
    // The group-visit hook feeds the maintenance priorities: relaxed
    // atomic adds under the shard reader lock, contention-free with other
    // probes.
    auto on_group = [this, s](GroupId g, size_t candidates) {
      activities_[s]->Observe(g, candidates);
    };
    if (spec.knn) {
      sh.index->KnnBatch(queries, nq, spec.k, &hits, &stats, on_group);
    } else {
      sh.index->RangeBatch(queries, nq, spec.delta, &hits, &stats, on_group);
    }
    // Deleted ids are not searchable, so pruning efficiency is against
    // the live population, as on the single-index engine.
    live = sh.db->num_live();
  }
  const SetId num_shards = static_cast<SetId>(shards_.size());
  for (size_t q = 0; q < nq; ++q) {
    Probe& p = out[q * stride];
    p.hits = std::move(hits[q]);
    p.stats = stats[q];
    p.shard_live = live;
    for (Hit& h : p.hits) {
      h.first = h.first * num_shards + static_cast<SetId>(s);
    }
  }
}

api::QueryResult ShardedEngine::Merge(const Probe* probes,
                                      const QuerySpec& spec) const {
  api::QueryResult out;
  // Every global top-k hit is a top-k hit of its own shard (fewer than k
  // shard-mates beat it under HitOrder), so offering the per-shard top-k
  // lists to one TopKHits reproduces the exact global answer — similarity
  // ties resolving toward the smaller GLOBAL id, because the
  // local-to-global mapping is monotone within a shard. Range answers are
  // exact per shard, so they concatenate.
  TopKHits best(spec.k);
  uint64_t live = 0;
  search::QueryStats& stats = out.stats;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Probe& p = probes[s];
    if (spec.knn) {
      for (const Hit& h : p.hits) best.Offer(h);
    } else {
      out.hits.insert(out.hits.end(), p.hits.begin(), p.hits.end());
    }
    stats.candidates_verified += p.stats.candidates_verified;
    stats.candidates_size_skipped += p.stats.candidates_size_skipped;
    stats.groups_visited += p.stats.groups_visited;
    stats.groups_pruned += p.stats.groups_pruned;
    stats.columns_scanned += p.stats.columns_scanned;
    live += p.shard_live;
    // Scatter-gather latency is the slowest shard probe; the single-query
    // entry points overwrite this with the measured wall time.
    stats.micros = std::max(stats.micros, p.stats.micros);
  }
  if (spec.knn) {
    out.hits = best.Take();
  } else {
    SortHits(&out.hits);
  }
  stats.results = out.hits.size();
  stats.pruning_efficiency =
      spec.knn ? search::KnnPruningEfficiency(live, stats.candidates_verified,
                                              spec.k)
               : search::RangePruningEfficiency(
                     live, stats.candidates_verified, stats.results);
  return out;
}

std::vector<api::QueryResult> ShardedEngine::RunGrid(
    const SetView* queries, size_t nq, const QuerySpec& spec) const {
  const size_t num_shards = shards_.size();
  std::vector<api::QueryResult> results(nq);
  if (nq == 0) return results;
  // One flat (chunk, shard) grid on ONE pool — layering the batch over
  // per-query scatters would call into the pool from inside a pool task,
  // which would Submit to (and Wait on) the pool it runs on: a deadlock,
  // not just a slowdown. Each cell is one fused batched probe (one column
  // walk per chunk); each shard still sees every chunk, so the grid keeps
  // all cores busy even on few-shard engines. A single query is one
  // chunk: one cell per shard, and a one-shard engine's only cell runs on
  // the calling thread.
  const size_t num_chunks = (nq + kBatchChunk - 1) / kBatchChunk;
  std::vector<Probe> probes(nq * num_shards);
  pool().ParallelFor(num_chunks * num_shards, [&](size_t t) {
    const size_t c = t / num_shards;
    const size_t s = t % num_shards;
    const size_t begin = c * kBatchChunk;
    const size_t n = std::min(kBatchChunk, nq - begin);
    ProbeChunk(s, queries + begin, n, spec, &probes[begin * num_shards + s],
               num_shards);
  });
  for (size_t q = 0; q < nq; ++q) {
    results[q] = Merge(&probes[q * num_shards], spec);
  }
  return results;
}

std::vector<api::QueryResult> ShardedEngine::RunGrid(
    const std::vector<SetRecord>& queries, const QuerySpec& spec) const {
  std::vector<SetView> views;
  views.reserve(queries.size());
  for (const SetRecord& q : queries) views.push_back(q.view());
  return RunGrid(views.data(), views.size(), spec);
}

api::QueryResult ShardedEngine::Knn(SetView query, size_t k) const {
  WallTimer timer;
  api::QueryResult out =
      std::move(RunGrid(&query, 1, {/*knn=*/true, k, 0.0})[0]);
  out.stats.micros = timer.Micros();
  return out;
}

api::QueryResult ShardedEngine::RangeImpl(SetView query, double delta) const {
  WallTimer timer;
  api::QueryResult out =
      std::move(RunGrid(&query, 1, {/*knn=*/false, 0, delta})[0]);
  out.stats.micros = timer.Micros();
  return out;
}

std::vector<api::QueryResult> ShardedEngine::KnnBatch(
    const std::vector<SetRecord>& queries, size_t k) const {
  return RunGrid(queries, {/*knn=*/true, k, 0.0});
}

std::vector<api::QueryResult> ShardedEngine::RangeBatchImpl(
    const std::vector<SetRecord>& queries, double delta) const {
  return RunGrid(queries, {/*knn=*/false, 0, delta});
}

Result<SetId> ShardedEngine::Insert(SetRecord set) {
  const size_t num_shards = shards_.size();
  // insert_mu_ pins the global id and the global-db append; the shard's
  // writer lock covers the index update. Queries take only shard locks
  // (shared), so they proceed on every shard throughout — including this
  // one, up to the moment the index mutation begins.
  std::lock_guard<std::mutex> global_lock(insert_mu_);
  SetId gid = static_cast<SetId>(global_db_->size());
  Shard& sh = *shards_[gid % num_shards];
  std::unique_lock<std::shared_mutex> shard_lock(sh.mu);
  // A one-shard slice IS the global database, and the index insert below
  // is then the single append.
  if (sh.db != global_db_) global_db_->AddSet(set);
  SetId local = sh.index->Insert(std::move(set));
  // The arithmetic mapping stays closed under inserts: the new local id
  // is exactly gid / num_shards.
  (void)local;
  return gid;
}

Status ShardedEngine::Delete(SetId id) {
  const size_t num_shards = shards_.size();
  // Same protocol as Insert: insert_mu_ serializes global-db mutation
  // and the validity check, the shard writer lock covers the index.
  std::lock_guard<std::mutex> global_lock(insert_mu_);
  if (id >= global_db_->size() || global_db_->is_deleted(id)) {
    return Status::NotFound("no live set with id " + std::to_string(id));
  }
  Shard& sh = *shards_[id % num_shards];
  std::unique_lock<std::shared_mutex> shard_lock(sh.mu);
  if (!sh.index->Delete(id / num_shards)) {
    return Status::Internal("shard delete failed for id " +
                            std::to_string(id));
  }
  // A one-shard slice IS the global database: the index delete above
  // already tombstoned it.
  if (sh.db != global_db_) global_db_->DeleteSet(id);
  return Status::OK();
}

Status ShardedEngine::Update(SetId id, SetRecord set) {
  const size_t num_shards = shards_.size();
  std::lock_guard<std::mutex> global_lock(insert_mu_);
  if (id >= global_db_->size() || global_db_->is_deleted(id)) {
    return Status::NotFound("no live set with id " + std::to_string(id));
  }
  Shard& sh = *shards_[id % num_shards];
  std::unique_lock<std::shared_mutex> shard_lock(sh.mu);
  if (sh.db != global_db_) global_db_->ReplaceSet(id, set);
  if (!sh.index->Update(id / num_shards, std::move(set))) {
    return Status::Internal("shard update failed for id " +
                            std::to_string(id));
  }
  return Status::OK();
}

std::shared_ptr<const SetDatabase> ShardedEngine::StableDb() const {
  // Every mutating op holds insert_mu_ while it touches global_db_, so a
  // copy taken under it is a consistent point-in-time view. O(|D|), by
  // design — the race-free read path trades a copy for zero overhead on
  // the mutation path.
  std::lock_guard<std::mutex> global_lock(insert_mu_);
  return std::make_shared<const SetDatabase>(*global_db_);
}

void ShardedEngine::StartMaintenance(
    const search::MaintenanceOptions& options) {
  if (maintenance_ != nullptr) return;
  maintenance_options_ = options;
  maintenance_ = std::make_unique<search::MaintenanceThread>(
      [this] {
        // One shard per wake, round-robin: the writer-lock critical
        // section stays bounded and queries on other shards never wait.
        const size_t s =
            maintenance_cursor_.fetch_add(1, std::memory_order_relaxed) %
            shards_.size();
        return MaintainShard(s);
      },
      options.interval);
}

void ShardedEngine::StopMaintenance() { maintenance_.reset(); }

Result<search::MaintenanceReport> ShardedEngine::MaintainNow() {
  search::MaintenanceReport total;
  for (size_t s = 0; s < shards_.size(); ++s) total += MaintainShard(s);
  return total;
}

search::MaintenanceReport ShardedEngine::MaintainShard(size_t s) {
  Shard& sh = *shards_[s];
  std::unique_lock<std::shared_mutex> lock(sh.mu);
  return search::MaintainIndexOnce(sh.index.get(), maintenance_options_,
                                   activities_[s].get());
}

Status ShardedEngine::Save(const std::string& path) const {
  std::lock_guard<std::mutex> global_lock(insert_mu_);
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& sh : shards_) locks.emplace_back(sh->mu);
  persist::SnapshotMeta meta;
  meta.backend = "sharded_les3";
  meta.measure = measure_;
  meta.bitmap_backend = bitmap_backend_;
  std::vector<const tgm::Tgm*> tgms;
  std::vector<const SetDatabase*> dbs;
  tgms.reserve(shards_.size());
  dbs.reserve(shards_.size());
  for (const auto& sh : shards_) {
    tgms.push_back(&sh->index->tgm());
    dbs.push_back(sh->db.get());
  }
  return persist::SaveShardedSnapshot(path, meta, *global_db_, tgms, dbs);
}

uint64_t ShardedEngine::IndexBytes() const {
  uint64_t total = 0;
  for (const auto& sh : shards_) {
    std::shared_lock<std::shared_mutex> lock(sh->mu);
    total += sh->index->IndexBytes();
  }
  return total;
}

std::string ShardedEngine::Describe() const {
  std::string s = "sharded_les3(shards=" + std::to_string(shards_.size()) +
                  ", measure=" + ToString(measure_) +
                  ", bitmap=" + bitmap::ToString(bitmap_backend_) +
                  ", groups=[";
  uint64_t dirt = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::shared_lock<std::shared_mutex> lock(shards_[i]->mu);
    if (i > 0) s += ",";
    s += std::to_string(shards_[i]->index->tgm().num_groups());
    dirt += shards_[i]->index->tgm().TotalDirt();
  }
  s += "]";
  if (from_snapshot_) {
    s += ", snapshot=v" + std::to_string(persist::kSnapshotVersionSharded);
  }
  s += ")";
  {
    // Population counters live in the global database; insert_mu_ is the
    // lock that guards it (taken after the shard locks above are
    // released, so there is no ordering inversion).
    std::lock_guard<std::mutex> global_lock(insert_mu_);
    if (global_db_->num_deleted() > 0) {
      s += " [live=" + std::to_string(global_db_->num_live()) +
           ", deleted=" + std::to_string(global_db_->num_deleted()) + "]";
    }
    // Mutation debt, when any exists: stale column bits awaiting
    // maintenance and arena tokens of tombstoned sets (both counted in
    // IndexBytes / memory reporting, attributed here).
    uint64_t garbage = global_db_->GarbageTokens();
    if (dirt != 0 || garbage != 0) {
      s += " [dirt=" + std::to_string(dirt) +
           ", garbage_tokens=" + std::to_string(garbage) + "]";
    }
  }
  return s;
}

}  // namespace shard
}  // namespace les3
