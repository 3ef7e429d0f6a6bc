// Served end-to-end benchmark: three workloads through a real
// serve::Server over loopback TCP, started inside this process so the
// server's counters and result-cache stats are readable.
//
//   perfbench_served --workload knn_closed|range_open|mixed_rw --seed N
//                    --seconds S --trace 0|1 [--out-dir DIR]
//
// Every workload runs on the KOSARAK analog generated from --seed, served
// by sharded_les3 with 4 shards and a pinned group count (1% of |D|
// overall) so that L2P actually trains. Set-up follows the deploy path
// (Build, Save, Open, Server::Start, first Ping) and is repeated; the
// median set-up is reported and the last server carries the workload.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, timed from spans this file records around calls into each
// module's public functions (README.md maps each one to the end-to-end
// metric it should move). The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when every answer was correct, 1 on a wrong answer, 2 when
// the run could not be set up.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine_builder.h"
#include "bench_util.h"
#include "core/similarity.h"
#include "datagen/analogs.h"
#include "datagen/generators.h"
#include "datagen/zipf.h"
#include "load.h"
#include "persist/snapshot.h"
#include "search/builder.h"
#include "search/les3_index.h"
#include "serve/client.h"
#include "serve/server.h"
#include "tgm/tgm.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace api = les3::api;
namespace serve = les3::serve;
namespace search = les3::search;
using les3::SetDatabase;
using les3::SetView;
using les3::Status;

constexpr uint32_t kShards = 4;
constexpr size_t kK = 10;
constexpr double kDelta = 0.8;

// Offered rate of range_open (README.md has the sweeps). Well below
// saturation, so queueing does not amplify the machine's own speed
// swings into the tail: at 10,000 req/s the calm-stretch p99 moved
// between runs about four times as much as at 5,000.
constexpr double kRangeOpenQps = 5000;

// mixed_rw: the writer's pause between mutations, and how often it asks
// for a maintenance cycle. The pause keeps the write rate low enough that
// reads repeat between two epoch bumps, so the cache both hits and
// invalidates.
constexpr int64_t kWriterThinkNs = 5'000'000;
constexpr size_t kMaintainEvery = 200;

// Latency percentiles are reported per stretch of this many consecutive
// requests (the fewest that leave ten samples beyond the 99th
// percentile), throughput per one-second window. The reported figure
// comes from the calmest tenth of them: the 10th percentile over the
// stretches, the 90th over the windows. On a shared machine, contention
// from other tenants comes and goes in bursts that cover anything from a
// few stretches to most of a run; a change to the program moves every
// stretch, the calm ones too.
constexpr size_t kStretch = 1000;
constexpr double kCalmShare = 0.1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  bool tiny = false;     // self-test corpus
  bool corrupt = false;  // self-test: corrupt one served answer
};

// Sizes that differ between the real run and the self-test's tiny corpus.
struct Scale {
  uint32_t num_sets = 0;  // 0 = the full analog
  // Set-ups per run; setup_s is their median.
  int setups = 3;
  size_t knn_pool = 2048;
  size_t range_pool = 4096;
  size_t mixed_pool = 4000;
  size_t gate_sample = 100;
  size_t replay = 200;
  size_t direct_writes = 200;
  // The idle write probe that gives the read-only workloads their write
  // latency: one connection issuing mutations back to back after the read
  // phase, for this long.
  double write_probe_s = 1.0;
  double warmup_s = 1.0;
};

Scale ScaleFor(const Args& args) {
  Scale scale;
  if (args.tiny) {
    scale.num_sets = 3000;
    scale.setups = 1;
    scale.knn_pool = 64;
    scale.range_pool = 64;
    scale.mixed_pool = 64;
    scale.gate_sample = 20;
    scale.replay = 20;
    scale.direct_writes = 20;
    scale.write_probe_s = 0.2;
    scale.warmup_s = 0.2;
  }
  return scale;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return les3::bench::PercentileSorted(v, p);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

std::vector<Latency> ByCompletion(std::vector<Latency> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Latency& a, const Latency& b) { return a.end_ns < b.end_ns; });
  return samples;
}

// Percentile `p` of the latencies; see kStretch.
double StretchPercentile(const std::vector<Latency>& samples, double p) {
  std::vector<Latency> ordered = ByCompletion(samples);
  std::vector<double> per_stretch;
  for (size_t begin = 0; begin + kStretch <= ordered.size();
       begin += kStretch) {
    std::vector<double> ms;
    for (size_t i = begin; i < begin + kStretch; ++i) {
      ms.push_back(ordered[i].ms);
    }
    per_stretch.push_back(Percentile(std::move(ms), p));
  }
  if (per_stretch.empty()) {  // too few samples for one stretch
    std::vector<double> ms;
    for (const Latency& l : ordered) ms.push_back(l.ms);
    return Percentile(std::move(ms), p);
  }
  return Percentile(std::move(per_stretch), kCalmShare);
}

// Successful requests per second; see kStretch.
double WindowedRate(const std::vector<Latency>& samples, int64_t start_ns,
                    int64_t end_ns) {
  const int64_t window = 1'000'000'000;
  const size_t windows = static_cast<size_t>((end_ns - start_ns) / window);
  if (windows == 0) {
    size_t ok = 0;
    for (const Latency& l : samples) ok += l.ok;
    return ok / ((end_ns - start_ns) / 1e9);
  }
  std::vector<double> per_window(windows, 0.0);
  for (const Latency& l : samples) {
    if (!l.ok || l.end_ns < start_ns) continue;
    size_t w = static_cast<size_t>((l.end_ns - start_ns) / window);
    if (w < windows) per_window[w] += 1;
  }
  return Percentile(std::move(per_window), 1.0 - kCalmShare);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

// ---------------------------------------------------------------------------
// Set-up: the documented deploy path.

struct Served {
  std::shared_ptr<api::SearchEngine> engine;
  std::unique_ptr<serve::Server> server;
};

struct SetupTimes {
  double total_s = 0, build_s = 0, save_s = 0, open_s = 0;
};

api::EngineOptions ServedEngineOptions(const SetDatabase& db) {
  api::EngineOptions options;
  options.backend = api::Backend::kShardedLes3;
  options.num_shards = kShards;
  // 1% of |D| overall (248 per shard on the full analog). The heuristic
  // default would give fewer groups per shard than the cascade's 128
  // initial groups, and L2P would never train.
  options.num_groups =
      (les3::bench::DefaultGroups(db.size()) + kShards - 1) / kShards;
  return options;
}

Status SetUp(const SetDatabase& db, const serve::ServerOptions& server_options,
             const std::string& snapshot, SpanBuffer* trace, Served* out,
             SetupTimes* times) {
  SetDatabase copy = db;
  const uint64_t root = trace ? trace->Reserve() : 0;
  int64_t t0 = NowNs();
  auto built = api::EngineBuilder::Build(std::move(copy),
                                         ServedEngineOptions(db));
  if (!built.ok()) return built.status();
  int64_t t1 = NowNs();
  LES3_RETURN_NOT_OK(built.value()->Save(snapshot));
  built.value().reset();
  int64_t t2 = NowNs();
  api::OpenOptions open_options;
  open_options.backend = "sharded_les3";
  auto opened = api::EngineBuilder::Open(snapshot, open_options);
  if (!opened.ok()) return opened.status();
  out->engine = std::move(opened).ValueOrDie();
  int64_t t3 = NowNs();
  out->server = std::make_unique<serve::Server>(out->engine, server_options);
  LES3_RETURN_NOT_OK(out->server->Start());
  int64_t t4 = NowNs();
  auto client = serve::Client::Connect("127.0.0.1", out->server->port(), 30000);
  if (!client.ok()) return client.status();
  LES3_RETURN_NOT_OK(client.value().Ping());
  int64_t t5 = NowNs();
  if (trace) {
    trace->Record("api.build", t0, t1, root, 0);
    trace->Record("persist.save", t1, t2, root, 0);
    trace->Record("persist.open", t2, t3, root, 0);
    trace->Record("serve.start", t3, t4, root, 0);
    trace->Record("serve.ping", t4, t5, root, 0);
    trace->Add(root, "setup", t0, t5, 0, 0);
  }
  times->total_s = (t5 - t0) / 1e9;
  times->build_s = (t1 - t0) / 1e9;
  times->save_s = (t2 - t1) / 1e9;
  times->open_s = (t3 - t2) / 1e9;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Workloads. Each drives the served engine for `seconds` and returns what
// the clients saw; the caller owns set-up, metrics and the traced extras.

struct Pools {
  std::vector<SetRecord> queries;
  std::vector<std::vector<Hit>> expected_knn;
  std::vector<std::vector<Hit>> expected_range;
};

std::vector<SetRecord> SampleQueries(const SetDatabase& db, size_t count,
                                     uint64_t seed) {
  std::vector<SetRecord> out;
  for (SetId id : les3::datagen::SampleQueryIds(db, count, seed)) {
    out.emplace_back(db.set(id));
  }
  return out;
}

std::vector<std::vector<Hit>> HitsOf(std::vector<api::QueryResult> results) {
  std::vector<std::vector<Hit>> out;
  out.reserve(results.size());
  for (auto& r : results) out.push_back(std::move(r.hits));
  return out;
}

struct Phase {
  LoadResult load;
  int64_t start_ns = 0;  // the measured interval
  int64_t end_ns = 0;
};

// kNN k=10, cache off, two closed-loop connections.
Phase RunKnnClosed(uint16_t port, const Pools& pools, const Args& args,
                   double seconds, Tracer* tracer, bool corrupt) {
  ReadPool pool;
  pool.queries = &pools.queries;
  pool.k = kK;
  pool.expected_knn = &pools.expected_knn;
  std::vector<LoadResult> results(2);
  std::vector<std::thread> threads;
  int64_t start = NowNs();
  int64_t until = start + static_cast<int64_t>(seconds * 1e9);
  for (size_t c = 0; c < results.size(); ++c) {
    SpanBuffer* buffer = tracer->NewBuffer();
    threads.emplace_back([&, c, buffer] {
      les3::Rng rng(args.seed * 1000 + c);
      ReadPool mine = pool;
      mine.corrupt_first = corrupt && c == 0;
      results[c] = RunClosedReader(
          port, mine,
          [&] {
            return ReadOp{true, static_cast<uint32_t>(
                                    rng.Uniform(pools.queries.size()))};
          },
          until, 0, buffer, (c + 1) << 32);
    });
  }
  for (auto& t : threads) t.join();
  Phase phase;
  phase.start_ns = start;
  phase.end_ns = until;
  for (const auto& r : results) phase.load.Merge(r);
  return phase;
}

// Range delta=0.8, cache off, two connections in open loop at
// kRangeOpenQps in total (Poisson arrivals).
Phase RunRangeOpen(uint16_t port, const Pools& pools, const Args& args,
                   double seconds, Tracer* tracer, bool corrupt) {
  ReadPool pool;
  pool.queries = &pools.queries;
  pool.delta = kDelta;
  pool.expected_range = &pools.expected_range;
  const size_t connections = 2;
  std::vector<OpenSchedule> schedules;
  for (size_t c = 0; c < connections; ++c) {
    schedules.push_back(PoissonSchedule(kRangeOpenQps / connections, seconds,
                                        pools.queries.size(), false,
                                        args.seed * 1000 + c));
  }
  std::vector<LoadResult> results(connections);
  std::vector<std::thread> threads;
  // A short lead so both senders are running before the first due time.
  int64_t start = NowNs() + 20'000'000;
  for (size_t c = 0; c < connections; ++c) {
    SpanBuffer* send_buffer = tracer->NewBuffer();
    SpanBuffer* recv_buffer = tracer->NewBuffer();
    threads.emplace_back([&, c, send_buffer, recv_buffer] {
      ReadPool mine = pool;
      mine.corrupt_first = corrupt && c == 0;
      results[c] = RunOpenConnection(port, mine, schedules[c], start,
                                     send_buffer, recv_buffer, (c + 1) << 32);
    });
  }
  for (auto& t : threads) t.join();
  Phase phase;
  phase.start_ns = start;  // the offered schedule's span
  phase.end_ns = start + static_cast<int64_t>(seconds * 1e9);
  for (const auto& r : results) phase.load.Merge(r);
  return phase;
}

// Reads the mixed_rw readers draw: Zipf-skewed over the pool (rank 0 is
// hottest), one kNN in four, the rest Range. A milder skew over a larger
// pool keeps a few hot queries from deciding the run's cost, and with
// three Range reads per kNN the median sits inside one latency mode
// (Range misses) instead of between two.
class MixedReads {
 public:
  MixedReads(size_t pool_size, uint64_t seed)
      : zipf_(pool_size, 0.9), rng_(seed) {}
  ReadOp Next() {
    bool knn = rng_.Bernoulli(0.25);
    return ReadOp{knn, static_cast<uint32_t>(zipf_.Sample(&rng_))};
  }

 private:
  les3::datagen::ZipfSampler zipf_;
  les3::Rng rng_;
};

WriteMix MakeWriteMix(const SetDatabase& db, const Scale& scale,
                      uint64_t seed) {
  const auto& spec = les3::datagen::AnalogSpecByName("KOSARAK");
  uint32_t incoming_sets = scale.num_sets > 0 ? scale.num_sets : 20000;
  return WriteMix(
      les3::datagen::GenerateAnalogSample(spec, incoming_sets, seed + 7919),
      db.num_tokens(), db.size(), seed);
}

// Three closed-loop readers (cache on) beside one closed-loop writer that
// inserts, deletes and updates with drifting content and asks for a
// maintenance cycle every kMaintainEvery mutations.
Phase RunMixedRw(uint16_t port, const Pools& pools, const Args& args,
                 double seconds, WriteMix* writes, Tracer* tracer) {
  ReadPool pool;
  pool.queries = &pools.queries;
  pool.k = kK;
  pool.delta = kDelta;
  std::vector<LoadResult> results(4);
  std::vector<std::thread> threads;
  int64_t start = NowNs();
  int64_t until = start + static_cast<int64_t>(seconds * 1e9);
  for (size_t c = 0; c < 3; ++c) {
    SpanBuffer* buffer = tracer->NewBuffer();
    threads.emplace_back([&, c, buffer] {
      MixedReads reads(pools.queries.size(), args.seed * 1000 + c);
      results[c] = RunClosedReader(
          port, pool, [&] { return reads.Next(); }, until, 0, buffer,
          (c + 1) << 32);
    });
  }
  SpanBuffer* writer_buffer = tracer->NewBuffer();
  threads.emplace_back([&, writer_buffer] {
    WriterOptions options;
    options.until_ns = until;
    options.think_ns = kWriterThinkNs;
    options.maintain_every = kMaintainEvery;
    results[3] = RunWriter(port, writes, options, writer_buffer, 4ull << 32);
  });
  for (auto& t : threads) t.join();
  Phase phase;
  phase.start_ns = start;
  phase.end_ns = until;
  for (const auto& r : results) phase.load.Merge(r);
  return phase;
}

// mixed_rw correctness: with every connection quiesced, a sample of pool
// queries (the hottest ranks first, so cached entries are exercised) is
// served and compared byte for byte against brute force over the engine's
// current database.
LoadResult GateAgainstBruteForce(uint16_t port, const api::SearchEngine& engine,
                                 const Pools& pools, size_t sample,
                                 bool corrupt) {
  LoadResult out;
  auto db = std::make_shared<SetDatabase>(*engine.StableDb());
  auto brute = api::EngineBuilder::Build(db, "brute_force");
  if (!brute.ok()) {
    out.Fail(brute.status().ToString());
    return out;
  }
  std::vector<std::vector<Hit>> knn, range;
  std::vector<SetRecord> queries(
      pools.queries.begin(),
      pools.queries.begin() + std::min(sample, pools.queries.size()));
  for (const SetRecord& q : queries) {
    knn.push_back(brute.value()->Knn(q.view(), kK).hits);
    range.push_back(brute.value()->Range(q.view(), kDelta).hits);
  }
  ReadPool pool;
  pool.queries = &queries;
  pool.k = kK;
  pool.delta = kDelta;
  pool.expected_knn = &knn;
  pool.expected_range = &range;
  pool.corrupt_first = corrupt;
  // kNN, Range, then both again: the second round is served from the
  // cache the first one filled.
  size_t i = 0;
  return RunClosedReader(
      port, pool,
      [&] {
        size_t n = i++;
        return ReadOp{(n / queries.size()) % 2 == 0,
                      static_cast<uint32_t>(n % queries.size())};
      },
      INT64_MAX, 4 * queries.size(), nullptr, 0);
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[96];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> items_;
};

// Server-side counters over one interval.
struct ServerDelta {
  serve::Server::Counters counters;
  serve::ResultCache::Stats cache;
};

ServerDelta Snapshot(const serve::Server& server) {
  ServerDelta d;
  d.counters = server.counters();
  if (server.cache()) d.cache = server.cache()->stats();
  return d;
}

ServerDelta Minus(const ServerDelta& a, const ServerDelta& b) {
  ServerDelta d;
  d.counters.requests_ok = a.counters.requests_ok - b.counters.requests_ok;
  d.counters.requests_error =
      a.counters.requests_error - b.counters.requests_error;
  d.counters.overloaded = a.counters.overloaded - b.counters.overloaded;
  d.counters.deadline_exceeded =
      a.counters.deadline_exceeded - b.counters.deadline_exceeded;
  d.cache.hits = a.cache.hits - b.cache.hits;
  d.cache.misses = a.cache.misses - b.cache.misses;
  d.cache.evictions = a.cache.evictions - b.cache.evictions;
  d.cache.invalidations = a.cache.invalidations - b.cache.invalidations;
  return d;
}

// The id-mod-S split the sharded engine applies (shard/sharded_engine.h),
// so the per-shard indexes below cover exactly the served shards.
std::vector<std::shared_ptr<SetDatabase>> SplitById(const SetDatabase& db,
                                                    size_t shards) {
  std::vector<std::shared_ptr<SetDatabase>> slices(shards);
  for (auto& s : slices) s = std::make_shared<SetDatabase>();
  for (SetId gid = 0; gid < db.size(); ++gid) {
    SetId local = slices[gid % shards]->AddSet(db.set(gid));
    if (db.is_deleted(gid)) slices[gid % shards]->DeleteSet(local);
  }
  return slices;
}

// Per-query layer costs from replaying reads directly against the engine
// (shard layer), against each shard's Les3Index (search layer) and against
// each shard's Tgm (probe). Per-query figures sum over the shards.
struct Replay {
  std::vector<double> shard_us, dispatch_us, search_us, probe_us;
  std::vector<double> verified, skipped, visited, pruned, pe, columns;
};

Status ReplayReads(const api::SearchEngine& engine, const std::string& snapshot,
                   const std::vector<SetRecord>& queries,
                   const std::vector<ReadOp>& ops, SpanBuffer* trace,
                   Replay* out) {
  LES3_RETURN_NOT_OK(engine.Save(snapshot));
  auto loaded = les3::persist::LoadSnapshot(snapshot);
  if (!loaded.ok()) return loaded.status();
  les3::persist::LoadedSnapshot snap = std::move(loaded).ValueOrDie();
  auto slices = SplitById(*snap.db, snap.shards.size());
  std::vector<std::unique_ptr<search::Les3Index>> shards;
  for (size_t s = 0; s < slices.size(); ++s) {
    shards.push_back(std::make_unique<search::Les3Index>(
        slices[s], std::move(snap.shards[s].tgm), snap.meta.measure));
  }
  std::vector<uint32_t> counts;
  std::vector<les3::GroupId> candidates;
  for (size_t r = 0; r < ops.size(); ++r) {
    const ReadOp& op = ops[r];
    SetView q = queries[op.query].view();
    const uint64_t root = trace->Reserve();
    int64_t r0 = NowNs();
    int64_t t0 = NowNs();
    api::QueryResult direct =
        op.knn ? engine.Knn(q, kK) : engine.Range(q, kDelta);
    int64_t t1 = NowNs();
    trace->Record("shard.query", t0, t1, root, r);
    double search_us = 0, probe_us = 0, slowest_us = 0;
    search::QueryStats sum;
    for (const auto& index : shards) {
      search::QueryStats stats;
      int64_t s0 = NowNs();
      if (op.knn) {
        index->Knn(q, kK, &stats);
      } else {
        index->Range(q, kDelta, &stats);
      }
      int64_t s1 = NowNs();
      trace->Record("search.query", s0, s1, root, r);
      search_us += (s1 - s0) / 1e3;
      slowest_us = std::max(slowest_us, (s1 - s0) / 1e3);
      sum.candidates_verified += stats.candidates_verified;
      sum.candidates_size_skipped += stats.candidates_size_skipped;
      sum.groups_visited += stats.groups_visited;
      sum.groups_pruned += stats.groups_pruned;
      sum.columns_scanned += stats.columns_scanned;
      // The probe on its own, with the threshold the verifier uses.
      size_t min_count =
          op.knn ? (q.size() == 0 ? 0 : 1)
                 : les3::MinOverlapForThreshold(snap.meta.measure, q.size(),
                                                kDelta);
      int64_t p0 = NowNs();
      if (min_count <= q.size()) {
        index->tgm().MatchedCandidates(q, static_cast<uint32_t>(min_count),
                                       &counts, &candidates);
      }
      int64_t p1 = NowNs();
      trace->Record("tgm.probe", p0, p1, root, r);
      probe_us += (p1 - p0) / 1e3;
    }
    trace->Add(root, "replay", r0, NowNs(), 0, r);
    out->shard_us.push_back((t1 - t0) / 1e3);
    // Scatter, merge and pool hand-off beyond the slowest shard's probe.
    out->dispatch_us.push_back((t1 - t0) / 1e3 - slowest_us);
    out->search_us.push_back(search_us);
    out->probe_us.push_back(probe_us);
    out->verified.push_back(static_cast<double>(sum.candidates_verified));
    out->skipped.push_back(static_cast<double>(sum.candidates_size_skipped));
    out->visited.push_back(static_cast<double>(sum.groups_visited));
    out->pruned.push_back(static_cast<double>(sum.groups_pruned));
    out->columns.push_back(static_cast<double>(sum.columns_scanned));
    out->pe.push_back(direct.stats.pruning_efficiency);
  }
  return Status::OK();
}

// Direct engine mutations (no server in the way), then maintenance cycles
// until one finds nothing to do.
struct DirectWrites {
  std::vector<double> insert_us, delete_us, update_us, maintain_ms;
  search::MaintenanceReport maintained;
  uint64_t failed = 0;
};

DirectWrites RunDirectWrites(api::SearchEngine* engine, WriteMix* mix,
                             size_t per_kind, SpanBuffer* trace) {
  DirectWrites out;
  while (out.insert_us.size() < per_kind || out.delete_us.size() < per_kind ||
         out.update_us.size() < per_kind) {
    WriteMix::Op op = mix->Next();
    int64_t t0 = NowNs();
    Status st;
    const char* name = "shard.insert";
    std::vector<double>* sink = &out.insert_us;
    switch (op.kind) {
      case WriteMix::Kind::kInsert:
        st = engine->Insert(op.set).status();
        break;
      case WriteMix::Kind::kDelete:
        st = engine->Delete(op.id);
        name = "shard.delete";
        sink = &out.delete_us;
        break;
      case WriteMix::Kind::kUpdate:
        st = engine->Update(op.id, op.set);
        name = "shard.update";
        sink = &out.update_us;
        break;
    }
    int64_t t1 = NowNs();
    trace->Record(name, t0, t1, 0, 0);
    sink->push_back((t1 - t0) / 1e3);
    if (!st.ok()) ++out.failed;
  }
  for (int cycle = 0; cycle < 64; ++cycle) {
    int64_t t0 = NowNs();
    auto report = engine->MaintainNow();
    int64_t t1 = NowNs();
    trace->Record("search.maintain", t0, t1, 0, 0);
    out.maintain_ms.push_back((t1 - t0) / 1e6);
    if (!report.ok()) {
      ++out.failed;
      break;
    }
    out.maintained += report.value();
    if (report.value().splits + report.value().recomputes == 0) break;
  }
  return out;
}

// L2P and the TGM constructor on shard 0's slice, with the options the
// sharded build passes each shard (shard/sharded_engine.cc).
void TimePartitioning(const SetDatabase& db, SpanBuffer* trace,
                      double* partition_s, double* tgm_s) {
  api::EngineOptions options = ServedEngineOptions(db);
  auto slices = SplitById(db, kShards);
  les3::l2p::CascadeOptions cascade = options.cascade;
  size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  cascade.num_threads = std::max<size_t>(1, hw / kShards);
  cascade.pairs_per_model =
      std::max(std::min<size_t>(2000, cascade.pairs_per_model),
               cascade.pairs_per_model / kShards);
  uint32_t groups = search::ResolveNumGroups(*slices[0], options.num_groups);
  int64_t t0 = NowNs();
  auto part = search::PartitionWithL2P(*slices[0], groups, options.measure,
                                       cascade);
  int64_t t1 = NowNs();
  les3::tgm::Tgm tgm(*slices[0], part.assignment, part.num_groups,
                     options.bitmap_backend);
  int64_t t2 = NowNs();
  trace->Record("l2p.partition", t0, t1, 0, 0);
  trace->Record("tgm.build", t1, t2, 0, 0);
  *partition_s = (t1 - t0) / 1e9;
  *tgm_s = (t2 - t1) / 1e9;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (arg == "--corrupt") {
      args->corrupt = true;
      continue;
    }
    if (value == nullptr) return false;
    ++i;
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atof(value);
    } else if (arg == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (arg == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return (args->workload == "knn_closed" || args->workload == "range_open" ||
          args->workload == "mixed_rw") &&
         args->seconds > 0;
}

int Run(const Args& args) {
  const Scale scale = ScaleFor(args);
  const bool knn_closed = args.workload == "knn_closed";
  const bool range_open = args.workload == "range_open";
  const bool mixed_rw = args.workload == "mixed_rw";
  Tracer tracer(args.trace);
  SpanBuffer* main_trace = tracer.NewBuffer();

  const auto& spec = les3::datagen::AnalogSpecByName("KOSARAK");
  SetDatabase db = scale.num_sets > 0
                       ? les3::datagen::GenerateAnalogSample(
                             spec, scale.num_sets, args.seed)
                       : les3::datagen::GenerateAnalog(spec, args.seed);

  serve::ServerOptions server_options;
  server_options.io_workers = 1;
  server_options.executors = 2;
  server_options.batch_window = 16;
  // Deep enough that a stall of the whole machine for tens of
  // milliseconds, which at range_open's rate backs up hundreds of
  // requests, queues them instead of fast-rejecting them: the benchmark
  // measures latency under load, not admission control. Closed-loop
  // workloads never have more requests pending than connections.
  server_options.max_pending = 4096;
  server_options.cache_bytes = mixed_rw ? (64u << 20) : 0;

  mkdir(args.out_dir.c_str(), 0755);
  const std::string stem = args.out_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + "-" +
                           std::to_string(getpid());
  const std::string snapshot = stem + ".snap";

  Served served;
  std::vector<SetupTimes> setups;
  for (int i = 0; i < scale.setups; ++i) {
    if (served.server) served.server->Shutdown();
    served = Served();
    SetupTimes times;
    Status st = SetUp(db, server_options, snapshot, main_trace, &served,
                      &times);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      std::remove(snapshot.c_str());
      return 2;
    }
    setups.push_back(times);
  }
  const uint16_t port = served.server->port();
  const double index_mb = served.engine->IndexBytes() / 1e6;
  struct stat snapshot_stat;
  const double snapshot_mb =
      stat(snapshot.c_str(), &snapshot_stat) == 0 ? snapshot_stat.st_size / 1e6
                                                  : 0.0;

  // Query pools and, for the read-only workloads, the reference answers
  // from direct engine calls on the same queries.
  Pools pools;
  size_t pool_size = knn_closed   ? scale.knn_pool
                     : range_open ? scale.range_pool
                                  : scale.mixed_pool;
  pools.queries = SampleQueries(db, pool_size, args.seed * 31 + 1);
  if (knn_closed) {
    pools.expected_knn = HitsOf(served.engine->KnnBatch(pools.queries, kK));
  }
  if (range_open) {
    pools.expected_range =
        HitsOf(served.engine->RangeBatch(pools.queries, kDelta));
  }
  WriteMix writes = MakeWriteMix(db, scale, args.seed);

  // The measured phase. A traced run spends its first half untraced and
  // its second half traced, so it can report what tracing costs.
  Tracer untraced(false);
  auto run_phase = [&](double seconds, Tracer* t, bool corrupt) {
    if (knn_closed) {
      return RunKnnClosed(port, pools, args, seconds, t, corrupt);
    }
    if (range_open) {
      return RunRangeOpen(port, pools, args, seconds, t, corrupt);
    }
    return RunMixedRw(port, pools, args, seconds, &writes, t);
  };
  // Unmeasured warm-up under the same load: lazily created engine and
  // server state, the cache and the scheduler settle before timing.
  const Phase warmup = run_phase(scale.warmup_s, &untraced, false);
  ServerDelta before = Snapshot(*served.server);
  Phase phase;
  Phase plain;
  if (args.trace) {
    plain = run_phase(args.seconds / 2, &untraced, args.corrupt);
    before = Snapshot(*served.server);
    phase = run_phase(args.seconds / 2, &tracer, false);
  } else {
    phase = run_phase(args.seconds, &untraced, args.corrupt);
  }
  ServerDelta served_delta = Minus(Snapshot(*served.server), before);
  const double peak_rss_mb = PeakRssMb();

  LoadResult all = warmup.load;
  all.Merge(plain.load);
  all.Merge(phase.load);
  if (mixed_rw) {
    all.Merge(GateAgainstBruteForce(port, *served.engine, pools,
                                    scale.gate_sample, args.corrupt));
  }

  Metrics metrics;
  if (!args.trace) {
    LoadResult writes_seen = phase.load;
    if (!mixed_rw) {
      // The read-only workloads take their write latency from an idle
      // probe after the read phase.
      WriterOptions probe;
      probe.until_ns = NowNs() + static_cast<int64_t>(scale.write_probe_s * 1e9);
      writes_seen = RunWriter(port, &writes, probe, nullptr, 0);
      all.Merge(writes_seen);
    }
    std::vector<double> setup_s;
    for (const auto& s : setups) setup_s.push_back(s.total_s);
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("index_mb", index_mb, "MB");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
    metrics.Add("qps",
                WindowedRate(phase.load.reads, phase.start_ns, phase.end_ns),
                "1/s");
    metrics.Add("p50_ms", StretchPercentile(phase.load.reads, 0.50), "ms");
    metrics.Add("p99_ms", StretchPercentile(phase.load.reads, 0.99), "ms");
    metrics.Add("write_p50_ms", StretchPercentile(writes_seen.writes, 0.50),
                "ms");
    metrics.Add("write_p99_ms", StretchPercentile(writes_seen.writes, 0.99),
                "ms");
    metrics.Add("success_rate",
                all.attempted == 0
                    ? 0.0
                    : 1.0 - static_cast<double>(all.failed) / all.attempted,
                "ratio");
  } else {
    // Replayed reads: the workload's own mix, a fixed number of them.
    std::vector<ReadOp> ops;
    les3::Rng rng(args.seed * 77 + 5);
    MixedReads mixed(pools.queries.size(), args.seed * 77 + 6);
    for (size_t i = 0; i < scale.replay; ++i) {
      ops.push_back(mixed_rw ? mixed.Next()
                             : ReadOp{knn_closed,
                                      static_cast<uint32_t>(
                                          rng.Uniform(pools.queries.size()))});
    }
    Replay replay;
    Status st = ReplayReads(*served.engine, stem + "-replay.snap",
                            pools.queries, ops, main_trace, &replay);
    std::remove((stem + "-replay.snap").c_str());
    if (!st.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", st.ToString().c_str());
      std::remove(snapshot.c_str());
      return 2;
    }
    DirectWrites direct = RunDirectWrites(served.engine.get(), &writes,
                                          scale.direct_writes, main_trace);
    all.failed += direct.failed;
    double partition_s = 0, tgm_s = 0;
    TimePartitioning(db, main_trace, &partition_s, &tgm_s);

    std::vector<Span> spans = tracer.Collect();
    const double rtt_us = Median(DurationsUs(spans, "client.request"));
    const double plain_p50 = StretchPercentile(plain.load.reads, 0.5);
    const double traced_p50 = StretchPercentile(phase.load.reads, 0.5);
    const uint64_t lookups = served_delta.cache.hits + served_delta.cache.misses;
    const double search_us = Mean(replay.search_us);
    const double probe_us = Mean(replay.probe_us);
    const double verified = Mean(replay.verified);
    std::vector<double> build_s, save_s, open_s;
    for (const auto& s : setups) {
      build_s.push_back(s.build_s);
      save_s.push_back(s.save_s);
      open_s.push_back(s.open_s);
    }

    metrics.Add("serve.overhead_us", rtt_us - Median(replay.shard_us), "us");
    metrics.Add("serve.requests_ok", served_delta.counters.requests_ok,
                "count");
    metrics.Add("serve.requests_error", served_delta.counters.requests_error,
                "count");
    metrics.Add("serve.overloaded", served_delta.counters.overloaded, "count");
    metrics.Add("serve.deadline_exceeded",
                served_delta.counters.deadline_exceeded, "count");
    metrics.Add("serve.cache_lookups", lookups, "count");
    metrics.Add("serve.cache_hit_rate",
                lookups == 0 ? 0.0
                             : static_cast<double>(served_delta.cache.hits) /
                                   lookups,
                "ratio");
    metrics.Add("serve.cache_invalidations", served_delta.cache.invalidations,
                "count");
    metrics.Add("serve.cache_evictions", served_delta.cache.evictions,
                "count");
    metrics.Add("loadgen.lag_p99_ms", Percentile(phase.load.lag_ms, 0.99),
                "ms");
    metrics.Add("trace.overhead_pct",
                plain_p50 > 0 ? 100.0 * (traced_p50 - plain_p50) / plain_p50
                              : 0.0,
                "%");
    metrics.Add("shard.query_us", Median(replay.shard_us), "us");
    metrics.Add("shard.dispatch_us", Median(replay.dispatch_us), "us");
    metrics.Add("shard.insert_us", Median(direct.insert_us), "us");
    metrics.Add("shard.delete_us", Median(direct.delete_us), "us");
    metrics.Add("shard.update_us", Median(direct.update_us), "us");
    metrics.Add("search.query_us", search_us, "us");
    metrics.Add("search.candidates_verified", verified, "count");
    metrics.Add("search.size_skipped", Mean(replay.skipped), "count");
    metrics.Add("search.groups_visited", Mean(replay.visited), "count");
    metrics.Add("search.groups_pruned", Mean(replay.pruned), "count");
    metrics.Add("search.pruning_efficiency", Mean(replay.pe), "ratio");
    metrics.Add("search.maintain_ms", Mean(direct.maintain_ms), "ms");
    metrics.Add("search.maintain_splits", direct.maintained.splits, "count");
    metrics.Add("search.maintain_recomputes", direct.maintained.recomputes,
                "count");
    metrics.Add("search.maintain_bits_dropped", direct.maintained.bits_dropped,
                "count");
    metrics.Add("tgm.probe_us", probe_us, "us");
    metrics.Add("tgm.columns_scanned", Mean(replay.columns), "count");
    metrics.Add("core.verify_ns_per_candidate",
                verified > 0 ? (search_us - probe_us) * 1e3 / verified : 0.0,
                "ns");
    metrics.Add("l2p.partition_s", partition_s, "s");
    metrics.Add("tgm.build_s", tgm_s, "s");
    metrics.Add("api.build_s", Median(build_s), "s");
    metrics.Add("persist.save_s", Median(save_s), "s");
    metrics.Add("persist.open_s", Median(open_s), "s");
    metrics.Add("persist.snapshot_mb", snapshot_mb, "MB");

    const std::string span_path = stem + ".spans.jsonl";
    std::fprintf(stderr, "%s", SummarizeSpans(spans).c_str());
    if (WriteSpans(spans, span_path)) {
      std::fprintf(stderr, "spans: %zu written to %s\n", spans.size(),
                   span_path.c_str());
    }
  }

  served.server->Shutdown();
  std::remove(snapshot.c_str());

  if (all.attempted == 0) {
    std::fprintf(stderr, "%s: no request was sent\n", args.workload.c_str());
    return 2;
  }
  const bool correct = all.mismatches == 0;
  if (!all.first_error.empty()) {
    std::fprintf(stderr, "%s: %llu failed, %llu wrong; first: %s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(all.failed),
                 static_cast<unsigned long long>(all.mismatches),
                 all.first_error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(all.attempted),
      static_cast<unsigned long long>(all.failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_served --workload "
                 "knn_closed|range_open|mixed_rw --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
