// Batched vs sequential probe throughput (docs/query_pipeline.md,
// "Batched probes").
//
// On the KOSARAK analog, the same query workload is answered two ways:
// one Knn/Range call per query (`seq`; each call is a batch of one inside
// the engine) and KnnBatch/RangeBatch over groups of 1 / 8 / 64 / 256
// queries, on two engine configurations:
//
//   les3     a single index (990 groups, bench cascade): isolates the
//            fused column walk itself — batching wins only what probe
//            fusion saves, so the speedup here is bounded by the probe's
//            share of query time (small on kNN, where verification
//            dominates);
//   sharded4 sharded_les3 with 4 shards and heuristic group counts —
//            the CI serving snapshot configuration. Here batching
//            additionally amortizes the per-query scatter-gather tax
//            (one pool dispatch per (query, shard) collapses to one per
//            (chunk, shard)), which is where the headline Range speedup
//            comes from.
//
// The token-overlap regimes vary how much of the column walk a batch
// can share:
//
//   zipf  queries sampled from the database itself: the natural KOSARAK
//         workload, Zipf-headed, the acceptance regime;
//   hot   synthetic queries drawn from the 32 hottest tokens: every
//         column is shared by most of the batch (best case);
//   cold  synthetic queries on disjoint tail-token ranges: no column is
//         shared, so batching can only win on loop overhead (worst
//         case — the floor must still be ~1x, never a regression cliff).
//
// Every batched run is first checked byte-exact against the sequential
// answers (ids and similarity bit patterns); a mismatch aborts the
// bench. Output: an aligned table with speedups, micro_batch_probe.csv,
// and BENCH_batch_probe.json rows in the shared BatchReport schema for
// the CI perf-smoke artifact (argv[1] overrides the JSON path).

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine_builder.h"
#include "bench_util.h"
#include "datagen/analogs.h"

namespace les3 {
namespace {

constexpr size_t kNumQueries = 512;
constexpr size_t kKnnK = 10;
constexpr double kRangeDelta = 0.8;
constexpr int kRepeats = 3;  // best-of, to shed scheduler noise

std::vector<SetRecord> RegimeQueries(const SetDatabase& db,
                                     const std::string& regime) {
  std::vector<SetRecord> queries;
  queries.reserve(kNumQueries);
  if (regime == "zipf") {
    for (SetId qid : datagen::SampleQueryIds(db, kNumQueries, /*seed=*/11)) {
      queries.emplace_back(db.set(qid));
    }
  } else if (regime == "hot") {
    // Eight tokens per query from the 32 hottest ids (Zipf orders token
    // popularity by id), strided so consecutive queries overlap heavily
    // without being identical.
    for (size_t i = 0; i < kNumQueries; ++i) {
      std::vector<TokenId> tokens;
      for (size_t j = 0; j < 8; ++j) {
        tokens.push_back(static_cast<TokenId>((i * 3 + j * 5) % 32));
      }
      queries.push_back(SetRecord::FromTokens(std::move(tokens)));
    }
  } else {  // cold: disjoint 8-token windows in the tail half
    const TokenId tail = db.num_tokens() / 2;
    for (size_t i = 0; i < kNumQueries; ++i) {
      std::vector<TokenId> tokens;
      TokenId base = static_cast<TokenId>(
          tail + (i * 8) % (db.num_tokens() - tail - 8));
      for (TokenId j = 0; j < 8; ++j) tokens.push_back(base + j);
      queries.push_back(SetRecord::FromSortedTokens(std::move(tokens)));
    }
  }
  return queries;
}

struct RunStats {
  double wall_s = 0.0;
  uint64_t hits = 0;
  uint64_t verified = 0;
  uint64_t size_skipped = 0;
  std::vector<double> ms;  // per-query latency samples
  std::vector<std::vector<Hit>> answers;
};

void Absorb(RunStats* run, const api::QueryResult& result) {
  run->hits += result.hits.size();
  run->verified += result.stats.candidates_verified;
  run->size_skipped += result.stats.candidates_size_skipped;
  run->ms.push_back(result.TotalMs());
  run->answers.push_back(result.hits);
}

/// One pass over the workload, batched into groups of `batch` (0 = the
/// sequential per-query baseline). Chunks are pre-sliced so the timed
/// region holds only engine work.
RunStats RunOnce(const api::SearchEngine& engine,
                 const std::vector<SetRecord>& queries, bool knn,
                 size_t batch) {
  RunStats run;
  run.ms.reserve(queries.size());
  run.answers.reserve(queries.size());
  if (batch == 0) {
    WallTimer timer;
    for (const SetRecord& q : queries) {
      Absorb(&run, knn ? engine.Knn(q.view(), kKnnK)
                       : engine.Range(q.view(), kRangeDelta));
    }
    run.wall_s = timer.Seconds();
    return run;
  }
  std::vector<std::vector<SetRecord>> chunks;
  for (size_t i = 0; i < queries.size(); i += batch) {
    size_t n = std::min(batch, queries.size() - i);
    chunks.emplace_back(queries.begin() + i, queries.begin() + i + n);
  }
  WallTimer timer;
  for (const auto& chunk : chunks) {
    auto results = knn ? engine.KnnBatch(chunk, kKnnK)
                       : engine.RangeBatch(chunk, kRangeDelta);
    for (const auto& result : results) Absorb(&run, result);
  }
  run.wall_s = timer.Seconds();
  return run;
}

bool SameAnswers(const RunStats& a, const RunStats& b) {
  if (a.answers.size() != b.answers.size()) return false;
  for (size_t q = 0; q < a.answers.size(); ++q) {
    if (a.answers[q].size() != b.answers[q].size()) return false;
    for (size_t r = 0; r < a.answers[q].size(); ++r) {
      if (a.answers[q][r].first != b.answers[q][r].first) return false;
      // Bit comparison, not tolerance: == on doubles is exactly that.
      if (a.answers[q][r].second != b.answers[q][r].second) return false;
    }
  }
  return true;
}

bench::BatchReport MakeReport(const std::string& label, bool knn,
                              const RunStats& run) {
  bench::BatchReport report;
  report.tool = "micro_batch_probe";
  report.label = label;
  report.mode = knn ? "knn" : "range";
  report.param = knn ? static_cast<double>(kKnnK) : kRangeDelta;
  report.clients = 1;
  report.cores = std::thread::hardware_concurrency();
  report.latency = bench::SummarizeLatencies(run.ms, run.wall_s);
  report.hits_total = run.hits;
  report.have_engine_stats = true;
  report.candidates_verified = run.verified;
  report.candidates_size_skipped = run.size_skipped;
  return report;
}

}  // namespace
}  // namespace les3

int main(int argc, char** argv) {
  using namespace les3;
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_batch_probe.json";

  const datagen::AnalogSpec& spec = datagen::AnalogSpecByName("KOSARAK");
  auto db = std::make_shared<SetDatabase>(datagen::GenerateAnalog(spec, 3));
  std::printf("KOSARAK analog: %zu sets, %u tokens\n", db->size(),
              db->num_tokens());

  struct EngineSpec {
    std::string name;
    api::EngineOptions options;
  };
  std::vector<EngineSpec> specs(2);
  specs[0].name = "les3";
  specs[0].options.backend = api::Backend::kLes3;
  specs[0].options.num_groups = bench::DefaultGroups(db->size());
  specs[0].options.cascade = bench::BenchCascade(specs[0].options.num_groups);
  specs[1].name = "sharded4";  // the CI serving snapshot configuration
  specs[1].options.backend = api::Backend::kShardedLes3;
  specs[1].options.num_shards = 4;

  TableReporter table({"engine", "regime", "mode", "batch", "qps", "speedup",
                       "p50_ms", "p95_ms"});
  std::vector<bench::BatchReport> reports;
  for (const EngineSpec& spec_entry : specs) {
    WallTimer build_timer;
    auto built = api::EngineBuilder::Build(db, spec_entry.options);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    const api::SearchEngine& engine = *built.value();
    std::printf("%s built in %.1fs (%s)\n", spec_entry.name.c_str(),
                build_timer.Seconds(), engine.Describe().c_str());

    for (const std::string& regime : {std::string("zipf"), std::string("hot"),
                                      std::string("cold")}) {
      std::vector<SetRecord> queries = RegimeQueries(*db, regime);
      for (bool knn : {true, false}) {
        const char* mode = knn ? "knn" : "range";
        RunStats seq = RunOnce(engine, queries, knn, 0);
        for (int r = 1; r < kRepeats; ++r) {
          RunStats again = RunOnce(engine, queries, knn, 0);
          if (again.wall_s < seq.wall_s) seq = std::move(again);
        }
        bench::BatchLatency seq_lat =
            bench::SummarizeLatencies(seq.ms, seq.wall_s);
        table.Add(spec_entry.name, regime, mode, 0, seq_lat.qps, 1.0,
                  seq_lat.p50_ms, seq_lat.p95_ms);
        reports.push_back(
            MakeReport(spec_entry.name + "/" + regime + "/seq", knn, seq));

        for (size_t batch : {size_t{1}, size_t{8}, size_t{64}, size_t{256}}) {
          RunStats best = RunOnce(engine, queries, knn, batch);
          if (!SameAnswers(seq, best)) {
            std::fprintf(stderr,
                         "FATAL: batched answers diverge from sequential "
                         "(%s %s %s batch=%zu)\n",
                         spec_entry.name.c_str(), regime.c_str(), mode, batch);
            return 1;
          }
          for (int r = 1; r < kRepeats; ++r) {
            RunStats again = RunOnce(engine, queries, knn, batch);
            if (again.wall_s < best.wall_s) best = std::move(again);
          }
          bench::BatchLatency lat =
              bench::SummarizeLatencies(best.ms, best.wall_s);
          double speedup = seq_lat.qps > 0.0 ? lat.qps / seq_lat.qps : 0.0;
          table.Add(spec_entry.name, regime, mode, batch, lat.qps, speedup,
                    lat.p50_ms, lat.p95_ms);
          reports.push_back(MakeReport(spec_entry.name + "/" + regime +
                                           "/batch" + std::to_string(batch),
                                       knn, best));
        }
      }
    }
  }

  bench::Emit(table, "Batched vs sequential probe QPS (KOSARAK analog)",
              "micro_batch_probe.csv");
  Status st = bench::WriteBatchReports(reports, json_path);
  if (st.ok()) {
    std::printf("  [json] %s\n", json_path.c_str());
  } else {
    std::printf("  [json] failed: %s\n", st.ToString().c_str());
  }
  return 0;
}
