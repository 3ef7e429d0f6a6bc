// Shared helpers for the figure/table harnesses.
//
// Scale note: every bench runs on the scaled dataset analogs of
// datagen/analogs.h (the paper's datasets cannot be shipped) with query
// counts reduced from the paper's 10 k to keep the whole suite in the
// minutes range. EXPERIMENTS.md records the mapping.

#ifndef LES3_BENCH_BENCH_UTIL_H_
#define LES3_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "api/search_engine.h"
#include "core/database.h"
#include "datagen/generators.h"
#include "l2p/cascade.h"
#include "search/query_stats.h"
#include "util/csv.h"
#include "util/timer.h"

namespace les3 {
namespace bench {

/// Cascade options used across benches: the paper's network (2x8 sigmoid
/// MLP), batch 256, 3 epochs, Adam, sorted init into 128 groups;
/// pairs-per-model reduced to 20 k (the paper observes more samples do not
/// improve pruning, Section 7.1).
inline l2p::CascadeOptions BenchCascade(uint32_t target_groups) {
  l2p::CascadeOptions opts;
  opts.init_groups = 128;
  opts.target_groups = target_groups;
  opts.min_group_size = 50;
  opts.pairs_per_model = 20000;
  opts.siamese.epochs = 3;
  opts.siamese.batch_size = 256;
  opts.num_threads = 0;  // hardware concurrency
  opts.seed = 97;
  return opts;
}

/// Group-count heuristic. The paper's rule of thumb is n ≈ 0.5% |D|
/// (Section 7.5); on the scaled analogs the sweep of fig10 shows latency
/// still improving slightly past that point, so the benches use 1% |D|.
inline uint32_t DefaultGroups(size_t db_size) {
  uint32_t n = static_cast<uint32_t>(db_size / 100);
  return n < 16 ? 16 : n;
}

/// Aggregated timing over a query batch.
struct QueryAggregate {
  double avg_ms = 0.0;
  double avg_pe = 0.0;
  double avg_candidates = 0.0;
};

/// Runs `run(query)` for every query id and aggregates wall time and the
/// stats the run reports.
inline QueryAggregate RunQueries(
    const SetDatabase& db, const std::vector<SetId>& query_ids,
    const std::function<search::QueryStats(SetView)>& run) {
  QueryAggregate agg;
  if (query_ids.empty()) return agg;
  WallTimer timer;
  for (SetId qid : query_ids) {
    search::QueryStats stats = run(db.set(qid));
    agg.avg_pe += stats.pruning_efficiency;
    agg.avg_candidates += static_cast<double>(stats.candidates_verified);
  }
  double n = static_cast<double>(query_ids.size());
  agg.avg_ms = timer.Millis() / n;
  agg.avg_pe /= n;
  agg.avg_candidates /= n;
  return agg;
}

/// Throughput and latency distribution of one batch-query run; shared by
/// `les3_cli batch` and bench/shard_scaling.cc.
struct BatchLatency {
  size_t queries = 0;
  double wall_s = 0.0;   // end-to-end batch wall time
  double qps = 0.0;      // queries / wall_s; when the clock reports a zero
                         // wall time (sub-resolution runs), estimated from
                         // the per-query latency sum instead — never
                         // silently 0 for a run that answered queries
  double p50_ms = 0.0;   // per-query latency percentiles; on the sharded
  double p95_ms = 0.0;   // engine a query's latency is its slowest shard
  double p99_ms = 0.0;   // probe (the scatter-gather critical path)
};

/// Nearest-rank percentile over an ascending-sorted sample.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  if (rank > 0) --rank;
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

/// Summarizes raw per-query latencies (milliseconds, any order): QPS from
/// the run's wall time, percentiles from the samples. The latency core of
/// SummarizeBatch, shared with les3_loadgen whose samples are client-side
/// round-trip times rather than QueryResult timings.
inline BatchLatency SummarizeLatencies(std::vector<double> ms, double wall_s) {
  BatchLatency summary;
  summary.queries = ms.size();
  summary.wall_s = wall_s;
  if (ms.empty()) return summary;
  if (wall_s > 0.0) {  // NaN wall time also falls through to the fallback
    summary.qps = ms.size() / wall_s;
  } else {
    // A very fast run can complete inside one clock tick, leaving
    // wall_s == 0. Reporting qps = 0 for such a run inverts its meaning
    // (the fastest run would plot as the slowest), so fall back to the
    // serial-latency estimate: queries per summed per-query time. With a
    // zero latency sum as well, there is no timing signal at all and the
    // field stays 0.
    double sum_ms = 0.0;
    for (double m : ms) {
      if (std::isfinite(m) && m > 0.0) sum_ms += m;
    }
    if (sum_ms > 0.0) summary.qps = ms.size() / (sum_ms / 1000.0);
  }
  std::sort(ms.begin(), ms.end());
  summary.p50_ms = PercentileSorted(ms, 0.50);
  summary.p95_ms = PercentileSorted(ms, 0.95);
  summary.p99_ms = PercentileSorted(ms, 0.99);
  return summary;
}

/// Summarizes a KnnBatch/RangeBatch run: QPS from the batch wall time,
/// percentiles from each query's own latency (QueryResult::TotalMs).
inline BatchLatency SummarizeBatch(const std::vector<api::QueryResult>& results,
                                   double wall_s) {
  std::vector<double> ms;
  ms.reserve(results.size());
  for (const auto& r : results) ms.push_back(r.TotalMs());
  return SummarizeLatencies(std::move(ms), wall_s);
}

/// \brief One row of the shared batch-throughput JSON schema.
///
/// `les3_cli batch --json` and `les3_loadgen --json` (BENCH_serve.json)
/// both emit arrays of this shape, so in-process and over-the-wire runs
/// plot on one axis. Engine-side verification counters are only available
/// in-process (the wire protocol returns hits, not QueryStats); rows from
/// the load generator omit those keys.
struct BatchReport {
  std::string tool;   // "les3_cli_batch" | "les3_loadgen"
  std::string label;  // free-form run description
  std::string mode;   // "knn" | "range"
  double param = 0.0; // k or delta
  size_t clients = 1; // concurrent client threads driving the run
  size_t cores = 0;   // hardware threads of the measuring host (0 = unset)
  BatchLatency latency;
  uint64_t hits_total = 0;
  uint64_t errors = 0;  // failed round trips (loadgen only)
  bool have_engine_stats = false;
  uint64_t candidates_verified = 0;
  uint64_t candidates_size_skipped = 0;
};

/// Renders one report as a JSON object (two-space indent, stable key
/// order — the schema shared by batch --json and BENCH_serve.json).
inline std::string BatchReportJson(const BatchReport& report) {
  std::ostringstream out;
  auto str = [](const std::string& s) {
    std::string escaped;
    for (char c : s) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c);
    }
    return '"' + escaped + '"';
  };
  char num[64];
  auto f = [&num](double v) {
    std::snprintf(num, sizeof(num), "%.6g", v);
    return std::string(num);
  };
  out << "  {\n";
  out << "    \"tool\": " << str(report.tool) << ",\n";
  out << "    \"label\": " << str(report.label) << ",\n";
  out << "    \"mode\": " << str(report.mode) << ",\n";
  out << "    \"param\": " << f(report.param) << ",\n";
  out << "    \"clients\": " << report.clients << ",\n";
  if (report.cores != 0) {
    out << "    \"cores\": " << report.cores << ",\n";
  }
  out << "    \"queries\": " << report.latency.queries << ",\n";
  out << "    \"wall_s\": " << f(report.latency.wall_s) << ",\n";
  out << "    \"qps\": " << f(report.latency.qps) << ",\n";
  out << "    \"p50_ms\": " << f(report.latency.p50_ms) << ",\n";
  out << "    \"p95_ms\": " << f(report.latency.p95_ms) << ",\n";
  out << "    \"p99_ms\": " << f(report.latency.p99_ms) << ",\n";
  out << "    \"hits_total\": " << report.hits_total << ",\n";
  out << "    \"errors\": " << report.errors;
  if (report.have_engine_stats) {
    out << ",\n";
    out << "    \"candidates_verified\": " << report.candidates_verified
        << ",\n";
    out << "    \"candidates_size_skipped\": "
        << report.candidates_size_skipped << "\n";
  } else {
    out << "\n";
  }
  out << "  }";
  return out.str();
}

/// Writes `reports` as a JSON array. With append == true and an existing
/// array at `path`, the new rows are spliced in before the closing
/// bracket (how the CI serve smoke accumulates BENCH_serve.json across
/// loadgen invocations).
inline Status WriteBatchReports(const std::vector<BatchReport>& reports,
                                const std::string& path, bool append = false) {
  std::string prefix = "[\n";
  if (append) {
    std::ifstream existing(path);
    if (existing) {
      std::ostringstream buf;
      buf << existing.rdbuf();
      std::string content = buf.str();
      size_t bracket = content.find_last_of(']');
      if (bracket == std::string::npos) {
        return Status::InvalidArgument(path + " is not a JSON array");
      }
      content.erase(bracket);
      while (!content.empty() &&
             (content.back() == '\n' || content.back() == ' ')) {
        content.pop_back();
      }
      // An empty existing array needs no separating comma.
      if (!content.empty()) {
        prefix = content + (content.back() == '[' ? "\n" : ",\n");
      }
    }
  }
  std::ostringstream out;
  out << prefix;
  for (size_t i = 0; i < reports.size(); ++i) {
    out << BatchReportJson(reports[i]);
    out << (i + 1 < reports.size() ? ",\n" : "\n");
  }
  out << "]\n";
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status::IOError("cannot write " + path);
  file << out.str();
  return file ? Status::OK() : Status::IOError("short write to " + path);
}

/// Writes the CSV next to the binary's working directory and announces it.
inline void Emit(const TableReporter& table, const std::string& title,
                 const std::string& csv_name) {
  table.Print(title);
  Status st = table.WriteCsv(csv_name);
  if (st.ok()) {
    std::printf("  [csv] %s\n", csv_name.c_str());
  } else {
    std::printf("  [csv] failed: %s\n", st.ToString().c_str());
  }
}

}  // namespace bench
}  // namespace les3

#endif  // LES3_BENCH_BENCH_UTIL_H_
