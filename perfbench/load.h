// Load generators for the served benchmark: closed-loop readers, an
// open-loop reader with one sender and one receiver thread per
// connection, and a closed-loop writer. All of them talk to a real
// les3 serve::Server over loopback TCP.
//
// Open loop: requests follow a precomputed Poisson schedule and each one
// is timed from when it was DUE, not from when it was sent, so a stall
// (in the server or in the generator) is charged to every request it
// delayed. The sender never waits for a reply; how late it ran behind the
// schedule is reported separately (lag_ms), which tells whether a run
// measured the server or the generator.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/set_record.h"
#include "core/types.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {

using les3::Hit;
using les3::SetId;
using les3::SetRecord;

/// One read: kNN or Range over query `query` of the pool.
struct ReadOp {
  bool knn = true;
  uint32_t query = 0;
};

/// One request's latency, when it completed, and whether it succeeded.
struct Latency {
  int64_t end_ns = 0;
  double ms = 0;
  bool ok = false;
};

/// Client-side outcome of a load phase, merged across connections.
struct LoadResult {
  std::vector<Latency> reads;   // every read reply, OK or not
  std::vector<Latency> writes;  // Insert/Delete/Update round trips
  std::vector<double> lag_ms;   // open loop: how late each send ran
  uint64_t attempted = 0;        // requests sent (reads, writes, admin)
  uint64_t reads_ok = 0;
  uint64_t failed = 0;      // non-OK replies, lost replies, transport errors
  uint64_t mismatches = 0;  // OK answers that differ from the reference
  std::string first_error;

  void Merge(const LoadResult& other);
  void Fail(const std::string& what);
};

/// The read side of a workload.
struct ReadPool {
  const std::vector<SetRecord>* queries = nullptr;
  size_t k = 10;
  double delta = 0.8;
  /// Per-query reference answers for the correctness gate; null when
  /// answers may change during the phase (concurrent writes).
  const std::vector<std::vector<Hit>>* expected_knn = nullptr;
  const std::vector<std::vector<Hit>>* expected_range = nullptr;
  /// Self-test hook: flip one similarity bit of the first OK reply before
  /// it is checked, so the gate must trip.
  bool corrupt_first = false;
};

/// Byte-exact comparison: same ids and same similarity bit patterns, in
/// the same order.
bool SameHits(const std::vector<Hit>& a, const std::vector<Hit>& b);

/// Closed loop on one connection until `until_ns` or `max_requests` reads
/// (0 = no limit): the next read (drawn by `next`) goes out when the
/// previous reply has arrived. Request ids for the trace start at
/// `request_base`.
LoadResult RunClosedReader(uint16_t port, const ReadPool& pool,
                           const std::function<ReadOp()>& next,
                           int64_t until_ns, size_t max_requests,
                           SpanBuffer* trace, uint64_t request_base);

/// Due times (ns after the phase start) and reads of one connection.
struct OpenSchedule {
  std::vector<int64_t> due_ns;
  std::vector<ReadOp> ops;
};

/// Poisson arrivals at `rate_per_s` for `seconds`, reads drawn uniformly
/// from a pool of `pool_size` queries.
OpenSchedule PoissonSchedule(double rate_per_s, double seconds,
                             size_t pool_size, bool knn, uint64_t seed);

/// Open loop on one connection (see file comment). `start_ns` is the
/// schedule origin. Spans: client.request (due -> reply, receiver thread)
/// with child loadgen.send (due -> send returned, sender thread).
LoadResult RunOpenConnection(uint16_t port, const ReadPool& pool,
                             const OpenSchedule& schedule, int64_t start_ns,
                             SpanBuffer* send_trace, SpanBuffer* recv_trace,
                             uint64_t request_base);

/// Source of Insert/Delete/Update operations with drifting content: new
/// sets come from a second corpus of the same shape whose tokens are
/// shifted half a universe over (as bench/drift_maintenance.cc does), and
/// Delete/Update victims are distinct ids of the original corpus.
class WriteMix {
 public:
  enum class Kind { kInsert, kDelete, kUpdate };
  struct Op {
    Kind kind = Kind::kInsert;
    SetId id = 0;    // Delete/Update target
    SetRecord set;   // Insert/Update content
  };

  WriteMix(les3::SetDatabase incoming, uint32_t num_tokens, size_t db_size,
           uint64_t seed);

  Op Next();

 private:
  les3::SetDatabase incoming_;
  uint32_t num_tokens_;
  std::vector<SetId> victims_;  // shuffled original ids
  size_t deletes_ = 0;          // taken from the front of victims_
  size_t updates_ = 0;          // taken from the back
  les3::Rng rng_;
};

struct WriterOptions {
  int64_t until_ns = 0;       // stop at this time
  int64_t think_ns = 0;       // pause between operations
  size_t maintain_every = 0;  // wire MaintainNow every N mutations (0 = never)
};

/// Closed-loop writer on one connection.
LoadResult RunWriter(uint16_t port, WriteMix* mix,
                     const WriterOptions& options, SpanBuffer* trace,
                     uint64_t request_base);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
