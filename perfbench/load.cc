#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "persist/bytes.h"
#include "serve/client.h"
#include "serve/wire.h"

namespace perfbench {

using les3::Status;
namespace serve = les3::serve;

namespace {

double MsSince(int64_t start_ns, int64_t end_ns) {
  return (end_ns - start_ns) / 1e6;
}

// Owns one connected TCP socket (the open-loop path needs the raw fd: a
// sender and a receiver thread share it, which serve::Client cannot do).
class Socket {
 public:
  explicit Socket(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      close(fd_);
      fd_ = -1;
      return;
    }
    int enable = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    // A short receive timeout lets the receiver notice that the sender has
    // finished; it loops on timeouts until every reply is in.
    timeval tv{0, 200 * 1000};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~Socket() {
    if (fd_ >= 0) close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

bool SendAll(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

// Checks one OK read reply against the reference (when there is one).
void CheckAnswer(const ReadPool& pool, const ReadOp& op, std::vector<Hit> hits,
                 bool* corrupt_pending, LoadResult* out) {
  const auto* expected = op.knn ? pool.expected_knn : pool.expected_range;
  if (expected == nullptr) return;
  if (*corrupt_pending && !hits.empty()) {
    uint64_t bits;
    std::memcpy(&bits, &hits[0].second, sizeof(bits));
    bits ^= 1;
    std::memcpy(&hits[0].second, &bits, sizeof(bits));
    *corrupt_pending = false;
  }
  if (!SameHits(hits, (*expected)[op.query])) {
    if (out->mismatches == 0) {
      out->first_error = std::string("wrong answer for ") +
                         (op.knn ? "knn" : "range") + " query " +
                         std::to_string(op.query);
    }
    ++out->mismatches;
  }
}

}  // namespace

void LoadResult::Merge(const LoadResult& other) {
  reads.insert(reads.end(), other.reads.begin(), other.reads.end());
  writes.insert(writes.end(), other.writes.begin(), other.writes.end());
  lag_ms.insert(lag_ms.end(), other.lag_ms.begin(), other.lag_ms.end());
  attempted += other.attempted;
  reads_ok += other.reads_ok;
  failed += other.failed;
  if (first_error.empty()) first_error = other.first_error;
  mismatches += other.mismatches;
}

void LoadResult::Fail(const std::string& what) {
  ++failed;
  if (first_error.empty()) first_error = what;
}

bool SameHits(const std::vector<Hit>& a, const std::vector<Hit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first) return false;
    if (std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

LoadResult RunClosedReader(uint16_t port, const ReadPool& pool,
                           const std::function<ReadOp()>& next,
                           int64_t until_ns, size_t max_requests,
                           SpanBuffer* trace, uint64_t request_base) {
  LoadResult out;
  auto client = serve::Client::Connect("127.0.0.1", port, 30000);
  if (!client.ok()) {
    out.Fail(client.status().ToString());
    return out;
  }
  bool corrupt_pending = pool.corrupt_first;
  for (uint64_t i = 0; NowNs() < until_ns; ++i) {
    if (max_requests > 0 && i >= max_requests) break;
    ReadOp op = next();
    const SetRecord& query = (*pool.queries)[op.query];
    ++out.attempted;
    int64_t t0 = NowNs();
    auto reply = op.knn ? client.value().Knn(query.view(), pool.k)
                        : client.value().Range(query.view(), pool.delta);
    int64_t t1 = NowNs();
    out.reads.push_back(Latency{t1, MsSince(t0, t1), reply.ok()});
    if (trace) trace->Record("client.request", t0, t1, 0, request_base + i);
    if (!reply.ok()) {
      out.Fail(reply.status().ToString());
      if (!client.value().connected()) break;
      continue;
    }
    ++out.reads_ok;
    CheckAnswer(pool, op, std::move(reply).ValueOrDie(), &corrupt_pending,
                &out);
  }
  return out;
}

OpenSchedule PoissonSchedule(double rate_per_s, double seconds,
                             size_t pool_size, bool knn, uint64_t seed) {
  OpenSchedule schedule;
  les3::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s;
    if (t >= seconds) break;
    schedule.due_ns.push_back(static_cast<int64_t>(t * 1e9));
    schedule.ops.push_back(
        ReadOp{knn, static_cast<uint32_t>(rng.Uniform(pool_size))});
  }
  return schedule;
}

LoadResult RunOpenConnection(uint16_t port, const ReadPool& pool,
                             const OpenSchedule& schedule, int64_t start_ns,
                             SpanBuffer* send_trace, SpanBuffer* recv_trace,
                             uint64_t request_base) {
  LoadResult out;
  const size_t n = schedule.due_ns.size();
  Socket socket(port);
  if (socket.fd() < 0) {
    out.Fail(std::string("connect: ") + std::strerror(errno));
    return out;
  }
  // Request span ids are reserved up front, so the sender can name its
  // parent without sharing state with the receiver.
  uint64_t first_request_span = 0;
  if (recv_trace) {
    first_request_span = recv_trace->Reserve();
    for (size_t i = 1; i < n; ++i) recv_trace->Reserve();
  }

  std::vector<double> lag_ms;
  lag_ms.reserve(n);
  std::atomic<size_t> sent{0};
  std::atomic<bool> sender_done{false};
  std::thread sender([&] {
    // The default 50 us timer slack would make every sleep overshoot its
    // due time by about that much.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    les3::persist::ByteWriter frame;
    serve::Request request;
    request.k = static_cast<uint32_t>(pool.k);
    request.delta = pool.delta;
    request.queries.resize(1);
    for (size_t i = 0; i < n; ++i) {
      const ReadOp& op = schedule.ops[i];
      int64_t due = start_ns + schedule.due_ns[i];
      int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      lag_ms.push_back(MsSince(due, now));
      request.seq = static_cast<uint32_t>(i + 1);
      request.type = op.knn ? serve::MsgType::kKnn : serve::MsgType::kRange;
      request.queries[0] = (*pool.queries)[op.query];
      frame = les3::persist::ByteWriter();
      serve::EncodeRequest(request, &frame);
      if (!SendAll(socket.fd(), frame.data().data(), frame.size())) break;
      sent.store(i + 1, std::memory_order_release);
      if (send_trace) {
        send_trace->Record("loadgen.send", due, NowNs(),
                           first_request_span + i, request_base + i);
      }
    }
    sender_done.store(true, std::memory_order_release);
  });

  // Errors that end the receive loop are counted once, below, with the
  // requests they left unanswered.
  auto note = [&out](const std::string& what) {
    if (out.first_error.empty()) out.first_error = what;
  };
  std::vector<uint8_t> in;
  uint8_t buf[64 * 1024];
  size_t received = 0;
  bool corrupt_pending = pool.corrupt_first;
  int64_t idle_since = 0;
  while (received < n) {
    size_t frame_end = 0;
    bool complete = false;
    Status st = serve::ExtractFrame(in.data(), in.size(), &frame_end,
                                    &complete);
    if (!st.ok()) {
      note("bad reply frame: " + st.ToString());
      break;
    }
    if (complete) {
      int64_t now = NowNs();
      uint32_t seq = 0;
      if (frame_end >= 8) std::memcpy(&seq, in.data() + 4, sizeof(seq));
      if (seq == 0 || seq > n) {
        note("reply matches no request");
        break;
      }
      size_t i = seq - 1;
      const ReadOp& op = schedule.ops[i];
      auto decoded = serve::DecodeResponse(
          in.data() + 4, frame_end - 4,
          op.knn ? serve::MsgType::kKnn : serve::MsgType::kRange);
      in.erase(in.begin(), in.begin() + static_cast<ptrdiff_t>(frame_end));
      ++received;
      int64_t due = start_ns + schedule.due_ns[i];
      const bool ok = decoded.ok() &&
                      decoded.value().status == serve::WireStatus::kOk;
      out.reads.push_back(Latency{now, MsSince(due, now), ok});
      if (recv_trace) {
        recv_trace->Add(first_request_span + i, "client.request", due, now, 0,
                        request_base + i);
      }
      if (!decoded.ok()) {
        out.Fail("malformed reply: " + decoded.status().ToString());
      } else if (decoded.value().status != serve::WireStatus::kOk) {
        out.Fail(serve::StatusFromResponse(decoded.value()).ToString());
      } else {
        ++out.reads_ok;
        CheckAnswer(pool, op, std::move(decoded.value().results[0]),
                    &corrupt_pending, &out);
      }
      idle_since = 0;
      continue;
    }
    ssize_t got = recv(socket.fd(), buf, sizeof(buf), 0);
    if (got > 0) {
      in.insert(in.end(), buf, buf + got);
      continue;
    }
    if (got == 0) {
      note("server closed the connection");
      break;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      note(std::string("recv: ") + std::strerror(errno));
      break;
    }
    // Timed out. Done once the sender has finished and every reply is in;
    // give up after 10 s without a reply while requests are outstanding.
    const bool done = sender_done.load(std::memory_order_acquire);
    if (received >= sent.load(std::memory_order_acquire)) {
      if (done) break;
      idle_since = 0;
      continue;
    }
    int64_t now = NowNs();
    if (idle_since == 0) idle_since = now;
    if (now - idle_since > 10'000'000'000) {
      note("no reply for 10 s");
      break;
    }
  }
  // Unblocks a sender stuck in send() if the receiver gave up early.
  shutdown(socket.fd(), SHUT_RDWR);
  sender.join();
  out.attempted = n;
  if (received < n) {
    out.failed += n - received;
    if (out.first_error.empty()) {
      out.first_error = std::to_string(n - received) + " requests unanswered";
    }
  }
  out.lag_ms = std::move(lag_ms);
  return out;
}

WriteMix::WriteMix(les3::SetDatabase incoming, uint32_t num_tokens,
                   size_t db_size, uint64_t seed)
    : incoming_(std::move(incoming)), num_tokens_(num_tokens), rng_(seed) {
  victims_.resize(db_size);
  for (size_t i = 0; i < db_size; ++i) victims_[i] = static_cast<SetId>(i);
  rng_.Shuffle(&victims_);
}

WriteMix::Op WriteMix::Next() {
  Op op;
  double u = rng_.NextDouble();
  op.kind = u < 0.4 ? Kind::kInsert : (u < 0.7 ? Kind::kUpdate : Kind::kDelete);
  if (deletes_ + updates_ + 1 >= victims_.size()) op.kind = Kind::kInsert;
  if (op.kind == Kind::kDelete) {
    op.id = victims_[deletes_++];
    return op;
  }
  if (op.kind == Kind::kUpdate) op.id = victims_[victims_.size() - ++updates_];
  les3::SetView source = incoming_.set(
      static_cast<SetId>(rng_.Uniform(incoming_.size())));
  std::vector<les3::TokenId> tokens(source.begin(), source.end());
  for (les3::TokenId& t : tokens) t = (t + num_tokens_ / 2) % num_tokens_;
  op.set = SetRecord::FromTokens(std::move(tokens));
  return op;
}

LoadResult RunWriter(uint16_t port, WriteMix* mix,
                     const WriterOptions& options, SpanBuffer* trace,
                     uint64_t request_base) {
  LoadResult out;
  auto connected = serve::Client::Connect("127.0.0.1", port, 30000);
  if (!connected.ok()) {
    out.Fail(connected.status().ToString());
    return out;
  }
  serve::Client& client = connected.value();
  size_t mutations = 0;
  for (uint64_t i = 0;; ++i) {
    if (NowNs() >= options.until_ns) break;
    if (options.maintain_every > 0 && mutations > 0 &&
        mutations % options.maintain_every == 0) {
      ++out.attempted;
      int64_t t0 = NowNs();
      auto report = client.MaintainNow();
      if (trace) trace->Record("client.maintain", t0, NowNs(), 0,
                               request_base + i);
      if (!report.ok()) out.Fail(report.status().ToString());
      ++i;
    }
    WriteMix::Op op = mix->Next();
    ++out.attempted;
    int64_t t0 = NowNs();
    Status st;
    switch (op.kind) {
      case WriteMix::Kind::kInsert:
        st = client.Insert(op.set).status();
        break;
      case WriteMix::Kind::kDelete:
        st = client.Delete(op.id);
        break;
      case WriteMix::Kind::kUpdate:
        st = client.Update(op.id, op.set);
        break;
    }
    int64_t t1 = NowNs();
    ++mutations;
    out.writes.push_back(Latency{t1, MsSince(t0, t1), st.ok()});
    if (trace) trace->Record("client.write", t0, t1, 0, request_base + i);
    if (!st.ok()) {
      out.Fail(st.ToString());
      if (!client.connected()) break;
    }
    if (options.think_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(options.think_ns));
    }
  }
  return out;
}

}  // namespace perfbench
