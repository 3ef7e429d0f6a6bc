#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

SpanBuffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t base = static_cast<uint64_t>(buffers_.size() + 1) << 40;
  buffers_.push_back(std::make_unique<SpanBuffer>(base));
  return buffers_.back().get();
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans().begin(), buffer->spans().end());
  }
  return all;
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.Micros());
  }
  return out;
}

std::string SummarizeSpans(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  struct Row {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = s.start_ns;
      for (auto [begin, end] : intervals) {
        begin = std::max(begin, cursor);
        end = std::min(end, s.end_ns);
        if (end > begin) {
          covered += end - begin;
          cursor = end;
        }
      }
    }
    Row& row = rows[s.name];
    ++row.count;
    row.total_ms += (s.end_ns - s.start_ns) / 1e6;
    row.self_ms += (s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::string out = "span                       count     total_ms      self_ms\n";
  char line[160];
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof(line), "%-24s %8llu %12.3f %12.3f\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_ms, row.self_ms);
    out += line;
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  for (const Span& s : spans) {
    file << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
         << ",\"parent\":" << s.parent << ",\"request\":" << s.request
         << "}\n";
  }
  return static_cast<bool>(file);
}

}  // namespace perfbench
