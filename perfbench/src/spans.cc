#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <utility>

namespace perfbench {

uint64_t SpanRecorder::Add(const char* name, int64_t start_ns, int64_t end_ns,
                           uint64_t parent, uint64_t request) {
  sage::MutexLock lock(mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return span.id;
}

std::vector<Span> SpanRecorder::spans() const {
  sage::MutexLock lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> all = spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : all) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Children's intervals, clipped to their parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t end = std::numeric_limits<int64_t>::min();
    for (const auto& [lo, hi] : iv) {
      const int64_t from = std::max(lo, end);
      if (hi > from) union_ns += hi - from;
      end = std::max(end, hi);
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = layers[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return layers;
}

}  // namespace perfbench
