// sage_perfbench: end-to-end benchmark of the Sage engine through its
// public API (Engine, QueryService, AlgorithmRegistry, graph I/O).
//
//   sage_perfbench --workload analytics --seed 7 --seconds 20 --trace 0
//       --work-dir .bench_build/perfbench-work
//
// One process runs one workload: it generates the seeded inputs, sets the
// engine up several times (setup_s is the median), replays a fixed request
// sequence through closed-loop clients, checks every answer, and prints
// JSON lines: provenance first, the result object last. With --trace 1 the
// odd passes record spans, probes time single layers, and the result holds
// the per-layer metrics instead of the end-to-end ones. See README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "checks.h"
#include "common/json.h"
#include "config.h"
#include "core/edge_map.h"
#include "graph/binary_format.h"
#include "graph/generators.h"
#include "parallel/parallel.h"
#include "plan.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using sage::Engine;
using sage::Graph;
using sage::RunReport;
using sage::vertex_id;

constexpr int kSetupReps = 3;
constexpr size_t kSourcePool = 4096;
/// Every algorithm any workload runs; per-layer metrics name each one on
/// every workload (0 where the mix does not run it).
const char* const kAllAlgorithms[] = {"bfs",          "bellman-ford", "wbfs",
                                      "widest-path",  "connectivity", "kcore",
                                      "pagerank"};

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// VmHWM in MiB from /proc/self/status; 0 when unreadable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

/// Resets VmHWM to the current RSS, so the peak excludes input generation.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

struct Usage {
  double cpu_s = 0;
  int64_t ctx_switches = 0;
  /// Host-wide CPU ticks from /proc/stat: all of them, and those stolen by
  /// the hypervisor. Stolen time stalls fork-join rounds, so a run with a
  /// high steal share measured the host, not the engine.
  uint64_t host_ticks = 0;
  uint64_t steal_ticks = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 8; ++field) {
    uint64_t ticks = 0;
    if (!(stat >> ticks)) break;
    u.host_ticks += ticks;
    if (field == 7) u.steal_ticks = ticks;
  }
  return u;
}

uint64_t FilesBytes(const std::filesystem::path& dir, const std::string& stem) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind(stem, 0) == 0) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

/// Unit of a metric, from its name (BENCHMARK.json lists the same).
std::string UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t k = std::strlen(suffix);
    return name.size() >= k && name.compare(name.size() - k, k, suffix) == 0;
  };
  if (name.rfind("nvram.reads.", 0) == 0 || name == "nvram.writes") return "words";
  if (ends("_qps")) return "1/s";
  if (ends("_ms") || ends("_ms_p50")) return "ms";
  if (ends("_us") || ends("_us_p50") || ends("_us_per_update")) return "us";
  if (ends("_s")) return "s";
  if (ends("_mb")) return "MB";
  if (ends("_share")) return "share";
  if (ends("_pct")) return "%";
  if (ends("_ratio") || ends("_per_wall")) return "ratio";
  if (ends("_mean")) return "edges";
  return "count";
}

// ---------------------------------------------------------------------------
// One request's outcome as the client saw it.
// ---------------------------------------------------------------------------
struct Sample {
  Request request;
  bool traced = false;
  double latency_s = 0;
  double submit_s = 0;
  /// The request failed, was refused, or returned a wrong answer.
  bool failed = false;
  std::string error;
  bool cache_hit = false;
  double queue_s = 0;
  double wall_s = 0;
  uint64_t epoch = 0;
  uint64_t delta_edges = 0;
  uint64_t nvram_reads = 0;
  uint64_t nvram_writes = 0;
  uint64_t peak_intermediate_bytes = 0;
  bool digested = false;
  uint64_t digest = 0;
  uint64_t request_span = 0;
};

/// An answer of client 0 kept for the comparison with the sequential
/// reference. Client 0's samples come first in the merged samples, so its
/// request index is also its sample index.
struct Retained {
  uint32_t index = 0;
  Request request;
  uint64_t epoch = 0;
  sage::AlgoOutput output;
};

/// One write operation of update-mix, in the order client 0 made it.
struct WriteOp {
  bool compact = false;
  size_t batch = 0;
  double seconds = 0;
  size_t live_epochs = 0;
  bool ok = true;
  std::string error;
};

struct SetupTimes {
  double total_s = 0, write_s = 0, open_s = 0, warm_s = 0;
};

class Bench {
 public:
  Bench(const Workload& w, uint64_t seed, double seconds, bool trace,
        std::filesystem::path work_dir)
      : w_(w),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        work_dir_(std::move(work_dir)),
        shape_(ShapeFor(w, UsableCpus())) {}

  int Run();

 private:
  bool Generate();
  bool SetUp();
  bool SetUpOnce(SetupTimes* times);
  void Warm();
  void Measure();
  void Client(uint32_t client, std::vector<Sample>* samples,
              std::vector<Retained>* retained);
  void AfterRequest(uint32_t client, size_t index, size_t* batch);
  void Verify();
  std::map<std::string, double> EndToEnd() const;
  std::map<std::string, double> PerLayer();
  void PrintResult(const std::map<std::string, double>& metrics) const;
  void PrintProvenance() const;
  void PrintTrace() const;

  std::string ImagePath() const { return (work_dir_ / "engine.bsadj").string(); }
  std::string SourcePath() const { return (work_dir_ / "source.bsadj").string(); }
  bool Traced(size_t index) const {
    return trace_ && (index / w_.mix.size()) % 2 == 1;
  }

  const Workload& w_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::filesystem::path work_dir_;
  const RunShape shape_;

  // Inputs.
  vertex_id n_ = 0;
  uint64_t m_ = 0;
  std::vector<vertex_id> pool_;
  std::vector<std::vector<Request>> plan_;
  std::vector<std::vector<sage::EdgeUpdate>> batches_;
  bool rss_reset_ = false;

  // Set-up.
  std::optional<Engine> engine_;
  std::vector<SetupTimes> setups_;
  uint64_t image_bytes_ = 0;

  // Measured phase.
  double measured_s_ = 0;
  Usage usage_;
  double peak_rss_mb_ = 0;
  std::vector<Sample> samples_;
  std::vector<Retained> retained_;
  std::vector<WriteOp> writes_;
  sage::ServingCounters counters_before_, counters_after_;
  sage::ResultCacheStats cache_before_, cache_after_;

  // Verification.
  uint64_t failed_writes_ = 0;
  std::vector<std::string> errors_;

  SpanRecorder spans_;
};

bool Bench::Generate() {
  sage::Scheduler::Reset(shape_.nproc);
  Graph g = sage::RmatGraph(w_.log_n, w_.edge_samples, SubSeed(seed_, 1));
  n_ = g.num_vertices();
  m_ = g.num_edges();
  pool_ = SourcePool(g, kSourcePool, SubSeed(seed_, 2));
  const size_t passes = PassesPerClient(w_, shape_, seconds_);
  plan_ = MakeRequestPlan(w_.mix.size(), pool_, w_.zipf_s, shape_.clients,
                          passes, SubSeed(seed_, 3));
  if (w_.updates) {
    batches_ = MakeUpdateBatches(g, plan_[0].size() / w_.update_every,
                                 w_.update_batch, SubSeed(seed_, 4));
  }
  sage::Status st = sage::WriteBinaryGraph(g, SourcePath());
  if (!st.ok()) {
    std::fprintf(stderr, "writing %s: %s\n", SourcePath().c_str(),
                 st.ToString().c_str());
    return false;
  }
  return true;
}

bool Bench::SetUpOnce(SetupTimes* times) {
  engine_.reset();
  const int64_t t0 = NowNs();
  {
    auto source = sage::MapBinaryGraph(SourcePath());
    if (!source.ok()) {
      std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
      return false;
    }
    sage::Status st = sage::WriteBinaryGraph(source.ValueOrDie(), ImagePath());
    if (!st.ok()) {
      std::fprintf(stderr, "writing %s: %s\n", ImagePath().c_str(),
                   st.ToString().c_str());
      return false;
    }
  }
  const int64_t t1 = NowNs();
  auto opened = Engine::FromFile(ImagePath());
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return false;
  }
  engine_.emplace(opened.TakeValue());
  const int64_t t2 = NowNs();
  sage::QueryService::Options options;
  options.sessions = shape_.sessions;
  options.cache_bytes = w_.serving ? w_.cache_bytes : 0;
  engine_->service(options);
  const int64_t t3 = NowNs();
  Warm();
  const int64_t t4 = NowNs();
  times->write_s = Seconds(t1 - t0);
  times->open_s = Seconds(t2 - t1);
  times->warm_s = Seconds(t4 - t3);
  times->total_s = Seconds(t4 - t0);
  if (trace_) {
    const uint64_t root = spans_.Add("setup", t0, t4);
    spans_.Add("graph.write", t0, t1, root);
    spans_.Add("graph.open", t1, t2, root);
    spans_.Add("api.service_start", t2, t3, root);
    spans_.Add("graph.warm", t3, t4, root);
  }
  return true;
}

/// Finishes lazy set-up before timing: page faults over the image, the
/// weighted twin, and (serving) a result cache holding the hottest keys.
void Bench::Warm() {
  std::vector<Request> warm;
  if (w_.serving) {
    // Hottest keys last, so LRU keeps them. A bfs entry holds 4n bytes and
    // a weighted one 8n, about 20n bytes per source over the mix.
    const size_t keys = std::min<size_t>(
        pool_.size(), w_.cache_bytes / (20 * static_cast<uint64_t>(n_)));
    for (size_t r = keys; r-- > 0;) {
      for (uint32_t a = 0; a < w_.mix.size(); ++a) warm.push_back({a, pool_[r]});
    }
  } else {
    warm.assign(plan_[0].begin(), plan_[0].begin() + w_.mix.size());
  }
  for (const Request& r : warm) {
    sage::RunParams params;
    params.source = r.source;
    (void)engine_->Run(w_.mix[r.algorithm], params);
  }
}

bool Bench::SetUp() {
  rss_reset_ = ResetPeakRss();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SetupTimes times;
    if (!SetUpOnce(&times)) return false;
    setups_.push_back(times);
  }
  image_bytes_ = FilesBytes(work_dir_, "engine.");
  // Set-up ran at full width; apply the serving width now that no work is
  // in flight.
  if (shape_.width != sage::num_workers()) sage::Scheduler::Reset(shape_.width);
  return true;
}

void Bench::AfterRequest(uint32_t client, size_t index, size_t* batch) {
  if (!w_.updates || client != 0 || (index + 1) % w_.update_every != 0 ||
      *batch >= batches_.size()) {
    return;
  }
  WriteOp op;
  op.batch = *batch;
  int64_t t0 = NowNs();
  auto applied = engine_->ApplyUpdates(batches_[*batch]);
  int64_t t1 = NowNs();
  op.seconds = Seconds(t1 - t0);
  op.ok = applied.ok();
  if (!op.ok) op.error = applied.status().ToString();
  op.live_epochs = engine_->epochs().live_epochs();
  if (trace_) spans_.Add("graph.apply_updates", t0, t1);
  writes_.push_back(op);
  ++*batch;
  if (*batch % w_.compact_every != 0) return;
  WriteOp compact;
  compact.compact = true;
  compact.batch = *batch;
  t0 = NowNs();
  auto compacted = engine_->Compact();
  t1 = NowNs();
  compact.seconds = Seconds(t1 - t0);
  compact.ok = compacted.ok() && compacted.ValueOrDie().image_rewritten;
  if (!compacted.ok()) compact.error = compacted.status().ToString();
  compact.live_epochs = engine_->epochs().live_epochs();
  if (trace_) spans_.Add("graph.compact", t0, t1);
  writes_.push_back(compact);
}

void Bench::Client(uint32_t client, std::vector<Sample>* samples,
                   std::vector<Retained>* retained) {
  const std::vector<Request>& seq = plan_[client];
  const size_t mix = w_.mix.size();
  samples->reserve(seq.size());
  size_t batch = 0;
  for (size_t i = 0; i < seq.size(); ++i) {
    Sample s;
    s.request = seq[i];
    s.traced = Traced(i);
    const std::string& algorithm = w_.mix[s.request.algorithm];
    sage::RunParams params;
    params.source = s.request.source;
    const int64_t t0 = NowNs();
    auto future = engine_->Submit(algorithm, params);
    const int64_t t1 = NowNs();
    sage::Result<RunReport> result = sage::Status::Internal("no result");
    try {
      result = future.get();
    } catch (const std::exception& e) {
      result = sage::Status::Internal(std::string("run threw: ") + e.what());
    }
    const int64_t t2 = NowNs();
    s.latency_s = Seconds(t2 - t0);
    s.submit_s = Seconds(t1 - t0);
    if (!result.ok()) {
      s.failed = true;
      s.error = result.status().ToString();
    } else {
      const RunReport& r = result.ValueOrDie();
      s.cache_hit = r.cache_hit;
      s.queue_s = r.queue_seconds;
      s.wall_s = r.wall_seconds;
      s.epoch = r.graph_epoch;
      s.delta_edges = r.delta_edges;
      s.nvram_reads = r.cost.nvram_reads;
      s.nvram_writes = r.cost.nvram_writes;
      s.peak_intermediate_bytes = r.peak_intermediate_bytes;
      if (r.algorithm != algorithm || !ShapeOk(algorithm, r.output, n_)) {
        s.failed = true;
        s.error = algorithm + ": report has the wrong algorithm or output shape";
      } else if (r.cost.nvram_writes != 0) {
        s.failed = true;
        s.error = algorithm + ": wrote NVRAM";
      } else if (i % w_.sample_every == 0) {
        s.digested = true;
        s.digest = AnswerDigest(algorithm, r.output);
      }
      // Client 0's first and last passes are compared with the references.
      if (client == 0 && !s.failed && (i < mix || i >= seq.size() - mix)) {
        Retained keep;
        keep.index = static_cast<uint32_t>(i);
        keep.request = s.request;
        keep.epoch = r.graph_epoch;
        keep.output = std::move(result.ValueOrDie().output);
        retained->push_back(std::move(keep));
      }
    }
    if (s.traced) {
      const uint64_t request = (uint64_t{client} << 32 | i) + 1;
      s.request_span = spans_.Add("request", t0, t2, 0, request);
      spans_.Add("api.submit", t0, t1, s.request_span, request);
      if (!s.failed) {
        const int64_t queue_end = t0 + static_cast<int64_t>(s.queue_s * 1e9);
        spans_.Add("api.queue", t0, queue_end, s.request_span, request);
        if (!s.cache_hit) {
          spans_.Add("algorithms.kernel", queue_end,
                     queue_end + static_cast<int64_t>(s.wall_s * 1e9),
                     s.request_span, request);
        }
      }
    }
    samples->push_back(std::move(s));
    AfterRequest(client, i, &batch);
  }
}

void Bench::Measure() {
  sage::QueryService& service = engine_->service();
  counters_before_ = service.counters();
  if (service.cache() != nullptr) cache_before_ = service.cache()->stats();
  std::vector<std::vector<Sample>> per_client(shape_.clients);
  std::vector<std::vector<Retained>> kept(shape_.clients);
  const Usage u0 = ReadUsage();
  const int64_t t0 = NowNs();
  if (shape_.clients == 1) {
    Client(0, &per_client[0], &kept[0]);
  } else {
    std::vector<std::jthread> threads;
    for (int c = 0; c < shape_.clients; ++c) {
      threads.emplace_back([this, c, &per_client, &kept] {
        Client(static_cast<uint32_t>(c), &per_client[c], &kept[c]);
      });
    }
  }
  measured_s_ = Seconds(NowNs() - t0);
  const Usage u1 = ReadUsage();
  usage_.cpu_s = u1.cpu_s - u0.cpu_s;
  usage_.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  usage_.host_ticks = u1.host_ticks - u0.host_ticks;
  usage_.steal_ticks = u1.steal_ticks - u0.steal_ticks;
  peak_rss_mb_ = PeakRssMb();
  counters_after_ = service.counters();
  if (service.cache() != nullptr) cache_after_ = service.cache()->stats();
  for (auto& client : per_client) {
    for (Sample& s : client) samples_.push_back(std::move(s));
  }
  for (auto& client : kept) {
    for (Retained& r : client) retained_.push_back(std::move(r));
  }
}

void Bench::Verify() {
  // One answer per (algorithm, source, epoch), hit or miss; the source is
  // no part of the key of an algorithm that ignores it.
  std::vector<bool> sourced;
  for (const std::string& a : w_.mix) {
    sourced.push_back(sage::AlgorithmRegistry::Get().Find(a)->needs_source);
  }
  std::map<std::tuple<uint32_t, vertex_id, uint64_t>, uint64_t> first;
  for (Sample& s : samples_) {
    if (!s.digested) continue;
    const vertex_id source = sourced[s.request.algorithm] ? s.request.source : 0;
    auto [it, fresh] = first.emplace(
        std::make_tuple(s.request.algorithm, source, s.epoch), s.digest);
    if (!fresh && it->second != s.digest) {
      s.failed = true;
      s.error = w_.mix[s.request.algorithm] + ": answer differs from an earlier run of its key";
    }
  }

  // Snapshots by epoch: epoch 0 is the source image; later epochs replay
  // client 0's writes on an in-memory engine, which numbers epochs alike.
  std::map<uint64_t, Graph> snapshot;
  {
    auto base = sage::MapBinaryGraph(SourcePath());
    if (!base.ok()) {
      errors_.push_back(base.status().ToString());
      return;
    }
    std::vector<uint64_t> epochs;
    for (const Retained& r : retained_) epochs.push_back(r.epoch);
    std::sort(epochs.begin(), epochs.end());
    Engine replica(base.ValueOrDie());
    size_t op = 0;
    for (uint64_t e : epochs) {
      while (replica.epoch() < e && op < writes_.size()) {
        const WriteOp& wop = writes_[op++];
        if (wop.compact) {
          (void)replica.Compact();
        } else {
          (void)replica.ApplyUpdates(batches_[wop.batch]);
        }
      }
      if (replica.epoch() == e) snapshot.emplace(e, replica.graph());
    }
  }

  std::vector<std::string> verdict(retained_.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < retained_.size(); i = next++) {
      const Retained& r = retained_[i];
      auto it = snapshot.find(r.epoch);
      if (it == snapshot.end()) {
        verdict[i] = "no snapshot for epoch " + std::to_string(r.epoch);
        continue;
      }
      sage::RunParams params;
      params.source = r.request.source;
      verdict[i] = CheckAgainstReference(w_.mix[r.request.algorithm], r.output,
                                         it->second, params);
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < shape_.nproc; ++t) threads.emplace_back(worker);
  }
  for (size_t i = 0; i < retained_.size(); ++i) {
    if (verdict[i].empty()) continue;
    Sample& s = samples_[retained_[i].index];
    s.failed = true;
    s.error = verdict[i];
  }
  for (const WriteOp& op : writes_) failed_writes_ += op.ok ? 0 : 1;
}

std::map<std::string, double> Bench::EndToEnd() const {
  std::vector<double> latency_ms;
  size_t ok = 0;
  for (const Sample& s : samples_) {
    // A failed request misses every latency limit.
    latency_ms.push_back(s.failed ? std::numeric_limits<double>::infinity()
                                  : s.latency_s * 1e3);
    ok += s.failed ? 0 : 1;
  }
  std::vector<double> setup;
  for (const SetupTimes& t : setups_) setup.push_back(t.total_s);
  return {
      {"throughput_qps", static_cast<double>(ok) / measured_s_},
      {"latency_p50_ms", Quantile(latency_ms, 0.5)},
      {"latency_p90_ms", Quantile(latency_ms, 0.9)},
      {"latency_tail_ms", Quantile(latency_ms, w_.tail_q)},
      {"setup_s", Median(setup)},
      {"peak_rss_mb", peak_rss_mb_},
  };
}

/// A full-scan functor: cond stays true and update never fires, so one
/// round reads every edge out of the frontier.
struct ScanF {
  bool update(vertex_id, vertex_id, sage::weight_t) { return false; }
  bool updateAtomic(vertex_id, vertex_id, sage::weight_t) { return false; }
  bool cond(vertex_id) { return true; }
};

template <typename F>
double MedianSeconds(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    f();
    t.push_back(Seconds(NowNs() - t0));
  }
  return Median(t);
}

std::map<std::string, double> Bench::PerLayer() {
  std::map<std::string, double> m;
  std::vector<double> submit_us, queue_ms, hit_us, bfs_clean, bfs_overlay,
      delta;
  std::map<std::string, std::vector<double>> kernel_ms, reads;
  double busy_s = 0, peak_mb = 0, writes = 0;
  std::map<uint64_t, const Sample*> by_span;
  for (const Sample& s : samples_) {
    if (s.failed) continue;
    if (s.traced) {
      submit_us.push_back(s.submit_s * 1e6);
      by_span[s.request_span] = &s;
    }
    if (s.cache_hit) {
      hit_us.push_back(s.latency_s * 1e6);
      continue;
    }
    const std::string& a = w_.mix[s.request.algorithm];
    queue_ms.push_back(s.queue_s * 1e3);
    kernel_ms[a].push_back(s.wall_s * 1e3);
    reads[a].push_back(static_cast<double>(s.nvram_reads));
    busy_s += s.wall_s;
    peak_mb = std::max(peak_mb, static_cast<double>(s.peak_intermediate_bytes) / (1 << 20));
    writes += static_cast<double>(s.nvram_writes);
    delta.push_back(static_cast<double>(s.delta_edges));
    if (a == "bfs") (s.delta_edges > 0 ? bfs_overlay : bfs_clean).push_back(s.wall_s);
  }

  // Overhead = self time of fresh requests' spans: latency not covered by
  // Submit, queue or kernel (run context, hand-off, twin synthesis).
  const std::vector<Span> all = spans_.spans();
  const std::vector<int64_t> self = SelfTimes(all);
  std::vector<double> overhead_ms;
  for (size_t i = 0; i < all.size(); ++i) {
    auto it = by_span.find(all[i].id);
    if (it != by_span.end() && !it->second->cache_hit) {
      overhead_ms.push_back(Seconds(self[i]) * 1e3);
    }
  }

  m["api.submit_us_p50"] = MedianOr0(submit_us);
  m["api.queue_ms_p50"] = MedianOr0(queue_ms);
  m["api.overhead_ms_p50"] = MedianOr0(overhead_ms);
  m["api.session_busy_share"] = busy_s / (shape_.sessions * measured_s_);
  const uint64_t submitted = counters_after_.submitted - counters_before_.submitted;
  m["api.cache_hit_share"] =
      submitted == 0 ? 0.0
                     : static_cast<double>(counters_after_.cache_hits -
                                           counters_before_.cache_hits) /
                           static_cast<double>(submitted);
  m["api.cache_hit_us_p50"] = MedianOr0(hit_us);
  m["api.cache_evictions"] =
      static_cast<double>(cache_after_.evictions - cache_before_.evictions);
  m["api.cache_invalidations"] =
      static_cast<double>(cache_after_.invalidations - cache_before_.invalidations);
  for (const char* a : kAllAlgorithms) {
    m[std::string("algorithms.") + a + "_ms"] = MedianOr0(kernel_ms[a]);
    m[std::string("nvram.reads.") + a] = MedianOr0(reads[a]);
  }
  m["nvram.writes"] = writes;
  m["nvram.peak_intermediate_mb"] = peak_mb;
  m["parallel.cpu_per_wall"] = usage_.cpu_s / measured_s_;
  m["parallel.ctx_switches_per_req"] =
      static_cast<double>(usage_.ctx_switches) / double(samples_.size());

  std::vector<double> write_s, open_ms, warm_s;
  for (const SetupTimes& t : setups_) {
    write_s.push_back(t.write_s);
    open_ms.push_back(t.open_s * 1e3);
    warm_s.push_back(t.warm_s);
  }
  m["graph.write_s"] = Median(write_s);
  m["graph.open_ms"] = Median(open_ms);
  m["graph.warm_s"] = Median(warm_s);
  std::vector<double> apply_us, compact_ms;
  double live_max = static_cast<double>(engine_->epochs().live_epochs());
  for (const WriteOp& op : writes_) {
    if (op.compact) {
      compact_ms.push_back(op.seconds * 1e3);
    } else {
      apply_us.push_back(op.seconds * 1e6 / double(w_.update_batch));
    }
    live_max = std::max(live_max, static_cast<double>(op.live_epochs));
  }
  m["graph.apply_us_per_update"] = MedianOr0(apply_us);
  m["graph.compact_ms_p50"] = MedianOr0(compact_ms);
  m["graph.overlay_edges_mean"] = Mean(delta);
  m["graph.overlay_bfs_ratio"] =
      bfs_overlay.empty() || bfs_clean.empty()
          ? 0.0
          : Median(bfs_overlay) / Median(bfs_clean);
  m["graph.live_epochs_max"] = live_max;

  // Probes, at the workload's width, after the measured phase.
  {
    Graph tiny = sage::PathGraph(2);
    sage::RunContext ctx;
    m["api.empty_run_us"] = 1e6 * MedianSeconds(201, [&] {
      (void)sage::AlgorithmRegistry::Run("bfs", tiny, ctx);
    });
  }
  {
    const Graph g = engine_->graph();
    sage::EdgeMapOptions dense;
    dense.mode = sage::TraversalMode::kDenseOnly;
    m["core.edge_map_dense_ms"] = 1e3 * MedianSeconds(5, [&] {
      auto frontier = sage::VertexSubset::All(g.num_vertices());
      (void)sage::EdgeMap(g, frontier, ScanF{}, dense);
    });
    std::vector<vertex_id> ids(pool_.begin(),
                               pool_.begin() + std::min<size_t>(pool_.size(), n_ / 100));
    std::sort(ids.begin(), ids.end());
    sage::EdgeMapOptions sparse;
    sparse.mode = sage::TraversalMode::kSparseOnly;
    m["core.edge_map_sparse_ms"] = 1e3 * MedianSeconds(21, [&] {
      auto frontier = sage::VertexSubset::Sparse(g.num_vertices(), ids);
      (void)sage::EdgeMap(g, frontier, ScanF{}, sparse);
    });
  }
  {
    std::vector<uint8_t> sink(size_t{1} << 20);
    m["parallel.fork_join_us"] = 1e6 * MedianSeconds(21, [&] {
      sage::parallel_for(0, sink.size(), [&](size_t i) { sink[i] = 1; });
    });
  }
  {
    constexpr int kPins = 100;
    m["graph.pin_us_p50"] = 1e6 / kPins * MedianSeconds(51, [&] {
      for (int i = 0; i < kPins; ++i) (void)engine_->PinSnapshot();
    });
  }

  // Tracing overhead: odd passes recorded spans, even passes did not; both
  // halves ran the same mix, interleaved in time.
  double traced = 0, untraced = 0;
  size_t n_traced = 0, n_untraced = 0;
  for (const Sample& s : samples_) {
    if (s.failed) continue;
    (s.traced ? traced : untraced) += s.latency_s;
    ++(s.traced ? n_traced : n_untraced);
  }
  m["trace.overhead_pct"] =
      n_traced == 0 || n_untraced == 0
          ? 0.0
          : 100.0 * ((traced / double(n_traced)) / (untraced / double(n_untraced)) - 1.0);
  return m;
}

void Bench::PrintResult(const std::map<std::string, double>& metrics) const {
  size_t failed = failed_writes_;
  for (const Sample& s : samples_) failed += s.failed ? 1 : 0;
  const size_t attempted = samples_.size() + writes_.size();
  std::string j = "{\"correct\": ";
  j += failed == 0 && errors_.empty() ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted);
  j += ", \"failed\": " + std::to_string(failed);
  j += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    j += first ? "" : ", ";
    first = false;
    j += "\"" + name + "\": {\"value\": " + sage::jsonw::Double(value) +
         ", \"unit\": \"" + UnitOf(name) + "\"}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
}

void Bench::PrintProvenance() const {
  size_t failed = failed_writes_, hits = 0;
  for (const Sample& s : samples_) {
    failed += s.failed ? 1 : 0;
    hits += s.cache_hit ? 1 : 0;
  }
  const size_t attempted = samples_.size() + writes_.size();
  std::vector<double> update_ms;
  for (const WriteOp& op : writes_) {
    if (!op.compact) update_ms.push_back(op.seconds * 1e3);
  }
  using sage::jsonw::Double;
  using sage::jsonw::Str;
  using sage::jsonw::U64;
  std::string j = "{\"provenance\": {";
  j += "\"workload\": " + Str(w_.name);
  j += ", \"seed\": " + U64(seed_);
  j += ", \"trace\": " + std::string(trace_ ? "true" : "false");
  j += ", \"nproc\": " + std::to_string(shape_.nproc);
  j += ", \"width\": " + std::to_string(shape_.width);
  j += ", \"sessions\": " + std::to_string(shape_.sessions);
  j += ", \"clients\": " + std::to_string(shape_.clients);
  j += ", \"graph_n\": " + U64(n_);
  j += ", \"graph_m\": " + U64(m_);
  j += ", \"image_bytes\": " + U64(image_bytes_);
  j += ", \"cache_bytes\": " + U64(w_.serving ? w_.cache_bytes : 0);
  j += ", \"cache_hit_share\": " +
       Double(samples_.empty() ? 0.0 : double(hits) / double(samples_.size()));
  j += ", \"passes_per_client\": " + U64(plan_[0].size() / w_.mix.size());
  j += ", \"requests\": " + U64(samples_.size());
  j += ", \"latency_samples\": " + U64(samples_.size());
  j += ", \"tail_percentile\": " + Double(w_.tail_q * 100);
  j += ", \"samples_beyond_tail\": " + U64(SamplesBeyond(samples_.size(), w_.tail_q));
  // Request class at and around each reported rank: a percentile well
  // inside one class reads the same layer every run.
  std::vector<std::pair<double, std::string>> ranked;
  for (const Sample& s : samples_) {
    ranked.emplace_back(s.failed ? 1e300 : s.latency_s,
                        s.cache_hit ? "hit" : w_.mix[s.request.algorithm]);
  }
  std::sort(ranked.begin(), ranked.end());
  auto class_at = [&](double q) {
    return Str(ranked[NearestRank(ranked.size(), std::clamp(q, 0.0, 1.0)) - 1].second);
  };
  j += ", \"rank_classes\": {";
  const double margin[] = {0.05, 0.05, (1 - w_.tail_q) / 2};
  const double rank[] = {0.5, 0.9, w_.tail_q};
  const char* label[] = {"p50", "p90", "tail"};
  for (int k = 0; k < 3; ++k) {
    j += std::string(k ? ", " : "") + "\"" + label[k] + "\": [" +
         class_at(rank[k] - margin[k]) + ", " + class_at(rank[k]) + ", " +
         class_at(rank[k] + margin[k]) + "]";
  }
  j += "}";
  j += ", \"measured_s\": " + Double(measured_s_);
  j += ", \"host_steal_share\": " +
       Double(usage_.host_ticks == 0 ? 0.0
                                     : double(usage_.steal_ticks) / double(usage_.host_ticks));
  j += ", \"setup_reps\": " + std::to_string(kSetupReps);
  j += ", \"peak_rss_reset\": " + std::string(rss_reset_ ? "true" : "false");
  j += ", \"update_batches\": " + U64(update_ms.size());
  j += ", \"compactions\": " + U64(writes_.size() - update_ms.size());
  j += ", \"update_p50_ms\": " + Double(MedianOr0(update_ms));
  j += ", \"failed_share\": " +
       Double(attempted == 0 ? 0.0 : double(failed) / double(attempted));
  std::string first_error;
  for (const Sample& s : samples_) {
    if (s.failed && first_error.empty()) first_error = s.error;
  }
  for (const WriteOp& op : writes_) {
    if (!op.ok && first_error.empty()) first_error = op.error;
  }
  if (first_error.empty() && !errors_.empty()) first_error = errors_.front();
  j += ", \"first_error\": " + Str(first_error);
  j += "}}";
  std::printf("%s\n", j.c_str());
}

void Bench::PrintTrace() const {
  const std::string path =
      (work_dir_ / ("spans-" + w_.name + "-seed" + std::to_string(seed_) + ".jsonl"))
          .string();
  const bool written = spans_.WriteJsonLines(path);
  std::string j = "{\"trace\": {\"spans_file\": " + sage::jsonw::Str(written ? path : "");
  j += ", \"layers\": {";
  bool first = true;
  for (const auto& [name, t] : LayerTimes(spans_.spans())) {
    j += first ? "" : ", ";
    first = false;
    j += sage::jsonw::Str(name) + ": {\"count\": " + std::to_string(t.count) +
         ", \"total_ms\": " + sage::jsonw::Double(Seconds(t.total_ns) * 1e3) +
         ", \"self_ms\": " + sage::jsonw::Double(Seconds(t.self_ns) * 1e3) + "}";
  }
  j += "}}}";
  std::printf("%s\n", j.c_str());
}

int Bench::Run() {
  if (const std::string why = ValidateShape(shape_); !why.empty()) {
    std::fprintf(stderr, "refusing configuration: %s\n", why.c_str());
    return 2;
  }
  // A fresh directory per workload: no image of an earlier run is reused
  // or counted.
  std::error_code ec;
  std::filesystem::remove_all(work_dir_, ec);
  std::filesystem::create_directories(work_dir_, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", work_dir_.c_str());
    return 1;
  }
  if (!Generate() || !SetUp()) return 1;
  Measure();
  Verify();
  const std::map<std::string, double> metrics = trace_ ? PerLayer() : EndToEnd();
  PrintProvenance();
  if (trace_) PrintTrace();
  PrintResult(metrics);
  std::fflush(stdout);
  return 0;
}

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload %s --seed N [--seconds S] [--trace 0|1] "
               "[--work-dir DIR]\n",
               argv0, WorkloadNames().c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload, work_dir = ".bench_build/perfbench-work";
  uint64_t seed = 0;
  double seconds = 20;
  bool trace = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value) != 0;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return perfbench::PrintUsage(argv[0]);
    }
  }
  const perfbench::Workload* w = perfbench::FindWorkload(workload);
  if (w == nullptr || !have_seed || argc % 2 == 0) return perfbench::PrintUsage(argv[0]);
  perfbench::Bench bench(*w, seed, seconds, trace,
                         std::filesystem::path(work_dir) / w->name);
  return bench.Run();
}
