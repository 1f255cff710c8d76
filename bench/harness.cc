#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/macros.h"
#include "common/timer.h"
#include "nvram/memory_tracker.h"
#include "parallel/parallel.h"

namespace sage::bench {

// ---------------------------------------------------------------------------
// Statistics

BenchStats BenchStats::FromSamples(std::vector<double> samples) {
  BenchStats s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  size_t mid = samples.size() / 2;
  s.median = samples.size() % 2 == 1
                 ? samples[mid]
                 : (samples[mid - 1] + samples[mid]) / 2.0;
  double var = 0;
  for (double v : samples) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(samples.size()));
  return s;
}

// ---------------------------------------------------------------------------
// JSON writing

// String/number atoms come from common/json.h (shared with RunReport's
// serializer); the counters object comes from CostTotals::ToJson, so the
// bench records and RunReport JSON cannot drift.
namespace {

using jsonw::Double;  // NOLINT(misc-unused-using-decls)
using jsonw::Str;
using jsonw::U64;

std::string StatsJson(const BenchStats& s) {
  std::string j = "{";
  j += "\"count\": " + std::to_string(s.count);
  j += ", \"min\": " + Double(s.min);
  j += ", \"max\": " + Double(s.max);
  j += ", \"mean\": " + Double(s.mean);
  j += ", \"median\": " + Double(s.median);
  j += ", \"stddev\": " + Double(s.stddev);
  j += "}";
  return j;
}

}  // namespace

std::string BenchRecord::ToJson(const std::string& indent) const {
  const std::string in1 = indent + "  ";
  std::string j = indent + "{\n";
  j += in1 + "\"benchmark\": " + Str(benchmark) + ",\n";
  j += in1 + "\"label\": " + Str(label) + ",\n";
  j += in1 + "\"config\": {";
  for (size_t i = 0; i < config.size(); ++i) {
    if (i > 0) j += ", ";
    j += Str(config[i].first) + ": " + Str(config[i].second);
  }
  j += "},\n";
  j += in1 + "\"graph\": {\"log_n\": " + std::to_string(graph.log_n) +
       ", \"requested_edges\": " + U64(graph.requested_edges) +
       ", \"n\": " + U64(graph.n) + ", \"m\": " + U64(graph.m) +
       "},\n";
  j += in1 + "\"threads\": " + std::to_string(threads) + ",\n";
  j += in1 + "\"repetitions\": " + std::to_string(repetitions) + ",\n";
  j += in1 + "\"warmup\": " + std::to_string(warmup) + ",\n";
  j += in1 + "\"wall_seconds\": " + StatsJson(wall) + ",\n";
  j += in1 + "\"device_seconds\": " + Double(device_seconds) + ",\n";
  j += in1 + "\"model_seconds\": " + Double(model_seconds) + ",\n";
  j += in1 + "\"omega\": " + Double(omega) + ",\n";
  if (has_counters) {
    j += in1 + "\"psam_cost\": " + Double(counters.PsamCost(omega)) +
         ",\n";
    j += in1 + "\"counters\": " + counters.ToJson() + ",\n";
  }
  if (has_latency) {
    j += in1 + "\"latency_seconds\": {\"p50\": " + Double(latency_p50_seconds) +
         ", \"p95\": " + Double(latency_p95_seconds) +
         ", \"p99\": " + Double(latency_p99_seconds) + "},\n";
  }
  j += in1 + "\"peak_intermediate_bytes\": " +
       U64(peak_intermediate_bytes) + ",\n";
  j += in1 + "\"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) j += ", ";
    j += Str(metrics[i].first) + ": " + Double(metrics[i].second);
  }
  j += "}\n";
  j += indent + "}";
  return j;
}

std::string RecordsToJson(const BenchRunMeta& meta,
                          const std::vector<BenchRecord>& records) {
  std::string j = "{\n";
  j += "  \"schema_version\": " + std::to_string(kBenchSchemaVersion) + ",\n";
  j += "  \"generator\": \"sage_bench\",\n";
  j += "  \"git_sha\": " + Str(meta.git_sha) + ",\n";
  j += "  \"threads\": " + std::to_string(meta.threads) + ",\n";
  j += "  \"scale\": {\"log_n\": " + std::to_string(meta.log_n) +
       ", \"edges\": " + U64(meta.edges) + "},\n";
  j += "  \"repetitions\": " + std::to_string(meta.repetitions) + ",\n";
  j += "  \"warmup\": " + std::to_string(meta.warmup) + ",\n";
  j += "  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    j += records[i].ToJson("    ");
    if (i + 1 < records.size()) j += ",";
    j += "\n";
  }
  j += "  ]\n}\n";
  return j;
}

// ---------------------------------------------------------------------------
// BenchContext

BenchRecord BenchContext::NewRecord(std::string label) const {
  BenchRecord r;
  r.benchmark = benchmark_;
  r.label = std::move(label);
  r.graph = scale_;
  r.threads = num_workers();
  r.repetitions = repetitions_;
  r.warmup = warmup_;
  r.omega = nvram::Cost().config().omega;
  return r;
}

void BenchContext::Report(BenchRecord record) {
  records_.push_back(std::move(record));
}

void BenchContext::NoteF(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  int len = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  std::string line;
  if (len > 0) {
    line.resize(static_cast<size_t>(len) + 1);
    std::vsnprintf(line.data(), line.size(), fmt, args);
    line.resize(static_cast<size_t>(len));
  }
  va_end(args);
  notes_.push_back(std::move(line));
}

BenchRecord BenchContext::MeasureFn(std::string label,
                                    const std::function<void()>& fn) {
  auto& cm = nvram::Cost();
  auto& mt = nvram::Memory();
  BenchRecord r = NewRecord(std::move(label));
  for (int i = 0; i < warmup_; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(repetitions_));
  for (int rep = 0; rep < repetitions_; ++rep) {
    const nvram::CostTotals base = cm.Totals();
    const uint64_t mem_base = mt.CurrentBytes();
    mt.ResetPeak();
    Timer timer;
    fn();
    samples.push_back(timer.Seconds());
    r.counters = cm.Totals() - base;
    const uint64_t peak = mt.PeakBytes();
    r.peak_intermediate_bytes = peak > mem_base ? peak - mem_base : 0;
  }
  r.has_counters = true;
  r.threads = num_workers();
  r.wall = BenchStats::FromSamples(std::move(samples));
  r.device_seconds = cm.EmulatedNanos(r.counters, num_workers()) / 1e9;
  r.model_seconds = std::max(r.wall.min, r.device_seconds);
  return r;
}

BenchRecord BenchContext::MeasureAlgorithm(std::string label,
                                           const std::string& algorithm,
                                           const Graph& g,
                                           const Graph& weighted,
                                           const RunContext& rctx,
                                           const RunParams& params) {
  BenchRecord r = NewRecord(std::move(label));
  r.omega = rctx.omega;
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(repetitions_));
  for (int rep = 0; rep < warmup_ + repetitions_; ++rep) {
    auto run = AlgorithmRegistry::Run(algorithm, g, rctx, params, &weighted);
    SAGE_CHECK_MSG(run.ok(), "%s: %s", algorithm.c_str(),
                   run.status().ToString().c_str());
    if (rep < warmup_) continue;
    const RunReport& report = run.ValueOrDie();
    samples.push_back(report.wall_seconds);
    r.counters = report.cost;
    r.has_counters = true;
    r.threads = report.threads;
    r.device_seconds = report.device_seconds;
    r.peak_intermediate_bytes = report.peak_intermediate_bytes;
  }
  r.wall = BenchStats::FromSamples(std::move(samples));
  r.model_seconds = std::max(r.wall.min, r.device_seconds);
  return r;
}

// ---------------------------------------------------------------------------
// Registry

BenchmarkRegistry& BenchmarkRegistry::Get() {
  static BenchmarkRegistry* registry = new BenchmarkRegistry();
  return *registry;
}

Status BenchmarkRegistry::Register(BenchmarkInfo info, BenchFn fn) {
  if (info.name.empty()) {
    return Status::InvalidArgument("benchmark registered with empty name");
  }
  if (Find(info.name) != nullptr) {
    return Status::InvalidArgument("benchmark '" + info.name +
                                   "' is already registered");
  }
  if (fn == nullptr) {
    return Status::InvalidArgument("benchmark '" + info.name +
                                   "' registered without a body");
  }
  entries_.push_back(Entry{std::move(info), std::move(fn)});
  return Status::OK();
}

bool BenchmarkRegistry::RegisterOrDie(BenchmarkInfo info, BenchFn fn) {
  Status s = Register(std::move(info), std::move(fn));
  SAGE_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  return true;
}

const BenchmarkRegistry::Entry* BenchmarkRegistry::Find(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.info.name == name) return &e;
  }
  return nullptr;
}

std::vector<std::string> BenchmarkRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.info.name);
  return names;
}

// ---------------------------------------------------------------------------
// Human-readable formatter

namespace {

std::string ConfigSummary(const BenchRecord& r) {
  std::string s;
  for (const auto& [k, v] : r.config) {
    if (!s.empty()) s += ' ';
    s += k + "=" + v;
  }
  return s;
}

void PrintRecords(const std::vector<BenchRecord>& records) {
  if (records.empty()) return;
  std::printf("%-34s %-38s %10s %9s %9s %9s %10s %9s\n", "label", "config",
              "wall-med", "stddev", "device", "model", "psam(M)", "peakMB");
  for (const BenchRecord& r : records) {
    std::printf("%-34s %-38s", r.label.c_str(), ConfigSummary(r).c_str());
    if (r.wall.count > 0) {
      std::printf(" %9.4fs %8.4fs", r.wall.median, r.wall.stddev);
    } else {
      std::printf(" %10s %9s", "-", "-");
    }
    if (r.has_counters) {
      std::printf(" %8.3fs %8.3fs %10.1f %9.2f", r.device_seconds,
                  r.model_seconds, r.counters.PsamCost(r.omega) / 1e6,
                  r.peak_intermediate_bytes / 1e6);
    } else {
      std::printf(" %9s %9s %10s %9s", "-", "-", "-", "-");
    }
    for (const auto& [k, v] : r.metrics) {
      std::printf("  %s=%.4g", k.c_str(), v);
    }
    std::printf("\n");
  }
}

/// Env/flag scale validation shared by the driver's -logn/-edges, on the
/// same constants BenchLogN/BenchEdges enforce for the environment.
bool ValidLogN(int64_t v) {
  return v >= kMinBenchLogN && v <= kMaxBenchLogN;
}
bool ValidEdges(int64_t v) {
  return v >= kMinBenchEdges && v <= kMaxBenchEdges;
}

/// Strict integer parse for flag values: unlike CommandLine::GetInt,
/// trailing garbage ("2e6") is a parse failure, not a silent prefix parse.
/// Same rule as the env readers (bench_common.h's ParseBenchInt).
bool ParseFlagInt(const std::string& text, int64_t* out) {
  long long v = 0;
  if (!ParseBenchInt(text.c_str(), &v)) return false;
  *out = v;
  return true;
}

void Usage() {
  std::printf(
      "sage_bench: unified driver for the paper's table/figure "
      "benchmarks.\n\n"
      "  -list              list registered benchmarks and exit\n"
      "  -filter <substr>   run only benchmarks whose name contains "
      "<substr>\n"
      "  -json <path>       write the consolidated JSON perf record file\n"
      "  -repetitions <n>   timed repetitions per measurement (default "
      "3)\n"
      "  -warmup <n>        unmeasured warmup runs per measurement "
      "(default 1)\n"
      "  -threads <n>       worker threads (default: all hardware "
      "threads)\n"
      "  -logn <n>          graph scale: log2 vertices, in [8, 26] "
      "(default 15)\n"
      "  -edges <n>         graph scale: edges, in [1, 2^32] (default "
      "400000)\n"
      "  -sha <sha>         git sha stamped into the JSON (default "
      "\"unknown\")\n"
      "  -help              this message\n\n"
      "SAGE_BENCH_LOGN / SAGE_BENCH_EDGES set the same scale from the\n"
      "environment; the flags win when both are given.\n");
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver

int BenchMain(int argc, char** argv) {
  CommandLine cl(argc, argv);
  if (cl.Has("help") || cl.Has("h")) {
    Usage();
    return 0;
  }

  BenchmarkRegistry& registry = BenchmarkRegistry::Get();
  if (cl.Has("list")) {
    for (const auto& e : registry.entries()) {
      std::printf("%-28s %s\n", e.info.name.c_str(),
                  e.info.description.c_str());
    }
    return 0;
  }

  // Scale flags override the environment (the benchmarks read the scale
  // through bench_common.h's BenchLogN/BenchEdges, which read the env).
  if (cl.Has("logn")) {
    int64_t v = 0;
    if (!ParseFlagInt(cl.GetString("logn"), &v) || !ValidLogN(v)) {
      std::fprintf(stderr,
                   "sage_bench: -logn '%s' is not an integer in [8, 26]\n",
                   cl.GetString("logn").c_str());
      return 2;
    }
    setenv("SAGE_BENCH_LOGN", std::to_string(v).c_str(), /*overwrite=*/1);
  }
  if (cl.Has("edges")) {
    int64_t v = 0;
    if (!ParseFlagInt(cl.GetString("edges"), &v) || !ValidEdges(v)) {
      std::fprintf(stderr,
                   "sage_bench: -edges '%s' is not an integer in "
                   "[1, 2^32]\n",
                   cl.GetString("edges").c_str());
      return 2;
    }
    setenv("SAGE_BENCH_EDGES", std::to_string(v).c_str(), /*overwrite=*/1);
  }

  // The remaining integer flags go through the same strict parse as
  // -logn/-edges: a prefix parse would silently run the wrong protocol
  // (e.g. "-repetitions 1e2" as 1 rep) and record it in the JSON.
  // The bound also guards the later int64->int narrowing: 2^33 reps would
  // otherwise wrap to 0 and silently run nothing.
  constexpr int64_t kMaxIntFlag = 1 << 20;
  int64_t threads = 0, repetitions = 3, warmup = 1;
  struct IntFlag {
    const char* name;
    int64_t* value;
    int64_t min;
  };
  for (const IntFlag& flag : {IntFlag{"threads", &threads, 0},
                              IntFlag{"repetitions", &repetitions, 1},
                              IntFlag{"warmup", &warmup, 0}}) {
    if (!cl.Has(flag.name)) continue;
    int64_t v = 0;
    if (!ParseFlagInt(cl.GetString(flag.name), &v) || v < flag.min ||
        v > kMaxIntFlag) {
      std::fprintf(stderr,
                   "sage_bench: -%s '%s' is not an integer in [%lld, 2^20]\n",
                   flag.name, cl.GetString(flag.name).c_str(),
                   static_cast<long long>(flag.min));
      return 2;
    }
    *flag.value = v;
  }
  if (threads > 0) Scheduler::Reset(static_cast<int>(threads));
  const std::string filter = cl.GetString("filter");
  const std::string json_path = cl.GetString("json");
  if (cl.Has("json") && json_path.empty()) {
    // CommandLine parses a flag followed by another flag as boolean, so
    // `-json -filter x` would otherwise silently write nothing.
    std::fprintf(stderr, "sage_bench: -json requires a file path\n");
    return 2;
  }

  std::vector<const BenchmarkRegistry::Entry*> selected;
  for (const auto& e : registry.entries()) {
    if (filter.empty() || e.info.name.find(filter) != std::string::npos) {
      selected.push_back(&e);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr,
                 "sage_bench: no benchmark matches -filter '%s' "
                 "(run -list for names)\n",
                 filter.c_str());
    return 2;
  }

  std::vector<BenchRecord> all;
  for (const auto* entry : selected) {
    std::printf("== %s: %s ==\n", entry->info.name.c_str(),
                entry->info.description.c_str());
    BenchContext ctx(entry->info.name, static_cast<int>(repetitions),
                     static_cast<int>(warmup));
    Timer timer;
    entry->fn(ctx);
    PrintRecords(ctx.records());
    for (const std::string& note : ctx.notes()) {
      std::printf("%s\n", note.c_str());
    }
    std::printf("(%zu records in %.1fs)\n\n", ctx.records().size(),
                timer.Seconds());
    all.insert(all.end(), ctx.records().begin(), ctx.records().end());
  }

  std::printf("ran %zu benchmarks, %zu records total\n", selected.size(),
              all.size());

  if (!json_path.empty()) {
    // Meta scale through the same validated/cached readers the benchmarks
    // used, so the header always matches the records (a raw env re-parse
    // would stamp garbage values that BenchLogN/BenchEdges rejected).
    BenchRunMeta meta;
    meta.git_sha = cl.GetString("sha", "unknown");
    meta.threads = num_workers();
    meta.log_n = BenchLogN();
    meta.edges = BenchEdges();
    meta.repetitions = static_cast<int>(repetitions);
    meta.warmup = static_cast<int>(warmup);
    std::string doc = RecordsToJson(meta, all);
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "sage_bench: cannot open '%s' for writing\n",
                   json_path.c_str());
      return 2;
    }
    size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
    int close_err = std::fclose(f);
    if (written != doc.size() || close_err != 0) {
      std::fprintf(stderr, "sage_bench: short write to '%s'\n",
                   json_path.c_str());
      return 2;
    }
    std::printf("wrote %s (%zu records, schema v%d)\n", json_path.c_str(),
                all.size(), kBenchSchemaVersion);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// JSON parsing

namespace json {

/// Friend of Value: exposes the private fields to the parser below.
struct ValueBuilder {
  static Value::Kind& kind(Value& v) { return v.kind_; }
  static bool& boolean(Value& v) { return v.bool_; }
  static double& number(Value& v) { return v.number_; }
  static std::string& string(Value& v) { return v.string_; }
  static std::vector<std::string>& keys(Value& v) { return v.keys_; }
  static std::vector<Value>& items(Value& v) { return v.items_; }
};

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : p_(text.c_str()) {}

  Result<Value> Parse() {
    SkipWs();
    Value v;
    Status s = ParseValue(&v);
    if (!s.ok()) return s;
    SkipWs();
    if (*p_ != '\0') return Error("trailing characters after document");
    return v;
  }

 private:
  Status Error(const std::string& msg) {
    return Status::InvalidArgument("json: " + msg);
  }

  void SkipWs() {
    while (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r') ++p_;
  }

  bool Consume(const char* lit) {
    size_t len = std::strlen(lit);
    if (std::strncmp(p_, lit, len) != 0) return false;
    p_ += len;
    return true;
  }

  Status ParseValue(Value* out) {
    switch (*p_) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        ValueBuilder::kind(*out) = Value::Kind::kString;
        return ParseString(&ValueBuilder::string(*out));
      case 't':
        if (!Consume("true")) return Error("bad literal");
        ValueBuilder::kind(*out) = Value::Kind::kBool;
        ValueBuilder::boolean(*out) = true;
        return Status::OK();
      case 'f':
        if (!Consume("false")) return Error("bad literal");
        ValueBuilder::kind(*out) = Value::Kind::kBool;
        ValueBuilder::boolean(*out) = false;
        return Status::OK();
      case 'n':
        if (!Consume("null")) return Error("bad literal");
        ValueBuilder::kind(*out) = Value::Kind::kNull;
        return Status::OK();
      case '\0':
        return Error("unexpected end of input");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseNumber(Value* out) {
    char* end = nullptr;
    double v = std::strtod(p_, &end);
    if (end == p_) return Error("bad number");
    p_ = end;
    ValueBuilder::kind(*out) = Value::Kind::kNumber;
    ValueBuilder::number(*out) = v;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (*p_ != '"') return Error("expected string");
    ++p_;
    out->clear();
    while (*p_ != '"') {
      if (*p_ == '\0') return Error("unterminated string");
      if (*p_ == '\\') {
        ++p_;
        switch (*p_) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              ++p_;
              char c = *p_;
              code <<= 4;
              if (c >= '0' && c <= '9') {
                code |= static_cast<unsigned>(c - '0');
              } else if (c >= 'a' && c <= 'f') {
                code |= static_cast<unsigned>(c - 'a' + 10);
              } else if (c >= 'A' && c <= 'F') {
                code |= static_cast<unsigned>(c - 'A' + 10);
              } else {
                return Error("bad \\u escape");
              }
            }
            // UTF-8 encode (basic plane; no surrogate-pair support, which
            // sage_bench never emits).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("bad escape");
        }
        ++p_;
      } else {
        *out += *p_;
        ++p_;
      }
    }
    ++p_;  // closing quote
    return Status::OK();
  }

  Status ParseArray(Value* out) {
    ++p_;  // '['
    ValueBuilder::kind(*out) = Value::Kind::kArray;
    SkipWs();
    if (*p_ == ']') {
      ++p_;
      return Status::OK();
    }
    while (true) {
      Value item;
      Status s = ParseValue(&item);
      if (!s.ok()) return s;
      ValueBuilder::items(*out).push_back(std::move(item));
      SkipWs();
      if (*p_ == ',') {
        ++p_;
        SkipWs();
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(Value* out) {
    ++p_;  // '{'
    ValueBuilder::kind(*out) = Value::Kind::kObject;
    SkipWs();
    if (*p_ == '}') {
      ++p_;
      return Status::OK();
    }
    while (true) {
      std::string key;
      Status s = ParseString(&key);
      if (!s.ok()) return s;
      SkipWs();
      if (*p_ != ':') return Error("expected ':' in object");
      ++p_;
      SkipWs();
      Value item;
      s = ParseValue(&item);
      if (!s.ok()) return s;
      ValueBuilder::keys(*out).push_back(std::move(key));
      ValueBuilder::items(*out).push_back(std::move(item));
      SkipWs();
      if (*p_ == ',') {
        ++p_;
        SkipWs();
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  const char* p_;
};

}  // namespace

Result<Value> Value::Parse(const std::string& text) {
  return Parser(text).Parse();
}

const Value* Value::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return &items_[i];
  }
  return nullptr;
}

const Value& Value::At(const std::string& key) const {
  const Value* v = Find(key);
  SAGE_CHECK_MSG(v != nullptr, "json object has no member '%s'",
                 key.c_str());
  return *v;
}

}  // namespace json

}  // namespace sage::bench
