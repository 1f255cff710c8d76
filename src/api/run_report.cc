#include "api/run_report.h"

#include <cstdio>

#include "common/json.h"

namespace sage {

std::string RunReport::ToJson() const {
  using jsonw::Double;
  using jsonw::Str;
  using jsonw::U64;
  std::string j = "{\n";
  j += "  \"algorithm\": " + Str(algorithm) + ",\n";
  j += "  \"summary\": " + Str(summary) + ",\n";
  j += "  \"wall_seconds\": " + Double(wall_seconds) + ",\n";
  j += "  \"device_seconds\": " + Double(device_seconds) + ",\n";
  j += "  \"threads\": " + std::to_string(threads) + ",\n";
  j += "  \"policy\": " + Str(nvram::AllocPolicyName(policy)) + ",\n";
  j += "  \"graph_source\": " +
       Str(graph_mapped ? "mapped-nvram" : "memory") + ",\n";
  j += "  \"graph_epoch\": " + U64(graph_epoch) + ",\n";
  j += "  \"delta_edges\": " + U64(delta_edges) + ",\n";
  j += "  \"omega\": " + Double(omega) + ",\n";
  j += "  \"psam_cost\": " + Double(PsamCost()) + ",\n";
  j += "  \"peak_intermediate_bytes\": " + U64(peak_intermediate_bytes) +
       ",\n";
  j += "  \"prefetch_enabled\": " +
       std::string(prefetch_enabled ? "true" : "false") + ",\n";
  j += "  \"prefetch_waves\": " + U64(prefetch_waves) + ",\n";
  j += "  \"pages_prefetched\": " + U64(pages_prefetched) + ",\n";
  j += "  \"pages_faulted\": " + U64(pages_faulted) + ",\n";
  j += "  \"cache_hit\": " + std::string(cache_hit ? "true" : "false") +
       ",\n";
  j += "  \"queue_seconds\": " + Double(queue_seconds) + ",\n";
  j += "  \"counters\": " + cost.ToJson() + "\n";
  j += "}";
  return j;
}

std::string RunReport::ToString() const {
  char buf[256];
  std::string s = algorithm + ": " + summary + "\n";
  std::snprintf(buf, sizeof(buf),
                "time: %.4fs on %d threads | policy=%s omega=%.1f%s\n",
                wall_seconds, threads, nvram::AllocPolicyName(policy), omega,
                graph_mapped ? " graph=mapped-nvram" : "");
  s += buf;
  s += "psam: " + cost.ToString();
  std::snprintf(buf, sizeof(buf), " | device-time=%.1fms\n",
                device_seconds * 1e3);
  s += buf;
  std::snprintf(buf, sizeof(buf), "dram-peak: %llu intermediate bytes\n",
                static_cast<unsigned long long>(peak_intermediate_bytes));
  s += buf;
  if (graph_epoch != 0 || delta_edges != 0) {
    std::snprintf(buf, sizeof(buf),
                  "epoch: %llu | delta-edges: %llu\n",
                  static_cast<unsigned long long>(graph_epoch),
                  static_cast<unsigned long long>(delta_edges));
    s += buf;
  }
  if (cache_hit) {
    s += "cache: hit (summary and counters replayed from the original "
         "run)\n";
  }
  if (prefetch_enabled) {
    std::snprintf(buf, sizeof(buf),
                  "prefetch: %llu waves, %llu pages prefetched, "
                  "%llu left to fault\n",
                  static_cast<unsigned long long>(prefetch_waves),
                  static_cast<unsigned long long>(pages_prefetched),
                  static_cast<unsigned long long>(pages_faulted));
    s += buf;
  }
  return s;
}

}  // namespace sage
