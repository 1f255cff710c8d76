#include "api/query_service.h"

#include <algorithm>
#include <exception>
#include <limits>

#include "common/json.h"
#include "parallel/parallel.h"

namespace sage {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

std::string ServingCounters::ToJson() const {
  using jsonw::U64;
  return "{\"submitted\": " + U64(submitted) +
         ", \"rejected\": " + U64(rejected) +
         ", \"completed\": " + U64(completed) +
         ", \"cache_hits\": " + U64(cache_hits) +
         ", \"errors\": " + U64(errors) +
         ", \"deadline_misses\": " + U64(deadline_misses) +
         ", \"cancelled\": " + U64(cancelled) + "}";
}

QueryService::QueryService(const Graph& graph, Options options)
    : snapshot_(std::make_shared<const GraphSnapshot>(0, graph, 0)),
      options_([&] {
        Options o = options;
        o.sessions = std::max(1, o.sessions);
        o.queue_capacity = std::max<size_t>(1, o.queue_capacity);
        return o;
      }()),
      cache_(options_.cache_bytes > 0
                 ? std::make_shared<ResultCache>(options_.cache_bytes)
                 : nullptr) {
  // Materialize the scheduler before the sessions race to use it: its
  // lazy first-use construction is single-threaded by contract.
  (void)Scheduler::Get();
  sessions_.reserve(static_cast<size_t>(options_.sessions));
  try {
    for (int i = 0; i < options_.sessions; ++i) {
      sessions_.emplace_back([this] { SessionLoop(); });
    }
  } catch (...) {
    // Thread spawning failed partway (resource exhaustion): join the
    // sessions already parked on this object before the half-constructed
    // members unwind (the destructor will not run).
    Shutdown();
    throw;
  }
}

QueryService::~QueryService() { Shutdown(); }

std::future<Result<RunReport>> QueryService::Submit(
    std::string algorithm, RunContext ctx, RunParams params,
    std::shared_ptr<const GraphSnapshot> snapshot,
    const std::string& tenant_name) {
  Request request;
  request.algorithm = std::move(algorithm);
  request.ctx = ctx;
  request.params = params;
  request.snapshot = snapshot != nullptr ? std::move(snapshot) : snapshot_;
  request.submit_time = std::chrono::steady_clock::now();
  std::future<Result<RunReport>> future = request.promise.get_future();

  // Cache front: a hit completes the future right here - no admission, no
  // queue slot, no session. The key pins the snapshot epoch, so a query
  // pinned to epoch N can only ever see epoch-N results.
  if (cache_ != nullptr) {
    const AlgorithmInfo* info =
        AlgorithmRegistry::Get().Find(request.algorithm);
    if (info != nullptr) {
      request.cache_key = ResultCache::CanonicalKey(
          request.snapshot->epoch, *info, request.ctx, request.params);
      RunReport cached;
      if (cache_->Lookup(request.cache_key, &cached)) {
        cached.cache_hit = true;
        const auto now = std::chrono::steady_clock::now();
        cached.queue_seconds = SecondsSince(request.submit_time, now);
        Tenant* tenant;
        {
          MutexLock lock(mu_);
          tenant = &TenantLocked(tenant_name);
          ++tenant->counters.submitted;
          ++tenant->counters.cache_hits;
          ++counters_.submitted;
          ++counters_.cache_hits;
        }
        const double seconds = SecondsSince(request.submit_time, now);
        tenant->histogram.RecordSeconds(seconds);
        global_histogram_.RecordSeconds(seconds);
        request.promise.set_value(std::move(cached));
        return future;
      }
    }
  }

  {
    MutexLock lock(mu_);
    Tenant& tenant = TenantLocked(tenant_name);
    ++tenant.counters.submitted;
    ++counters_.submitted;
    if (tenant.config.max_queued > 0) {
      // Quota tenant: never blocks - a full share or a full queue is an
      // immediate ResourceExhausted so the caller can shed load.
      if (!shutdown_ && (tenant.queued >= tenant.config.max_queued ||
                         queue_.size() >= options_.queue_capacity)) {
        ++tenant.counters.rejected;
        ++counters_.rejected;
        request.promise.set_value(Status::ResourceExhausted(
            "tenant '" + tenant_name + "' over admission quota (" +
            std::to_string(tenant.queued) + " queued, share " +
            std::to_string(tenant.config.max_queued) + ")"));
        return future;
      }
    } else {
      while (!shutdown_ && queue_.size() >= options_.queue_capacity) {
        queue_not_full_.Wait(lock);
      }
    }
    if (shutdown_) {
      request.promise.set_value(Status::Internal(
          "QueryService is shut down; submission rejected"));
      return future;
    }
    request.tenant = &tenant;
    request.priority = tenant.config.priority;
    ++tenant.queued;
    queue_.push_back(std::move(request));
  }
  queue_not_empty_.NotifyOne();
  return future;
}

void QueryService::RegisterTenant(const std::string& name,
                                  TenantConfig config) {
  MutexLock lock(mu_);
  TenantLocked(name).config = config;
}

void QueryService::Shutdown() {
  // Serializes shutdowns end to end: a concurrent second caller (e.g. the
  // destructor racing an explicit Shutdown) blocks here until the first
  // caller has finished joining the sessions, never returning while
  // session threads still run.
  MutexLock shutdown_lock(shutdown_mu_);
  {
    MutexLock lock(mu_);
    if (shutdown_) return;  // fully shut down by a previous caller
    shutdown_ = true;
  }
  queue_not_empty_.NotifyAll();
  queue_not_full_.NotifyAll();
  for (std::thread& session : sessions_) {
    if (session.joinable()) session.join();
  }
}

size_t QueryService::pending() const {
  MutexLock lock(mu_);
  return queue_.size();
}

ServingCounters QueryService::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

LatencySnapshot QueryService::tenant_latency(const std::string& name) const {
  const Tenant* tenant = nullptr;
  {
    MutexLock lock(mu_);
    auto it = tenants_.find(name);
    if (it != tenants_.end()) tenant = it->second.get();
  }
  // Tenant entries are never erased, so the pointer stays valid after the
  // lock drops; the histogram is internally synchronized.
  return tenant != nullptr ? tenant->histogram.Snapshot() : LatencySnapshot{};
}

std::string QueryService::StatsJson() const {
  struct TenantRow {
    std::string name;
    TenantConfig config;
    ServingCounters counters;
    const Tenant* tenant;
  };
  ServingCounters global;
  size_t queued;
  std::vector<TenantRow> rows;
  {
    MutexLock lock(mu_);
    global = counters_;
    queued = queue_.size();
    rows.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) {
      rows.push_back(
          TenantRow{name, tenant->config, tenant->counters, tenant.get()});
    }
  }
  // Stable output order for tests and diffing.
  std::sort(rows.begin(), rows.end(),
            [](const TenantRow& a, const TenantRow& b) {
              return a.name < b.name;
            });
  using jsonw::Str;
  using jsonw::U64;
  std::string j = "{\n";
  j += "  \"sessions\": " + std::to_string(sessions()) + ",\n";
  j += "  \"queue_capacity\": " + U64(queue_capacity()) + ",\n";
  j += "  \"pending\": " + U64(queued) + ",\n";
  j += "  \"counters\": " + global.ToJson() + ",\n";
  j += "  \"latency\": " + global_histogram_.Snapshot().ToJson() + ",\n";
  if (cache_ != nullptr) {
    const ResultCacheStats cs = cache_->stats();
    j += "  \"cache\": {\"max_bytes\": " + U64(cache_->max_bytes()) +
         ", \"bytes\": " + U64(cs.bytes) + ", \"entries\": " +
         U64(cs.entries) + ", \"hits\": " + U64(cs.hits) +
         ", \"misses\": " + U64(cs.misses) + ", \"insertions\": " +
         U64(cs.insertions) + ", \"evictions\": " + U64(cs.evictions) +
         ", \"invalidations\": " + U64(cs.invalidations) + "},\n";
  } else {
    j += "  \"cache\": null,\n";
  }
  j += "  \"tenants\": {";
  bool first = true;
  for (const TenantRow& row : rows) {
    if (!first) j += ",";
    first = false;
    j += "\n    " + Str(row.name) + ": {\"priority\": " +
         std::to_string(row.config.priority) + ", \"max_in_flight\": " +
         U64(row.config.max_in_flight) + ", \"max_queued\": " +
         U64(row.config.max_queued) + ", \"counters\": " +
         row.counters.ToJson() + ", \"latency\": " +
         row.tenant->histogram.Snapshot().ToJson() + "}";
  }
  j += rows.empty() ? "}\n" : "\n  }\n";
  j += "}";
  return j;
}

QueryService::Tenant& QueryService::TenantLocked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    auto tenant = std::make_unique<Tenant>();
    tenant->name = name;
    it = tenants_.emplace(name, std::move(tenant)).first;
  }
  return *it->second;
}

size_t QueryService::FindRunnableLocked() const {
  size_t best = queue_.size();
  int best_priority = std::numeric_limits<int>::min();
  for (size_t i = 0; i < queue_.size(); ++i) {
    const Request& r = queue_[i];
    if (r.tenant->config.max_in_flight > 0 &&
        r.tenant->in_flight >= r.tenant->config.max_in_flight) {
      continue;
    }
    // Strict > keeps the earliest request of the winning priority (FIFO
    // within a priority class).
    if (best == queue_.size() || r.priority > best_priority) {
      best = i;
      best_priority = r.priority;
    }
  }
  return best;
}

void QueryService::SessionLoop() {
  for (;;) {
    Request request;
    {
      MutexLock lock(mu_);
      for (;;) {
        const size_t idx = FindRunnableLocked();
        if (idx < queue_.size()) {
          request = std::move(queue_[idx]);
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
          break;
        }
        if (shutdown_ && queue_.empty()) return;
        // Empty, or every queued request is behind a tenant's in-flight
        // cap; a new submission or a completion re-wakes us. During
        // shutdown the queue drains the same way - capped requests become
        // runnable as their tenants' in-flight runs finish.
        queue_not_empty_.Wait(lock);
      }
      --request.tenant->queued;
      ++request.tenant->in_flight;
    }
    queue_not_full_.NotifyOne();

    bool have_result = true;
    Result<RunReport> result = Status::Internal("unset");
    try {
      // Queue wait and run share one deadline budget: spend the wait here,
      // and the registry starts the clock on what remains.
      const double queue_seconds =
          SecondsSince(request.submit_time, std::chrono::steady_clock::now());
      const bool has_deadline = request.ctx.deadline_ms > 0;
      if (has_deadline) request.ctx.deadline_ms -= 1e3 * queue_seconds;
      if (request.ctx.cancel != nullptr && request.ctx.cancel->cancelled()) {
        result = Status::Cancelled(request.algorithm +
                                   ": cancelled while queued");
      } else if (has_deadline && request.ctx.deadline_ms <= 0) {
        // Prompt miss: the budget burned out in the queue, so the run
        // never starts.
        result = Status::DeadlineExceeded(request.algorithm +
                                          ": deadline expired while queued");
      } else {
        result = Execute(request);
        if (result.ok()) result.ValueOrDie().queue_seconds = queue_seconds;
      }
    } catch (...) {
      have_result = false;
      {
        MutexLock lock(mu_);
        --request.tenant->in_flight;
        ++request.tenant->counters.errors;
        ++counters_.errors;
      }
      queue_not_empty_.NotifyAll();
      request.promise.set_exception(std::current_exception());
    }
    if (have_result) FinishRequest(request, std::move(result));
  }
}

void QueryService::FinishRequest(Request& request, Result<RunReport> result) {
  // Cache successful fresh runs under the key computed at submission. The
  // inserted copy is exactly what the caller receives (epoch stamped,
  // cache_hit false), so hits replay it bit-identically.
  if (result.ok() && cache_ != nullptr && !request.cache_key.empty()) {
    cache_->Insert(request.cache_key, request.snapshot->epoch,
                   result.ValueOrDie());
  }
  const StatusCode code =
      result.ok() ? StatusCode::kOk : result.status().code();
  {
    MutexLock lock(mu_);
    Tenant& tenant = *request.tenant;
    --tenant.in_flight;
    switch (code) {
      case StatusCode::kOk:
        ++tenant.counters.completed;
        ++counters_.completed;
        break;
      case StatusCode::kDeadlineExceeded:
        ++tenant.counters.deadline_misses;
        ++counters_.deadline_misses;
        break;
      case StatusCode::kCancelled:
        ++tenant.counters.cancelled;
        ++counters_.cancelled;
        break;
      default:
        ++tenant.counters.errors;
        ++counters_.errors;
    }
  }
  // A completion can unblock a capped tenant's queued requests.
  queue_not_empty_.NotifyAll();
  if (code == StatusCode::kOk) {
    const double seconds = SecondsSince(request.submit_time,
                                        std::chrono::steady_clock::now());
    request.tenant->histogram.RecordSeconds(seconds);
    global_histogram_.RecordSeconds(seconds);
  }
  // Last, so stats and counters are visible before the future unblocks.
  request.promise.set_value(std::move(result));
}

Result<RunReport> QueryService::Execute(Request& request) {
  const GraphSnapshot& snapshot = *request.snapshot;
  const AlgorithmInfo* info = AlgorithmRegistry::Get().Find(request.algorithm);
  std::shared_ptr<const Graph> weighted;
  if (info != nullptr && info->needs_weights && !snapshot.graph.weighted()) {
    weighted = snapshot.WeightedView(request.params.weight_seed);
  }
  Result<RunReport> run =
      AlgorithmRegistry::Run(request.algorithm, snapshot.graph, request.ctx,
                             request.params, weighted.get());
  if (run.ok()) {
    run.ValueOrDie().graph_epoch = snapshot.epoch;
    run.ValueOrDie().delta_edges = snapshot.delta_edges;
  }
  return run;
}

}  // namespace sage
