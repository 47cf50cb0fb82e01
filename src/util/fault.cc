#include "util/fault.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "util/check.h"

namespace ipdb {
namespace fault {

namespace {

/// The central site table. Every IPDB_FAULT_POINT / IPDB_FAULT_FIRED in
/// the library must name an entry here — the CI fault leg iterates this
/// list and drives each site to an error, and ShouldFail aborts on a
/// name that is missing (a typo'd site would otherwise test nothing).
/// Keep sorted.
const char* const kSites[] = {
    "dur.rename",             // durability: atomic snapshot rename
    "dur.snapshot.write",     // durability: snapshot temp-file write
    "dur.wal.append",         // durability: WAL record append
    "dur.wal.replay",         // durability: WAL replay on recovery
    "kc.cache.insert",        // artifact cache: before inserting a miss
    "kc.cache.lookup",        // artifact cache: probe entry
    "kc.compile.node_alloc",  // d-DNNF compiler: gate compilation
    "kc.compile.shannon",     // d-DNNF compiler: Shannon expansion
    "kc.evaluate.exact",      // exact circuit evaluation entry
    "pqe.ground",             // sentence grounding entry
    "pqe.lifted.evaluate",    // lifted safe-plan evaluation entry
    "pqe.mc.shard",           // Monte Carlo: per-shard body
    "pqe.query.fallback",     // degradation ladder: MC fallback branch
    "pqe.wmc.solve",          // one-shot compile + evaluate entry
    "server.shutdown",        // query service: drain/stop path
    "util.pool.task",         // thread pool: per-index task wrapper
};

struct SiteState {
  int64_t fire_at = 0;  // 1-based hit index that fails; 0 = never
  int64_t hits = 0;
  int64_t fired = 0;
};

std::mutex& Mutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

}  // namespace

struct FaultPlanImpl {
  std::unordered_map<std::string, SiteState> sites;
};

namespace {

/// Active plans, innermost last. The IPDB_FAULTS environment plan (when
/// present) sits at index 0 and is never popped. Leaked on exit.
std::vector<std::shared_ptr<FaultPlanImpl>>& Stack() {
  static auto* stack = new std::vector<std::shared_ptr<FaultPlanImpl>>;
  return *stack;
}

/// Lock-free fast path: true iff any plan is installed.
std::atomic<bool> g_armed{false};

std::shared_ptr<FaultPlanImpl> ParseSpecs(
    const std::vector<FaultSpec>& specs) {
  auto plan = std::make_shared<FaultPlanImpl>();
  for (const FaultSpec& spec : specs) {
    IPDB_CHECK(IsKnownSite(spec.site))
        << "unknown fault site '" << spec.site
        << "' (see util/fault.cc kSites)";
    IPDB_CHECK_GE(spec.nth, 1) << "fault spec nth is 1-based";
    plan->sites[spec.site].fire_at = spec.nth;
  }
  return plan;
}

void LoadEnvPlanLocked() {
  const char* env = std::getenv("IPDB_FAULTS");
  if (env == nullptr || *env == '\0') return;
  std::vector<FaultSpec> specs;
  std::string text(env);
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    std::string entry = text.substr(start, end - start);
    const bool at_end = end == text.size();
    start = end + 1;
    if (!entry.empty()) {
      FaultSpec spec;
      size_t colon = entry.rfind(':');
      if (colon == std::string::npos) {
        spec.site = entry;
      } else {
        spec.site = entry.substr(0, colon);
        spec.nth = std::strtoll(entry.c_str() + colon + 1, nullptr, 10);
        if (spec.nth < 1) spec.nth = 1;
      }
      specs.push_back(std::move(spec));
    }
    if (at_end) break;
  }
  if (specs.empty()) return;
  Stack().insert(Stack().begin(), ParseSpecs(specs));
  g_armed.store(true, std::memory_order_release);
}

void EnsureEnvPlanLoaded() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::lock_guard<std::mutex> lock(Mutex());
    LoadEnvPlanLocked();
  });
}

}  // namespace

bool CompiledIn() {
#if defined(IPDB_FAULT_INJECTION)
  return true;
#else
  return false;
#endif
}

const std::vector<std::string>& KnownSites() {
  static const auto* sites = new std::vector<std::string>(
      std::begin(kSites), std::end(kSites));
  return *sites;
}

const std::vector<std::string>& RegisteredSites() { return KnownSites(); }

bool IsKnownSite(const std::string& site) {
  const std::vector<std::string>& sites = KnownSites();
  return std::binary_search(sites.begin(), sites.end(), site);
}

bool ShouldFail(const char* site) {
  EnsureEnvPlanLoaded();
  if (!g_armed.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(Mutex());
  IPDB_CHECK(IsKnownSite(site))
      << "unregistered fault site '" << site << "'";
  bool fail = false;
  for (const std::shared_ptr<FaultPlanImpl>& plan : Stack()) {
    auto it = plan->sites.find(site);
    if (it == plan->sites.end()) continue;
    SiteState& state = it->second;
    ++state.hits;
    if (state.fire_at != 0 && state.hits == state.fire_at) {
      ++state.fired;
      fail = true;
    }
  }
  return fail;
}

Status InjectedFault(const char* site) {
  return InternalError(std::string("injected fault at ") + site);
}

int64_t HitCount(const std::string& site) {
  std::lock_guard<std::mutex> lock(Mutex());
  int64_t hits = 0;
  for (const std::shared_ptr<FaultPlanImpl>& plan : Stack()) {
    auto it = plan->sites.find(site);
    if (it != plan->sites.end()) hits += it->second.hits;
  }
  return hits;
}

ScopedFaultPlan::ScopedFaultPlan(std::vector<FaultSpec> specs) {
  EnsureEnvPlanLoaded();
  plan_ = ParseSpecs(specs);
  std::lock_guard<std::mutex> lock(Mutex());
  Stack().push_back(plan_);
  g_armed.store(true, std::memory_order_release);
}

ScopedFaultPlan::~ScopedFaultPlan() {
  std::lock_guard<std::mutex> lock(Mutex());
  std::vector<std::shared_ptr<FaultPlanImpl>>& stack = Stack();
  stack.erase(std::remove(stack.begin(), stack.end(), plan_), stack.end());
  if (stack.empty()) g_armed.store(false, std::memory_order_release);
}

int64_t ScopedFaultPlan::triggered(const std::string& site) const {
  std::lock_guard<std::mutex> lock(Mutex());
  auto it = plan_->sites.find(site);
  return it == plan_->sites.end() ? 0 : it->second.fired;
}

}  // namespace fault
}  // namespace ipdb
