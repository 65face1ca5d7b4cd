#include "obs/memaudit.h"

#include <atomic>

#include "obs/memaudit_hook.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace spectra::obs {
namespace {

constexpr unsigned kScopes = static_cast<unsigned>(MemScopeId::kCount);

// Zero-initialized PODs: safe to touch from any allocation, including ones
// made before static constructors run.
std::atomic<long long> g_live[kScopes];
std::atomic<unsigned long long> g_allocs[kScopes];
std::atomic<unsigned long long> g_frees[kScopes];
std::atomic<long long> g_live_total;
std::atomic<unsigned long long> g_peak_live;
std::atomic<bool> g_hook_linked;

// Scope active on this thread. Plain integral thread_local: constant
// initialization, so reading it never allocates.
thread_local unsigned t_scope = 0;

}  // namespace

namespace detail {

void register_hook() noexcept {
  g_hook_linked.store(true, std::memory_order_relaxed);
}

unsigned current_scope() noexcept { return t_scope < kScopes ? t_scope : 0; }

void count_alloc(unsigned scope, std::size_t bytes) noexcept {
  g_live[scope].fetch_add(static_cast<long long>(bytes),
                          std::memory_order_relaxed);
  g_allocs[scope].fetch_add(1, std::memory_order_relaxed);
  const long long total =
      g_live_total.fetch_add(static_cast<long long>(bytes),
                             std::memory_order_relaxed) +
      static_cast<long long>(bytes);
  unsigned long long peak = g_peak_live.load(std::memory_order_relaxed);
  while (total > 0 && static_cast<unsigned long long>(total) > peak &&
         !g_peak_live.compare_exchange_weak(
             peak, static_cast<unsigned long long>(total),
             std::memory_order_relaxed)) {
  }
}

void count_free(unsigned scope, std::size_t bytes) noexcept {
  g_live[scope].fetch_sub(static_cast<long long>(bytes),
                          std::memory_order_relaxed);
  g_frees[scope].fetch_add(1, std::memory_order_relaxed);
  g_live_total.fetch_sub(static_cast<long long>(bytes),
                         std::memory_order_relaxed);
}

}  // namespace detail

const char* to_string(MemScopeId scope) {
  switch (scope) {
    case MemScopeId::kOther: return "other";
    case MemScopeId::kScenario: return "scenario";
    case MemScopeId::kFleetWorld: return "fleet_world";
    case MemScopeId::kFleetTick: return "fleet_tick";
    case MemScopeId::kCount: break;
  }
  return "unknown";
}

bool memaudit_enabled() {
  return g_hook_linked.load(std::memory_order_relaxed);
}

MemCounters memaudit_scope(MemScopeId scope) {
  const auto i = static_cast<unsigned>(scope);
  if (i >= kScopes) return {};
  MemCounters c;
  c.live_bytes = g_live[i].load(std::memory_order_relaxed);
  c.allocs = g_allocs[i].load(std::memory_order_relaxed);
  c.frees = g_frees[i].load(std::memory_order_relaxed);
  return c;
}

MemCounters memaudit_total() {
  MemCounters c;
  for (unsigned i = 0; i < kScopes; ++i) {
    c.live_bytes += g_live[i].load(std::memory_order_relaxed);
    c.allocs += g_allocs[i].load(std::memory_order_relaxed);
    c.frees += g_frees[i].load(std::memory_order_relaxed);
  }
  return c;
}

long long memaudit_live_bytes() {
  return g_live_total.load(std::memory_order_relaxed);
}

unsigned long long memaudit_peak_live_bytes() {
  return g_peak_live.load(std::memory_order_relaxed);
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KB on Linux
#endif
#else
  return 0;
#endif
}

MemScope::MemScope(MemScopeId scope) : prev_(t_scope) {
  t_scope = static_cast<unsigned>(scope);
}

MemScope::~MemScope() { t_scope = prev_; }

}  // namespace spectra::obs
