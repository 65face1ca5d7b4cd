// Memory audit: peak RSS plus per-subsystem live-byte/allocation counters.
//
// The fleet-scale work is a memory diet, and a diet needs a scale. This
// layer provides two instruments:
//
//   * peak_rss_bytes() — the OS view (getrusage), for bytes-per-client
//     numbers in BENCH_fleet.json and the fleet_mem_ceiling check gate.
//
//   * a tracking allocator hook — replacement global operator new/delete
//     that tag every allocation with a 16-byte header recording its size
//     and the subsystem scope active on the allocating thread. Frees read
//     the header back, so live bytes are attributed exactly, even when a
//     block is freed from a different thread or scope. Scopes nest via the
//     RAII MemScope guard (thread-local, so parallel island workers
//     attribute independently).
//
// The counters, MemScope and the queries below live in spectra_obs and are
// in every binary; a MemScope guard costs one thread-local store. The hook
// itself (memaudit_hook.cpp) is the spectra_memaudit object library, and
// only binaries that measure allocations link it: fleet_scale (its memory
// ladder and the fleet_mem_ceiling gate) and the test suites that count
// allocations. Everything else, the daemon included, runs on the system
// allocator. The hook registers itself before main(), so
// memaudit_enabled() says whether this binary linked it. Sanitizer builds
// never build the hook (ASan/TSan keep their own allocator interposition).
// Without the hook every counter stays zero, and tests that assert
// allocation counts skip themselves.
//
// The counters are relaxed atomics: totals are exact once threads join
// (the executor barriers before anything reads them), and the per-tick
// allocation-free assertion runs on sequential worlds where ordering is
// trivial. Counts are *allocator traffic*, not RSS: they exclude the
// 16-byte audit header and malloc's own bookkeeping.
#pragma once

#include <cstdint>

namespace spectra::obs {

// Attribution scopes. kOther is everything outside an explicit scope.
enum class MemScopeId : unsigned {
  kOther = 0,
  kScenario,    // FleetScenario generation (profiles, schedules)
  kFleetWorld,  // FleetWorld construction/clone (SoA state, pools)
  kFleetTick,   // island tick + barrier exchange — the hot loop; steady
                // state must allocate nothing here (FleetAllocationFree)
  kCount
};

const char* to_string(MemScopeId scope);

struct MemCounters {
  long long live_bytes = 0;           // allocated minus freed, attributed
  unsigned long long allocs = 0;      // operator new calls
  unsigned long long frees = 0;       // operator delete calls
};

// Whether the tracking hook is linked into this binary.
bool memaudit_enabled();

MemCounters memaudit_scope(MemScopeId scope);
MemCounters memaudit_total();        // sum over all scopes
long long memaudit_live_bytes();     // total live bytes right now
// High-water mark of total live bytes since process start.
unsigned long long memaudit_peak_live_bytes();

// Peak resident set size of this process, in bytes (getrusage; 0 when the
// platform does not report it).
std::uint64_t peak_rss_bytes();

// RAII scope guard: allocations on this thread are attributed to `scope`
// until the guard dies (restores the previous scope, so guards nest).
class MemScope {
 public:
  explicit MemScope(MemScopeId scope);
  ~MemScope();
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

 private:
  unsigned prev_;
};

}  // namespace spectra::obs
