// Parallel batch-execution layer (the harness side of the thread pool).
//
// A BatchRunner fans independent measured runs across a fixed-size worker
// pool. Each run owns a private World (Engine, Rng, components) so the
// simulation itself stays single-threaded; only whole runs are scheduled.
// Results and observability output are merged in index order, so batch
// output is bit-identical regardless of --jobs.
//
// Observability sharding: map_runs gives every run a private Observability
// (tracing into a memory buffer when the session traces). After the batch
// completes, run metrics are merged into the session registry and trace
// buffers are spliced into the session sink, both in run-index order —
// deterministic merge, concurrent collection.
//
// TrainedWorldCache memoizes fully trained Worlds per configuration
// fingerprint so a batch trains once per (scenario, seed) and clones the
// template for each measured alternative (World::clone).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "scenario/world.h"

namespace spectra::scenario {

// Default for Config.reuse_trained_world: true unless SPECTRA_REUSE is set
// to 0/off/false (the bench harness uses that to measure the retrain-per-run
// baseline).
bool default_reuse_trained_world();

// Most workers a --jobs or SPECTRA_JOBS request may ask for: each is an OS
// thread, and every script passes at most the host's core count.
inline constexpr long kMaxJobs = 256;

// Turn a --jobs value (its text, nullopt without --jobs) into a worker
// count: without one, SPECTRA_JOBS decides, and without that, 1; 0 means one
// worker per hardware thread. Throws util::ContractError, before any pool
// exists, unless the value is an integer in [0, kMaxJobs].
std::size_t resolve_jobs(const std::optional<std::string>& requested);

class BatchRunner {
 public:
  // jobs <= 1 runs everything inline on the calling thread (the sequential
  // reference path); jobs > 1 spins up that many workers.
  explicit BatchRunner(std::size_t jobs);

  // Run fn(i) for i in [0, n); returns results in index order. T must be
  // default-constructible. May be called from inside another batch task on
  // the same runner (nested fan-out).
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{}))> {
    std::vector<decltype(fn(std::size_t{}))> out(n);
    exec::parallel_for(pool_.get(), n,
                       [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  // Like map, but fn(i, run_obs) receives a private Observability per run
  // (null when `session` is null). Once every run has finished, run metrics
  // merge into `session` and run trace buffers splice into the session
  // trace, both in index order.
  template <typename Fn>
  auto map_runs(obs::Observability* session, std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{},
                                 static_cast<obs::Observability*>(nullptr)))> {
    using Result = decltype(fn(std::size_t{},
                               static_cast<obs::Observability*>(nullptr)));
    struct Shard {
      obs::Observability obs;
      std::ostringstream trace;
    };
    std::vector<std::unique_ptr<Shard>> shards;
    if (session != nullptr) {
      shards.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        shards.push_back(std::make_unique<Shard>());
        if (session->tracing()) shards.back()->obs.trace_to(shards.back()->trace);
      }
    }
    std::vector<Result> out(n);
    exec::parallel_for(pool_.get(), n, [&](std::size_t i) {
      out[i] = fn(i, session != nullptr ? &shards[i]->obs : nullptr);
    });
    if (session != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        session->metrics().merge(shards[i]->obs.metrics());
        if (session->tracing()) {
          session->trace()->write_raw(shards[i]->trace.str());
        }
      }
    }
    return out;
  }

 private:
  std::unique_ptr<exec::ThreadPool> pool_;  // null when sequential
};

// Process-wide cache of trained Worlds, keyed by an experiment-provided
// fingerprint (application, scenario, seed, training shape). The first
// caller for a key builds the world; concurrent callers for the same key
// block in call_once until it is ready. Cached worlds are quiescent,
// observability-free templates — callers clone, never mutate.
class TrainedWorldCache {
 public:
  static TrainedWorldCache& instance();

  std::shared_ptr<const World> get(
      const std::string& key,
      const std::function<std::unique_ptr<World>()>& build);

  // Drop every cached world (tests and between-figure hygiene).
  void clear();
  std::size_t size() const;

 private:
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const World> world;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Slot>> slots_;
};

}  // namespace spectra::scenario
