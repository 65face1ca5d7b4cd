#include "scenario/batch.h"

#include <cstdlib>
#include <cstring>

namespace spectra::scenario {

bool default_reuse_trained_world() {
  const char* env = std::getenv("SPECTRA_REUSE");
  if (env == nullptr) return true;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0 &&
         std::strcmp(env, "false") != 0;
}

std::size_t resolve_jobs(long requested) {
  if (requested < 0) {
    const char* env = std::getenv("SPECTRA_JOBS");
    requested = env != nullptr ? std::atol(env) : -1;
    if (requested < 0) return 1;
  }
  if (requested == 0) return exec::ThreadPool::hardware_concurrency();
  return static_cast<std::size_t>(requested);
}

BatchRunner::BatchRunner(std::size_t jobs) {
  if (jobs > 1) pool_ = std::make_unique<exec::ThreadPool>(jobs);
}

TrainedWorldCache& TrainedWorldCache::instance() {
  static TrainedWorldCache cache;
  return cache;
}

std::shared_ptr<const World> TrainedWorldCache::get(
    const std::string& key,
    const std::function<std::unique_ptr<World>()>& build) {
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& entry = slots_[key];
    if (entry == nullptr) entry = std::make_shared<Slot>();
    slot = entry;
  }
  std::call_once(slot->once, [&] { slot->world = build(); });
  return slot->world;
}

void TrainedWorldCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
}

std::size_t TrainedWorldCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

}  // namespace spectra::scenario
