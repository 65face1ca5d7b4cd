#include "scenario/batch.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/assert.h"

namespace spectra::scenario {

bool default_reuse_trained_world() {
  const char* env = std::getenv("SPECTRA_REUSE");
  if (env == nullptr) return true;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0 &&
         std::strcmp(env, "false") != 0;
}

namespace {

std::size_t checked_jobs(const std::string& text, const std::string& source) {
  char* end = nullptr;
  errno = 0;
  const long jobs = std::strtol(text.c_str(), &end, 10);
  SPECTRA_REQUIRE(!text.empty() && *end == '\0' && errno == 0 && jobs >= 0 &&
                      jobs <= kMaxJobs,
                  source + " must be an integer in [0, " +
                      std::to_string(kMaxJobs) + "], got " + text);
  return jobs == 0 ? exec::ThreadPool::hardware_concurrency()
                   : static_cast<std::size_t>(jobs);
}

}  // namespace

std::size_t resolve_jobs(const std::optional<std::string>& requested) {
  if (requested) return checked_jobs(*requested, "--jobs");
  const char* env = std::getenv("SPECTRA_JOBS");
  return env != nullptr ? checked_jobs(env, "SPECTRA_JOBS") : 1;
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
