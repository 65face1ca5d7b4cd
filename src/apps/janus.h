// Janus speech recognizer (§3.7.1), modeled after the paper's port.
//
// One operation — recognition of a spoken utterance — with three execution
// plans (local, hybrid, remote), one fidelity dimension (vocabulary:
// reduced = 0, full = 1), and one input parameter (utterance length in
// seconds).
//
// Ground-truth cost model (hidden from Spectra, which only ever sees
// measured usage):
//   * front-end + prescan: integer signal processing, cycles linear in
//     utterance length;
//   * Viterbi search: floating-point heavy, cycles linear in length and
//     larger for the full vocabulary; pays the FP-emulation penalty on the
//     Itsy, which is what makes local execution 3-9x slower in the paper;
//   * the search reads the vocabulary's language model file through Coda
//     (277 KB full / 60 KB reduced);
//   * plans ship different payloads: remote sends compressed audio, hybrid
//     sends the (much smaller) feature stream.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "solver/types.h"
#include "util/rng.h"
#include "util/units.h"

namespace spectra::apps {

struct JanusConfig {
  // Cycles per second of speech.
  util::Cycles frontend_cycles_per_s = 30e6;
  util::Cycles prescan_cycles_per_s = 120e6;
  util::Cycles search_cycles_full_per_s = 500e6;
  util::Cycles search_cycles_reduced_per_s = 280e6;

  // Wire sizes per second of speech.
  util::Bytes audio_bytes_per_s = 12.0 * 1024;   // compressed waveform
  util::Bytes feature_bytes_per_s = 2.0 * 1024;  // front-end output
  util::Bytes result_bytes = 200.0;

  // Language model files (read by the search stage wherever it runs).
  std::string lm_full_path = "janus/lm_full";
  util::Bytes lm_full_size = 277.0 * 1024;
  std::string lm_reduced_path = "janus/lm_reduced";
  util::Bytes lm_reduced_size = 60.0 * 1024;
  std::string volume = "janus";

  // Execution-to-execution variability of the ground-truth costs.
  double noise_cv = 0.03;
};

class JanusApp {
 public:
  static constexpr int kPlanLocal = 0;
  static constexpr int kPlanHybrid = 1;
  static constexpr int kPlanRemote = 2;
  static constexpr std::size_t kVocab = 0;  // the fidelity dimension's index
  static constexpr double kVocabReduced = 0.0;
  static constexpr double kVocabFull = 1.0;

  static constexpr const char* kOperation = "janus.recognize";

  explicit JanusApp(JanusConfig config = {}) : config_(config) {}

  const JanusConfig& config() const { return config_; }

  // Create the language-model files on the file server.
  void install_files(fs::FileServer& server) const;

  // Install the services a machine needs to participate. The client's local
  // server hosts the local/front-end services; remote servers host the
  // search and full-pipeline services. `rng` seeds the ground-truth noise.
  void install_services(core::SpectraServer& server, util::Rng rng) const;

  // register_fidelity for the recognition operation.
  void register_op(core::SpectraClient& client) const;

  // Convenience: full alternative description for forced runs.
  static solver::Alternative alternative(int plan, double vocab,
                                         hw::MachineId server = -1);

  // Execute one utterance under Spectra's current choice. Caller brackets
  // with begin_fidelity_op / end_fidelity_op.
  void execute(core::SpectraClient& client, double utterance_seconds) const;

  // begin(forced) + execute + end, for training and oracle measurement.
  monitor::OperationUsage run_forced(core::SpectraClient& client,
                                     double utterance_seconds,
                                     const solver::Alternative& alt) const;

  // Copy the ground-truth noise streams from the same app in another world.
  // Both apps must have installed services in the same order.
  void copy_state_from(const JanusApp& src);

 private:
  JanusConfig config_;
  // One noise stream per install_services call, in install order; the
  // service handlers share ownership, so copying the pointee retargets them.
  mutable std::vector<std::shared_ptr<util::Rng>> noise_;
};

}  // namespace spectra::apps
