// Latex document preparation (§3.7.2), modeled after the paper's port.
//
// One operation — generate a DVI from a document's input files — with one
// fidelity (there is nothing to degrade) and two execution plans: local and
// remote. The front-end names the top-level input file so Spectra can keep
// data-specific models per document (§3.4); the two paper documents (14 and
// 123 pages) have very different resource needs.
//
// Ground truth: cycles linear in page count; the run reads every input
// file through Coda on the executing machine (cache misses fetch from the
// file servers); the DVI ships back in the RPC response for remote runs.
// Input files are commonly modified on the client, so remote execution may
// first require reintegration — the paper's reintegrate scenario.
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

struct LatexDocument {
  std::string name;   // data tag ("small", "large")
  int pages = 0;
  std::string volume;
  std::vector<fs::FileInfo> files;  // input files (first = top-level .tex)
};

struct LatexConfig {
  util::Cycles base_cycles = 150e6;
  util::Cycles cycles_per_page = 40e6;
  util::Bytes dvi_bytes_per_page = 3.0 * 1024;
  double noise_cv = 0.03;
  std::vector<LatexDocument> documents;
};

// The two documents evaluated in the paper: 14 pages (5 input files,
// ~350 KB, 70 KB top-level) and 123 pages (12 input files, ~2.5 MB).
LatexConfig default_latex_config();

class LatexApp {
 public:
  static constexpr int kPlanLocal = 0;
  static constexpr int kPlanRemote = 1;
  static constexpr const char* kOperation = "latex.run";

  explicit LatexApp(LatexConfig config = default_latex_config())
      : config_(config) {}

  const LatexConfig& config() const { return config_; }
  const LatexDocument& document(const std::string& name) const;

  void install_files(fs::FileServer& server) const;
  void install_services(core::SpectraServer& server, util::Rng rng) const;
  void register_op(core::SpectraClient& client) const;

  static solver::Alternative alternative(int plan,
                                         hw::MachineId server = -1);

  void execute(core::SpectraClient& client, const std::string& doc) const;
  monitor::OperationUsage run_forced(core::SpectraClient& client,
                                     const std::string& doc,
                                     const solver::Alternative& alt) const;

  // Copy the ground-truth noise streams from the same app in another world.
  void copy_state_from(const LatexApp& src);

 private:
  LatexConfig config_;
  // One noise stream per install_services call, in install order.
  mutable std::vector<std::shared_ptr<util::Rng>> noise_;
};

}  // namespace spectra::apps
