#include "apps/pangloss.h"

#include <memory>

#include "util/assert.h"

namespace spectra::apps {

namespace {
const std::array<const char*, 4> kComponentNames = {"ebmt", "gloss", "dict",
                                                    "lm"};

// Each component's rank in name order (dict, ebmt, gloss, lm): an engine's
// discrete slot, and the first of the component's three continuous slots
// at 3 * rank, which hold its _local_w, _remote_i and _remote_w features.
constexpr std::array<std::size_t, 4> kNameRank = {1, 2, 0, 3};
enum : std::size_t { kLocalW, kRemoteI, kRemoteW };
}  // namespace

void PanglossApp::install_files(fs::FileServer& server) const {
  for (const auto& c : config_.components) {
    server.create({c.file_path, c.file_size, config_.volume});
  }
}

void PanglossApp::install_services(core::SpectraServer& server,
                                   util::Rng rng) const {
  auto noise = std::make_shared<util::Rng>(rng);
  noise_.push_back(noise);
  const PanglossConfig cfg = config_;
  core::SpectraServer* srv = &server;
  for (std::size_t i = 0; i < cfg.components.size(); ++i) {
    const PanglossComponentCost comp = cfg.components[i];
    server.register_service(
        "pangloss." + comp.name,
        [cfg, comp, noise, srv](const rpc::Request& req) {
          const auto it = req.args.find("words");
          rpc::Response r;
          if (it == req.args.end()) {
            r.ok = false;
            r.error = "missing words arg";
            return r;
          }
          SPECTRA_REQUIRE(srv->coda() != nullptr,
                          "pangloss needs Coda for its data files");
          srv->coda()->read(comp.file_path);
          srv->machine().run_cycles(
              (comp.base_cycles + comp.cycles_per_word * it->second) *
              noise->noise_factor(cfg.noise_cv));
          r.ok = true;
          r.payload = cfg.response_bytes_per_word * it->second +
                      cfg.fixed_bytes;
          return r;
        });
  }
}

bool PanglossApp::component_enabled(const solver::Alternative& alt, int c) {
  return c == kLm || alt.fidelity[c] > 0.5;  // the modeler always runs
}

bool PanglossApp::component_remote(const solver::Alternative& alt, int c) {
  return (alt.plan & (1 << c)) != 0;
}

solver::Alternative PanglossApp::alternative(int remote_mask, bool ebmt,
                                             bool gloss, bool dict,
                                             hw::MachineId server) {
  SPECTRA_REQUIRE(remote_mask >= 0 && remote_mask < kPlanCount,
                  "placement mask out of range");
  return canonical({remote_mask, remote_mask != 0 ? server : -1,
                    {ebmt ? 1.0 : 0.0, gloss ? 1.0 : 0.0, dict ? 1.0 : 0.0}});
}

double PanglossApp::fidelity_desirability(const PanglossConfig& cfg,
                                          const std::vector<double>& f) {
  double total = 0.0;  // 0 (no engines) => infeasible
  for (int c = kEbmt; c <= kDict; ++c) {
    total += f[c] * cfg.components[c].fidelity;
  }
  return total;
}

solver::Alternative PanglossApp::canonical(const solver::Alternative& alt) {
  SPECTRA_REQUIRE(alt.fidelity.size() == kLm,
                  "a pangloss alternative sets one flag per engine");
  solver::Alternative c = alt;
  for (int i = 0; i < kLm; ++i) {
    if (!component_enabled(alt, i)) c.plan &= ~(1 << i);
  }
  if (c.plan == 0) c.server = -1;
  return c;
}

predict::FeatureSchema PanglossApp::feature_schema() {
  return {{"dict", "ebmt", "gloss"},
          {"dict_local_w", "dict_remote_i", "dict_remote_w", "ebmt_local_w",
           "ebmt_remote_i", "ebmt_remote_w", "gloss_local_w", "gloss_remote_i",
           "gloss_remote_w", "lm_local_w", "lm_remote_i", "lm_remote_w"}};
}

void PanglossApp::features(const solver::Alternative& alt,
                           const predict::FeatureSlots& params,
                           predict::FeatureVector& f) {
  SPECTRA_REQUIRE(params.has(0), "pangloss needs its words parameter");
  const double words = params[0];
  // Discrete: the fidelity subset only — the file predictor needs to know
  // which engines (and hence which data files) are in play, while demand is
  // generalized across placements by the continuous features below.
  for (int c = kEbmt; c <= kDict; ++c) {
    f.discrete.set(kNameRank[c], alt.fidelity[c]);
  }
  for (int c = 0; c <= kLm; ++c) {
    if (!component_enabled(alt, c)) continue;
    const std::size_t first = 3 * kNameRank[c];
    if (component_remote(alt, c)) {
      f.continuous.set(first + kRemoteI, 1.0);
      f.continuous.set(first + kRemoteW, words);
    } else {
      f.continuous.set(first + kLocalW, words);
    }
  }
}

void PanglossApp::register_op(core::SpectraClient& client) const {
  core::OperationDesc desc;
  desc.name = kOperation;
  for (int mask = 0; mask < kPlanCount; ++mask) {
    desc.plans.push_back({"placement" + std::to_string(mask), mask != 0});
  }
  desc.fidelities = {
      {"ebmt", {0.0, 1.0}}, {"gloss", {0.0, 1.0}}, {"dict", {0.0, 1.0}}};
  desc.input_params = {"words"};
  const PanglossConfig cfg = config_;
  desc.latency_fn = solver::deadline_latency(cfg.deadline_lo, cfg.deadline_hi);
  desc.fidelity_fn = [cfg](const std::vector<double>& f) {
    return fidelity_desirability(cfg, f);
  };
  desc.feature_fn = {feature_schema(), &PanglossApp::features};
  client.register_fidelity(std::move(desc));
}

void PanglossApp::execute(core::SpectraClient& client, int words) const {
  SPECTRA_REQUIRE(words > 0, "sentence must have words");
  const solver::Alternative& alt = client.current_choice().alternative;
  for (int c = 0; c <= kLm; ++c) {
    if (!component_enabled(alt, c)) continue;
    rpc::Request req;
    req.op_type = "pangloss." + std::string(kComponentNames[c]);
    req.args["words"] = static_cast<double>(words);
    req.payload =
        config_.request_bytes_per_word * words + config_.fixed_bytes;
    const auto resp = component_remote(alt, c)
                          ? client.do_remote_op(req.op_type, req)
                          : client.do_local_op(req.op_type, req);
    SPECTRA_ENSURE(resp.ok, req.op_type + " failed: " + resp.error);
  }
}

void PanglossApp::copy_state_from(const PanglossApp& src) {
  SPECTRA_REQUIRE(noise_.size() == src.noise_.size(),
                  "pangloss app mismatch in copy_state_from");
  for (std::size_t i = 0; i < noise_.size(); ++i) *noise_[i] = *src.noise_[i];
}

monitor::OperationUsage PanglossApp::run_forced(
    core::SpectraClient& client, int words,
    const solver::Alternative& alt) const {
  std::map<std::string, double> params{{"words", static_cast<double>(words)}};
  client.begin_fidelity_op_forced(kOperation, params, "", canonical(alt));
  execute(client, words);
  return client.end_fidelity_op();
}

}  // namespace spectra::apps
