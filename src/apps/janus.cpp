#include "apps/janus.h"

#include <memory>

#include "util/assert.h"

namespace spectra::apps {

namespace {

double arg(const rpc::Request& req, const std::string& name) {
  auto it = req.args.find(name);
  SPECTRA_REQUIRE(it != req.args.end(), "missing request arg: " + name);
  return it->second;
}

}  // namespace

void JanusApp::install_files(fs::FileServer& server) const {
  server.create({config_.lm_full_path, config_.lm_full_size, config_.volume});
  server.create(
      {config_.lm_reduced_path, config_.lm_reduced_size, config_.volume});
}

void JanusApp::install_services(core::SpectraServer& server,
                                util::Rng rng) const {
  auto noise = std::make_shared<util::Rng>(rng);
  noise_.push_back(noise);
  const JanusConfig cfg = config_;
  core::SpectraServer* srv = &server;

  auto frontend = [cfg, noise, srv](double len) {
    srv->machine().run_cycles(
        (cfg.frontend_cycles_per_s + cfg.prescan_cycles_per_s) * len *
            noise->noise_factor(cfg.noise_cv),
        /*fp_heavy=*/false);
  };
  auto search = [cfg, noise, srv](double len, double vocab) {
    SPECTRA_REQUIRE(srv->coda() != nullptr,
                    "janus search needs Coda for the language model");
    srv->coda()->read(vocab >= kVocabFull ? cfg.lm_full_path
                                          : cfg.lm_reduced_path);
    const util::Cycles per_s = vocab >= kVocabFull
                                   ? cfg.search_cycles_full_per_s
                                   : cfg.search_cycles_reduced_per_s;
    srv->machine().run_cycles(per_s * len * noise->noise_factor(cfg.noise_cv),
                              /*fp_heavy=*/true);
  };

  server.register_service("janus.front",
                          [cfg, frontend](const rpc::Request& req) {
                            frontend(arg(req, "utt_len"));
                            rpc::Response r;
                            r.ok = true;
                            r.payload = 64.0;
                            return r;
                          });
  server.register_service("janus.search",
                          [cfg, search](const rpc::Request& req) {
                            search(arg(req, "utt_len"), arg(req, "vocab"));
                            rpc::Response r;
                            r.ok = true;
                            r.payload = cfg.result_bytes;
                            return r;
                          });
  server.register_service(
      "janus.full", [cfg, frontend, search](const rpc::Request& req) {
        frontend(arg(req, "utt_len"));
        search(arg(req, "utt_len"), arg(req, "vocab"));
        rpc::Response r;
        r.ok = true;
        r.payload = cfg.result_bytes;
        return r;
      });
}

void JanusApp::register_op(core::SpectraClient& client) const {
  core::OperationDesc desc;
  desc.name = kOperation;
  desc.plans = {{"local", false}, {"hybrid", true}, {"remote", true}};
  desc.fidelities = {{"vocab", {kVocabReduced, kVocabFull}}};
  desc.input_params = {"utt_len"};
  desc.latency_fn = solver::inverse_latency();
  desc.fidelity_fn = [](const std::vector<double>& f) {
    return f[kVocab] >= kVocabFull ? 1.0 : 0.5;
  };
  client.register_fidelity(std::move(desc));
}

solver::Alternative JanusApp::alternative(int plan, double vocab,
                                          hw::MachineId server) {
  return {plan, plan == kPlanLocal ? -1 : server, {vocab}};
}

void JanusApp::execute(core::SpectraClient& client,
                       double utterance_seconds) const {
  SPECTRA_REQUIRE(utterance_seconds > 0.0, "utterance must have length");
  const solver::Alternative& alt = client.current_choice().alternative;
  const double vocab = alt.fidelity[kVocab];

  rpc::Request req;
  req.args["utt_len"] = utterance_seconds;
  req.args["vocab"] = vocab;
  req.data_tag = "";

  switch (alt.plan) {
    case kPlanLocal: {
      req.op_type = "janus.full";
      req.payload = 0.0;  // audio is already on the client
      const auto resp = client.do_local_op("janus.full", req);
      SPECTRA_ENSURE(resp.ok, "local recognition failed: " + resp.error);
      break;
    }
    case kPlanHybrid: {
      req.op_type = "janus.front";
      req.payload = 0.0;
      const auto front = client.do_local_op("janus.front", req);
      SPECTRA_ENSURE(front.ok, "front-end failed: " + front.error);
      rpc::Request search = req;
      search.op_type = "janus.search";
      search.payload = config_.feature_bytes_per_s * utterance_seconds;
      const auto resp = client.do_remote_op("janus.search", search);
      SPECTRA_ENSURE(resp.ok, "remote search failed: " + resp.error);
      break;
    }
    case kPlanRemote: {
      req.op_type = "janus.full";
      req.payload = config_.audio_bytes_per_s * utterance_seconds;
      const auto resp = client.do_remote_op("janus.full", req);
      SPECTRA_ENSURE(resp.ok, "remote recognition failed: " + resp.error);
      break;
    }
    default:
      SPECTRA_REQUIRE(false, "unknown Janus plan");
  }
}

void JanusApp::copy_state_from(const JanusApp& src) {
  SPECTRA_REQUIRE(noise_.size() == src.noise_.size(),
                  "janus app mismatch in copy_state_from");
  for (std::size_t i = 0; i < noise_.size(); ++i) *noise_[i] = *src.noise_[i];
}

monitor::OperationUsage JanusApp::run_forced(
    core::SpectraClient& client, double utterance_seconds,
    const solver::Alternative& alt) const {
  std::map<std::string, double> params{{"utt_len", utterance_seconds}};
  client.begin_fidelity_op_forced(kOperation, params, "", alt);
  execute(client, utterance_seconds);
  return client.end_fidelity_op();
}

}  // namespace spectra::apps
