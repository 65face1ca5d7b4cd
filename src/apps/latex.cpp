#include "apps/latex.h"

#include <memory>

#include "util/assert.h"

namespace spectra::apps {

LatexConfig default_latex_config() {
  LatexConfig cfg;
  LatexDocument small;
  small.name = "small";
  small.pages = 14;
  small.volume = "latex.small";
  small.files = {
      {"latex/small/main.tex", 70.0 * 1024, small.volume},
      {"latex/small/intro.tex", 40.0 * 1024, small.volume},
      {"latex/small/eval.tex", 60.0 * 1024, small.volume},
      {"latex/small/refs.bib", 30.0 * 1024, small.volume},
      {"latex/small/figures.eps", 150.0 * 1024, small.volume},
  };
  LatexDocument large;
  large.name = "large";
  large.pages = 123;
  large.volume = "latex.large";
  large.files.push_back(
      {"latex/large/thesis.tex", 180.0 * 1024, large.volume});
  for (int i = 1; i <= 7; ++i) {
    large.files.push_back({"latex/large/chap" + std::to_string(i) + ".tex",
                           120.0 * 1024, large.volume});
  }
  for (int i = 1; i <= 4; ++i) {
    large.files.push_back({"latex/large/figs" + std::to_string(i) + ".eps",
                           370.0 * 1024, large.volume});
  }
  cfg.documents = {small, large};
  return cfg;
}

const LatexDocument& LatexApp::document(const std::string& name) const {
  for (const auto& d : config_.documents) {
    if (d.name == name) return d;
  }
  SPECTRA_REQUIRE(false, "unknown Latex document: " + name);
  throw std::logic_error("unreachable");
}

void LatexApp::install_files(fs::FileServer& server) const {
  for (const auto& d : config_.documents) {
    for (const auto& f : d.files) server.create(f);
  }
}

void LatexApp::install_services(core::SpectraServer& server,
                                util::Rng rng) const {
  auto noise = std::make_shared<util::Rng>(rng);
  noise_.push_back(noise);
  const LatexConfig cfg = config_;
  core::SpectraServer* srv = &server;
  // Copy the document table into the handler.
  server.register_service("latex.run", [cfg, noise,
                                        srv](const rpc::Request& req) {
    const LatexDocument* doc = nullptr;
    for (const auto& d : cfg.documents) {
      if (d.name == req.data_tag) doc = &d;
    }
    rpc::Response r;
    if (doc == nullptr) {
      r.ok = false;
      r.error = "unknown document: " + req.data_tag;
      return r;
    }
    SPECTRA_REQUIRE(srv->coda() != nullptr, "latex needs Coda for inputs");
    for (const auto& f : doc->files) srv->coda()->read(f.path);
    srv->machine().run_cycles(
        (cfg.base_cycles + cfg.cycles_per_page * doc->pages) *
        noise->noise_factor(cfg.noise_cv));
    r.ok = true;
    r.payload = cfg.dvi_bytes_per_page * doc->pages;
    return r;
  });
}

void LatexApp::register_op(core::SpectraClient& client) const {
  core::OperationDesc desc;
  desc.name = kOperation;
  desc.plans = {{"local", false}, {"remote", true}};
  desc.fidelities = {};  // Latex has a single fidelity (§3.7.2)
  desc.input_params = {};
  desc.latency_fn = solver::inverse_latency();
  desc.fidelity_fn = [](const std::vector<double>&) { return 1.0; };
  client.register_fidelity(std::move(desc));
}

solver::Alternative LatexApp::alternative(int plan, hw::MachineId server) {
  solver::Alternative a;
  a.plan = plan;
  a.server = plan == kPlanLocal ? -1 : server;
  return a;
}

void LatexApp::execute(core::SpectraClient& client,
                       const std::string& doc) const {
  const solver::Alternative& alt = client.current_choice().alternative;
  rpc::Request req;
  req.op_type = "latex.run";
  req.data_tag = doc;
  // The request ships only the run command; input files travel through the
  // file system, not the RPC.
  req.payload = 256.0;
  const auto resp = alt.plan == kPlanLocal
                        ? client.do_local_op("latex.run", req)
                        : client.do_remote_op("latex.run", req);
  SPECTRA_ENSURE(resp.ok, "latex run failed: " + resp.error);
}

void LatexApp::copy_state_from(const LatexApp& src) {
  SPECTRA_REQUIRE(noise_.size() == src.noise_.size(),
                  "latex app mismatch in copy_state_from");
  for (std::size_t i = 0; i < noise_.size(); ++i) *noise_[i] = *src.noise_[i];
}

monitor::OperationUsage LatexApp::run_forced(
    core::SpectraClient& client, const std::string& doc,
    const solver::Alternative& alt) const {
  client.begin_fidelity_op_forced(kOperation, {}, doc, alt);
  execute(client, doc);
  return client.end_fidelity_op();
}

}  // namespace spectra::apps
