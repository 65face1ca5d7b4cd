#include "scenario/experiment.h"

#include <chrono>
#include <set>
#include <sstream>

#include "util/assert.h"

namespace spectra::scenario {

namespace {

using apps::JanusApp;
using apps::LatexApp;
using apps::PanglossApp;

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

MeasuredRun to_run(const core::OperationChoice& choice,
                   const monitor::OperationUsage& usage) {
  MeasuredRun run;
  run.feasible = true;
  run.time = usage.elapsed;
  run.energy = usage.energy;
  run.choice = choice;
  run.usage = usage;
  return run;
}

// Scoped timer for one experiment phase (setup / train / settle / measure):
// records wall and virtual elapsed time as histograms and, when tracing,
// emits a `phase` event at the phase's end. Wall time never enters the
// trace — it would break replay bit-identity.
class PhaseTimer {
 public:
  PhaseTimer(obs::Observability* obs, sim::Engine& engine, std::string name)
      : obs_(obs),
        engine_(engine),
        name_(std::move(name)),
        wall0_(wall_ms()),
        virt0_(engine.now()) {}

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() {
    if (obs_ == nullptr) return;
    const util::Seconds virt = engine_.now() - virt0_;
    obs_->metrics().histogram("phase." + name_ + ".wall_ms")
        .observe(wall_ms() - wall0_);
    obs_->metrics().histogram("phase." + name_ + ".virtual_s").observe(virt);
    if (obs_->tracing()) {
      obs::TraceEvent ev("phase", engine_.now());
      ev.field("name", name_).field("virtual_s", virt);
      obs_->trace()->emit(ev);
    }
  }

 private:
  obs::Observability* obs_;
  sim::Engine& engine_;
  std::string name_;
  double wall0_;
  util::Seconds virt0_;
};

// Shared template acquisition: globally cacheable configurations (no
// observability, no overrides, no fault plan) go through the process-wide
// TrainedWorldCache so several experiment instances with the same training
// shape — e.g. one per test sentence — share one trained world; everything
// else trains at most once per experiment instance.
std::shared_ptr<const World> acquire_template(
    bool cacheable, const std::string& key, std::once_flag& once,
    std::shared_ptr<const World>& slot,
    const std::function<std::unique_ptr<World>()>& build) {
  if (cacheable) return TrainedWorldCache::instance().get(key, build);
  std::call_once(once, [&] { slot = build(); });
  return slot;
}

// Clone a trained template for one measurement run, recording what the
// reuse path actually costs as phase.clone.wall_ms. Wall-only on purpose:
// a clone advances no virtual time, and wall-suffixed metrics stay out of
// goldens and replay checks, so the counter cannot perturb determinism.
std::unique_ptr<World> clone_template(const World& tmpl,
                                      obs::Observability* run_obs) {
  const double t0 = wall_ms();
  auto world = tmpl.clone(run_obs);
  if (run_obs != nullptr) {
    run_obs->metrics().histogram("phase.clone.wall_ms")
        .observe(wall_ms() - t0);
  }
  return world;
}

}  // namespace

// ------------------------------------------------------------------ speech

std::vector<solver::Alternative> SpeechExperiment::alternatives() {
  std::vector<solver::Alternative> out;
  for (int plan :
       {JanusApp::kPlanLocal, JanusApp::kPlanHybrid, JanusApp::kPlanRemote}) {
    for (double vocab : {JanusApp::kVocabReduced, JanusApp::kVocabFull}) {
      out.push_back(JanusApp::alternative(plan, vocab, kServerT20));
    }
  }
  return out;
}

std::string SpeechExperiment::label(const solver::Alternative& alt) {
  static const char* kPlans[] = {"local", "hybrid", "remote"};
  std::string s = kPlans[alt.plan];
  s += alt.fidelity.at("vocab") >= JanusApp::kVocabFull ? "-full" : "-reduced";
  return s;
}

std::unique_ptr<World> SpeechExperiment::trained_world(
    obs::Observability* obs) const {
  WorldConfig wc;
  wc.testbed = Testbed::kItsy;
  wc.seed = config_.seed;
  wc.spectra.obs = obs;
  if (config_.spectra_overrides) config_.spectra_overrides(wc.spectra);
  auto world = std::make_unique<World>(wc);
  {
    PhaseTimer phase(obs, world->engine(), "setup");
    world->warm_all_caches();
    world->probe_fetch_rates();
    world->settle(6.0);
  }

  {
    PhaseTimer phase(obs, world->engine(), "train");
    util::Rng rng(config_.seed * 77 + 13);
    const auto alts = alternatives();
    for (int i = 0; i < config_.training_runs; ++i) {
      const double len = rng.uniform(1.0, 3.5);
      world->janus().run_forced(
          world->spectra(), len,
          alts[static_cast<std::size_t>(i) % alts.size()]);
    }
  }
  {
    PhaseTimer phase(obs, world->engine(), "settle");
    apply(*world, config_.scenario);
    world->settle(config_.settle_time);
    if (config_.fault_plan) world->arm_faults(*config_.fault_plan);
  }
  return world;
}

std::shared_ptr<const World> SpeechExperiment::template_world() const {
  const bool cacheable = config_.obs == nullptr &&
                         !config_.spectra_overrides && !config_.fault_plan;
  std::ostringstream key;
  key << "speech|" << static_cast<int>(config_.scenario) << '|'
      << config_.seed << '|' << config_.training_runs << '|'
      << config_.settle_time;
  return acquire_template(cacheable, key.str(), template_once_, template_,
                          [this] { return trained_world(config_.obs); });
}

std::unique_ptr<World> SpeechExperiment::measurement_world(
    obs::Observability* run_obs) const {
  if (config_.reuse_trained_world) {
    return clone_template(*template_world(), run_obs);
  }
  return trained_world(run_obs);
}

MeasuredRun SpeechExperiment::measure(const solver::Alternative& alt,
                                      obs::Observability* run_obs) const {
  auto world = measurement_world(run_obs);
  try {
    const auto usage = world->janus().run_forced(
        world->spectra(), config_.test_utterance_s, alt);
    MeasuredRun run = to_run(core::OperationChoice{}, usage);
    run.choice.alternative = alt;
    return run;
  } catch (const util::ContractError&) {
    return MeasuredRun{};  // infeasible under this scenario
  }
}

MeasuredRun SpeechExperiment::run_spectra(obs::Observability* run_obs) const {
  auto world = measurement_world(run_obs);
  PhaseTimer phase(run_obs, world->engine(), "measure");
  // Capture the choice before end_fidelity_op clears it.
  std::map<std::string, double> params{
      {"utt_len", config_.test_utterance_s}};
  const auto choice = world->spectra().begin_fidelity_op(
      JanusApp::kOperation, params);
  SPECTRA_REQUIRE(choice.ok, "Spectra made no choice");
  world->janus().execute(world->spectra(), config_.test_utterance_s);
  const auto usage = world->spectra().end_fidelity_op();
  return to_run(choice, usage);
}

// ------------------------------------------------------------------- latex

std::vector<solver::Alternative> LatexExperiment::alternatives() {
  return {LatexApp::alternative(LatexApp::kPlanLocal),
          LatexApp::alternative(LatexApp::kPlanRemote, kServerA),
          LatexApp::alternative(LatexApp::kPlanRemote, kServerB)};
}

std::string LatexExperiment::label(const solver::Alternative& alt) {
  if (alt.plan == LatexApp::kPlanLocal) return "local";
  return alt.server == kServerA ? "serverA" : "serverB";
}

std::unique_ptr<World> LatexExperiment::trained_world(
    obs::Observability* obs) const {
  WorldConfig wc;
  wc.testbed = Testbed::kThinkpad;
  wc.seed = config_.seed;
  wc.spectra.obs = obs;
  if (config_.spectra_overrides) config_.spectra_overrides(wc.spectra);
  auto world = std::make_unique<World>(wc);
  {
    PhaseTimer phase(obs, world->engine(), "setup");
    world->warm_all_caches();
    world->probe_fetch_rates();
    world->settle(6.0);
  }

  {
    PhaseTimer phase(obs, world->engine(), "train");
    const auto alts = alternatives();
    for (int i = 0; i < config_.training_runs; ++i) {
      const std::string doc = (i % 2 == 0) ? "small" : "large";
      world->latex().run_forced(world->spectra(), doc,
                                alts[static_cast<std::size_t>(i / 2) %
                                     alts.size()]);
    }
  }
  {
    PhaseTimer phase(obs, world->engine(), "settle");
    apply(*world, config_.scenario);
    world->settle(config_.settle_time);
    if (config_.fault_plan) world->arm_faults(*config_.fault_plan);
  }
  return world;
}

std::shared_ptr<const World> LatexExperiment::template_world() const {
  const bool cacheable = config_.obs == nullptr &&
                         !config_.spectra_overrides && !config_.fault_plan;
  std::ostringstream key;
  key << "latex|" << static_cast<int>(config_.scenario) << '|' << config_.seed
      << '|' << config_.training_runs << '|' << config_.settle_time;
  return acquire_template(cacheable, key.str(), template_once_, template_,
                          [this] { return trained_world(config_.obs); });
}

std::unique_ptr<World> LatexExperiment::measurement_world(
    obs::Observability* run_obs) const {
  if (config_.reuse_trained_world) {
    return clone_template(*template_world(), run_obs);
  }
  return trained_world(run_obs);
}

MeasuredRun LatexExperiment::measure(const solver::Alternative& alt,
                                     obs::Observability* run_obs) const {
  auto world = measurement_world(run_obs);
  try {
    const auto usage =
        world->latex().run_forced(world->spectra(), config_.doc, alt);
    MeasuredRun run = to_run(core::OperationChoice{}, usage);
    run.choice.alternative = alt;
    return run;
  } catch (const util::ContractError&) {
    return MeasuredRun{};
  }
}

MeasuredRun LatexExperiment::run_spectra(obs::Observability* run_obs) const {
  auto world = measurement_world(run_obs);
  PhaseTimer phase(run_obs, world->engine(), "measure");
  const auto choice = world->spectra().begin_fidelity_op(
      LatexApp::kOperation, {}, config_.doc);
  SPECTRA_REQUIRE(choice.ok, "Spectra made no choice");
  world->latex().execute(world->spectra(), config_.doc);
  const auto usage = world->spectra().end_fidelity_op();
  return to_run(choice, usage);
}

// ---------------------------------------------------------------- pangloss

std::vector<solver::Alternative> PanglossExperiment::alternatives() {
  std::vector<solver::Alternative> out;
  std::set<std::string> seen;
  for (int mask = 0; mask < PanglossApp::kPlanCount; ++mask) {
    for (int fid = 1; fid < 8; ++fid) {
      const bool ebmt = (fid & 1) != 0;
      const bool gloss = (fid & 2) != 0;
      const bool dict = (fid & 4) != 0;
      for (MachineId server : {kServerA, kServerB}) {
        const auto alt =
            PanglossApp::alternative(mask, ebmt, gloss, dict, server);
        if (seen.insert(alt.describe()).second) out.push_back(alt);
      }
    }
  }
  return out;
}

std::string PanglossExperiment::label(const solver::Alternative& alt) {
  std::ostringstream os;
  static const char* kNames[] = {"ebmt", "gloss", "dict", "lm"};
  bool any = false;
  for (int c = 0; c <= PanglossApp::kLm; ++c) {
    const bool enabled =
        c == PanglossApp::kLm || alt.fidelity.at(kNames[c]) > 0.5;
    if (!enabled) continue;
    if (any) os << '+';
    any = true;
    os << kNames[c];
    os << ((alt.plan & (1 << c)) != 0
               ? (alt.server == kServerA ? "@A" : "@B")
               : "@L");
  }
  return os.str();
}

std::unique_ptr<World> PanglossExperiment::trained_world(
    obs::Observability* obs) const {
  WorldConfig wc;
  wc.testbed = Testbed::kThinkpad;
  wc.seed = config_.seed;
  wc.spectra.obs = obs;
  if (config_.spectra_overrides) config_.spectra_overrides(wc.spectra);
  auto world = std::make_unique<World>(wc);
  {
    PhaseTimer phase(obs, world->engine(), "setup");
    world->warm_all_caches();
    world->probe_fetch_rates();
    world->settle(6.0);
  }

  {
    PhaseTimer phase(obs, world->engine(), "train");
    util::Rng rng(config_.seed * 91 + 7);
    for (int i = 0; i < config_.training_runs; ++i) {
      const int words = static_cast<int>(rng.uniform_int(4, 44));
      const int fid = 1 + static_cast<int>(rng.uniform_int(0, 6));
      const int mask = static_cast<int>(rng.uniform_int(0, 15));
      const MachineId server = (i % 2 == 0) ? kServerA : kServerB;
      const auto alt = PanglossApp::alternative(mask, (fid & 1) != 0,
                                                (fid & 2) != 0,
                                                (fid & 4) != 0, server);
      world->pangloss().run_forced(world->spectra(), words, alt);
    }
  }
  {
    PhaseTimer phase(obs, world->engine(), "settle");
    apply(*world, config_.scenario);
    world->settle(config_.settle_time);
    if (config_.fault_plan) world->arm_faults(*config_.fault_plan);
  }
  return world;
}

std::shared_ptr<const World> PanglossExperiment::template_world() const {
  const bool cacheable = config_.obs == nullptr &&
                         !config_.spectra_overrides && !config_.fault_plan;
  std::ostringstream key;
  key << "pangloss|" << static_cast<int>(config_.scenario) << '|'
      << config_.seed << '|' << config_.training_runs << '|'
      << config_.settle_time;
  return acquire_template(cacheable, key.str(), template_once_, template_,
                          [this] { return trained_world(config_.obs); });
}

std::unique_ptr<World> PanglossExperiment::measurement_world(
    obs::Observability* run_obs) const {
  if (config_.reuse_trained_world) {
    return clone_template(*template_world(), run_obs);
  }
  return trained_world(run_obs);
}

MeasuredRun PanglossExperiment::measure(const solver::Alternative& alt,
                                        obs::Observability* run_obs) const {
  auto world = measurement_world(run_obs);
  try {
    const auto usage =
        world->pangloss().run_forced(world->spectra(), config_.test_words,
                                     alt);
    MeasuredRun run = to_run(core::OperationChoice{}, usage);
    run.choice.alternative = PanglossApp::canonical(alt);
    return run;
  } catch (const util::ContractError&) {
    return MeasuredRun{};
  }
}

MeasuredRun PanglossExperiment::run_spectra(obs::Observability* run_obs) const {
  auto world = measurement_world(run_obs);
  PhaseTimer phase(run_obs, world->engine(), "measure");
  std::map<std::string, double> params{
      {"words", static_cast<double>(config_.test_words)}};
  const auto choice = world->spectra().begin_fidelity_op(
      PanglossApp::kOperation, params);
  SPECTRA_REQUIRE(choice.ok, "Spectra made no choice");
  world->pangloss().execute(world->spectra(), config_.test_words);
  const auto usage = world->spectra().end_fidelity_op();
  return to_run(choice, usage);
}

double PanglossExperiment::achieved_utility(const MeasuredRun& run,
                                            const solver::Alternative& alt) {
  if (!run.feasible) return 0.0;
  const apps::PanglossConfig cfg;
  const auto latency =
      solver::deadline_latency(cfg.deadline_lo, cfg.deadline_hi);
  double fidelity = 0.0;
  static const char* kNames[] = {"ebmt", "gloss", "dict"};
  for (int c = 0; c <= PanglossApp::kDict; ++c) {
    auto it = alt.fidelity.find(kNames[c]);
    if (it != alt.fidelity.end() && it->second > 0.5) {
      fidelity += cfg.components[c].fidelity;
    }
  }
  return latency(run.time) * fidelity;
}

// --------------------------------------------------------------- overhead

void install_null_services(World& world) {
  const auto install = [](core::SpectraServer& server) {
    server.register_service(kNullOp, [](const rpc::Request&) {
      rpc::Response r;
      r.ok = true;
      r.payload = 64.0;
      return r;
    });
  };
  for (MachineId id : world.server_ids()) install(world.server(id));
  install(world.spectra().local_server());
}

core::OperationDesc null_op_desc() {
  core::OperationDesc desc;
  desc.name = kNullOp;
  desc.plans = {{"local", false}, {"remote", true}};
  desc.fidelities = {{"level", {0.0, 1.0}}};
  desc.latency_fn = solver::inverse_latency();
  desc.fidelity_fn = [](const std::map<std::string, double>&) { return 1.0; };
  return desc;
}

OverheadReport OverheadExperiment::run() const {
  WorldConfig wc;
  wc.testbed = Testbed::kOverhead;
  wc.seed = config_.seed;
  wc.overhead_servers = config_.servers;
  wc.spectra.obs = config_.obs;
  World world(wc);
  install_null_services(world);

  OverheadReport report;
  report.servers = config_.servers;
  core::OperationDesc desc = null_op_desc();
  const double t0 = wall_ms();
  world.spectra().register_fidelity(std::move(desc));
  report.register_ms = wall_ms() - t0;
  world.settle(6.0);

  // Train so the measured begin_fidelity_op runs the full decision path.
  auto one_run = [&](bool forced_local) {
    if (forced_local) {
      solver::Alternative local;
      local.plan = 0;
      local.fidelity["level"] = 1.0;
      world.spectra().begin_fidelity_op_forced(kNullOp, {}, "", local);
    } else {
      world.spectra().begin_fidelity_op(kNullOp, {});
    }
    rpc::Request req;
    req.op_type = kNullOp;
    req.payload = 64.0;
    // The null operation always executes locally regardless of the chosen
    // plan; only the decision cost is being measured.
    world.spectra().do_local_op(kNullOp, req);
    world.spectra().end_fidelity_op();
  };
  for (int i = 0; i < 16; ++i) one_run(/*forced_local=*/true);

  // Measured runs.
  double begin_sum = 0, cache_sum = 0, choose_sum = 0, other_sum = 0;
  double local_sum = 0, end_sum = 0, total_sum = 0, virtual_sum = 0;
  for (int i = 0; i < config_.measured_runs; ++i) {
    const double t0 = wall_ms();
    const auto choice = world.spectra().begin_fidelity_op(kNullOp, {});
    const double t1 = wall_ms();
    rpc::Request req;
    req.op_type = kNullOp;
    req.payload = 64.0;
    world.spectra().do_local_op(kNullOp, req);
    const double t2 = wall_ms();
    world.spectra().end_fidelity_op();
    const double t3 = wall_ms();

    begin_sum += t1 - t0;
    cache_sum += choice.wall_cache_prediction * 1000.0;
    choose_sum += choice.wall_choosing * 1000.0;
    other_sum += (t1 - t0) - choice.wall_cache_prediction * 1000.0 -
                 choice.wall_choosing * 1000.0;
    local_sum += t2 - t1;
    end_sum += t3 - t2;
    total_sum += t3 - t0;
    virtual_sum += choice.virtual_decision_time * 1000.0;
  }
  const double n = config_.measured_runs;
  report.begin_ms = begin_sum / n;
  report.cache_prediction_ms = cache_sum / n;
  report.choosing_ms = choose_sum / n;
  report.begin_other_ms = other_sum / n;
  report.do_local_ms = local_sum / n;
  report.end_ms = end_sum / n;
  report.total_ms = total_sum / n;
  report.virtual_decision_ms = virtual_sum / n;

  // Pathological full-cache cache prediction (the paper's 359.6 ms case).
  for (std::size_t i = 0; i < config_.full_cache_files; ++i) {
    const std::string path = "full/f" + std::to_string(i);
    world.file_server().create({path, 4096.0, "full"});
    world.coda(kClient).warm(path);
  }
  double full_sum = 0;
  const int full_runs = 32;
  for (int i = 0; i < full_runs; ++i) {
    const auto choice = world.spectra().begin_fidelity_op(kNullOp, {});
    rpc::Request req;
    req.op_type = kNullOp;
    req.payload = 64.0;
    world.spectra().do_local_op(kNullOp, req);
    world.spectra().end_fidelity_op();
    full_sum += choice.wall_cache_prediction * 1000.0;
  }
  report.cache_prediction_full_ms = full_sum / full_runs;
  return report;
}

}  // namespace spectra::scenario
