#include "scenario/experiment.h"

#include <algorithm>
#include <chrono>
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

double param_or(const core::ServiceBeginRequest& request,
                const std::string& name, double def) {
  auto it = request.params.find(name);
  return it == request.params.end() ? def : it->second;
}

// A number as a message shows it: 700, 1e+300, nan.
std::string show(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

// ------------------------------------------------------------------ speech

Speech::Input::Input(double utt_len) : utt_len(utt_len) {
  SPECTRA_REQUIRE(utt_len > 0.0 && utt_len <= kMaxUtterance,
                  "speech utterance must be in (0, " + show(kMaxUtterance) +
                      "] s, got " + show(utt_len));
}

Speech::Input Speech::input(const core::ServiceBeginRequest& request) {
  return Input(
      param_or(request, "utt_len", InputConfig{}.test_utterance_s));
}

std::vector<solver::Alternative> Speech::alternatives() {
  std::vector<solver::Alternative> out;
  for (int plan :
       {JanusApp::kPlanLocal, JanusApp::kPlanHybrid, JanusApp::kPlanRemote}) {
    for (double vocab : {JanusApp::kVocabReduced, JanusApp::kVocabFull}) {
      out.push_back(JanusApp::alternative(plan, vocab, kServerT20));
    }
  }
  return out;
}

std::string Speech::label(const solver::Alternative& alt) {
  static const char* kPlans[] = {"local", "hybrid", "remote"};
  std::string s = kPlans[alt.plan];
  s += alt.fidelity[JanusApp::kVocab] >= JanusApp::kVocabFull ? "-full"
                                                               : "-reduced";
  return s;
}

void Speech::train(World& world, std::uint64_t seed, int runs) {
  util::Rng rng(seed * 77 + 13);
  const auto alts = alternatives();
  for (int i = 0; i < runs; ++i) {
    const double len = rng.uniform(1.0, 3.5);
    world.janus().run_forced(world.spectra(), len,
                             alts[static_cast<std::size_t>(i) % alts.size()]);
  }
}

core::OperationChoice Speech::begin(World& world, const Input& input) {
  return world.spectra().begin_fidelity_op(kOperation,
                                           {{"utt_len", input.utt_len}});
}

void Speech::execute(World& world, const Input& input) {
  world.janus().execute(world.spectra(), input.utt_len);
}

monitor::OperationUsage Speech::run_forced(World& world, const Input& input,
                                           const solver::Alternative& alt) {
  return world.janus().run_forced(world.spectra(), input.utt_len, alt);
}

// ------------------------------------------------------------------- latex

Latex::Input::Input(std::string doc) : doc(std::move(doc)) {
  SPECTRA_REQUIRE(this->doc == "small" || this->doc == "large",
                  "latex document must be small or large, got: " + this->doc);
}

Latex::Input Latex::input(const core::ServiceBeginRequest& request) {
  return Input(request.data_tag.empty() ? InputConfig{}.doc
                                        : request.data_tag);
}

std::vector<solver::Alternative> Latex::alternatives() {
  return {LatexApp::alternative(LatexApp::kPlanLocal),
          LatexApp::alternative(LatexApp::kPlanRemote, kServerA),
          LatexApp::alternative(LatexApp::kPlanRemote, kServerB)};
}

std::string Latex::label(const solver::Alternative& alt) {
  if (alt.plan == LatexApp::kPlanLocal) return "local";
  return alt.server == kServerA ? "serverA" : "serverB";
}

void Latex::train(World& world, std::uint64_t /*seed*/, int runs) {
  const auto alts = alternatives();
  for (int i = 0; i < runs; ++i) {
    const std::string doc = (i % 2 == 0) ? "small" : "large";
    world.latex().run_forced(
        world.spectra(), doc,
        alts[static_cast<std::size_t>(i / 2) % alts.size()]);
  }
}

core::OperationChoice Latex::begin(World& world, const Input& input) {
  return world.spectra().begin_fidelity_op(kOperation, {}, input.doc);
}

void Latex::execute(World& world, const Input& input) {
  world.latex().execute(world.spectra(), input.doc);
}

monitor::OperationUsage Latex::run_forced(World& world, const Input& input,
                                          const solver::Alternative& alt) {
  return world.latex().run_forced(world.spectra(), input.doc, alt);
}

// ---------------------------------------------------------------- pangloss

Pangloss::Input::Input(double words) {
  SPECTRA_REQUIRE(words >= 1.0 && words <= kMaxWords,
                  "pangloss sentence must be in [1, " + show(kMaxWords) +
                      "] words, got " + show(words));
  this->words = static_cast<int>(words);
}

Pangloss::Input Pangloss::input(const core::ServiceBeginRequest& request) {
  return Input(param_or(request, "words", InputConfig{}.test_words));
}

std::vector<solver::Alternative> Pangloss::alternatives() {
  std::vector<solver::Alternative> out;
  for (int mask = 0; mask < PanglossApp::kPlanCount; ++mask) {
    for (int fid = 1; fid < 8; ++fid) {
      const bool ebmt = (fid & 1) != 0;
      const bool gloss = (fid & 2) != 0;
      const bool dict = (fid & 4) != 0;
      for (MachineId server : {kServerA, kServerB}) {
        const auto alt =
            PanglossApp::alternative(mask, ebmt, gloss, dict, server);
        if (std::find(out.begin(), out.end(), alt) == out.end()) {
          out.push_back(alt);
        }
      }
    }
  }
  return out;
}

std::string Pangloss::label(const solver::Alternative& alt) {
  std::ostringstream os;
  static const char* kNames[] = {"ebmt", "gloss", "dict", "lm"};
  bool any = false;
  for (int c = 0; c <= PanglossApp::kLm; ++c) {
    const bool enabled = c == PanglossApp::kLm || alt.fidelity[c] > 0.5;
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

double Pangloss::achieved_utility(const MeasuredRun& run,
                                  const solver::Alternative& alt) {
  if (!run.feasible) return 0.0;
  const apps::PanglossConfig cfg;
  const auto latency =
      solver::deadline_latency(cfg.deadline_lo, cfg.deadline_hi);
  return latency(run.time) *
         PanglossApp::fidelity_desirability(cfg, alt.fidelity);
}

void Pangloss::train(World& world, std::uint64_t seed, int runs) {
  util::Rng rng(seed * 91 + 7);
  for (int i = 0; i < runs; ++i) {
    const int words = static_cast<int>(rng.uniform_int(4, 44));
    const int fid = 1 + static_cast<int>(rng.uniform_int(0, 6));
    const int mask = static_cast<int>(rng.uniform_int(0, 15));
    const MachineId server = (i % 2 == 0) ? kServerA : kServerB;
    const auto alt = PanglossApp::alternative(mask, (fid & 1) != 0,
                                              (fid & 2) != 0,
                                              (fid & 4) != 0, server);
    world.pangloss().run_forced(world.spectra(), words, alt);
  }
}

core::OperationChoice Pangloss::begin(World& world, const Input& input) {
  return world.spectra().begin_fidelity_op(
      kOperation, {{"words", static_cast<double>(input.words)}});
}

void Pangloss::execute(World& world, const Input& input) {
  world.pangloss().execute(world.spectra(), input.words);
}

monitor::OperationUsage Pangloss::run_forced(World& world, const Input& input,
                                             const solver::Alternative& alt) {
  return world.pangloss().run_forced(world.spectra(), input.words, alt);
}

// -------------------------------------------------------------- experiment

template <typename App>
std::unique_ptr<World> Experiment<App>::trained_world(
    obs::Observability* obs) const {
  WorldConfig wc;
  wc.testbed = App::kTestbed;
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
    App::train(*world, config_.seed, config_.training_runs);
  }
  {
    PhaseTimer phase(obs, world->engine(), "settle");
    apply(*world, config_.scenario);
    world->settle(config_.settle_time);
    if (config_.fault_plan) world->arm_faults(*config_.fault_plan);
  }
  return world;
}

template <typename App>
std::shared_ptr<const World> Experiment<App>::template_world() const {
  const bool cacheable = config_.obs == nullptr &&
                         !config_.spectra_overrides && !config_.fault_plan;
  if (!cacheable) {
    std::call_once(template_once_,
                   [this] { template_ = trained_world(config_.obs); });
    return template_;
  }
  std::ostringstream key;
  key << App::kName << '|' << static_cast<int>(config_.scenario) << '|'
      << config_.seed << '|' << config_.training_runs << '|'
      << config_.settle_time;
  return TrainedWorldCache::instance().get(
      key.str(), [this] { return trained_world(nullptr); });
}

template <typename App>
std::unique_ptr<World> Experiment<App>::measurement_world(
    obs::Observability* run_obs) const {
  if (config_.reuse_trained_world) {
    return clone_template(*template_world(), run_obs);
  }
  return trained_world(run_obs);
}

template <typename App>
MeasuredRun Experiment<App>::measure(const solver::Alternative& alt,
                                     obs::Observability* run_obs) const {
  auto world = measurement_world(run_obs);
  try {
    const auto usage = App::run_forced(*world, input_, alt);
    MeasuredRun run = to_run(core::OperationChoice{}, usage);
    run.choice.alternative = App::canonical(alt);
    return run;
  } catch (const util::ContractError&) {
    return MeasuredRun{};  // infeasible under this scenario
  }
}

template <typename App>
MeasuredRun Experiment<App>::run_spectra(obs::Observability* run_obs) const {
  auto world = measurement_world(run_obs);
  PhaseTimer phase(run_obs, world->engine(), "measure");
  return run_spectra_on(*world);
}

template <typename App>
MeasuredRun Experiment<App>::run_spectra_on(World& world) const {
  // Capture the choice before end_fidelity_op clears it.
  const auto choice = App::begin(world, input_);
  SPECTRA_REQUIRE(choice.ok, "Spectra made no choice");
  App::execute(world, input_);
  const auto usage = world.spectra().end_fidelity_op();
  return to_run(choice, usage);
}

template class Experiment<Speech>;
template class Experiment<Latex>;
template class Experiment<Pangloss>;

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
  desc.input_params = {"x"};
  desc.latency_fn = solver::inverse_latency();
  desc.fidelity_fn = [](const std::vector<double>&) { return 1.0; };
  return desc;
}

core::OperationChoice NullOp::begin(World& world, const Input& input) {
  return world.spectra().begin_fidelity_op(kNullOp, input.params);
}

void NullOp::execute(World& world, const Input& /*input*/) {
  rpc::Request req;
  req.op_type = kNullOp;
  req.payload = 64.0;
  world.spectra().do_local_op(kNullOp, req);
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
  const solver::Alternative local{0, -1, {1.0}};  // level 1
  for (int i = 0; i < 16; ++i) {
    world.spectra().begin_fidelity_op_forced(kNullOp, {}, "", local);
    NullOp::execute(world);
    world.spectra().end_fidelity_op();
  }

  // Measured runs.
  double begin_sum = 0, cache_sum = 0, choose_sum = 0, other_sum = 0;
  double local_sum = 0, end_sum = 0, total_sum = 0, virtual_sum = 0;
  for (int i = 0; i < config_.measured_runs; ++i) {
    const double t0 = wall_ms();
    const auto choice = world.spectra().begin_fidelity_op(kNullOp, {});
    const double t1 = wall_ms();
    NullOp::execute(world);
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
    NullOp::execute(world);
    world.spectra().end_fidelity_op();
    full_sum += choice.wall_cache_prediction * 1000.0;
  }
  report.cache_prediction_full_ms = full_sum / full_runs;
  return report;
}

}  // namespace spectra::scenario
