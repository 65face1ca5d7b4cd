#include "core/client.h"

#include <chrono>
#include <filesystem>

#include <algorithm>
#include <cstdint>

#include "monitor/cache_monitor.h"
#include "monitor/remote_proxy.h"
#include "util/assert.h"
#include "util/log.h"
#include "util/table.h"

namespace spectra::core {

namespace {
double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

util::Bytes total_dirty_bytes(const fs::CodaClient& coda) {
  util::Bytes total = 0.0;
  for (const auto& f : coda.dirty_files()) total += f.size;
  return total;
}

// Refuses an alternative that does not fit the operation's registration.
void check_alternative(const OperationDesc& desc,
                       const solver::Alternative& alt) {
  SPECTRA_REQUIRE(
      alt.plan >= 0 && alt.plan < static_cast<int>(desc.plans.size()),
      "plan index out of range");
  SPECTRA_REQUIRE(alt.fidelity.size() == desc.fidelities.size(),
                  "alternative needs one value per fidelity dimension");
}

// The default feature mapping of `desc`: plan, server and each fidelity
// dimension are discrete features, the input parameters continuous ones.
FeatureHook default_feature_hook(const OperationDesc& desc) {
  std::vector<std::string> discrete = {"plan", "server"};
  for (const auto& dim : desc.fidelities) discrete.push_back(dim.name);
  FeatureHook hook{{discrete, desc.input_params}, nullptr};
  std::vector<std::string>& names = hook.schema.discrete;
  std::sort(names.begin(), names.end());
  std::vector<std::size_t> slot;  // plan, server, each dimension
  for (const auto& name : discrete) {
    slot.push_back(std::lower_bound(names.begin(), names.end(), name) -
                   names.begin());
  }
  hook.fill = [slot](const solver::Alternative& alt,
                     const predict::FeatureSlots& params,
                     predict::FeatureVector& out) {
    out.discrete.set(slot[0], alt.plan);
    if (alt.server >= 0) out.discrete.set(slot[1], alt.server);
    for (std::size_t d = 0; d < alt.fidelity.size(); ++d) {
      out.discrete.set(slot[2 + d], alt.fidelity[d]);
    }
    out.continuous = params;
  };
  return hook;
}
}  // namespace

SpectraClient::SpectraClient(MachineId id, sim::Engine& engine,
                             hw::Machine& machine, net::Network& network,
                             fs::CodaClient& coda,
                             std::unique_ptr<hw::EnergyDriver> energy_driver,
                             util::Rng rng, SpectraClientConfig config)
    : id_(id),
      engine_(engine),
      machine_(machine),
      network_(network),
      coda_(coda),
      config_(config),
      endpoint_(id, machine, network, nullptr),
      local_server_(
          std::make_unique<SpectraServer>(id, engine, machine, network,
                                          &coda)),
      // Health jitter draws from its own stream (seeded like retry_rng_, a
      // fixed mix of the machine id) so fault-recovery probes never shift
      // the solver's draws.
      health_(engine,
              util::Rng(0x8f1e9a7c3b5d2e41ULL ^
                        (static_cast<std::uint64_t>(id) + 1) *
                            0x9e3779b97f4a7c15ULL),
              config.health),
      server_db_(engine, endpoint_, monitors_, config.poll_period, &health_),
      consistency_(coda, config.reintegration_threshold),
      solver_(rng, config.solver) {
  auto cpu = std::make_unique<monitor::CpuMonitor>(engine, machine);
  auto net = std::make_unique<monitor::NetworkMonitor>(engine, network, id,
                                                       config_.network);
  network_monitor_ = net.get();
  auto battery = std::make_unique<monitor::BatteryMonitor>(
      engine, machine, std::move(energy_driver), config_.goal);
  battery_monitor_ = battery.get();
  monitors_.add(std::move(cpu));
  monitors_.add(std::move(net));
  monitors_.add(std::move(battery));
  file_cache_monitor_ =
      monitors_.add(std::make_unique<monitor::FileCacheMonitor>(
          coda, config_.incremental_cache_interface));
  monitors_.add(std::make_unique<monitor::RemoteCpuProxy>(engine));
  monitors_.add(std::make_unique<monitor::RemoteCacheProxy>(engine));

  if (!config_.usage_log_path.empty() &&
      std::filesystem::exists(config_.usage_log_path)) {
    usage_log_.load(config_.usage_log_path);
  }

  if (config_.obs != nullptr) {
    obs::MetricsRegistry& m = config_.obs->metrics();
    m_decisions_ = &m.counter("client.decisions");
    m_explorations_ = &m.counter("client.explorations");
    m_fallbacks_ = &m.counter("client.fallbacks");
    m_degradations_ = &m.counter("client.degradations");
    m_failovers_ = &m.counter("client.failovers");
    m_solver_evals_ = &m.counter("solver.evaluations");
    m_solver_memo_hits_ = &m.counter("solver.memo_hits");
    m_snapshots_ = &m.counter("client.snapshots");
    m_reintegration_runs_ = &m.counter("reintegration.runs");
    m_reintegration_bytes_ = &m.counter("reintegration.bytes");
    m_ops_completed_ = &m.counter("client.ops_completed");
    h_decision_wall_ms_ = &m.histogram("decision.wall_ms");
    h_decision_virtual_ms_ = &m.histogram("decision.virtual_ms");
    h_reintegration_virtual_s_ = &m.histogram("reintegration.virtual_s");
    h_residual_time_s_ = &m.histogram("residual.time_s");
    h_residual_energy_j_ = &m.histogram("residual.energy_j");
    endpoint_.set_metrics(config_.obs);
    network_monitor_->attach(config_.obs);
    health_.attach_obs(config_.obs);
  }
}

SpectraClient::~SpectraClient() = default;

std::string DecisionTrace::to_string(std::size_t max_rows) const {
  std::vector<const DecisionTraceEntry*> sorted;
  sorted.reserve(entries.size());
  for (const auto& e : entries) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const DecisionTraceEntry* a, const DecisionTraceEntry* b) {
              return a->log_utility > b->log_utility;
            });
  util::Table table("Decision trace: " + operation + " (c=" +
                    util::Table::num(energy_importance, 2) + ", " +
                    std::to_string(entries.size()) + " alternatives)");
  table.set_header({"alternative", "log-utility", "T (s)", "cpu_l", "cpu_r",
                    "net", "miss", "consist", "E (J)", ""});
  std::size_t shown = 0;
  for (const auto* e : sorted) {
    if (shown++ >= max_rows) break;
    if (!e->feasible) {
      table.add_row({e->alternative.describe(fidelity_names), "infeasible",
                     "-", "-", "-", "-", "-", "-", "-",
                     e->alternative == chosen ? "<== chosen" : ""});
      continue;
    }
    table.add_row({e->alternative.describe(fidelity_names),
                   util::Table::num(e->log_utility, 3),
                   util::Table::num(e->predicted.time, 3),
                   util::Table::num(e->breakdown.local_cpu, 2),
                   util::Table::num(e->breakdown.remote_cpu, 2),
                   util::Table::num(e->breakdown.network, 2),
                   util::Table::num(e->breakdown.cache_miss, 2),
                   util::Table::num(e->breakdown.consistency, 2),
                   e->predicted.has_energy
                       ? util::Table::num(e->predicted.energy, 2)
                       : std::string("-"),
                   e->alternative == chosen ? "<== chosen" : ""});
  }
  return table.to_string();
}

void SpectraClient::set_battery_lifetime_goal(util::Seconds duration) {
  battery_monitor_->adaptation().set_goal(duration);
}

double SpectraClient::energy_importance() const {
  return battery_monitor_->adaptation().importance();
}

SpectraClient::RegisteredOp& SpectraClient::registered(const std::string& op) {
  auto it = ops_.find(op);
  SPECTRA_REQUIRE(it != ops_.end(), "operation not registered: " + op);
  return it->second;
}

const SpectraClient::RegisteredOp& SpectraClient::registered(
    const std::string& op) const {
  auto it = ops_.find(op);
  SPECTRA_REQUIRE(it != ops_.end(), "operation not registered: " + op);
  return it->second;
}

void SpectraClient::register_fidelity(OperationDesc desc) {
  SPECTRA_REQUIRE(!desc.name.empty(), "operation needs a name");
  SPECTRA_REQUIRE(!desc.plans.empty(), "operation needs at least one plan");
  SPECTRA_REQUIRE(desc.latency_fn != nullptr,
                  "operation needs a latency desirability function");
  SPECTRA_REQUIRE(desc.fidelity_fn != nullptr,
                  "operation needs a fidelity desirability function");
  SPECTRA_REQUIRE(ops_.count(desc.name) == 0,
                  "operation already registered: " + desc.name);

  if (desc.feature_fn.fill == nullptr) {
    desc.feature_fn = default_feature_hook(desc);
  }
  predict::FeatureSchema& schema = desc.feature_fn.schema;
  for (const auto* names :
       {&desc.input_params, &schema.discrete, &schema.continuous}) {
    predict::check_feature_names(*names, desc.name);
  }

  machine_.run_cycles(config_.register_cycles);

  RegisteredOp op{desc, predict::OperationModel(config_.model), nullptr, 0,
                  {desc.plans, {}, desc.fidelities},
                  solver::FidelityNames(desc.fidelities)};
  op.utility = desc.utility != nullptr
                   ? desc.utility
                   : std::make_shared<solver::DefaultUtility>(
                         desc.latency_fn, desc.fidelity_fn);
  // Bootstrap the models from the persistent usage log (§3.4).
  for (const auto& record : usage_log_.for_operation(desc.name)) {
    op.model.replay(op.desc.feature_fn.schema, record);
  }
  ops_.emplace(desc.name, std::move(op));
}

void SpectraClient::make_features(const RegisteredOp& op,
                                  const solver::Alternative& alt,
                                  const predict::FeatureSlots& params,
                                  util::Symbol data_tag,
                                  predict::FeatureVector& out) const {
  const FeatureHook& hook = op.desc.feature_fn;
  out.discrete.reset(hook.schema.discrete.size());
  out.continuous.reset(hook.schema.continuous.size());
  out.data_tag = data_tag;
  hook.fill(alt, params, out);
}

const predict::DemandEstimate& SpectraClient::cached_demand(
    const predict::OperationModel& model, const predict::FeatureVector& f) {
  const std::size_t h = f.hash();
  // Sorted by hash; the equal-hash run (almost always one entry) is
  // scanned with structural equality, so a hash collision costs a compare,
  // never a wrong estimate.
  auto it = std::lower_bound(demand_order_.begin(), demand_order_.end(), h,
                             [this](std::uint32_t slot, std::size_t key) {
                               return demand_cache_[slot].hash < key;
                             });
  for (; it != demand_order_.end() && demand_cache_[*it].hash == h; ++it) {
    if (demand_cache_[*it].features == f) return demand_cache_[*it].demand;
  }
  if (demand_cache_live_ == demand_cache_.size()) demand_cache_.emplace_back();
  const auto slot = static_cast<std::uint32_t>(demand_cache_live_++);
  DemandCacheEntry& e = demand_cache_[slot];
  e.hash = h;
  e.features = f;
  model.predict(f, e.demand);
  demand_order_.insert(it, slot);
  return e.demand;
}

double SpectraClient::evaluate(const RegisteredOp& op,
                               const solver::Alternative& alt,
                               const predict::FeatureSlots& params,
                               util::Symbol data_tag,
                               const solver::EstimatorInputs& inputs) {
  Candidate& c = candidate_;
  make_features(op, alt, params, data_tag, c.features);
  c.breakdown = {};
  c.feasible = estimator_.estimate(inputs, op.space, alt,
                                   cached_demand(op.model, c.features),
                                   c.metrics, &c.breakdown);
  if (!c.feasible) return solver::kInfeasible;
  // Health feedback into the placement decision: a suspected or failing
  // server's predicted time is inflated, so the solver avoids it unless
  // it is decisively better. Exactly 1.0 for healthy servers, keeping
  // fault-free decisions bit-identical.
  if (alt.server >= 0 && alt.server != id_) {
    const double pf = health_.penalty_factor(alt.server);
    if (pf != 1.0) c.metrics.time *= pf;
  }
  return op.utility->log_utility(c.metrics,
                                 inputs.snapshot->energy_importance);
}

OperationChoice SpectraClient::choose(RegisteredOp& op,
                                      const predict::FeatureSlots& params,
                                      util::Symbol data_tag) {
  OperationChoice choice;
  const double wall_t0 = wall_now();
  const util::Seconds vt0 = engine_.now();

  machine_.run_cycles(config_.begin_base_cycles);

  op.space.servers = server_db_.available_servers();
  const std::vector<MachineId>& candidates = op.space.servers;
  choice.candidate_servers = candidates.size();
  machine_.run_cycles(config_.per_candidate_cycles *
                      static_cast<double>(candidates.size()));

  // Exploration phase: round-robin over the space until enough history
  // exists for the models to be meaningful.
  if (op.model.observations() < config_.exploration_runs) {
    const auto alternatives = op.space.enumerate();
    // Skip alternatives that need an unavailable server.
    std::vector<solver::Alternative> feasible;
    for (const auto& a : alternatives) {
      if (a.server < 0 || server_db_.server(a.server) != nullptr) {
        feasible.push_back(a);
      }
    }
    SPECTRA_ENSURE(!feasible.empty(), "no feasible alternative to explore");
    choice.ok = true;
    choice.from_model = false;
    choice.alternative = feasible[op.executions % feasible.size()];
    choice.wall_total = wall_now() - wall_t0;
    choice.virtual_decision_time = engine_.now() - vt0;
    if (m_decisions_ != nullptr) {
      m_decisions_->add();
      m_explorations_->add();
      h_decision_wall_ms_->observe(choice.wall_total * 1e3);
      h_decision_virtual_ms_->observe(choice.virtual_decision_time * 1e3);
    }
    if (config_.obs != nullptr && config_.obs->tracing()) {
      obs::TraceEvent ev("decision", engine_.now());
      ev.field("op", op.desc.name)
          .field("mode", "explore")
          .field("candidates", choice.candidate_servers)
          .field("evaluations", choice.evaluations)
          .field("memo_hits", choice.memo_hits)
          .field("plan", op.desc.plans[choice.alternative.plan].name)
          .field("plan_index", choice.alternative.plan)
          .field("server", choice.alternative.server)
          .field("fidelity",
                 fidelity_map(op.desc.name, choice.alternative.fidelity))
          .field("virtual_decision_s", choice.virtual_decision_time);
      config_.obs->trace()->emit(ev);
    }
    return choice;
  }

  // Snapshot resource availability (the file-cache monitor's share of this
  // is the paper's "file cache prediction" overhead line).
  const double wall_snap0 = wall_now();
  monitor::ResourceSnapshot snapshot =
      monitors_.build_snapshot(candidates, engine_.now());
  const double wall_snap1 = wall_now();
  if (m_snapshots_ != nullptr) m_snapshots_->add();
  choice.wall_cache_prediction =
      monitors_.last_predict_wall_times()[file_cache_monitor_];

  solver::EstimatorInputs inputs;
  inputs.snapshot = &snapshot;
  inputs.dirty_files = consistency_.dirty_files();
  inputs.fileserver_bandwidth =
      network_monitor_->bandwidth_estimate(coda_.file_server_host());
  inputs.reintegration_threshold = config_.reintegration_threshold;

  DecisionTrace trace;
  if (config_.trace_decisions) {
    trace.operation = op.desc.name;
    trace.fidelity_names = op.fidelity_names;
    trace.taken_at = engine_.now();
    trace.energy_importance = snapshot.energy_importance;
  }

  clear_demand_cache();
  Candidate& c = candidate_;
  const auto eval = [&](const solver::Alternative& alt) {
    const double lu = evaluate(op, alt, params, data_tag, inputs);
    if (config_.trace_decisions) {
      DecisionTraceEntry entry;
      entry.alternative = alt;
      entry.feasible = c.feasible;
      if (c.feasible) entry.predicted = c.metrics;
      entry.breakdown = c.breakdown;
      entry.log_utility = lu;
      trace.entries.push_back(std::move(entry));
    }
    return lu;
  };

  const double wall_solve0 = wall_now();
  solver::SolveResult result = solver_.solve(op.space, eval);
  const double wall_solve1 = wall_now();
  machine_.run_cycles(config_.per_eval_cycles *
                      static_cast<double>(result.evaluations));

  bool have_winner_metrics = false;
  if (!result.found) {
    // Everything infeasible (e.g. candidate servers lost mid-decision):
    // fall back to the first local plan at the first fidelity setting.
    for (const auto& a : op.space.enumerate()) {
      if (a.server < 0) {
        choice.ok = true;
        choice.from_model = false;
        choice.alternative = a;
        break;
      }
    }
    choice.evaluations = result.evaluations;
    choice.memo_hits = result.memo_hits;
    if (m_fallbacks_ != nullptr) m_fallbacks_->add();
  } else {
    choice.ok = true;
    choice.from_model = true;
    choice.alternative = result.best;
    choice.log_utility = result.log_utility;
    choice.evaluations = result.evaluations;
    choice.memo_hits = result.memo_hits;
    // Re-price the winner for reporting (the demand comes from the
    // per-solve cache — the solver already priced this alternative). The
    // reported time is the estimate, without the health penalty.
    evaluate(op, result.best, params, data_tag, inputs);
    have_winner_metrics = c.feasible;
    if (c.feasible) {
      choice.predicted = c.metrics;
      choice.predicted.time = c.breakdown.total();
      choice.predicted_breakdown = c.breakdown;
    }
    choice.predicted_demand = cached_demand(op.model, c.features);
    choice.has_predicted_demand = true;
  }

  choice.wall_choosing = wall_solve1 - wall_solve0;
  choice.wall_total = wall_now() - wall_t0;
  choice.wall_other = choice.wall_total - choice.wall_choosing -
                      (wall_snap1 - wall_snap0);
  choice.virtual_decision_time = engine_.now() - vt0;

  if (m_decisions_ != nullptr) {
    m_decisions_->add();
    m_solver_evals_->add(static_cast<double>(result.evaluations));
    m_solver_memo_hits_->add(static_cast<double>(result.memo_hits));
    h_decision_wall_ms_->observe(choice.wall_total * 1e3);
    h_decision_virtual_ms_->observe(choice.virtual_decision_time * 1e3);
  }
  if (config_.obs != nullptr && config_.obs->tracing() && choice.ok) {
    // The decision explain record: what was chosen and the per-term
    // log-utility breakdown of why (wall-clock stays out — metrics only).
    obs::TraceEvent ev("decision", engine_.now());
    ev.field("op", op.desc.name)
        .field("mode", choice.from_model ? "model" : "fallback")
        .field("candidates", choice.candidate_servers)
        .field("evaluations", choice.evaluations)
        .field("memo_hits", choice.memo_hits)
        .field("plan", op.desc.plans[choice.alternative.plan].name)
        .field("plan_index", choice.alternative.plan)
        .field("server", choice.alternative.server)
        .field("fidelity",
               fidelity_map(op.desc.name, choice.alternative.fidelity))
        .field("energy_importance", snapshot.energy_importance);
    if (have_winner_metrics) {
      const solver::UtilityTerms terms = op.utility->log_utility_terms(
          choice.predicted, snapshot.energy_importance);
      ev.field("lu_total", choice.log_utility)
          .field("lu_latency", terms.latency)
          .field("lu_energy", terms.energy)
          .field("lu_fidelity", terms.fidelity)
          .field("predicted_s", choice.predicted.time);
      if (choice.predicted.has_energy) {
        ev.field("predicted_j", choice.predicted.energy);
      }
    }
    ev.field("virtual_decision_s", choice.virtual_decision_time);
    config_.obs->trace()->emit(ev);
  }

  if (config_.trace_decisions && choice.ok) {
    trace.chosen = choice.alternative;
    last_trace_ = std::move(trace);
  }
  SPECTRA_LOG_INFO("client")
      << op.desc.name << ": chose "
      << choice.alternative.describe(op.fidelity_names)
      << " (predicted " << choice.predicted.time << " s, evaluated "
      << choice.evaluations << " alternatives)";
  return choice;
}

void SpectraClient::start_execution(RegisteredOp& op,
                                    const predict::FeatureSlots& params,
                                    util::Symbol data_tag,
                                    OperationChoice choice,
                                    bool allow_fallback) {
  SPECTRA_REQUIRE(choice.ok, "cannot start an operation without a choice");
  ActiveOp active;
  active.name = op.desc.name;
  make_features(op, choice.alternative, params, data_tag, active.features);
  active.choice = choice;
  active.params = params;
  active.data_tag = data_tag;
  active.allow_fallback = allow_fallback;

  monitors_.start_op();
  server_db_.set_suppressed(true);
  active.started_at = engine_.now();

  // Data consistency (§3.5): before remote execution, reintegrate every
  // dirty volume the operation is predicted to touch. The time counts as
  // part of the operation's execution, exactly as in the paper's bars.
  const bool remote = op.desc.plans[choice.alternative.plan].uses_remote;
  if (remote && coda_.has_dirty_files()) {
    const util::Bytes dirty_before =
        config_.obs != nullptr ? total_dirty_bytes(coda_) : 0.0;
    try {
      if (op.model.trained()) {
        predict::DemandEstimate demand;
        op.model.predict(active.features, demand);
        active.choice.reintegration_time =
            consistency_.ensure_consistency(demand.files);
      } else {
        // No access predictions yet: be conservative, push everything.
        active.choice.reintegration_time = coda_.reintegrate_all();
      }
      if (config_.obs != nullptr && active.choice.reintegration_time > 0.0) {
        const util::Bytes pushed = dirty_before - total_dirty_bytes(coda_);
        m_reintegration_runs_->add();
        m_reintegration_bytes_->add(pushed);
        h_reintegration_virtual_s_->observe(active.choice.reintegration_time);
        if (config_.obs->tracing()) {
          obs::TraceEvent ev("reintegration", engine_.now());
          ev.field("op", op.desc.name)
              .field("virtual_s", active.choice.reintegration_time)
              .field("bytes", pushed);
          config_.obs->trace()->emit(ev);
        }
      }
    } catch (const util::ContractError& e) {
      // Reintegration failed (file server unreachable or partitioned
      // mid-push). Dirty files stay buffered; a model-driven operation
      // degrades to a local plan, a forced run propagates the failure.
      if (!allow_fallback) {
        server_db_.set_suppressed(false);
        monitor::OperationUsage discard;
        monitors_.stop_op(discard);
        throw;
      }
      int local_plan = -1;
      for (std::size_t i = 0; i < op.desc.plans.size(); ++i) {
        if (!op.desc.plans[i].uses_remote) {
          local_plan = static_cast<int>(i);
          break;
        }
      }
      SPECTRA_ENSURE(local_plan >= 0,
                     "reintegration failed and no local plan exists for " +
                         op.desc.name);
      SPECTRA_LOG_WARN("client")
          << op.desc.name << ": reintegration failed (" << e.what()
          << "); degrading to local plan " << local_plan;
      active.choice.degraded = true;
      active.choice.alternative.plan = local_plan;
      active.choice.alternative.server = -1;
      make_features(op, active.choice.alternative, params, data_tag,
                    active.features);
      if (m_degradations_ != nullptr) m_degradations_->add();
      if (config_.obs != nullptr && config_.obs->tracing()) {
        obs::TraceEvent ev("degrade", engine_.now());
        ev.field("op", op.desc.name)
            .field("reason", "reintegration_failed")
            .field("plan", op.desc.plans[local_plan].name)
            .field("server", -1);
        config_.obs->trace()->emit(ev);
      }
    }
  }

  active_ = std::move(active);
}

OperationChoice SpectraClient::begin_fidelity_op(
    const std::string& op_name, const std::map<std::string, double>& params,
    const std::string& data_tag) {
  SPECTRA_REQUIRE(!active_, "an operation is already in progress");
  RegisteredOp& op = registered(op_name);
  const predict::FeatureSlots slots = predict::to_slots(
      op.desc.input_params, params, op_name, "input parameter");
  // The data tag is interned once per call, not once per candidate.
  const util::Symbol tag(data_tag);
  OperationChoice choice = choose(op, slots, tag);
  if (choice.ok) {
    start_execution(op, slots, tag, choice, /*allow_fallback=*/true);
  }
  return active_ ? active_->choice : choice;
}

OperationChoice SpectraClient::begin_fidelity_op_forced(
    const std::string& op_name, const std::map<std::string, double>& params,
    const std::string& data_tag, const solver::Alternative& alternative) {
  SPECTRA_REQUIRE(!active_, "an operation is already in progress");
  RegisteredOp& op = registered(op_name);
  check_alternative(op.desc, alternative);
  const predict::FeatureSlots slots = predict::to_slots(
      op.desc.input_params, params, op_name, "input parameter");
  OperationChoice choice;
  choice.ok = true;
  choice.from_model = false;
  choice.alternative = alternative;
  // Forced runs measure a specific alternative: no graceful degradation,
  // the requested alternative either runs or the failure propagates.
  start_execution(op, slots, util::Symbol(data_tag), choice,
                  /*allow_fallback=*/false);
  return active_->choice;
}

rpc::Response SpectraClient::do_local_op(const std::string& service,
                                         const rpc::Request& request) {
  SPECTRA_REQUIRE(active_, "do_local_op outside an operation");
  // Local services run on this machine's Spectra server; their CPU and file
  // usage is observed directly by the local monitors.
  return endpoint_.call(local_server_->endpoint(), service, request);
}

rpc::Response SpectraClient::do_remote_op(const std::string& service,
                                          const rpc::Request& request) {
  SPECTRA_REQUIRE(active_, "do_remote_op outside an operation");
  const MachineId server_id = active_->choice.alternative.server;
  SPECTRA_REQUIRE(server_id >= 0,
                  "do_remote_op but the chosen plan has no server");
  if (server_id == id_) {
    // A prior degradation rerouted this operation to the co-located
    // server; later RPCs of the same operation follow it there.
    return endpoint_.call(local_server_->endpoint(), service, request);
  }
  SpectraServer* server = server_db_.server(server_id);
  SPECTRA_REQUIRE(server != nullptr, "chosen server is not in the database");
  rpc::CallStats stats;
  rpc::Response resp = endpoint_.call(server->endpoint(), service, request,
                                      &stats, config_.remote_retry);
  network_monitor_->note_call(stats);
  active_->usage.rpc_failures += stats.transport_failures;
  if (resp.ok) {
    health_.record_success(server_id, /*heartbeat=*/false);
    monitors_.add_usage(server_id, resp.usage, active_->usage);
    return resp;
  }
  if (!rpc::retryable(resp.error_kind) || !active_->allow_fallback) {
    if (rpc::retryable(resp.error_kind)) {
      health_.record_failure(server_id, resp.error_kind,
                             std::max(1, stats.transport_failures));
      server_db_.mark_unavailable(server_id);
    }
    return resp;
  }
  health_.record_failure(server_id, resp.error_kind,
                         std::max(1, stats.transport_failures));
  note_failed_call(registered(active_->name), active_->features, stats);
  return degrade_remote_op(service, request, std::move(resp));
}

void SpectraClient::note_failed_call(RegisteredOp& op,
                                     const predict::FeatureVector& features,
                                     const rpc::CallStats& stats) {
  if (stats.attempts <= 0) return;
  monitor::OperationUsage partial;
  partial.elapsed = stats.elapsed;
  partial.bytes_sent = stats.bytes_sent;
  partial.bytes_received = stats.bytes_received;
  partial.rpcs = stats.attempts;
  partial.rpc_failures = stats.transport_failures;
  partial.energy_valid = false;
  // The failing server's features keep the spent transport demand; the
  // cycle/energy/file predictors are untouched (observe_failure).
  op.model.observe_failure(features, partial);
  active_->failed_usage.elapsed += partial.elapsed;
  active_->failed_usage.bytes_sent += partial.bytes_sent;
  active_->failed_usage.bytes_received += partial.bytes_received;
  active_->failed_usage.rpcs += partial.rpcs;
  active_->failed_usage.rpc_failures += partial.rpc_failures;
}

std::vector<MachineId> SpectraClient::rank_failover_candidates(
    const std::string& service, const std::vector<MachineId>& excluded) {
  RegisteredOp& op = registered(active_->name);
  std::vector<MachineId> survivors;
  for (MachineId sid : server_db_.available_servers()) {
    if (std::find(excluded.begin(), excluded.end(), sid) != excluded.end()) {
      continue;
    }
    if (sid == id_) continue;
    SpectraServer* s = server_db_.server(sid);
    if (s == nullptr || !s->endpoint().has_handler(service)) continue;
    survivors.push_back(sid);
  }
  if (survivors.empty()) return survivors;

  // Re-decision overhead: the same cost model begin_fidelity_op charges.
  machine_.run_cycles(config_.begin_base_cycles +
                      config_.per_candidate_cycles *
                          static_cast<double>(survivors.size()));
  monitor::ResourceSnapshot snapshot =
      monitors_.build_snapshot(survivors, engine_.now());
  if (m_snapshots_ != nullptr) m_snapshots_->add();

  solver::EstimatorInputs inputs;
  inputs.snapshot = &snapshot;
  inputs.dirty_files = consistency_.dirty_files();
  inputs.fileserver_bandwidth =
      network_monitor_->bandwidth_estimate(coda_.file_server_host());
  inputs.reintegration_threshold = config_.reintegration_threshold;

  op.space.servers = survivors;
  std::vector<std::pair<double, MachineId>> scored;
  // Fresh per-solve demand cache: the model may have trained since the
  // original decision, so stale entries must not leak in.
  clear_demand_cache();
  solver::Alternative alt = active_->choice.alternative;
  for (MachineId sid : survivors) {
    alt.server = sid;
    scored.emplace_back(
        evaluate(op, alt, active_->params, active_->data_tag, inputs), sid);
  }
  machine_.run_cycles(config_.per_eval_cycles *
                      static_cast<double>(scored.size()));
  // Stable on id order (survivors ascend), so ties break deterministically.
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<MachineId> ranked;
  ranked.reserve(scored.size());
  for (const auto& [lu, sid] : scored) {
    (void)lu;
    ranked.push_back(sid);
  }
  return ranked;
}

rpc::Response SpectraClient::degrade_remote_op(const std::string& service,
                                               const rpc::Request& request,
                                               rpc::Response failed) {
  const MachineId failed_id = active_->choice.alternative.server;
  server_db_.mark_unavailable(failed_id);
  RegisteredOp& op = registered(active_->name);

  // The alternative is rewritten to what actually ran and the features
  // recomputed from it, so the models learn from reality, not from the
  // solver's thwarted intent.
  auto adopt = [&](MachineId new_server, const char* mode) {
    active_->choice.degraded = true;
    active_->choice.alternative.server = new_server;
    make_features(op, active_->choice.alternative, active_->params,
                  active_->data_tag, active_->features);
    if (m_degradations_ != nullptr) m_degradations_->add();
    if (config_.obs != nullptr && config_.obs->tracing()) {
      obs::TraceEvent ev("degrade", engine_.now());
      ev.field("op", active_->name)
          .field("mode", mode)
          .field("reason", rpc::to_string(failed.error_kind))
          .field("failed_server", failed_id)
          .field("server", new_server);
      config_.obs->trace()->emit(ev);
    }
  };

  if (config_.resolve_on_failover) {
    // Mid-operation failover (ISSUE 4 tentpole): re-run the placement
    // decision over the surviving candidates instead of walking a fixed
    // ladder. Each round charges the usual decision overhead, then
    // pre-flight-probes the winner — a ping fail-fasts on a crashed or
    // partitioned server in one round trip, where committing the full
    // retry policy would burn max_attempts per-attempt timeouts.
    std::vector<MachineId> excluded{failed_id};
    for (;;) {
      const std::vector<MachineId> ranked =
          rank_failover_candidates(service, excluded);
      if (ranked.empty()) break;
      const MachineId best = ranked.front();
      SpectraServer* target = server_db_.server(best);
      if (!endpoint_.ping(target->endpoint())) {
        health_.record_failure(best, rpc::ErrorKind::kUnreachable);
        server_db_.mark_unavailable(best);
        excluded.push_back(best);
        continue;
      }
      rpc::CallStats stats;
      rpc::Response resp = endpoint_.call(target->endpoint(), service,
                                          request, &stats,
                                          config_.remote_retry);
      network_monitor_->note_call(stats);
      active_->usage.rpc_failures += stats.transport_failures;
      if (resp.ok) {
        health_.record_success(best, /*heartbeat=*/false);
        SPECTRA_LOG_WARN("client")
            << active_->name << ": server " << failed_id << " failed ("
            << rpc::to_string(failed.error_kind)
            << "); failover re-solve chose server " << best;
        adopt(best, "failover");
        if (m_failovers_ != nullptr) m_failovers_->add();
        monitors_.add_usage(best, resp.usage, active_->usage);
        return resp;
      }
      if (!rpc::retryable(resp.error_kind)) return resp;
      health_.record_failure(best, resp.error_kind,
                             std::max(1, stats.transport_failures));
      solver::Alternative alt = active_->choice.alternative;
      alt.server = best;
      predict::FeatureVector failed_features;
      make_features(op, alt, active_->params, active_->data_tag,
                    failed_features);
      note_failed_call(op, failed_features, stats);
      server_db_.mark_unavailable(best);
      excluded.push_back(best);
    }
  } else {
    for (MachineId alt_id : server_db_.available_servers()) {
      if (alt_id == failed_id) continue;
      SpectraServer* alt = server_db_.server(alt_id);
      if (alt == nullptr || !alt->endpoint().has_handler(service)) continue;
      rpc::CallStats stats;
      rpc::Response resp = endpoint_.call(alt->endpoint(), service, request,
                                          &stats, config_.remote_retry);
      network_monitor_->note_call(stats);
      active_->usage.rpc_failures += stats.transport_failures;
      if (resp.ok) {
        SPECTRA_LOG_WARN("client")
            << active_->name << ": server " << failed_id << " failed ("
            << rpc::to_string(failed.error_kind) << "); degraded to server "
            << alt_id;
        adopt(alt_id, "ladder");
        monitors_.add_usage(alt_id, resp.usage, active_->usage);
        return resp;
      }
      if (!rpc::retryable(resp.error_kind)) return resp;
      health_.record_failure(alt_id, resp.error_kind,
                             std::max(1, stats.transport_failures));
      server_db_.mark_unavailable(alt_id);
    }
  }

  // Last resort: the co-located server, reachable regardless of network
  // state (the paper's disconnected-operation guarantee). Its CPU and file
  // usage is observed directly by the local monitors.
  if (local_server_->endpoint().has_handler(service)) {
    rpc::Response resp =
        endpoint_.call(local_server_->endpoint(), service, request);
    if (resp.ok) {
      SPECTRA_LOG_WARN("client")
          << active_->name << ": server " << failed_id << " failed ("
          << rpc::to_string(failed.error_kind)
          << "); degraded to local execution";
      adopt(id_, config_.resolve_on_failover ? "failover_local"
                                             : "ladder_local");
    }
    return resp;
  }
  return failed;
}

monitor::OperationUsage SpectraClient::end_fidelity_op() {
  SPECTRA_REQUIRE(active_, "end_fidelity_op without begin_fidelity_op");
  server_db_.set_suppressed(false);
  monitors_.stop_op(active_->usage);
  active_->usage.elapsed = engine_.now() - active_->started_at;
  machine_.run_cycles(config_.end_cycles);

  RegisteredOp& op = registered(active_->name);

  // What the models (and the replayable usage log) learn: measured usage
  // minus the transport spend of exhausted remote attempts, which
  // observe_failure already charged to the failing servers' features. The
  // caller still receives the raw measured usage.
  monitor::OperationUsage learned = active_->usage;
  learned.bytes_sent =
      std::max(0.0, learned.bytes_sent - active_->failed_usage.bytes_sent);
  learned.bytes_received = std::max(
      0.0, learned.bytes_received - active_->failed_usage.bytes_received);
  learned.rpcs = std::max(0, learned.rpcs - active_->failed_usage.rpcs);
  op.model.observe(active_->features, learned);
  ++op.executions;
  usage_log_.append(predict::UsageRecord::from_usage(
      active_->name, op.desc.feature_fn.schema, active_->features, learned));

  if (config_.obs != nullptr) {
    const OperationChoice& c = active_->choice;
    m_ops_completed_->add();
    if (c.from_model) {
      h_residual_time_s_->observe(active_->usage.elapsed - c.predicted.time);
      if (c.predicted.has_energy && active_->usage.energy_valid) {
        h_residual_energy_j_->observe(active_->usage.energy -
                                      c.predicted.energy);
      }
    }
    if (config_.obs->tracing()) {
      obs::TraceEvent ev("end_fidelity_op", engine_.now());
      ev.field("op", active_->name)
          .field("plan", op.desc.plans[c.alternative.plan].name)
          .field("server", c.alternative.server)
          .field("degraded", c.degraded)
          .field("elapsed_s", active_->usage.elapsed);
      if (c.from_model) {
        ev.field("predicted_s", c.predicted.time)
            .field("residual_s", active_->usage.elapsed - c.predicted.time);
        if (c.predicted.has_energy && active_->usage.energy_valid) {
          ev.field("energy_j", active_->usage.energy)
              .field("predicted_j", c.predicted.energy)
              .field("residual_j",
                     active_->usage.energy - c.predicted.energy);
        }
      }
      if (c.has_predicted_demand) {
        // Demand residuals: actual usage minus what the demand predictors
        // expected at decision time (records with degraded:true executed a
        // different alternative than the one this prediction was for).
        const predict::DemandEstimate& d = c.predicted_demand;
        ev.field("residual_local_cycles",
                 active_->usage.local_cycles - d.local_cycles)
            .field("residual_remote_cycles",
                   active_->usage.remote_cycles - d.remote_cycles)
            .field("residual_bytes_sent",
                   active_->usage.bytes_sent - d.bytes_sent)
            .field("residual_bytes_received",
                   active_->usage.bytes_received - d.bytes_received)
            .field("residual_rpcs",
                   static_cast<double>(active_->usage.rpcs) - d.rpcs);
      }
      config_.obs->trace()->emit(ev);
    }
  }

  monitor::OperationUsage usage = active_->usage;
  active_.reset();
  return usage;
}

const OperationChoice& SpectraClient::current_choice() const {
  SPECTRA_REQUIRE(active_, "no operation in progress");
  return active_->choice;
}

std::map<std::string, double> SpectraClient::fidelity_map(
    const std::string& op, const std::vector<double>& fidelity) const {
  std::map<std::string, double> out;
  registered(op).fidelity_names.for_each(
      fidelity,
      [&out](std::string_view name, double v) { out.emplace(name, v); });
  return out;
}

const predict::OperationModel& SpectraClient::model(
    const std::string& op) const {
  return registered(op).model;
}

const OperationDesc& SpectraClient::operation_desc(
    const std::string& op) const {
  return registered(op).desc;
}

predict::DemandEstimate SpectraClient::predict_demand(
    const std::string& op, const std::map<std::string, double>& params,
    const std::string& data_tag, const solver::Alternative& alt) const {
  const RegisteredOp& r = registered(op);
  check_alternative(r.desc, alt);
  const predict::FeatureSlots slots =
      predict::to_slots(r.desc.input_params, params, op, "input parameter");
  predict::FeatureVector features;
  make_features(r, alt, slots, util::Symbol(data_tag), features);
  predict::DemandEstimate demand;
  r.model.predict(features, demand);
  return demand;
}

void SpectraClient::save_usage_log() const {
  SPECTRA_REQUIRE(!config_.usage_log_path.empty(),
                  "no usage log path configured");
  usage_log_.save(config_.usage_log_path);
}

void SpectraClient::copy_state_from(const SpectraClient& src) {
  SPECTRA_REQUIRE(id_ == src.id_, "client mismatch in copy_state_from");
  SPECTRA_REQUIRE(!active_ && !src.active_,
                  "cannot copy a client with an operation in flight");
  endpoint_.copy_state_from(src.endpoint_);
  local_server_->copy_state_from(*src.local_server_);
  monitors_.copy_state_from(src.monitors_);
  health_.copy_state_from(src.health_);
  server_db_.copy_state_from(src.server_db_);
  solver_.copy_state_from(src.solver_);
  SPECTRA_REQUIRE(ops_.size() == src.ops_.size(),
                  "registered-operation mismatch in copy_state_from");
  for (auto& [name, op] : ops_) {
    auto it = src.ops_.find(name);
    SPECTRA_REQUIRE(it != src.ops_.end(),
                    "registered-operation mismatch in copy_state_from");
    op.model = it->second.model;
    op.executions = it->second.executions;
  }
  usage_log_ = src.usage_log_;
  last_trace_ = src.last_trace_;
}

}  // namespace spectra::core
