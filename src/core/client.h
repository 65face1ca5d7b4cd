// Spectra client: the application-facing API (§3.1, Figure 1) and the glue
// between monitors, predictors, solver, consistency manager, and servers.
//
//   register_fidelity  — describe an operation (plans, fidelities, input
//                        parameters, latency/fidelity desirability); creates
//                        the default demand predictors and bootstraps them
//                        from the persistent usage log.
//   begin_fidelity_op  — snapshot resource availability, predict demand for
//                        every (plan, server, fidelity) alternative, search
//                        with the heuristic solver, pick the best, trigger
//                        any reintegration remote execution requires, and
//                        start usage measurement.
//   do_local_op        — RPC to the Spectra server on this machine.
//   do_remote_op       — RPC to the chosen remote server; the response's
//                        usage report is accounted to the operation.
//   end_fidelity_op    — stop measurement, log usage, update the models.
//
// Decision overhead is both charged in virtual time (a deterministic cost
// model, so simulated results are reproducible) and measured in real wall
// time (reported for the Fig-10 overhead table).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/consistency.h"
#include "core/server.h"
#include "core/server_db.h"
#include "core/server_health.h"
#include "fs/coda.h"
#include "hw/energy.h"
#include "hw/machine.h"
#include "monitor/battery_monitor.h"
#include "monitor/cpu_monitor.h"
#include "monitor/monitor.h"
#include "monitor/network_monitor.h"
#include "net/network.h"
#include "obs/obs.h"
#include "predict/operation_model.h"
#include "rpc/rpc.h"
#include "sim/engine.h"
#include "solver/estimator.h"
#include "solver/solver.h"
#include "solver/utility.h"
#include "util/interner.h"
#include "util/rng.h"

namespace spectra::core {

struct SpectraClientConfig {
  // Modeled decision-overhead costs charged to the client CPU (virtual
  // time); calibrated so the overhead table has the paper's shape.
  util::Cycles register_cycles = 300e3;
  util::Cycles begin_base_cycles = 500e3;
  util::Cycles per_candidate_cycles = 150e3;
  util::Cycles per_eval_cycles = 25e3;
  util::Cycles end_cycles = 300e3;

  util::Seconds poll_period = 5.0;
  // Round-robin exploration until this many executions have been observed
  // (benches normally train explicitly with forced alternatives instead).
  std::size_t exploration_runs = 12;
  // Capture a DecisionTrace for every model-driven decision (adds the cost
  // of recording each evaluated alternative; off by default).
  bool trace_decisions = false;
  // Use Coda's incremental cache-state interface for file-cache prediction
  // (the efficient replacement the paper plans in §4.4). Off by default so
  // the overhead table reproduces the paper's dump-everything costs.
  bool incremental_cache_interface = false;
  double reintegration_threshold = 0.02;

  // Retry policy for remote execution RPCs (do_remote_op): transport
  // failures are retried with exponential backoff before graceful
  // degradation kicks in. Status polls and local calls keep the rpc
  // layer's fail-fast default, so a crashed server costs one poll period,
  // not a retry storm.
  rpc::RetryPolicy remote_retry{/*max_attempts=*/3, /*timeout=*/60.0,
                                /*backoff_initial=*/0.1,
                                /*backoff_multiplier=*/2.0,
                                /*backoff_max=*/5.0, /*jitter=*/0.1};

  // Per-server health tracking: EWMA failure rates, phi-accrual suspicion,
  // and circuit breakers feeding the candidate set and the solver's
  // evaluation (see server_health.h). health.enabled=false reverts to
  // availability flags alone.
  ServerHealthConfig health;
  // When a remote call exhausts its retries, re-run the placement decision
  // over the surviving candidates (charging re-decision overhead and
  // pre-flight-probing the winner) instead of walking the fixed
  // alternate-server -> local ladder. False restores the PR-1 ladder.
  bool resolve_on_failover = true;

  predict::OperationModelConfig model;
  solver::HeuristicSolverConfig solver;
  monitor::NetworkMonitorConfig network;
  monitor::GoalAdaptationConfig goal;

  // Observability sink for the decision pipeline: metrics always, JSONL
  // trace events when the sink has one attached. Non-owning; must outlive
  // the client. Null (the default) disables all instrumentation.
  obs::Observability* obs = nullptr;

  // When non-empty, the usage log is loaded from here at construction (if
  // the file exists) and can be saved back with save_usage_log().
  std::string usage_log_path;
};

// Application-specific feature mapping: how an alternative plus input
// parameters become predictor features. The default maps the plan, the
// chosen server, and each fidelity dimension to discrete features and the
// input parameters to continuous features; applications with compositional
// structure (Pangloss-Lite's per-engine placement) override this — the
// paper's application-specific-predictor hook (§3.4).
//
// `schema` names the features, one strictly ascending list per kind of at
// most predict::kMaxFeatureSlots; slot i of a kind is entry i of its list.
// `fill` sets the features of `alt` in `out`, which the client owns and
// reuses for every candidate: before each call the client resets both
// kinds to the schema's slots, all absent, and sets out.data_tag. `params`
// holds the begin parameters by slot of OperationDesc::input_params. An
// operation registered without `fill` gets the default mapping's hook.
struct FeatureHook {
  predict::FeatureSchema schema;
  std::function<void(const solver::Alternative& alt,
                     const predict::FeatureSlots& params,
                     predict::FeatureVector& out)>
      fill;
};

struct OperationDesc {
  std::string name;
  std::vector<solver::PlanInfo> plans;
  std::vector<solver::FidelityDimension> fidelities;
  // The input parameters a begin may name, strictly ascending (at most
  // predict::kMaxFeatureSlots); a begin naming another one is refused.
  std::vector<std::string> input_params;
  solver::LatencyFn latency_fn;
  solver::FidelityFn fidelity_fn;
  // Optional application-specific utility override (§3.6).
  std::shared_ptr<solver::UtilityFunction> utility;
  // Optional application-specific feature mapping (§3.4).
  FeatureHook feature_fn;
};

// Per-alternative record of one decision, captured when the client's
// trace_decisions flag is on: what Spectra predicted for every alternative
// it evaluated and why the winner won. Invaluable when calibrating
// applications ("why did it run this remotely?").
struct DecisionTraceEntry {
  solver::Alternative alternative;
  bool feasible = false;
  solver::UserMetrics predicted;
  solver::TimeBreakdown breakdown;
  double log_utility = solver::kInfeasible;
};

struct DecisionTrace {
  std::string operation;
  solver::FidelityNames fidelity_names;  // the operation's, for rendering
  util::Seconds taken_at = 0.0;
  double energy_importance = 0.0;
  std::vector<DecisionTraceEntry> entries;  // in evaluation order
  solver::Alternative chosen;

  // Render as a table, best alternatives first.
  std::string to_string(std::size_t max_rows = 16) const;
};

struct OperationChoice {
  bool ok = false;
  // False while the client is still exploring (model untrained).
  bool from_model = false;
  solver::Alternative alternative;
  solver::UserMetrics predicted;
  solver::TimeBreakdown predicted_breakdown;
  // Demand the model predicted for the chosen alternative, captured at
  // decision time so end_fidelity_op can report predicted-vs-actual
  // residuals without a second model evaluation on the hot path.
  predict::DemandEstimate predicted_demand;
  bool has_predicted_demand = false;
  double log_utility = solver::kInfeasible;
  std::size_t evaluations = 0;
  std::size_t memo_hits = 0;
  std::size_t candidate_servers = 0;

  // Real wall-clock cost of the decision phases (seconds of host time).
  double wall_total = 0.0;
  double wall_cache_prediction = 0.0;
  double wall_choosing = 0.0;
  double wall_other = 0.0;

  // Virtual time consumed by the decision and by any reintegration
  // triggered for consistency.
  util::Seconds virtual_decision_time = 0.0;
  util::Seconds reintegration_time = 0.0;

  // True when the original choice could not be carried out (partition,
  // server crash, failed reintegration) and the client fell back to
  // another server or to local execution. `alternative` then describes
  // what actually ran, not what the solver picked.
  bool degraded = false;
};

class SpectraClient {
 public:
  SpectraClient(MachineId id, sim::Engine& engine, hw::Machine& machine,
                net::Network& network, fs::CodaClient& coda,
                std::unique_ptr<hw::EnergyDriver> energy_driver,
                util::Rng rng, SpectraClientConfig config = {});
  ~SpectraClient();

  SpectraClient(const SpectraClient&) = delete;
  SpectraClient& operator=(const SpectraClient&) = delete;

  // ---- wiring -----------------------------------------------------------
  void add_server(SpectraServer& server) { server_db_.add_server(server); }
  // The Spectra server co-located with the client (hosts local services).
  SpectraServer& local_server() { return *local_server_; }

  MachineId id() const { return id_; }
  monitor::MonitorSet& monitors() { return monitors_; }
  ServerDatabase& server_db() { return server_db_; }
  ServerHealthTracker& health() { return health_; }
  const ServerHealthTracker& health() const { return health_; }
  fs::CodaClient& coda() { return coda_; }
  hw::Machine& machine() { return machine_; }

  // ---- energy goal ------------------------------------------------------
  void set_battery_lifetime_goal(util::Seconds duration);
  double energy_importance() const;

  // ---- the Spectra API (§3.1) --------------------------------------------
  void register_fidelity(OperationDesc desc);

  OperationChoice begin_fidelity_op(
      const std::string& op, const std::map<std::string, double>& params,
      const std::string& data_tag = "");

  // Measurement-harness entry: execute a specific alternative. No snapshot
  // or solver runs (the paper's per-alternative bars carry no decision
  // overhead), but consistency is still enforced and usage still measured
  // so the models learn from training runs. An alternative with a plan out
  // of range, or without one value per fidelity dimension, is refused.
  OperationChoice begin_fidelity_op_forced(
      const std::string& op, const std::map<std::string, double>& params,
      const std::string& data_tag, const solver::Alternative& alternative);

  rpc::Response do_local_op(const std::string& service,
                            const rpc::Request& request);
  rpc::Response do_remote_op(const std::string& service,
                             const rpc::Request& request);

  monitor::OperationUsage end_fidelity_op();

  bool op_in_progress() const { return active_.has_value(); }
  const OperationChoice& current_choice() const;

  // ---- model access (benches, oracle, tests) ------------------------------
  bool is_registered(const std::string& op) const {
    return ops_.count(op) > 0;
  }
  // The registration record of `op` (plan/fidelity names — the
  // DecisionService boundary renders decisions from it).
  const OperationDesc& operation_desc(const std::string& op) const;
  // A fidelity setting of `op` by dimension name, as traces and the
  // DecisionService boundary render it.
  std::map<std::string, double> fidelity_map(
      const std::string& op, const std::vector<double>& fidelity) const;
  const predict::OperationModel& model(const std::string& op) const;
  predict::DemandEstimate predict_demand(
      const std::string& op, const std::map<std::string, double>& params,
      const std::string& data_tag, const solver::Alternative& alt) const;

  const predict::UsageLog& usage_log() const { return usage_log_; }
  void save_usage_log() const;

  // The trace of the most recent model-driven decision; null when tracing
  // is disabled or no such decision has been made yet.
  const DecisionTrace* last_decision_trace() const {
    return last_trace_ ? &*last_trace_ : nullptr;
  }

  // Copy all learned and mutable state (models, monitors, usage log, RNGs,
  // availability beliefs) from the same client in another world. Both
  // clients must be structurally identical (same registered operations and
  // servers) and idle. Wiring — endpoints, handlers, obs — stays this
  // world's own.
  void copy_state_from(const SpectraClient& src);

 private:
  struct RegisteredOp {
    OperationDesc desc;
    predict::OperationModel model;
    std::shared_ptr<solver::UtilityFunction> utility;
    std::size_t executions = 0;
    // The operation's plans and fidelity dimensions, copied once at
    // registration; a decision only sets the candidate servers.
    solver::AlternativeSpace space;
    solver::FidelityNames fidelity_names;
  };

  // One priced candidate: evaluate()'s result, its storage reused by every
  // candidate of every decision.
  struct Candidate {
    predict::FeatureVector features;
    bool feasible = false;
    // The estimate, its time multiplied by the server's health penalty as
    // the utility saw it (breakdown.total() is the time before it).
    solver::UserMetrics metrics;
    solver::TimeBreakdown breakdown;
  };

  struct ActiveOp {
    std::string name;
    predict::FeatureVector features;
    OperationChoice choice;
    monitor::OperationUsage usage;
    util::Seconds started_at = 0.0;
    // Kept so features can be recomputed if the operation degrades to a
    // different alternative mid-flight (the model must learn from what
    // actually ran).
    predict::FeatureSlots params;
    util::Symbol data_tag;
    // Model-driven operations may fall back when their chosen alternative
    // fails; forced (measurement-harness) runs must execute exactly the
    // requested alternative or fail.
    bool allow_fallback = false;
    // Transport spend of exhausted remote attempts (bytes/RPCs/elapsed),
    // accumulated across failovers. end_fidelity_op subtracts it from what
    // the demand models learn for the alternative that finally ran — the
    // failed attempts were already charged to the failing server's features
    // via OperationModel::observe_failure.
    monitor::OperationUsage failed_usage;
  };

  RegisteredOp& registered(const std::string& op);
  const RegisteredOp& registered(const std::string& op) const;
  // Fill `out` with the features of `alt` through the operation's hook.
  void make_features(const RegisteredOp& op, const solver::Alternative& alt,
                     const predict::FeatureSlots& params,
                     util::Symbol data_tag, predict::FeatureVector& out) const;
  // The one candidate evaluation, shared by the solver's callback, the
  // winner's report and the failover ranking: features -> per-solve cached
  // demand -> estimate -> health penalty -> log-utility. Fills candidate_
  // and returns the log-utility, kInfeasible when the estimator cannot
  // price `alt`. `op.space` must hold the candidate servers.
  double evaluate(const RegisteredOp& op, const solver::Alternative& alt,
                  const predict::FeatureSlots& params, util::Symbol data_tag,
                  const solver::EstimatorInputs& inputs);
  OperationChoice choose(RegisteredOp& op, const predict::FeatureSlots& params,
                         util::Symbol data_tag);
  void start_execution(RegisteredOp& op, const predict::FeatureSlots& params,
                       util::Symbol data_tag, OperationChoice choice,
                       bool allow_fallback);
  // Failover path for do_remote_op after retries are exhausted. With
  // resolve_on_failover (default) the placement decision is re-run over the
  // surviving candidates — re-decision overhead charged, winner pre-flight
  // probed, health-penalised predicted times — falling back to the
  // co-located server only when no remote candidate survives. Otherwise the
  // PR-1 ladder: other available servers in id order, then local. Returns
  // the first successful response, or the original failure.
  rpc::Response degrade_remote_op(const std::string& service,
                                  const rpc::Request& request,
                                  rpc::Response failed);
  // Rank the surviving candidates for a mid-operation failover (same plan
  // and fidelity, different server): model predict + estimator + health
  // penalty, charging re-decision cycles. Returns them best-first.
  std::vector<MachineId> rank_failover_candidates(
      const std::string& service, const std::vector<MachineId>& excluded);
  // Account an exhausted remote call's transport spend to the models (see
  // ActiveOp::failed_usage).
  void note_failed_call(RegisteredOp& op,
                        const predict::FeatureVector& features,
                        const rpc::CallStats& stats);

  MachineId id_;
  sim::Engine& engine_;
  hw::Machine& machine_;
  net::Network& network_;
  fs::CodaClient& coda_;
  SpectraClientConfig config_;

  rpc::RpcEndpoint endpoint_;  // issues polls and remote calls
  std::unique_ptr<SpectraServer> local_server_;

  monitor::MonitorSet monitors_;
  monitor::NetworkMonitor* network_monitor_ = nullptr;  // owned by monitors_
  monitor::BatteryMonitor* battery_monitor_ = nullptr;  // owned by monitors_
  std::size_t file_cache_monitor_ = 0;  // its slot in monitors_

  // Declared before server_db_, which holds a pointer to it and feeds it
  // poll outcomes.
  ServerHealthTracker health_;
  ServerDatabase server_db_;
  ConsistencyManager consistency_;
  solver::ExecutionEstimator estimator_;
  solver::HeuristicSolver solver_;
  Candidate candidate_;
  // Per-solve demand cache: one model prediction per distinct feature
  // vector within a single decision (the winner's recompute and any
  // repeated candidate evaluations hit it). Emptied at the start of every
  // solve, but its entries are slots kept across solves: a miss overwrites
  // the next slot in place, reusing the storage of its feature values and
  // file list. `demand_order_` indexes the live slots sorted by feature
  // hash (structural equality breaks the rare hash tie); a solve sees a few
  // dozen distinct vectors, too few to pay for a hash map's bucket array in
  // every client of a fleet.
  struct DemandCacheEntry {
    std::size_t hash = 0;
    predict::FeatureVector features;
    predict::DemandEstimate demand;
  };
  std::vector<DemandCacheEntry> demand_cache_;
  std::size_t demand_cache_live_ = 0;
  std::vector<std::uint32_t> demand_order_;
  void clear_demand_cache() {
    demand_cache_live_ = 0;
    demand_order_.clear();
  }
  // Lookup-or-insert: predicts via `model` on first sight of `f`, returns
  // the cached estimate otherwise. The reference is valid until the next
  // insertion.
  const predict::DemandEstimate& cached_demand(
      const predict::OperationModel& model, const predict::FeatureVector& f);

  std::map<std::string, RegisteredOp> ops_;
  std::optional<ActiveOp> active_;
  predict::UsageLog usage_log_;
  std::optional<DecisionTrace> last_trace_;

  // Cached observability handles, resolved once at construction; all null
  // when config_.obs is null, so the disabled path is one pointer compare.
  obs::Counter* m_decisions_ = nullptr;
  obs::Counter* m_explorations_ = nullptr;
  obs::Counter* m_fallbacks_ = nullptr;
  obs::Counter* m_degradations_ = nullptr;
  obs::Counter* m_failovers_ = nullptr;
  obs::Counter* m_solver_evals_ = nullptr;
  obs::Counter* m_solver_memo_hits_ = nullptr;
  obs::Counter* m_snapshots_ = nullptr;
  obs::Counter* m_reintegration_runs_ = nullptr;
  obs::Counter* m_reintegration_bytes_ = nullptr;
  obs::Counter* m_ops_completed_ = nullptr;
  obs::Histogram* h_decision_wall_ms_ = nullptr;
  obs::Histogram* h_decision_virtual_ms_ = nullptr;
  obs::Histogram* h_reintegration_virtual_s_ = nullptr;
  obs::Histogram* h_residual_time_s_ = nullptr;
  obs::Histogram* h_residual_energy_j_ = nullptr;
};

}  // namespace spectra::core
