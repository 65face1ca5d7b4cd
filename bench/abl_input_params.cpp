// Ablation: modeling input parameters (§2.4).
//
// The paper argues that a little application-specific knowledge — here, the
// sentence length that drives Pangloss-Lite's cost — buys substantially
// better predictions. This ablation compares the full predictor against one
// whose continuous features are hidden (every demand collapses to a
// recency-weighted mean), reporting prediction error of total operation
// time and the quality of the resulting choices.
#include <iostream>

#include "bench_util.h"
#include "scenario/experiment.h"
#include "solver/estimator.h"

using namespace spectra;           // NOLINT
using namespace spectra::scenario; // NOLINT

namespace {

// Measure |predicted - actual| time of the all-engines-on-B alternative for
// several sentence lengths, with and without the length feature.
void run(scenario::BatchRunner& batch, bool strip_params) {
  util::Table table(strip_params
                        ? "WITHOUT input-parameter modeling (ablated)"
                        : "WITH input-parameter modeling (Spectra default)");
  table.set_header({"sentence (words)", "predicted T (s)", "actual T (s)",
                    "abs error (%)"});
  util::OnlineStats errors;

  struct SentenceResult {
    double predicted = 0.0;
    double actual = 0.0;
    double err = 0.0;
  };
  const auto& sentences = bench::pangloss_test_sentences();
  const auto results = batch.map(sentences.size(), [&](std::size_t i) {
    const int words = sentences[i];
    PanglossExperiment::Config cfg;
    cfg.seed = 1000;
    cfg.test_words = words;
    PanglossExperiment exp(cfg);
    auto world = exp.trained_world();
    auto& spectra = world->spectra();

    const auto alt = apps::PanglossApp::alternative(0b1111, true, true, true,
                                                    kServerB);
    std::map<std::string, double> params{
        {"words", static_cast<double>(words)}};
    // A parameter-blind predictor treats every sentence as typical: it can
    // only answer with demand at the average training length.
    if (strip_params) params["words"] = 24.0;

    const auto candidates = spectra.server_db().available_servers();
    const auto snapshot =
        spectra.monitors().build_snapshot(candidates, world->engine().now());
    solver::AlternativeSpace space;
    for (int m = 0; m < apps::PanglossApp::kPlanCount; ++m) {
      space.plans.push_back({"p", m != 0});
    }
    space.servers = candidates;
    solver::EstimatorInputs inputs;
    inputs.snapshot = &snapshot;
    const auto demand = spectra.predict_demand(
        apps::PanglossApp::kOperation, params, "", alt);
    solver::UserMetrics metrics;
    const bool feasible = solver::ExecutionEstimator().estimate(
        inputs, space, alt, demand, metrics);

    const auto actual = exp.measure(alt);
    SentenceResult r;
    r.predicted = feasible ? metrics.time : 0.0;
    r.actual = actual.time;
    r.err = 100.0 * std::abs(r.predicted - r.actual) / r.actual;
    return r;
  });
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    const auto& r = results[i];
    errors.add(r.err);
    table.add_row({std::to_string(sentences[i]),
                   util::Table::num(r.predicted, 2),
                   util::Table::num(r.actual, 2), util::Table::num(r.err, 1)});
  }
  std::cout << table.to_string();
  std::cout << "mean absolute error: " << util::Table::num(errors.mean(), 1)
            << "%\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  scenario::BatchRunner batch(bench::jobs_from_args(argc, argv));
  std::cout << "Ablation: input-parameter modeling (Pangloss sentence "
               "length)\n\n";
  run(batch, /*strip_params=*/false);
  run(batch, /*strip_params=*/true);
  std::cout << "Without the parameter the models can only answer with "
               "recency-weighted means,\nso predictions are only accurate "
               "near the average training sentence length.\n";
  return 0;
}
