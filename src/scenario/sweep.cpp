#include "scenario/sweep.h"

#include <algorithm>
#include <map>

#include "util/table.h"

namespace spectra::scenario {

std::vector<std::uint64_t> trial_seeds(std::uint64_t base,
                                       std::size_t trials) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    seeds.push_back(base + static_cast<std::uint64_t>(t) * 17);
  }
  return seeds;
}

// ------------------------------------------------------------- reductions

std::string Aggregate::cell(int precision) const {
  if (!available()) return "unavailable";
  return util::Table::num_ci(stats.mean(), stats.confidence_halfwidth(0.90),
                             precision);
}

double run_time(const MeasuredRun& run) { return run.time; }
double run_energy(const MeasuredRun& run) { return run.energy; }

namespace {

// `metric` over the feasible runs of each alternative, in order.
std::vector<Aggregate> per_alternative(const SweepResult& result,
                                       Metric metric) {
  std::vector<Aggregate> cells(result.alternatives.size());
  for (const SweepTrial& trial : result.trials) {
    for (std::size_t a = 0; a < cells.size(); ++a) {
      if (trial.runs[a].feasible) {
        cells[a].stats.add(metric(trial.runs[a]));
      } else {
        cells[a].any_infeasible = true;
      }
    }
  }
  return cells;
}

// `metric` over Spectra's runs.
Aggregate spectra_aggregate(const SweepResult& result, Metric metric) {
  Aggregate out;
  for (const SweepTrial& trial : result.trials) {
    out.stats.add(metric(trial.spectra));
  }
  return out;
}

}  // namespace

std::string modal_choice(const SweepResult& result) {
  std::map<std::string, int> chosen;
  for (const SweepTrial& trial : result.trials) ++chosen[trial.spectra_label];
  std::string label;
  int best = 0;
  for (const auto& [candidate, count] : chosen) {
    if (count > best) {
      label = candidate;
      best = count;
    }
  }
  return label;
}

PanglossScores pangloss_scores(const SweepResult& result) {
  PanglossScores scores;
  std::vector<double> utilities(result.alternatives.size());
  for (const SweepTrial& trial : result.trials) {
    // measure() canonicalises run.choice.alternative, so price each run as
    // the alternative was listed.
    double best = 0.0;
    for (std::size_t a = 0; a < utilities.size(); ++a) {
      utilities[a] = PanglossExperiment::achieved_utility(
          trial.runs[a], result.alternatives[a]);
      best = std::max(best, utilities[a]);
    }
    const double spectra = PanglossExperiment::achieved_utility(
        trial.spectra, trial.spectra.choice.alternative);
    scores.percentile.stats.add(util::percentile_rank(utilities, spectra));
    scores.relative_utility.stats.add(best > 0.0 ? spectra / best : 0.0);
  }
  return scores;
}

// -------------------------------------------------------------- renderers

std::string alternatives_table(const SweepResult& result,
                               const std::string& title,
                               const std::vector<TableColumn>& columns,
                               const std::string& marker) {
  std::vector<std::vector<Aggregate>> cells;
  std::vector<std::string> header{"alternative"};
  std::vector<std::string> spectra_row{"Spectra (w/ overhead)"};
  for (const TableColumn& column : columns) {
    cells.push_back(per_alternative(result, column.metric));
    header.push_back(column.header);
    spectra_row.push_back(spectra_aggregate(result, column.metric).cell());
  }
  header.emplace_back();
  spectra_row.emplace_back();

  const std::string chosen = modal_choice(result);
  util::Table table(title);
  table.set_header(std::move(header));
  for (std::size_t a = 0; a < result.labels.size(); ++a) {
    std::vector<std::string> row{result.labels[a], cells[0][a].cell()};
    for (std::size_t c = 1; c < columns.size(); ++c) {
      row.push_back(cells[0][a].available() ? cells[c][a].cell() : "-");
    }
    row.push_back(result.labels[a] == chosen ? marker : "");
    table.add_row(std::move(row));
  }
  table.add_separator();
  table.add_row(std::move(spectra_row));
  return table.to_string();
}

std::string pangloss_table(const SweepResult& result,
                           const std::string& title) {
  const PanglossScores scores = pangloss_scores(result);
  util::Table table(title);
  table.set_header({"metric", "value"});
  table.add_row({"alternatives considered",
                 std::to_string(result.alternatives.size())});
  table.add_row({"Spectra chose", modal_choice(result)});
  table.add_row({"accuracy percentile (Fig 8)",
                 util::Table::num(scores.percentile.stats.mean(), 1)});
  table.add_row({"relative utility vs oracle (Fig 9)",
                 util::Table::num(scores.relative_utility.stats.mean(), 3)});
  return table.to_string();
}

}  // namespace spectra::scenario
