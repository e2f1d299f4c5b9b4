// Synthetic Raven's-Progressive-Matrices task generator.
//
// DATA SUBSTITUTION (see DESIGN.md): the paper evaluates reasoning accuracy
// on RAVEN, I-RAVEN, and PGM. Those datasets are rendered image corpora; what
// the Table IV experiment actually measures is how *mixed-precision
// quantization of the VSA pipeline* degrades rule inference and answer
// selection. This generator produces structurally equivalent tasks directly
// at the attribute level: a 3x3 panel grid governed by row-wise rules over
// independent attributes, one correct answer, and difficulty-controlled
// distractor candidates. Suite presets mimic the relative difficulty of the
// three datasets (PGM-like uses more attributes, larger value alphabets, and
// near-miss distractors, which is why its absolute accuracy is lower).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace nsflow::reasoning {

/// Row-wise RPM rule types (the RAVEN rule taxonomy).
enum class RuleType : std::uint8_t {
  kConstant,         // a, a, a
  kProgression,      // a, a+s, a+2s (mod V)
  kArithmetic,       // a, b, a+b (mod V)
  kDistributeThree,  // A fixed value triple permuted across the three rows.
};

const char* RuleTypeName(RuleType type);

/// One panel: a value per attribute.
using Panel = std::vector<std::int64_t>;

/// One generated task instance.
struct RpmTask {
  // 8 context panels (grid positions 0..7); position 8 is the unknown.
  std::vector<Panel> context;
  std::vector<Panel> candidates;  // 8 candidates.
  std::int64_t answer_index = 0;  // Index of the correct candidate.
  std::vector<RuleType> rules;    // The rule governing each attribute.
  Panel solution;                 // The true panel at position 8.
};

/// Task-family parameters (one per dataset analogue).
struct RpmSuiteSpec {
  std::string name = "RAVEN-like";
  std::int64_t num_attributes = 4;   // type, size, color, count in RAVEN.
  std::int64_t values_per_attribute = 10;
  std::int64_t num_candidates = 8;
  /// Distractors differ from the solution in [1, max_perturbed] attributes;
  /// 1 = hardest (near misses).
  std::int64_t max_perturbed_attributes = 3;
  /// Fraction of distractors forced to be near misses (1 attribute off).
  double near_miss_fraction = 0.25;
  /// Which rules the generator may draw.
  std::vector<RuleType> allowed_rules = {
      RuleType::kConstant, RuleType::kProgression, RuleType::kArithmetic,
      RuleType::kDistributeThree};
};

/// Dataset-analogue presets calibrated so a float VSA reasoner lands near
/// the paper's FP32 accuracies (Table IV: RAVEN 98.9%, I-RAVEN 99.0%,
/// PGM 68.7%).
RpmSuiteSpec RavenLikeSuite();
RpmSuiteSpec IRavenLikeSuite();
RpmSuiteSpec PgmLikeSuite();

class RpmGenerator {
 public:
  explicit RpmGenerator(RpmSuiteSpec spec) : spec_(std::move(spec)) {}

  const RpmSuiteSpec& spec() const { return spec_; }

  RpmTask Generate(Rng& rng) const;

 private:
  /// Fill one attribute column of the 3x3 grid under `rule`.
  void FillAttribute(RuleType rule, Rng& rng,
                     std::vector<std::int64_t>& column) const;

  RpmSuiteSpec spec_;
};

}  // namespace nsflow::reasoning
