#include "core/orchestrator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "auction/baselines.h"
#include "core/long_term_online_vcg.h"
#include "fl/logistic_regression.h"

namespace sfl::core {
namespace {

sim::ScenarioSpec small_scenario_spec() {
  sim::ScenarioSpec spec;
  spec.num_clients = 12;
  spec.train_examples = 600;
  spec.test_examples = 200;
  spec.num_classes = 4;
  spec.feature_dim = 8;
  spec.class_separation = 3.0;
  spec.seed = 21;
  return spec;
}

fl::LocalTrainingSpec training_spec() {
  fl::LocalTrainingSpec spec;
  spec.local_steps = 5;
  spec.batch_size = 16;
  spec.optimizer.learning_rate = 0.1;
  return spec;
}

OrchestratorConfig orchestrator_config(std::size_t rounds) {
  OrchestratorConfig config;
  config.rounds = rounds;
  config.max_winners = 4;
  config.per_round_budget = 4.0;
  config.valuation_scale = 2.0;
  config.eval_every = 10;
  config.seed = 33;
  return config;
}

std::unique_ptr<sfl::auction::Mechanism> make_lto(const OrchestratorConfig& cfg) {
  LtoVcgConfig config;
  config.v_weight = 10.0;
  config.per_round_budget = cfg.per_round_budget;
  return std::make_unique<LongTermOnlineVcgMechanism>(config);
}

std::unique_ptr<fl::Model> make_model(const sim::ScenarioSpec& spec) {
  return std::make_unique<fl::LogisticRegression>(spec.feature_dim,
                                                  spec.num_classes, 1e-4);
}

TEST(OrchestratorTest, EndToEndTrainingImprovesAccuracy) {
  const auto sspec = small_scenario_spec();
  const sim::Scenario scenario = sim::build_scenario(sspec);
  const OrchestratorConfig config = orchestrator_config(60);
  SustainableFlOrchestrator orchestrator(scenario, make_model(sspec),
                                         training_spec(), make_lto(config),
                                         config);
  const RunResult result = orchestrator.run();
  EXPECT_EQ(result.rounds.size(), 60u);
  EXPECT_GT(result.final_accuracy, 0.6);  // 4 classes, chance = 0.25
  EXPECT_EQ(result.mechanism_name, "lto-vcg");
  EXPECT_DOUBLE_EQ(result.ir_fraction, 1.0);
  EXPECT_GT(result.cumulative_payment, 0.0);
  // Round records are internally consistent.
  double welfare = 0.0;
  for (const auto& r : result.rounds) {
    welfare += r.welfare;
    EXPECT_LE(r.participants, config.max_winners);
    EXPECT_LE(r.participants, r.available);
  }
  EXPECT_NEAR(welfare, result.cumulative_welfare, 1e-9);
  EXPECT_TRUE(result.rounds.back().evaluated);
}

TEST(OrchestratorTest, DeterministicAcrossRuns) {
  const auto sspec = small_scenario_spec();
  const sim::Scenario scenario = sim::build_scenario(sspec);
  const OrchestratorConfig config = orchestrator_config(15);
  SustainableFlOrchestrator a(scenario, make_model(sspec), training_spec(),
                              make_lto(config), config);
  SustainableFlOrchestrator b(scenario, make_model(sspec), training_spec(),
                              make_lto(config), config);
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(ra.final_accuracy, rb.final_accuracy);
  EXPECT_EQ(ra.cumulative_payment, rb.cumulative_payment);
  EXPECT_EQ(ra.client_utilities, rb.client_utilities);
  ASSERT_EQ(ra.rounds.size(), rb.rounds.size());
  for (std::size_t t = 0; t < ra.rounds.size(); ++t) {
    EXPECT_EQ(ra.rounds[t].payment, rb.rounds[t].payment);
    EXPECT_EQ(ra.rounds[t].welfare, rb.rounds[t].welfare);
  }
}

TEST(OrchestratorTest, RunsWithAllBaselineMechanisms) {
  const auto sspec = small_scenario_spec();
  const sim::Scenario scenario = sim::build_scenario(sspec);
  const OrchestratorConfig config = orchestrator_config(10);
  const auto run_with = [&](std::unique_ptr<sfl::auction::Mechanism> mech) {
    SustainableFlOrchestrator orchestrator(scenario, make_model(sspec),
                                           training_spec(), std::move(mech),
                                           config);
    return orchestrator.run();
  };
  EXPECT_NO_THROW((void)run_with(std::make_unique<sfl::auction::MyopicVcgMechanism>()));
  EXPECT_NO_THROW(
      (void)run_with(std::make_unique<sfl::auction::PayAsBidGreedyMechanism>()));
  EXPECT_NO_THROW(
      (void)run_with(std::make_unique<sfl::auction::FixedPriceMechanism>(1.5)));
  EXPECT_NO_THROW(
      (void)run_with(std::make_unique<sfl::auction::RandomSelectionMechanism>(1.0, 5)));
  EXPECT_NO_THROW(
      (void)run_with(std::make_unique<sfl::auction::ProportionalShareMechanism>()));
}

TEST(OrchestratorTest, ReputationSeparatesNoisyClients) {
  auto sspec = small_scenario_spec();
  sspec.noisy_client_fraction = 0.25;  // last 3 of 12 clients are noisy
  sspec.noisy_flip_probability = 0.8;
  const sim::Scenario scenario = sim::build_scenario(sspec);
  OrchestratorConfig config = orchestrator_config(50);
  config.max_winners = 6;
  SustainableFlOrchestrator orchestrator(scenario, make_model(sspec),
                                         training_spec(), make_lto(config),
                                         config);
  const RunResult result = orchestrator.run();
  double clean_mean = 0.0;
  double noisy_mean = 0.0;
  for (std::size_t c = 0; c < 9; ++c) clean_mean += result.final_reputation[c];
  for (std::size_t c = 9; c < 12; ++c) noisy_mean += result.final_reputation[c];
  clean_mean /= 9.0;
  noisy_mean /= 3.0;
  EXPECT_GT(clean_mean, noisy_mean);
}

TEST(OrchestratorTest, EnergyDynamicsLimitAvailability) {
  const auto sspec = small_scenario_spec();
  const sim::Scenario scenario = sim::build_scenario(sspec);
  OrchestratorConfig config = orchestrator_config(40);
  config.enable_energy = true;
  config.energy.battery_capacity = 2.0;
  config.energy.initial_charge = 1.0;
  config.energy.harvest_amount = 1.0;
  config.energy.harvest_probabilities = std::vector<double>(12, 0.3);
  SustainableFlOrchestrator orchestrator(scenario, make_model(sspec),
                                         training_spec(), make_lto(config),
                                         config);
  const RunResult result = orchestrator.run();
  EXPECT_EQ(result.final_battery.size(), 12u);
  EXPECT_EQ(result.starvation_counts.size(), 12u);
  bool some_round_limited = false;
  for (const auto& r : result.rounds) {
    EXPECT_LE(r.available, 12u);
    if (r.available < 12u) some_round_limited = true;
  }
  EXPECT_TRUE(some_round_limited);  // p=0.3 harvests cannot keep everyone up
}

std::string hex_bits(double x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
  return buf;
}

TEST(OrchestratorTest, EnergyTrajectoryIsPinned) {
  // Pins a short energy-on run bit for bit: the final accuracy, every
  // client's final reputation and the summed payments. Speed changes to
  // training, evaluation or the reputation probes must leave these bits
  // alone. The values depend on libm exp/log (logistic loss, quality
  // squash), so they are pinned to the CI toolchain (x86-64 Linux, GCC,
  // glibc); a different libm may legitimately print other bits.
  auto sspec = small_scenario_spec();
  sspec.noisy_client_fraction = 0.25;
  sspec.noisy_flip_probability = 0.8;
  const sim::Scenario scenario = sim::build_scenario(sspec);
  OrchestratorConfig config = orchestrator_config(60);
  config.enable_energy = true;
  config.energy.battery_capacity = 3.0;
  config.energy.initial_charge = 2.0;
  config.energy.harvest_amount = 1.0;
  config.energy.harvest_probabilities = std::vector<double>(12, 0.6);
  SustainableFlOrchestrator orchestrator(scenario, make_model(sspec),
                                         training_spec(), make_lto(config),
                                         config);
  const RunResult result = orchestrator.run();

  const std::uint64_t want_accuracy = 0x3fefae147ae147aeULL;  // 0.99
  const std::uint64_t want_payment = 0x406d08ffb3e95ba7ULL;
  const std::vector<std::uint64_t> want_reputation = {
      0x3fe5098316143a4dULL, 0x3fe199f198c091c6ULL, 0x3fe0942ea23ca4ecULL,
      0x3fe0cf75b17188acULL, 0x3fe0e878ce121235ULL, 0x3fe0c23ee665ab08ULL,
      0x3fe4a4b0b4dbf766ULL, 0x3fe329a5266a2645ULL, 0x3fe5d42754dd10d8ULL,
      0x3fd0c712cc26c728ULL, 0x3fd4f8b74347b6f3ULL, 0x3fd0cc9dabbe426eULL};

  const double payment = result.cumulative_payment;
  std::string actual = "final_accuracy " + hex_bits(result.final_accuracy) +
                       " summed_payment " + hex_bits(payment) +
                       "\nfinal_reputation";
  for (const double q : result.final_reputation) actual += " " + hex_bits(q);

  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.final_accuracy), want_accuracy)
      << actual;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(payment), want_payment) << actual;
  ASSERT_EQ(result.final_reputation.size(), want_reputation.size()) << actual;
  for (std::size_t c = 0; c < want_reputation.size(); ++c) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.final_reputation[c]),
              want_reputation[c])
        << "client " << c << "\n" << actual;
  }
}

TEST(OrchestratorTest, CsvExportMatchesRecords) {
  const auto sspec = small_scenario_spec();
  const sim::Scenario scenario = sim::build_scenario(sspec);
  const OrchestratorConfig config = orchestrator_config(5);
  SustainableFlOrchestrator orchestrator(scenario, make_model(sspec),
                                         training_spec(), make_lto(config),
                                         config);
  const RunResult result = orchestrator.run();
  std::ostringstream out;
  sfl::util::CsvWriter csv(out, RunResult::csv_header());
  result.write_rounds_csv(csv);
  EXPECT_EQ(csv.rows_written(), 5u);
  // Header + 5 rows.
  std::size_t lines = 0;
  for (const char c : out.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 6u);
}

TEST(OrchestratorTest, Validation) {
  const auto sspec = small_scenario_spec();
  const sim::Scenario scenario = sim::build_scenario(sspec);
  OrchestratorConfig config = orchestrator_config(10);
  EXPECT_THROW(SustainableFlOrchestrator(scenario, make_model(sspec),
                                         training_spec(), nullptr, config),
               std::invalid_argument);
  config.rounds = 0;
  EXPECT_THROW(SustainableFlOrchestrator(scenario, make_model(sspec),
                                         training_spec(), make_lto(config),
                                         config),
               std::invalid_argument);
  config = orchestrator_config(10);
  EXPECT_THROW(SustainableFlOrchestrator(scenario, make_model(sspec),
                                         training_spec(), make_lto(config),
                                         config, StrategyTable(3)),
               std::invalid_argument);
}

}  // namespace
}  // namespace sfl::core
