#include "core/long_term_online_vcg.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "auction/random_instance.h"
#include "util/rng.h"

namespace sfl::core {
namespace {

using sfl::auction::Candidate;
using sfl::auction::CandidateBatch;
using sfl::auction::MechanismResult;
using sfl::auction::RoundContext;
using sfl::auction::RoundObservation;
using sfl::auction::RoundSettlement;
using sfl::auction::WinnerSettlement;

LtoVcgConfig small_config() {
  LtoVcgConfig config;
  config.v_weight = 5.0;
  config.per_round_budget = 2.0;
  return config;
}

std::vector<Candidate> market() {
  return {Candidate{.id = 0, .value = 4.0, .bid = 1.0, .energy_cost = 1.0},
          Candidate{.id = 1, .value = 6.0, .bid = 2.0, .energy_cost = 1.0},
          Candidate{.id = 2, .value = 5.0, .bid = 0.5, .energy_cost = 1.0}};
}

RoundContext ctx(std::size_t m) {
  RoundContext context;
  context.max_winners = m;
  context.per_round_budget = 2.0;
  return context;
}

TEST(LtoVcgTest, ConfigValidation) {
  LtoVcgConfig config = small_config();
  config.v_weight = 0.0;
  EXPECT_THROW(LongTermOnlineVcgMechanism{config}, std::invalid_argument);
  config = small_config();
  config.per_round_budget = 0.0;
  EXPECT_THROW(LongTermOnlineVcgMechanism{config}, std::invalid_argument);
  config = small_config();
  config.energy_rates = {0.5, -1.0};
  EXPECT_THROW(LongTermOnlineVcgMechanism{config}, std::invalid_argument);
}

TEST(LtoVcgTest, InitialWeightsAreVAndV) {
  LongTermOnlineVcgMechanism mech(small_config());
  const auto weights = mech.current_weights();
  EXPECT_DOUBLE_EQ(weights.value_weight, 5.0);
  EXPECT_DOUBLE_EQ(weights.bid_weight, 5.0);  // Q(0) = 0
  EXPECT_DOUBLE_EQ(mech.budget_backlog(), 0.0);
  EXPECT_TRUE(mech.is_truthful());
  EXPECT_EQ(mech.name(), "lto-vcg");
}

TEST(LtoVcgTest, FirstRoundMatchesMyopicVcgSelection) {
  // With Q(0) = 0 the affine maximizer reduces to plain (value - bid).
  LongTermOnlineVcgMechanism mech(small_config());
  const MechanismResult result = mech.run_round(market(), ctx(2));
  // Scores*V: (4-1), (6-2), (5-0.5) -> winners ids 2 and 1.
  EXPECT_TRUE(result.won(2));
  EXPECT_TRUE(result.won(1));
  EXPECT_FALSE(result.won(0));
}

TEST(LtoVcgTest, QueueGrowsWhenOverBudgetAndTightensSelection) {
  LongTermOnlineVcgMechanism mech(small_config());
  double previous_backlog = 0.0;
  std::size_t first_round_winners = 0;
  std::size_t late_round_winners = 0;
  for (int round = 0; round < 60; ++round) {
    const MechanismResult result = mech.run_round(market(), ctx(3));
    if (round == 0) first_round_winners = result.winners.size();
    if (round == 59) late_round_winners = result.winners.size();
    RoundObservation obs;
    obs.round = static_cast<std::size_t>(round);
    obs.total_payment = result.total_payment();
    obs.winners = result.winners;
    mech.observe(obs);
    previous_backlog = mech.budget_backlog();
  }
  (void)previous_backlog;
  // Unconstrained spend exceeds B-bar = 2, so the queue must engage and the
  // effective bid weight must rise above V.
  EXPECT_GT(mech.current_weights().bid_weight, 5.0);
  EXPECT_GE(first_round_winners, late_round_winners);
}

TEST(LtoVcgTest, LongRunAveragePaymentMeetsBudget) {
  LongTermOnlineVcgMechanism mech(small_config());
  double total_payment = 0.0;
  const int rounds = 3000;
  for (int round = 0; round < rounds; ++round) {
    const MechanismResult result = mech.run_round(market(), ctx(3));
    total_payment += result.total_payment();
    RoundObservation obs;
    obs.total_payment = result.total_payment();
    obs.winners = result.winners;
    mech.observe(obs);
  }
  // Long-term constraint: average payment <= B-bar within a small tolerance
  // (the O(V)/t transient).
  EXPECT_LE(total_payment / rounds, 2.0 + 0.1);
  // And the mechanism still buys participation (not shut down).
  EXPECT_GT(total_payment, 0.5 * rounds);
}

TEST(LtoVcgTest, PaymentsCoverBidsEveryRound) {
  LongTermOnlineVcgMechanism mech(small_config());
  sfl::util::Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    sfl::auction::RandomInstanceSpec spec;
    spec.num_candidates = 8;
    const auto instance = make_random_instance(spec, rng);
    const MechanismResult result = mech.run_round(instance.candidates, ctx(3));
    for (const auto id : result.winners) {
      EXPECT_GE(result.payment_for(id), instance.candidates[id].bid - 1e-9);
    }
    RoundObservation obs;
    obs.total_payment = result.total_payment();
    mech.observe(obs);
  }
}

TEST(LtoVcgTest, PaymentRulesCoincide) {
  // Critical-value and VCG-externality payments must be identical, including
  // with a grown queue and sustainability penalties active.
  LtoVcgConfig critical_cfg = small_config();
  critical_cfg.energy_rates = std::vector<double>(3, 0.3);
  LtoVcgConfig vcg_cfg = critical_cfg;
  vcg_cfg.payment_rule = PaymentRule::kVcgExternality;
  LongTermOnlineVcgMechanism critical(critical_cfg);
  LongTermOnlineVcgMechanism vcg(vcg_cfg);
  sfl::util::Rng rng(23);
  for (int round = 0; round < 100; ++round) {
    sfl::auction::RandomInstanceSpec spec;
    spec.num_candidates = 3;
    const auto instance = make_random_instance(spec, rng);
    const MechanismResult a = critical.run_round(instance.candidates, ctx(2));
    const MechanismResult b = vcg.run_round(instance.candidates, ctx(2));
    ASSERT_EQ(a.winners, b.winners) << "round " << round;
    for (std::size_t k = 0; k < a.payments.size(); ++k) {
      EXPECT_NEAR(a.payments[k], b.payments[k], 1e-9) << "round " << round;
    }
    RoundObservation obs;
    obs.total_payment = a.total_payment();
    obs.winners = a.winners;
    critical.observe(obs);
    vcg.observe(obs);
  }
}

TEST(LtoVcgTest, SustainabilityQueuesPaceHeavyWinners) {
  // One very attractive client (high value, low cost): without Z queues it
  // wins every round; with a rate limit of 0.25 it must win at most ~25% of
  // rounds in the long run.
  LtoVcgConfig config = small_config();
  config.per_round_budget = 100.0;  // budget never binds here
  config.energy_rates = {0.25, 10.0, 10.0};
  LongTermOnlineVcgMechanism mech(config);
  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 10.0, .bid = 0.1, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 2.0, .bid = 1.0, .energy_cost = 1.0},
      Candidate{.id = 2, .value = 2.0, .bid = 1.0, .energy_cost = 1.0}};
  int wins0 = 0;
  const int rounds = 2000;
  for (int round = 0; round < rounds; ++round) {
    const MechanismResult result = mech.run_round(candidates, ctx(1));
    if (result.won(0)) ++wins0;
    RoundObservation obs;
    obs.total_payment = result.total_payment();
    obs.winners = result.winners;
    mech.observe(obs);
  }
  EXPECT_LT(wins0 / static_cast<double>(rounds), 0.35);
  EXPECT_GT(wins0 / static_cast<double>(rounds), 0.15);
}

TEST(LtoVcgTest, SustainabilityBacklogAccessor) {
  LtoVcgConfig config = small_config();
  config.energy_rates = {0.1, 0.1, 0.1};
  LongTermOnlineVcgMechanism mech(config);
  EXPECT_DOUBLE_EQ(mech.sustainability_backlog(0), 0.0);
  const MechanismResult result = mech.run_round(market(), ctx(3));
  RoundObservation obs;
  obs.total_payment = result.total_payment();
  obs.winners = result.winners;
  mech.observe(obs);
  // Winners' queues grew by e_i - r_i = 0.9.
  for (const auto id : result.winners) {
    EXPECT_NEAR(mech.sustainability_backlog(id), 0.9, 1e-12);
  }
  // Disabled-queue mechanism always reports 0.
  LongTermOnlineVcgMechanism no_queues(small_config());
  EXPECT_DOUBLE_EQ(no_queues.sustainability_backlog(0), 0.0);
}

TEST(LtoVcgTest, CandidateIdOutsideEnergyTableThrows) {
  LtoVcgConfig config = small_config();
  config.energy_rates = {0.5};  // only client 0 known
  LongTermOnlineVcgMechanism mech(config);
  EXPECT_THROW((void)mech.run_round(market(), ctx(2)), std::invalid_argument);
}

TEST(LtoVcgTest, BidProxyQueueModeStillStabilizesBudget) {
  LtoVcgConfig config = small_config();
  config.queue_arrival = QueueArrivalMode::kBidProxy;
  LongTermOnlineVcgMechanism mech(config);
  double total_payment = 0.0;
  const int rounds = 3000;
  for (int round = 0; round < rounds; ++round) {
    const MechanismResult result = mech.run_round(market(), ctx(3));
    total_payment += result.total_payment();
    RoundObservation obs;
    obs.total_payment = result.total_payment();
    mech.observe(obs);
  }
  // Bids under-estimate payments, so allow a looser tolerance; the queue
  // must still prevent unbounded overspend.
  EXPECT_LE(total_payment / rounds, 2.0 * 2.5);
}

TEST(LtoVcgTest, HigherVToleratesLargerBacklog) {
  const auto final_backlog = [&](double v) {
    LtoVcgConfig config = small_config();
    config.v_weight = v;
    LongTermOnlineVcgMechanism mech(config);
    for (int round = 0; round < 2000; ++round) {
      const MechanismResult result = mech.run_round(market(), ctx(3));
      RoundObservation obs;
      obs.total_payment = result.total_payment();
      mech.observe(obs);
    }
    return mech.average_budget_backlog();
  };
  EXPECT_GT(final_backlog(50.0), final_backlog(2.0));
}

/// One 64-bit word folded into a running digest (splitmix64's finalizer).
std::uint64_t fold(std::uint64_t digest, std::uint64_t word) {
  std::uint64_t state = digest ^ word;
  return sfl::util::splitmix64(state);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

constexpr std::size_t kPinnedRounds = 300;

/// A paced LTO-VCG run (2,000 clients, m = 50, budget and pacing both
/// binding) through run_round_into + settle. Returns the running digest
/// after each round of: the winners, their payment bits, Q's bits and a
/// digest of every Z_i's bits. Inputs come from util::Rng's integer stream
/// and the mechanism uses only + - * / and max, so the digests depend on
/// IEEE arithmetic alone, not on the toolchain or libm.
std::vector<std::uint64_t> paced_trajectory_digests() {
  constexpr std::size_t kClients = 2000;
  constexpr std::size_t kWinners = 50;
  sfl::util::Rng rng(0x2d1f7e5aULL);
  LtoVcgConfig config;
  config.v_weight = 10.0;
  config.per_round_budget = 15.0;
  config.energy_rates.resize(kClients);
  for (double& rate : config.energy_rates) rate = rng.uniform(0.005, 0.05);
  LongTermOnlineVcgMechanism mech(config);

  std::vector<std::size_t> order(kClients);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> bid_of(kClients);
  std::vector<double> cost_of(kClients);
  CandidateBatch batch;
  batch.reserve(kClients);
  MechanismResult result;
  RoundSettlement settlement;
  std::vector<std::uint64_t> digests;
  std::uint64_t digest = 0;
  for (std::size_t round = 0; round < kPinnedRounds; ++round) {
    rng.shuffle(order);
    batch.clear();
    for (const std::size_t id : order) {
      const double value = rng.uniform(0.5, 3.0);
      bid_of[id] = rng.uniform(0.05, 2.0);
      cost_of[id] = rng.uniform(0.5, 2.0);
      batch.emplace(id, value, bid_of[id], cost_of[id]);
    }
    RoundContext context;
    context.round = round;
    context.max_winners = kWinners;
    context.per_round_budget = config.per_round_budget;
    mech.run_round_into(batch, context, result);

    settlement.round = round;
    settlement.total_payment = result.total_payment();
    settlement.winners.clear();
    for (std::size_t w = 0; w < result.winners.size(); ++w) {
      const std::size_t id = result.winners[w];
      settlement.winners.push_back(WinnerSettlement{.client = id,
                                                    .bid = bid_of[id],
                                                    .payment = result.payments[w],
                                                    .energy_cost = cost_of[id],
                                                    .dropped = false});
      digest = fold(fold(digest, id), bits(result.payments[w]));
    }
    mech.settle(settlement);

    digest = fold(fold(digest, result.winners.size()),
                  bits(mech.budget_backlog()));
    std::uint64_t z_digest = 0;
    for (std::size_t client = 0; client < kClients; ++client) {
      z_digest = fold(z_digest, bits(mech.sustainability_backlog(client)));
    }
    digests.push_back(fold(digest, z_digest));
    digest = digests.back();
  }
  return digests;
}

// The running digest after every round of paced_trajectory_digests().
// Captured before the Z_i store became flat arrays; any change to the
// winners, a payment bit, Q or any Z_i in any round moves every entry from
// that round on.
constexpr std::array<std::uint64_t, kPinnedRounds> kPinnedDigests = {
    0x59365d880839ff46ULL, 0x6c41df0f63142243ULL, 0x4560e7df757fa408ULL,
    0xbf5f03387d4963e6ULL, 0x8099e2baf3da2afbULL, 0x459e2fdf3a258892ULL,
    0x22ca343c0dd2f911ULL, 0xccf88a2d32ebf13fULL, 0x0d6b573ebb42a500ULL,
    0xa45d08e9ac65e388ULL, 0xd4a7a5d47ad1427aULL, 0x33b59194006f0567ULL,
    0x11e6df934bf3c09cULL, 0x0b49790f40c67384ULL, 0xa549846606482270ULL,
    0xc70810cf76a9021fULL, 0x64c5f15d90c42f19ULL, 0x82e86bcca8b9694dULL,
    0x81794193d7f7c813ULL, 0x3b2a527a0c81d625ULL, 0x3125a16d0013dd56ULL,
    0x2b68a01ddd01d260ULL, 0x01a689f50972de49ULL, 0xa4d8986da28114bbULL,
    0xd040a559ff126061ULL, 0x0a48a2640d0e5582ULL, 0x03c99740f2b1ff10ULL,
    0xc3700b3eeb71ed8fULL, 0xc5f5ce8831742226ULL, 0x01c77a622ea0c099ULL,
    0x3341791ab6c113b4ULL, 0x36608b2516aab502ULL, 0x9fcc82b86d8c2210ULL,
    0x5e8e779729b924f1ULL, 0xcfed5447fd04fc65ULL, 0x92de003fd8f87637ULL,
    0xb7c27f4055a07402ULL, 0x7524f9c0d2bd035bULL, 0xf70d6a1d2eda7a47ULL,
    0xc0686adfc26045f5ULL, 0xadfea54eb91da6b5ULL, 0xd95e111d3cd23c42ULL,
    0x628a9c3545ae2010ULL, 0x16393b2a315a2c7dULL, 0x3c3cb80166a3ed64ULL,
    0x1d9541cbfb942486ULL, 0x20f987b135c4b0d6ULL, 0xb9dd39d6b36113ddULL,
    0x6394274a4184db78ULL, 0x730f680d3e0b8023ULL, 0xb176b6411221f3bcULL,
    0x3874e85a82fae00bULL, 0x17bc21746928502bULL, 0x22bfbe8ab3b0e0b6ULL,
    0x6ec99dbf4a71a329ULL, 0x4d596d12c9cbd707ULL, 0xb7d4e59a83bbdc0bULL,
    0xe7133147a0d78f88ULL, 0xbac6ac286bd1e18cULL, 0x0c3d5defd4f56202ULL,
    0x5c4bb4615213c6acULL, 0x289894603c122a83ULL, 0x8531df0785a1c3d2ULL,
    0xc4375bdb0c20dc2fULL, 0x9e561f91f0bba692ULL, 0x3630b7094df66b74ULL,
    0xde0e89898c683fb3ULL, 0xc57c0a9b2b0e0071ULL, 0xb8570e24256d3b20ULL,
    0x783a26f5631fa9d7ULL, 0xb58f18e54c674026ULL, 0xe02fd1f5653e75b7ULL,
    0xa17b0ce81de76711ULL, 0x2262ddbecdf0c8cdULL, 0x2f84dcdbe424897eULL,
    0xb8b7220b80f87941ULL, 0xb3e1163f1885b69eULL, 0x177074d5e5c61a01ULL,
    0xf639096bfb6575bdULL, 0x9782c1c37e6b4d18ULL, 0xc93007d46c8ce3f7ULL,
    0x9c5daec8c1603b62ULL, 0x2fb04d6fb83587f1ULL, 0x09e91be4949704edULL,
    0x3eccf971e5b2e281ULL, 0x1694d13632262abeULL, 0x8233e5ee4e64c7c9ULL,
    0x66036fe909a8c8f6ULL, 0x02762027896f836eULL, 0xe85c9a053f12af5bULL,
    0x6bee99c4aad922f2ULL, 0xd8463a9d31eac137ULL, 0xd9e08b86fc27eec7ULL,
    0xba33798d5a693d61ULL, 0xb712256273de1fb8ULL, 0x273ed0d5eadec607ULL,
    0x1ebc56de23fcec05ULL, 0x32ef8e2e5ba205a3ULL, 0xe372fbe5eb2cc559ULL,
    0x919e27196ce8c529ULL, 0x6e5da60a7e79cbd5ULL, 0xcb5aadce7d04ed4bULL,
    0x38a1f2e26d02caa4ULL, 0x0f7501d55240b926ULL, 0xdca7afff0e5aa0d5ULL,
    0xd69efd0d75ead4e9ULL, 0x1f27b713456fa747ULL, 0x3922b035e427b0d1ULL,
    0x51318ed1e5471e44ULL, 0xf867a8cbbfba07bbULL, 0xe46971aa6eca4ac1ULL,
    0x445b85ab2dafb9f8ULL, 0x04d15b2130903dc2ULL, 0x988dbdf949ee8f3dULL,
    0x4ef77b077357054cULL, 0x7090b7a327f2da4fULL, 0xe3fa78065cdb3103ULL,
    0x18c869e5d878bef2ULL, 0x3383e3db57afea9bULL, 0x42bcd1b620687136ULL,
    0xfa19d54eae8f3275ULL, 0x62c3b163841d2781ULL, 0x3f481dc489a7ebe9ULL,
    0xd3eaf45c7bd3a4c4ULL, 0x3d0ab022b179fed2ULL, 0x85c52d0bae107e9dULL,
    0xd8ef2c277509c071ULL, 0x2e0c4c880c373835ULL, 0xb0340177140fd2deULL,
    0x644e24c7c0809268ULL, 0x8b71691bc657c1abULL, 0xe8ac769a0c9d199bULL,
    0x5967e7e099208e5bULL, 0xbcb1253f844b128dULL, 0x267b04367b4bf318ULL,
    0x5b63c68636dc314cULL, 0x4a57eeccf2619f82ULL, 0x0ca5d0f2b8adaf3dULL,
    0xc625bd7253907840ULL, 0x0b0785a6ac953085ULL, 0xfa866189ac56012eULL,
    0xb6a8037f6ccb064aULL, 0xc581a539363e4818ULL, 0x2e11c67a45c99990ULL,
    0x097c7a1c8092efd0ULL, 0x79d04e2ba0d72912ULL, 0xb92ef0aa5c5ea584ULL,
    0x7c50c98401cb7409ULL, 0x4b96f4b979d9378cULL, 0xb0e0859b91a6196eULL,
    0xbd4820032a6caa4eULL, 0xcd77b5f72b9a3dbfULL, 0xa0912a2bb5426607ULL,
    0xb37fa653014a9c71ULL, 0x38b962b67387b9c6ULL, 0x913ab7cf1515888aULL,
    0x784faab36f59d606ULL, 0xc205dc001ab49cf5ULL, 0x21e9006cfe45bd95ULL,
    0x56635336117a12cdULL, 0xf1f32f0fb6e15dbeULL, 0x9f388dcd6dfee811ULL,
    0x7fab7c5073c073cdULL, 0xd9788ecd62d18335ULL, 0x4c06f2e2e9446f90ULL,
    0xd5d6cd832a1abc4aULL, 0x0de0c2ee4a09ff4dULL, 0xbdbf1d3c94902b1aULL,
    0xcdc342d991a5717bULL, 0xc933bce16fd5018bULL, 0x7e8238cb182ea14fULL,
    0x12073e17c8675dcaULL, 0x594a6a94a751b0fbULL, 0x6a3c775362925bdcULL,
    0xf4f2f6cf7f234650ULL, 0xdc0bec766feea0c2ULL, 0xee9a95509cf17716ULL,
    0x8e25504c23b32bebULL, 0x969dcbcff8401ec1ULL, 0x43823988f8f772fbULL,
    0x5db5777b5862b9ccULL, 0x4678bff95954de3aULL, 0xb06a7b47b2533444ULL,
    0x9440aa68152586d0ULL, 0x3a881bdbd7da6d06ULL, 0x994c873c861ed3d5ULL,
    0x37a1daf012d4b07bULL, 0x39bdb151140f2c05ULL, 0x6f0450a2beb071adULL,
    0x1771e364aeae4752ULL, 0x33afdc129d1a95fdULL, 0xc74b7d0eed35575dULL,
    0x4a83cfeab68957bcULL, 0x60a4414a0ad6ad94ULL, 0x9444a18719c5907aULL,
    0x44064946dd9935a6ULL, 0x705192b74b597552ULL, 0xe09040df801bdb44ULL,
    0xa310240b59a8b9a9ULL, 0xa47d89329f8cb72eULL, 0xdb096d1277d2f233ULL,
    0x56896db0172d74d5ULL, 0xc255c35c0bbb31f9ULL, 0xc54429d245396626ULL,
    0xe0fccbce33fc338fULL, 0xdbc57243cf0ee1b6ULL, 0x79a76c631a9d83cbULL,
    0x60f21f50c6569f07ULL, 0x0e75cda05a845c63ULL, 0xd5dbc2e885490d46ULL,
    0xc5fc2dc56e928bbeULL, 0xdc5a12bdcff680abULL, 0x8f5c746c7f32e2b2ULL,
    0x15fa11a6b173f623ULL, 0x28bc2b57b88f1a37ULL, 0x29794ab66e6b452aULL,
    0x82c74553c90536e5ULL, 0xea20cee63b817573ULL, 0x95e24bcc8f97b079ULL,
    0xe2bd2287db13c741ULL, 0x437a989a17ac4e23ULL, 0x53f5bcc7a0a2b050ULL,
    0xef035a650749fbd5ULL, 0xa16cc7ebeb7fdf6bULL, 0x56bb42c2e7e9461bULL,
    0x3acabdef768936ccULL, 0xe200eef84a8d8bf1ULL, 0x0f59aa28f701f246ULL,
    0x1659ac6df3485670ULL, 0x898a87aa727bc79fULL, 0x37e1a3fab974ff94ULL,
    0x2f2ad5d2ef537661ULL, 0x9d553004bfb10609ULL, 0xf849417a74efb07dULL,
    0xf462004868e0d2a5ULL, 0xaf78ff65e64623a1ULL, 0x13ddfe3499046adbULL,
    0xa6d5193f0d6cd374ULL, 0x70294cb784d88207ULL, 0x2af4492f65534303ULL,
    0x50827b700dc82bbbULL, 0xc0d28ddf8be769b7ULL, 0xf3e2e2d5f00d9adeULL,
    0xded6973c7c2602a1ULL, 0x7e77d4858301e4b4ULL, 0x16e0001710105594ULL,
    0xcde8f95f3de101ddULL, 0x4e0fae2692f0ee2eULL, 0x903d4120176fa59eULL,
    0xe85ee216ca8425bcULL, 0x80abe5ce8790aae9ULL, 0x7aae136c8237d806ULL,
    0x4e749a6bc420737aULL, 0x9e3d13bb7aff3ed1ULL, 0x04ed59caa3fe8ab7ULL,
    0xde1027e35dca3323ULL, 0x3a71b73dd858b143ULL, 0xb01e36eaf779af92ULL,
    0x906381aa5d74dd51ULL, 0x2e0d63ca1f46870bULL, 0x6f9d6738410126fbULL,
    0xbefb5b064336b31cULL, 0xea126c50b5e1f87bULL, 0x07296127b04b8227ULL,
    0xca7f7d4944234deeULL, 0xa1ed3c7a17bc6770ULL, 0xfc33be6406f95c75ULL,
    0xb699e996db1d0ee7ULL, 0xd8dd1d5633ea4d69ULL, 0xcd5d962a4a56c271ULL,
    0xb06e09b8464b8517ULL, 0xda178901169f8b62ULL, 0xe269eee9edbb9f18ULL,
    0xc6d8d539e2784f6bULL, 0xaad35b88d1287969ULL, 0x11f6101e2a5e1c9fULL,
    0xf25bb2b66657bd61ULL, 0x186139d2a3133a27ULL, 0xbd8c6663ec242ebfULL,
    0x698b5e94c30eba90ULL, 0xb2ab6f705c38fb83ULL, 0xcd224506134ce95dULL,
    0xcd696d83203aa779ULL, 0x26eb96d0daea4bedULL, 0x8a6aa263bcd7668dULL,
    0x92b2b5656fc1232cULL, 0x4d5e98d635c12a3dULL, 0x1f7cb4cbd48f0148ULL,
    0xd900a1c1e563845bULL, 0x6679aed4140654b1ULL, 0x987cfa0acdbf3563ULL,
    0x78c60722449d4843ULL, 0xd864183b55e27207ULL, 0xdc233188ced64a0aULL,
    0xa44f015e84ef6885ULL, 0x94a48e42ef4f5c85ULL, 0x14ed6c6d179380fdULL,
    0xec4e0e94e41cb4e0ULL, 0x9d79090f27f9797aULL, 0xff68401a6902a8d6ULL
};

TEST(LtoVcgTest, PacedTrajectoryIsPinned) {
  // Pins the paced trajectory across commits (the property harness only
  // compares variants within one build). A refactor of the queue updates
  // or the scoring that regroups one floating-point operation fails here.
  const std::vector<std::uint64_t> digests = paced_trajectory_digests();
  ASSERT_EQ(digests.size(), kPinnedRounds);
  for (std::size_t round = 0; round < kPinnedRounds; ++round) {
    ASSERT_EQ(digests[round], kPinnedDigests[round])
        << "the paced trajectory first diverges at round " << round;
  }
}

}  // namespace
}  // namespace sfl::core
