// The unified settlement protocol: settle(RoundSettlement) must reproduce
// the legacy observe(RoundObservation) queue dynamics bit-for-bit, carry
// the per-winner detail observe() lost, and keep dropout accounting exact.
#include <gtest/gtest.h>

#include <cmath>

#include "auction/adaptive_price.h"
#include "auction/random_instance.h"
#include "core/long_term_online_vcg.h"
#include "util/rng.h"

namespace sfl::core {
namespace {

using sfl::auction::Candidate;
using sfl::auction::MechanismResult;
using sfl::auction::RoundContext;
using sfl::auction::RoundObservation;
using sfl::auction::RoundSettlement;
using sfl::auction::WinnerSettlement;

LtoVcgConfig paced_config() {
  LtoVcgConfig config;
  config.v_weight = 6.0;
  config.per_round_budget = 2.5;
  config.energy_rates.assign(10, 0.3);
  return config;
}

RoundSettlement settlement_for(const std::vector<Candidate>& candidates,
                               const MechanismResult& result,
                               std::size_t round) {
  RoundSettlement settlement;
  settlement.round = round;
  settlement.total_payment = result.total_payment();
  for (std::size_t w = 0; w < result.winners.size(); ++w) {
    settlement.winners.push_back(
        WinnerSettlement{.client = result.winners[w],
                         .bid = candidates[result.winners[w]].bid,
                         .payment = result.payments[w],
                         .energy_cost = candidates[result.winners[w]].energy_cost,
                         .dropped = false});
  }
  return settlement;
}

TEST(SettlementTest, SettleMatchesLegacyObserveBitForBit) {
  // Two identical LTO mechanisms, one driven through settle(), one through
  // the deprecated observe() shim: queue backlogs (and hence all downstream
  // selection) must stay exactly equal for hundreds of rounds.
  for (const bool bid_proxy : {false, true}) {
    LtoVcgConfig config = paced_config();
    if (bid_proxy) config.queue_arrival = QueueArrivalMode::kBidProxy;
    config.budget_schedule = {4.0, 1.5, 2.0};
    LongTermOnlineVcgMechanism via_settle(config);
    LongTermOnlineVcgMechanism via_observe(config);

    sfl::util::Rng rng(314);
    for (std::size_t round = 0; round < 400; ++round) {
      sfl::auction::RandomInstanceSpec spec;
      spec.num_candidates = 10;
      const auto instance = make_random_instance(spec, rng);
      RoundContext ctx;
      ctx.round = round;
      ctx.max_winners = 3;

      const MechanismResult a = via_settle.run_round(instance.candidates, ctx);
      const MechanismResult b = via_observe.run_round(instance.candidates, ctx);
      ASSERT_EQ(a.winners, b.winners) << "round " << round;
      ASSERT_EQ(a.payments, b.payments) << "round " << round;

      via_settle.settle(settlement_for(instance.candidates, a, round));
      RoundObservation obs;
      obs.round = round;
      obs.total_payment = b.total_payment();
      obs.winners = b.winners;
      via_observe.observe(obs);

      ASSERT_EQ(via_settle.budget_backlog(), via_observe.budget_backlog())
          << "round " << round << " bid_proxy " << bid_proxy;
      for (std::size_t client = 0; client < 10; ++client) {
        ASSERT_EQ(via_settle.sustainability_backlog(client),
                  via_observe.sustainability_backlog(client))
            << "round " << round << " client " << client;
      }
    }
  }
}

TEST(SettlementTest, DroppedWinnersAreUnpaidButStillPaced) {
  // A dropped winner contributes no realized payment to Q but still charges
  // its Z queue: pacing bounds selection frequency, not delivery.
  LtoVcgConfig config = paced_config();
  LongTermOnlineVcgMechanism mech(config);

  RoundSettlement settlement;
  settlement.round = 0;
  settlement.winners = {
      WinnerSettlement{.client = 2, .bid = 1.0, .payment = 1.5,
                       .energy_cost = 1.0, .dropped = false},
      WinnerSettlement{.client = 5, .bid = 0.8, .payment = 0.0,
                       .energy_cost = 1.0, .dropped = true}};
  settlement.total_payment = 1.5;  // delivered winners only

  EXPECT_DOUBLE_EQ(settlement.total_bid(), 1.8);
  EXPECT_EQ(settlement.delivered_count(), 1u);

  mech.settle(settlement);
  // Q arrival 1.5 - service 2.5 -> clamped at 0.
  EXPECT_DOUBLE_EQ(mech.budget_backlog(), 0.0);
  // Both Z queues grew by e - r = 0.7, dropped or not.
  EXPECT_NEAR(mech.sustainability_backlog(2), 0.7, 1e-12);
  EXPECT_NEAR(mech.sustainability_backlog(5), 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(mech.sustainability_backlog(0), 0.0);
}

TEST(SettlementTest, SettleIsIdempotentPerRound) {
  // The double-report hazard: a caller that reports a round through BOTH
  // settle() and the deprecated observe() shim (or retries a settlement)
  // must not push the same round into the queues twice. The twin mechanism
  // settles exactly once per round and the two must stay bit-identical.
  LtoVcgConfig config = paced_config();
  LongTermOnlineVcgMechanism once(config);
  LongTermOnlineVcgMechanism doubled(config);

  sfl::util::Rng rng(2718);
  for (std::size_t round = 0; round < 50; ++round) {
    sfl::auction::RandomInstanceSpec spec;
    spec.num_candidates = 10;
    const auto instance = make_random_instance(spec, rng);
    RoundContext ctx;
    ctx.round = round;
    ctx.max_winners = 3;

    const MechanismResult a = once.run_round(instance.candidates, ctx);
    const MechanismResult b = doubled.run_round(instance.candidates, ctx);
    ASSERT_EQ(a.winners, b.winners);

    const RoundSettlement settlement =
        settlement_for(instance.candidates, a, round);
    once.settle(settlement);
    // The double report: settle(), then the legacy observe() for the same
    // round, then a retried settle(). Only the first may apply.
    doubled.settle(settlement);
    RoundObservation obs;
    obs.round = round;
    obs.total_payment = b.total_payment();
    obs.winners = b.winners;
    doubled.observe(obs);
    doubled.settle(settlement);

    ASSERT_EQ(once.budget_backlog(), doubled.budget_backlog())
        << "round " << round;
    for (std::size_t client = 0; client < 10; ++client) {
      ASSERT_EQ(once.sustainability_backlog(client),
                doubled.sustainability_backlog(client))
          << "round " << round << " client " << client;
    }
  }
}

TEST(SettlementTest, UnstampedSettleOncePerRoundStillApplies) {
  // Legacy drivers never stamp RoundSettlement::round (it stays 0 every
  // round); one settlement per run_round must keep applying regardless —
  // the unstamped mechanism must track a properly-stamped twin exactly.
  LtoVcgConfig config = paced_config();
  LongTermOnlineVcgMechanism stamped(config);
  LongTermOnlineVcgMechanism unstamped(config);

  sfl::util::Rng rng(99);
  for (std::size_t round = 0; round < 60; ++round) {
    sfl::auction::RandomInstanceSpec spec;
    spec.num_candidates = 8;
    const auto instance = make_random_instance(spec, rng);
    RoundContext ctx;
    ctx.round = round;
    ctx.max_winners = 3;
    const MechanismResult a = stamped.run_round(instance.candidates, ctx);
    const MechanismResult b = unstamped.run_round(instance.candidates, ctx);
    ASSERT_EQ(a.winners, b.winners) << "round " << round;

    stamped.settle(settlement_for(instance.candidates, a, round));
    unstamped.settle(settlement_for(instance.candidates, b, 0));

    ASSERT_EQ(stamped.budget_backlog(), unstamped.budget_backlog())
        << "round " << round;
    for (std::size_t client = 0; client < 10; ++client) {
      ASSERT_EQ(stamped.sustainability_backlog(client),
                unstamped.sustainability_backlog(client))
          << "round " << round << " client " << client;
    }
  }
}

TEST(SettlementTest, MixedStampDoubleReportStillAppliesOnce) {
  // The nastiest double report: an UNSTAMPED settle() (round left 0)
  // followed by the legacy observe() carrying the real round number. The
  // round stamps disagree, so the stamp comparison alone cannot catch it;
  // the shim must refuse the report because settle() already consumed the
  // round's winner cache.
  LtoVcgConfig config = paced_config();
  LongTermOnlineVcgMechanism once(config);
  LongTermOnlineVcgMechanism doubled(config);

  sfl::util::Rng rng(515);
  for (std::size_t round = 0; round < 40; ++round) {
    sfl::auction::RandomInstanceSpec spec;
    spec.num_candidates = 8;
    const auto instance = make_random_instance(spec, rng);
    RoundContext ctx;
    ctx.round = round;
    ctx.max_winners = 3;

    const MechanismResult a = once.run_round(instance.candidates, ctx);
    const MechanismResult b = doubled.run_round(instance.candidates, ctx);
    ASSERT_EQ(a.winners, b.winners);

    once.settle(settlement_for(instance.candidates, a, round));
    doubled.settle(settlement_for(instance.candidates, b, 0));  // unstamped
    RoundObservation obs;
    obs.round = round;  // stamped duplicate of the same round
    obs.total_payment = b.total_payment();
    obs.winners = b.winners;
    doubled.observe(obs);

    ASSERT_EQ(once.budget_backlog(), doubled.budget_backlog())
        << "round " << round;
    for (std::size_t client = 0; client < 10; ++client) {
      ASSERT_EQ(once.sustainability_backlog(client),
                doubled.sustainability_backlog(client))
          << "round " << round << " client " << client;
    }
  }
}

TEST(SettlementTest, AdaptivePriceDoubleReportStepsPriceOnce) {
  // settle() forwards to observe() in the posted-price rule; reporting a
  // round through both must move the price exactly once.
  sfl::auction::AdaptivePriceConfig config;
  sfl::auction::AdaptivePostedPriceMechanism once(config);
  sfl::auction::AdaptivePostedPriceMechanism doubled(config);

  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 3.0, .bid = 0.6, .energy_cost = 1.0}};
  RoundContext ctx;
  ctx.max_winners = 1;
  ctx.per_round_budget = 1.0;

  for (std::size_t round = 0; round < 30; ++round) {
    ctx.round = round;
    const MechanismResult a = once.run_round(candidates, ctx);
    (void)doubled.run_round(candidates, ctx);

    once.settle(settlement_for(candidates, a, round));
    doubled.settle(settlement_for(candidates, a, 0));  // unstamped report
    RoundObservation obs;
    obs.round = round;  // mixed stamp: must still be caught as a duplicate
    obs.total_payment = a.total_payment();
    obs.winners = a.winners;
    doubled.observe(obs);

    ASSERT_EQ(once.current_price(), doubled.current_price())
        << "round " << round;
  }
}

TEST(SettlementTest, SettlementOutsideEnergyTableThrows) {
  LtoVcgConfig config = paced_config();  // clients 0..9
  LongTermOnlineVcgMechanism mech(config);
  RoundSettlement settlement;
  settlement.winners = {WinnerSettlement{.client = 10, .bid = 1.0,
                                         .payment = 1.0, .energy_cost = 1.0,
                                         .dropped = false}};
  settlement.total_payment = 1.0;
  EXPECT_THROW(mech.settle(settlement), std::invalid_argument);
}

TEST(SettlementTest, RejectedSettlementMovesNoQueue) {
  // settle() validates every winner before Q or any Z moves. The bad
  // winner comes second, after a valid one, so a settle that updated as it
  // validated would already have charged Q (0 -> 2) and Z_0 (0 -> 0.9) when
  // it threw, and the corrected retry would apply the round twice.
  LtoVcgConfig config;
  config.v_weight = 5.0;
  config.per_round_budget = 2.5;
  config.energy_rates.assign(4, 0.1);
  LongTermOnlineVcgMechanism mech(config);
  const std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 4.0, .bid = 1.0, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 6.0, .bid = 2.0, .energy_cost = 1.0},
      Candidate{.id = 2, .value = 5.0, .bid = 0.5, .energy_cost = 1.0},
      Candidate{.id = 3, .value = 1.0, .bid = 0.9, .energy_cost = 1.0}};
  RoundContext ctx;
  ctx.max_winners = 2;
  (void)mech.run_round(candidates, ctx);

  const auto settlement_with_cost = [](double second_cost) {
    RoundSettlement settlement;
    settlement.round = 0;
    settlement.total_payment = 4.5;
    settlement.winners = {
        WinnerSettlement{.client = 0, .bid = 1.0, .payment = 2.0,
                         .energy_cost = 1.0, .dropped = false},
        WinnerSettlement{.client = 2, .bid = 0.5, .payment = 2.5,
                         .energy_cost = second_cost, .dropped = false}};
    return settlement;
  };
  const auto expect_untouched = [&](const char* what) {
    EXPECT_EQ(mech.budget_backlog(), 0.0) << what;
    for (std::size_t client = 0; client < 4; ++client) {
      EXPECT_EQ(mech.sustainability_backlog(client), 0.0)
          << what << " client " << client;
    }
  };

  EXPECT_THROW(mech.settle(settlement_with_cost(-1.0)), std::invalid_argument);
  expect_untouched("negative energy cost");
  EXPECT_THROW(mech.settle(settlement_with_cost(std::nan(""))),
               std::invalid_argument);
  expect_untouched("NaN energy cost");
  RoundSettlement out_of_table = settlement_with_cost(1.0);
  out_of_table.winners[1].client = 4;
  EXPECT_THROW(mech.settle(out_of_table), std::invalid_argument);
  expect_untouched("client outside the energy-rate table");
  RoundSettlement negative_payment = settlement_with_cost(1.0);
  negative_payment.total_payment = -1.0;
  EXPECT_THROW(mech.settle(negative_payment), std::invalid_argument);
  expect_untouched("negative total payment");

  // The corrected report applies exactly once.
  mech.settle(settlement_with_cost(1.0));
  EXPECT_DOUBLE_EQ(mech.budget_backlog(), 2.0);  // 4.5 - 2.5
  EXPECT_DOUBLE_EQ(mech.sustainability_backlog(0), 0.9);
  EXPECT_EQ(mech.sustainability_backlog(1), 0.0);
  EXPECT_DOUBLE_EQ(mech.sustainability_backlog(2), 0.9);
  EXPECT_EQ(mech.sustainability_backlog(3), 0.0);
}

TEST(SettlementTest, DefaultSettleRoutesToObserveForLegacyMechanisms) {
  // AdaptivePostedPriceMechanism only implements observe(); the base-class
  // settle() must forward the folded observation, so price dynamics match a
  // hand-driven observe() exactly.
  sfl::auction::AdaptivePriceConfig config;
  sfl::auction::AdaptivePostedPriceMechanism via_settle(config);
  sfl::auction::AdaptivePostedPriceMechanism via_observe(config);

  std::vector<Candidate> candidates{
      Candidate{.id = 0, .value = 3.0, .bid = 0.6, .energy_cost = 1.0},
      Candidate{.id = 1, .value = 2.0, .bid = 0.9, .energy_cost = 1.0}};
  RoundContext ctx;
  ctx.max_winners = 2;
  ctx.per_round_budget = 1.0;

  for (std::size_t round = 0; round < 50; ++round) {
    ctx.round = round;
    const MechanismResult a = via_settle.run_round(candidates, ctx);
    const MechanismResult b = via_observe.run_round(candidates, ctx);
    ASSERT_EQ(a.winners, b.winners);

    via_settle.settle(settlement_for(candidates, a, round));
    RoundObservation obs;
    obs.round = round;
    obs.total_payment = b.total_payment();
    obs.winners = b.winners;
    via_observe.observe(obs);
    ASSERT_EQ(via_settle.current_price(), via_observe.current_price())
        << "round " << round;
  }
}

}  // namespace
}  // namespace sfl::core
