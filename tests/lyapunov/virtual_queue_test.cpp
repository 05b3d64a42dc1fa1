#include "lyapunov/virtual_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace sfl::lyapunov {
namespace {

TEST(VirtualQueueTest, UpdateFollowsLindleyRecursion) {
  VirtualQueue q(2.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 0.0);
  q.update(5.0);  // max(0 + 5 - 2, 0) = 3
  EXPECT_DOUBLE_EQ(q.backlog(), 3.0);
  q.update(0.0);  // max(3 - 2, 0) = 1
  EXPECT_DOUBLE_EQ(q.backlog(), 1.0);
  q.update(0.0);  // max(1 - 2, 0) = 0
  EXPECT_DOUBLE_EQ(q.backlog(), 0.0);
  EXPECT_EQ(q.updates(), 3u);
}

TEST(VirtualQueueTest, InitialBacklogAndReset) {
  VirtualQueue q(1.0, 4.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 4.0);
  q.update(0.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 3.0);
  q.reset();
  EXPECT_DOUBLE_EQ(q.backlog(), 0.0);
  EXPECT_EQ(q.updates(), 0u);
  EXPECT_DOUBLE_EQ(q.average_backlog(), 0.0);
}

TEST(VirtualQueueTest, Validation) {
  EXPECT_THROW(VirtualQueue(-1.0), std::invalid_argument);
  EXPECT_THROW(VirtualQueue(1.0, -0.5), std::invalid_argument);
  VirtualQueue q(1.0);
  EXPECT_THROW(q.update(-0.1), std::invalid_argument);
}

TEST(VirtualQueueTest, StableWhenArrivalsBelowService) {
  // Arrivals ~ U[0, 1.6] with service 1.0: queue is stable, so the
  // normalized backlog Q(t)/t must vanish.
  sfl::util::Rng rng(1);
  VirtualQueue q(1.0);
  for (int t = 0; t < 20000; ++t) {
    q.update(rng.uniform(0.0, 1.6));
  }
  EXPECT_LT(q.normalized_backlog(), 0.01);
  EXPECT_LT(q.average_backlog(), 50.0);
}

TEST(VirtualQueueTest, GrowsLinearlyWhenOverloaded) {
  // Constant arrival 2.0 against service 1.0: backlog = t exactly.
  VirtualQueue q(1.0);
  for (int t = 0; t < 1000; ++t) q.update(2.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 1000.0);
  EXPECT_NEAR(q.normalized_backlog(), 1.0, 1e-12);
}

TEST(VirtualQueueTest, AverageBacklogTracksHistory) {
  VirtualQueue q(0.0);
  q.update(1.0);  // backlog 1
  q.update(1.0);  // backlog 2
  q.update(1.0);  // backlog 3
  EXPECT_DOUBLE_EQ(q.average_backlog(), 2.0);
}

using Ids = std::vector<std::size_t>;
using Values = std::vector<double>;

TEST(QueueBankTest, IndependentPerClientQueues) {
  QueueBank bank(Values{1.0, 2.0});
  EXPECT_EQ(bank.size(), 2u);
  bank.update_sparse(Ids{0, 1}, Values{3.0, 3.0});
  EXPECT_DOUBLE_EQ(bank.backlog(0), 2.0);
  EXPECT_DOUBLE_EQ(bank.backlog(1), 1.0);
  // A round that charges only queue 1 still serves queue 0.
  bank.update_sparse(Ids{1}, Values{4.0});
  EXPECT_DOUBLE_EQ(bank.backlog(0), 1.0);
  EXPECT_DOUBLE_EQ(bank.backlog(1), 3.0);
  // Repeated ids add up within the round.
  bank.update_sparse(Ids{0, 0}, Values{1.5, 0.5});
  EXPECT_DOUBLE_EQ(bank.backlog(0), 2.0);
  EXPECT_DOUBLE_EQ(bank.backlog(1), 1.0);
}

TEST(QueueBankTest, Validation) {
  EXPECT_THROW(QueueBank(Values{}), std::invalid_argument);
  EXPECT_THROW(QueueBank(Values{1.0, -0.5}), std::invalid_argument);
  QueueBank bank(Values{1.0, 0.5});
  bank.update_sparse(Ids{0, 1}, Values{4.0, 2.0});  // backlogs 3.0, 1.5
  EXPECT_THROW(bank.update_sparse(Ids{0}, Values{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(bank.update_sparse(Ids{0, 2}, Values{1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(bank.update_sparse(Ids{0, 1}, Values{1.0, -0.1}),
               std::invalid_argument);
  EXPECT_THROW(
      bank.update_sparse(Ids{0, 1}, Values{1.0, std::nan("")}),
      std::invalid_argument);
  EXPECT_THROW((void)bank.backlog(2), std::out_of_range);
  // A rejected round moves no queue and stages nothing: the next round sees
  // only its own arrivals.
  EXPECT_DOUBLE_EQ(bank.backlog(0), 3.0);
  EXPECT_DOUBLE_EQ(bank.backlog(1), 1.5);
  bank.update_sparse(Ids{}, Values{});
  EXPECT_DOUBLE_EQ(bank.backlog(0), 2.0);
  EXPECT_DOUBLE_EQ(bank.backlog(1), 1.0);
}

TEST(QueueBankTest, PacesToServiceRates) {
  // A queue bank with rates {0.2, 0.8} driven by a threshold controller
  // (send a unit arrival whenever the backlog is at most one arrival) keeps
  // every queue bounded, so the long-run arrival rate equals the service
  // rate — exactly the pacing argument the Z_i sustainability queues use.
  QueueBank bank(Values{0.2, 0.8});
  int wins0 = 0;
  int wins1 = 0;
  double max_backlog = 0.0;
  const int rounds = 5000;
  Ids ids;
  const Values unit{1.0, 1.0};
  for (int t = 0; t < rounds; ++t) {
    ids.clear();
    if (bank.backlog(0) <= 1.0 + 1e-9) {
      ids.push_back(0);
      ++wins0;
    }
    if (bank.backlog(1) <= 1.0 + 1e-9) {
      ids.push_back(1);
      ++wins1;
    }
    bank.update_sparse(ids, std::span(unit).first(ids.size()));
    max_backlog = std::max({max_backlog, bank.backlog(0), bank.backlog(1)});
  }
  EXPECT_NEAR(wins0 / static_cast<double>(rounds), 0.2, 0.02);
  EXPECT_NEAR(wins1 / static_cast<double>(rounds), 0.8, 0.02);
  // Boundedness: the controller never let either backlog run away.
  EXPECT_LT(max_backlog, 3.0);
}

TEST(QueueBankTest, SparseUpdatesMatchIndependentQueuesBitForBit) {
  // The flat bank against one VirtualQueue per client fed the dense
  // per-round arrival sums: random sparse rounds with repeated ids, empty
  // rounds, zero arrivals and zero service rates must leave every backlog
  // bit-identical, round after round.
  constexpr std::size_t kQueues = 64;
  sfl::util::Rng rng(2718);
  Values rates(kQueues);
  for (std::size_t i = 0; i < kQueues; ++i) {
    rates[i] = i % 5 == 0 ? 0.0 : rng.uniform(0.0, 0.6);
  }
  QueueBank bank(rates);
  std::vector<VirtualQueue> reference;
  for (const double rate : rates) reference.emplace_back(rate);

  Ids ids;
  Values arrivals;
  Values dense(kQueues);
  for (int round = 0; round < 1000; ++round) {
    ids.clear();
    arrivals.clear();
    const std::size_t count = rng.uniform_index(12);  // 0..11 entries
    for (std::size_t k = 0; k < count; ++k) {
      // Every third draw lands in the first four ids, so repeats within a
      // round are common.
      ids.push_back(rng.uniform_index(k % 3 == 0 ? 4 : kQueues));
      arrivals.push_back(rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 2.0));
    }
    std::fill(dense.begin(), dense.end(), 0.0);
    for (std::size_t k = 0; k < count; ++k) dense[ids[k]] += arrivals[k];
    for (std::size_t i = 0; i < kQueues; ++i) reference[i].update(dense[i]);
    bank.update_sparse(ids, arrivals);
    for (std::size_t i = 0; i < kQueues; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(bank.backlog(i)),
                std::bit_cast<std::uint64_t>(reference[i].backlog()))
          << "round " << round << " queue " << i;
    }
  }
}

TEST(QueueBankTest, GatherScalesBacklogsAndRejectsBeforeWriting) {
  QueueBank bank(Values{0.5, 0.0, 1.0});
  bank.update_sparse(Ids{0, 1, 2}, Values{2.5, 1.0, 0.5});  // 2.0, 1.0, 0.0
  Values out{9.0};
  bank.scaled_backlogs_into(Ids{2, 0, 1, 0}, Values{3.0, 2.0, 0.5, 1.0}, out);
  EXPECT_EQ(out, (Values{0.0, 4.0, 0.5, 2.0}));
  bank.scaled_backlogs_into(Ids{}, Values{}, out);
  EXPECT_TRUE(out.empty());

  // The out-of-range id comes after a valid one: the gather must reject
  // the slate before writing (or resizing) anything.
  Values untouched{7.0, 8.0, 9.0};
  EXPECT_THROW(
      bank.scaled_backlogs_into(Ids{0, 3}, Values{1.0, 1.0}, untouched),
      std::invalid_argument);
  EXPECT_EQ(untouched, (Values{7.0, 8.0, 9.0}));
  EXPECT_THROW(bank.scaled_backlogs_into(Ids{0, 1}, Values{1.0}, untouched),
               std::invalid_argument);
  EXPECT_EQ(untouched, (Values{7.0, 8.0, 9.0}));
}

}  // namespace
}  // namespace sfl::lyapunov
