// Lyapunov virtual queues for long-term constraints.
//
// A long-term average constraint  lim (1/K) sum_t a(t) <= s  is handled by
// the virtual queue  Q(t+1) = max(Q(t) + a(t) - s, 0).  Queue stability
// (Q(t)/t -> 0) implies the constraint holds; the drift-plus-penalty method
// trades queue growth against per-round objective via the V parameter.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/require.h"

namespace sfl::lyapunov {

class VirtualQueue {
 public:
  /// `service_rate` is the per-round long-term allowance (s above); >= 0.
  explicit VirtualQueue(double service_rate, double initial_backlog = 0.0);

  /// Q <- max(Q + arrival - service_rate, 0). `arrival` >= 0.
  void update(double arrival);

  /// Q <- max(Q + arrival - service, 0) with a round-specific service
  /// allowance (time-varying constraints, e.g. seasonal budgets).
  void update_with_service(double arrival, double service);

  [[nodiscard]] double backlog() const noexcept { return backlog_; }
  [[nodiscard]] double service_rate() const noexcept { return service_rate_; }
  [[nodiscard]] std::size_t updates() const noexcept { return updates_; }

  /// Time-average backlog over all updates so far (0 before any update);
  /// a bounded value as t grows certifies stability.
  [[nodiscard]] double average_backlog() const noexcept;

  /// Backlog divided by rounds elapsed — the constraint-violation bound
  /// certificate (Q(t)/t >= average violation up to t).
  [[nodiscard]] double normalized_backlog() const noexcept;

  void reset(double initial_backlog = 0.0);

 private:
  double service_rate_;
  double backlog_;
  double backlog_sum_ = 0.0;
  std::size_t updates_ = 0;
};

/// A bank of per-client virtual queues (the Z_i sustainability queues),
/// stored flat: one backlog[] and one rate[] array indexed by queue id, so a
/// round's work over the bank is one gather (the penalties) and one pass
/// (the update) rather than a call per queue. The bank keeps no per-queue
/// statistics; VirtualQueue does, for the single budget queue.
///
/// Validation: every entry point checks all of its ids (and arrivals) in one
/// pass before it writes anything, so a call that throws leaves the bank and
/// the caller's output buffer exactly as they were. The inner loops then
/// index the raw arrays without per-element checks.
class QueueBank {
 public:
  /// One queue per entry with the given per-round service rates (>= 0),
  /// every backlog starting at 0.
  explicit QueueBank(const std::vector<double>& service_rates);

  [[nodiscard]] std::size_t size() const noexcept { return backlog_.size(); }

  /// Backlog of queue `index` (std::out_of_range when index >= size()).
  [[nodiscard]] double backlog(std::size_t index) const;

  /// Gathers out[k] = backlog(ids[k]) * scales[k] for every k (`out` is
  /// resized to ids.size()). One scale per id; any id >= size() throws
  /// std::invalid_argument before `out` is touched.
  void scaled_backlogs_into(std::span<const std::size_t> ids,
                            std::span<const double> scales,
                            std::vector<double>& out) const;

  /// One round for every queue: z_i <- max((z_i + a_i) - r_i, 0), where a_i
  /// sums arrivals[k] over the k with ids[k] == i, in k order (0 for a queue
  /// without an entry). Ids may repeat. Every id must be < size() and every
  /// arrival >= 0 (NaN is rejected); both are checked before any queue
  /// moves.
  void update_sparse(std::span<const std::size_t> ids,
                     std::span<const double> arrivals);

 private:
  std::vector<double> backlog_;
  std::vector<double> rate_;
  /// Per-queue arrival accumulator for update_sparse: all zero between
  /// calls, so a round writes (and re-zeroes) only the entries it touches.
  std::vector<double> arrivals_;
};

}  // namespace sfl::lyapunov
