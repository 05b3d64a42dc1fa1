#include "lyapunov/virtual_queue.h"

#include <algorithm>

namespace sfl::lyapunov {

using sfl::util::checked_index;
using sfl::util::require;

VirtualQueue::VirtualQueue(double service_rate, double initial_backlog)
    : service_rate_(service_rate), backlog_(initial_backlog) {
  require(service_rate >= 0.0, "service rate must be >= 0");
  require(initial_backlog >= 0.0, "initial backlog must be >= 0");
}

void VirtualQueue::update(double arrival) {
  update_with_service(arrival, service_rate_);
}

void VirtualQueue::update_with_service(double arrival, double service) {
  require(arrival >= 0.0, "queue arrivals must be >= 0");
  require(service >= 0.0, "queue service must be >= 0");
  backlog_ = std::max(backlog_ + arrival - service, 0.0);
  backlog_sum_ += backlog_;
  ++updates_;
}

double VirtualQueue::average_backlog() const noexcept {
  return updates_ > 0 ? backlog_sum_ / static_cast<double>(updates_) : 0.0;
}

double VirtualQueue::normalized_backlog() const noexcept {
  return updates_ > 0 ? backlog_ / static_cast<double>(updates_) : 0.0;
}

void VirtualQueue::reset(double initial_backlog) {
  require(initial_backlog >= 0.0, "initial backlog must be >= 0");
  backlog_ = initial_backlog;
  backlog_sum_ = 0.0;
  updates_ = 0;
}

QueueBank::QueueBank(const std::vector<double>& service_rates)
    : backlog_(service_rates.size(), 0.0),
      rate_(service_rates),
      arrivals_(service_rates.size(), 0.0) {
  require(!service_rates.empty(), "queue bank needs at least one queue");
  for (const double rate : service_rates) {
    require(rate >= 0.0, "service rate must be >= 0");
  }
}

double QueueBank::backlog(std::size_t index) const {
  return backlog_[checked_index(index, backlog_.size(), "queue bank")];
}

void QueueBank::scaled_backlogs_into(std::span<const std::size_t> ids,
                                     std::span<const double> scales,
                                     std::vector<double>& out) const {
  require(scales.size() == ids.size(), "one scale per gathered id required");
  const std::size_t n = backlog_.size();
  bool in_range = true;
  for (const std::size_t id : ids) in_range &= id < n;
  require(in_range, "gathered id outside the queue bank");
  out.resize(ids.size());
  const double* z = backlog_.data();
  for (std::size_t k = 0; k < ids.size(); ++k) out[k] = z[ids[k]] * scales[k];
}

void QueueBank::update_sparse(std::span<const std::size_t> ids,
                              std::span<const double> arrivals) {
  require(arrivals.size() == ids.size(), "one arrival per id required");
  const std::size_t n = backlog_.size();
  bool in_range = true;
  bool non_negative = true;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    in_range &= ids[k] < n;
    non_negative &= arrivals[k] >= 0.0;  // false for NaN
  }
  require(in_range, "arrival id outside the queue bank");
  require(non_negative, "queue arrivals must be >= 0");

  double* a = arrivals_.data();
  for (std::size_t k = 0; k < ids.size(); ++k) a[ids[k]] += arrivals[k];
  // (z + a) - r exactly as VirtualQueue::update_with_service groups it: a
  // reassociated form rounds differently and moves the payments.
  double* z = backlog_.data();
  const double* r = rate_.data();
  for (std::size_t i = 0; i < n; ++i) z[i] = std::max((z[i] + a[i]) - r[i], 0.0);
  for (const std::size_t id : ids) a[id] = 0.0;
}

}  // namespace sfl::lyapunov
