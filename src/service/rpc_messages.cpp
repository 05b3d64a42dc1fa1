#include "service/rpc_messages.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "dist/wire_format.h"

namespace sfl::service {

namespace {

using sfl::dist::FrameType;
using sfl::dist::wire::begin_frame;
using sfl::dist::wire::checked_payload;
using sfl::dist::wire::Cursor;
using sfl::dist::wire::finish_frame;
using sfl::dist::wire::put_f64;
using sfl::dist::wire::put_u64;

void require_finite_nonnegative(double v, const char* what) {
  if (!std::isfinite(v) || v < 0.0) {
    throw WireError(std::string("wire: ") + what +
                    " must be finite and non-negative");
  }
}

/// Rejects duplicate keys in O(n log n) — a checksummed hostile frame can
/// carry the maximum row count, so the scan must not be quadratic.
void require_unique(std::vector<std::pair<std::uint64_t, std::uint64_t>>& keys,
                    const char* what) {
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    throw WireError(std::string("wire: duplicate ") + what);
  }
}

}  // namespace

void encode(const SubmitBids& message, Frame& out) {
  begin_frame(out);
  put_u64(out, message.client);
  put_u64(out, message.row_count());
  for (const std::uint64_t m : message.markets) put_u64(out, m);
  for (const std::uint64_t r : message.rounds) put_u64(out, r);
  for (const double v : message.values) put_f64(out, v);
  for (const double b : message.bids) put_f64(out, b);
  for (const double e : message.energy_costs) put_f64(out, e);
  finish_frame(out, FrameType::kSubmitBids);
}

void encode(const RoundResult& message, Frame& out) {
  begin_frame(out);
  put_u64(out, message.market);
  put_u64(out, message.round);
  put_u64(out, message.winners.size());
  for (const std::uint64_t w : message.winners) put_u64(out, w);
  for (const double p : message.payments) put_f64(out, p);
  finish_frame(out, FrameType::kRoundResult);
}

void encode(const SettlementAck& message, Frame& out) {
  begin_frame(out);
  put_u64(out, message.market);
  put_u64(out, message.round);
  put_f64(out, message.total_payment);
  put_u64(out, message.winner_count);
  finish_frame(out, FrameType::kSettlementAck);
}

void decode(std::span<const std::byte> frame, SubmitBids& out) {
  const auto [type, payload] = checked_payload(frame);
  if (type != FrameType::kSubmitBids) {
    throw WireError("wire: expected a SubmitBids frame");
  }
  Cursor cursor(payload);
  out.client = cursor.u64();
  const std::uint64_t rows = cursor.u64();
  if (rows > kMaxBidsPerSubmit) {
    throw WireError("wire: bid slate exceeds row limit");
  }
  cursor.u64_array(out.markets, rows);
  cursor.u64_array(out.rounds, rows);
  cursor.f64_array(out.values, rows);
  cursor.f64_array(out.bids, rows);
  cursor.f64_array(out.energy_costs, rows);
  cursor.expect_exhausted();

  // Semantic validation mirrors CandidateBatch construction: the server
  // inserts decoded rows straight into per-market arenas, so anything the
  // batch would reject is rejected HERE, at the trust boundary.
  for (std::size_t i = 0; i < rows; ++i) {
    require_finite_nonnegative(out.values[i], "bid value");
    require_finite_nonnegative(out.bids[i], "bid price");
    if (!std::isfinite(out.energy_costs[i]) || out.energy_costs[i] <= 0.0) {
      throw WireError("wire: energy cost must be finite and positive");
    }
  }
  // A single row is unique by itself: the common one-bid frame decodes
  // without allocating.
  if (rows < 2) return;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
  keys.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    keys.emplace_back(out.markets[i], out.rounds[i]);
  }
  require_unique(keys, "(market, round) bid row");
}

void decode(std::span<const std::byte> frame, RoundResult& out) {
  const auto [type, payload] = checked_payload(frame);
  if (type != FrameType::kRoundResult) {
    throw WireError("wire: expected a RoundResult frame");
  }
  Cursor cursor(payload);
  out.market = cursor.u64();
  out.round = cursor.u64();
  const std::uint64_t winners = cursor.u64();
  if (winners > kMaxWinnersPerResult) {
    throw WireError("wire: winner count exceeds limit");
  }
  cursor.u64_array(out.winners, winners);
  cursor.f64_array(out.payments, winners);
  cursor.expect_exhausted();

  for (const double p : out.payments) {
    require_finite_nonnegative(p, "payment");
  }
  if (winners < 2) return;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
  keys.reserve(winners);
  for (const std::uint64_t w : out.winners) keys.emplace_back(w, 0);
  require_unique(keys, "winner client");
}

void encode(const ServerHello& message, Frame& out) {
  begin_frame(out);
  put_u64(out, message.bids_per_round);
  put_u64(out, message.max_winners);
  put_u64(out, message.max_pending_rounds);
  put_u64(out, message.mechanism.size());
  for (const char c : message.mechanism) {
    out.push_back(static_cast<std::byte>(c));
  }
  finish_frame(out, FrameType::kServerHello);
}

void decode(std::span<const std::byte> frame, ServerHello& out) {
  const auto [type, payload] = checked_payload(frame);
  if (type != FrameType::kServerHello) {
    throw WireError("wire: expected a ServerHello frame");
  }
  Cursor cursor(payload);
  out.bids_per_round = cursor.u64();
  out.max_winners = cursor.u64();
  out.max_pending_rounds = cursor.u64();
  const std::uint64_t key_len = cursor.u64();
  if (key_len > kMaxMechanismKeyBytes) {
    throw WireError("wire: mechanism key exceeds length limit");
  }
  out.mechanism.clear();
  out.mechanism.reserve(key_len);
  for (std::uint64_t i = 0; i < key_len; ++i) {
    const std::uint8_t c = cursor.u8();
    // Registry keys are printable ASCII; anything else is corruption.
    if (c < 0x20 || c > 0x7E) {
      throw WireError("wire: mechanism key must be printable ASCII");
    }
    out.mechanism.push_back(static_cast<char>(c));
  }
  cursor.expect_exhausted();
}

void decode(std::span<const std::byte> frame, SettlementAck& out) {
  const auto [type, payload] = checked_payload(frame);
  if (type != FrameType::kSettlementAck) {
    throw WireError("wire: expected a SettlementAck frame");
  }
  Cursor cursor(payload);
  out.market = cursor.u64();
  out.round = cursor.u64();
  out.total_payment = cursor.f64();
  out.winner_count = cursor.u64();
  cursor.expect_exhausted();
  require_finite_nonnegative(out.total_payment, "settled total payment");
}

}  // namespace sfl::service
