#include "service/auction_service.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.h"

namespace sfl::service {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// poll_once ticks the listen fd sits out after EMFILE/ENFILE (~1 s at the
/// default 20 ms poll timeout) — long enough for fds to be released,
/// short enough that recovery is prompt.
constexpr int kAcceptCooldownTicks = 50;

/// Smallest bucket index table: 16 slots fill one cache line.
constexpr std::size_t kMinIndexSlots = 16;

/// Spreads sequential client ids over the bucket index.
std::uint64_t mix_client_id(std::uint64_t client) noexcept {
  return sfl::util::splitmix64(client);
}

}  // namespace

AuctionService::AuctionService(AuctionServiceConfig config)
    : config_(std::move(config)) {
  // Fail unknown mechanism keys at construction, not at the first bid —
  // and before any fd exists, so the throw cannot leak a socket.
  (void)build_market_mechanism(config_.engine);
  // A bucket's index stores row positions in 32 bits.
  if (config_.engine.bids_per_round >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("AuctionService: bids_per_round too large");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind(127.0.0.1:" +
                             std::to_string(config_.port) + "): " + why);
  }
  if (::listen(listen_fd_, 64) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen(): " + why);
  }
  set_nonblocking(listen_fd_);
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  // The config echo every connection receives first: encoded once, the
  // round-geometry knobs a client must match for rounds to ever clear.
  ServerHello hello;
  hello.bids_per_round = config_.engine.bids_per_round;
  hello.max_winners = config_.engine.max_winners;
  hello.max_pending_rounds = config_.max_pending_rounds;
  hello.mechanism = config_.engine.mechanism;
  encode(hello, hello_frame_);
}

AuctionService::~AuctionService() { stop(); }

void AuctionService::start() {
  if (thread_.joinable()) return;
  if (listen_fd_ < 0) {
    throw std::runtime_error(
        "AuctionService: cannot restart after stop() (socket closed)");
  }
  stopping_.store(false);
  thread_ = std::thread([this] { run(); });
}

void AuctionService::stop() {
  stopping_.store(true);
  if (thread_.joinable()) thread_.join();
  for (auto& [id, conn] : connections_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void AuctionService::run() {
  while (!stopping_.load()) {
    poll_once(config_.poll_timeout_ms);
  }
}

ServiceStats AuctionService::stats() const noexcept {
  ServiceStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_dropped = connections_dropped_.load();
  s.protocol_errors = protocol_errors_.load();
  s.frames_received = frames_received_.load();
  s.bids_received = bids_received_.load();
  s.rounds_cleared = rounds_cleared_.load();
  return s;
}

void AuctionService::poll_once(int timeout_ms) {
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> ids;
  pfds.reserve(connections_.size() + 1);
  ids.reserve(connections_.size() + 1);
  // While cooling down after fd exhaustion the listen fd stays in the set
  // but asks for no events: accept() would only fail again, and a
  // perpetually POLLIN-ready queue would turn the loop into a busy spin.
  short listen_events = POLLIN;
  if (accept_cooldown_ticks_ > 0) {
    --accept_cooldown_ticks_;
    listen_events = 0;
  }
  pfds.push_back(
      pollfd{.fd = listen_fd_, .events = listen_events, .revents = 0});
  ids.push_back(0);  // never a connection id
  for (auto& [id, conn] : connections_) {
    short events = POLLIN;
    if (conn.out_offset < conn.out.size()) events |= POLLOUT;
    pfds.push_back(pollfd{.fd = conn.fd, .events = events, .revents = 0});
    ids.push_back(id);
  }

  const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (ready <= 0) return;

  if ((pfds[0].revents & POLLIN) != 0) accept_ready();
  for (std::size_t i = 1; i < pfds.size(); ++i) {
    const auto it = connections_.find(ids[i]);
    if (it == connections_.end() || it->second.dead) continue;
    Connection& conn = it->second;
    if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      read_ready(conn);
    }
    if (!conn.dead && (pfds[i].revents & POLLOUT) != 0) {
      flush_writes(conn);
    }
  }
  clear_tick_markets();
  reap_dead_connections();
}

void AuctionService::accept_ready() {
  // Drain the accept queue; the listen socket is non-blocking.
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds/buffers: nothing we can accept until something closes,
        // so stop watching the listen fd for a while instead of spinning.
        accept_cooldown_ticks_ = kAcceptCooldownTicks;
      }
      return;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection conn;
    conn.id = next_connection_id_++;
    conn.fd = fd;
    conn.assembler = FrameAssembler(config_.max_frame_bytes);
    const std::uint64_t id = conn.id;
    const auto [it, inserted] = connections_.emplace(id, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // Knob-mismatch fail-fast: the config echo is the FIRST frame on every
    // connection, so a client expecting a different round geometry learns
    // it immediately instead of hanging on rounds that never clear.
    queue_frame(it->second, hello_frame_);
  }
}

void AuctionService::read_ready(Connection& conn) {
  std::byte buffer[4096];
  // Bounded per-tick read budget so one firehose client cannot starve the
  // rest of the poll cycle.
  for (int chunk = 0; chunk < 16 && !conn.dead; ++chunk) {
    const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (got == 0) {
      // EOF — also the mid-frame-disconnect case: whatever partial frame
      // the assembler holds is simply discarded with the connection.
      drop_connection(conn, /*protocol_error=*/false);
      return;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      drop_connection(conn, /*protocol_error=*/false);
      return;
    }
    if (!conn.assembler.feed(
            std::span<const std::byte>(buffer, static_cast<std::size_t>(got)))) {
      drop_connection(conn, /*protocol_error=*/true);
      return;
    }
    while (!conn.dead && conn.assembler.next_frame(frame_scratch_)) {
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      if (!handle_frame(conn, frame_scratch_)) {
        drop_connection(conn, /*protocol_error=*/true);
        return;
      }
    }
    if (conn.assembler.condemned()) {
      drop_connection(conn, /*protocol_error=*/true);
      return;
    }
  }
}

bool AuctionService::handle_frame(Connection& conn, const Frame& frame) {
  // Clients may only ever send bid slates; any other (even well-formed)
  // frame type on a client connection is a protocol violation.
  try {
    decode(frame, submit_scratch_);
  } catch (const WireError&) {
    return false;
  }
  // Transactional slate application: every row is validated against the
  // pre-frame state first, so a rejected frame (false return, connection
  // dropped) leaves no partial rows behind in any bucket, and clearing
  // only runs once the whole slate is in. The whole slate carries one
  // client id, and decode already rejected a slate naming one (market,
  // round) twice, so no two rows of a slate can land in the same bucket.
  frame_new_markets_.clear();
  frame_row_accepted_.assign(submit_scratch_.row_count(), 0);
  for (std::size_t i = 0; i < submit_scratch_.row_count(); ++i) {
    const std::uint64_t market_id = submit_scratch_.markets[i];
    const std::uint64_t round = submit_scratch_.rounds[i];
    switch (validate_bid(market_id, round, submit_scratch_.client)) {
      case BidDisposition::kViolation:
        return false;
      case BidDisposition::kIgnore:
        // Benign race lost (full bucket / market cap): an honest client
        // cannot foresee these, so the row is skipped, never punished.
        break;
      case BidDisposition::kAccept:
        frame_row_accepted_[i] = 1;
        if (markets_.find(market_id) == markets_.end()) {
          bool known = false;
          for (const std::uint64_t m : frame_new_markets_) {
            if (m == market_id) known = true;
          }
          if (!known) frame_new_markets_.push_back(market_id);
        }
        break;
    }
  }
  for (std::size_t i = 0; i < submit_scratch_.row_count(); ++i) {
    if (frame_row_accepted_[i] == 0) continue;
    BidRow row;
    row.client = submit_scratch_.client;
    row.value = submit_scratch_.values[i];
    row.bid = submit_scratch_.bids[i];
    row.energy_cost = submit_scratch_.energy_costs[i];
    apply_bid(conn, submit_scratch_.markets[i], submit_scratch_.rounds[i],
              row);
    bids_received_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

AuctionService::BidDisposition AuctionService::validate_bid(
    std::uint64_t market_id, std::uint64_t round, std::uint64_t client) const {
  const auto market_it = markets_.find(market_id);
  if (market_it == markets_.end()) {
    bool created_by_frame = false;
    for (const std::uint64_t m : frame_new_markets_) {
      if (m == market_id) created_by_frame = true;
    }
    if (!created_by_frame &&
        markets_.size() + frame_new_markets_.size() >= config_.max_markets) {
      // Market cap: a race against other clients, not misbehavior.
      return BidDisposition::kIgnore;
    }
    // A market that does not exist yet starts at round 0.
    if (round >= config_.max_pending_rounds) return BidDisposition::kViolation;
    return BidDisposition::kAccept;
  }
  const MarketState& market = market_it->second;

  // Stale (already-cleared) rounds and rounds beyond the pending window are
  // violations: they can never clear correctly, and the window bound is
  // what keeps a hostile round pattern from growing server state without
  // limit.
  if (round < market.next_round) return BidDisposition::kViolation;
  if (round >= market.next_round + config_.max_pending_rounds) {
    return BidDisposition::kViolation;
  }

  const auto bucket_it = market.pending.find(round);
  if (bucket_it != market.pending.end()) {
    const Bucket& bucket = bucket_it->second;
    if (bucket.rows.size() >= config_.engine.bids_per_round) {
      // Full but not yet clearable (an earlier round is still open): the
      // bid lost a race it could not observe.
      return BidDisposition::kIgnore;
    }
    if (bucket.has_client(client)) {
      return BidDisposition::kViolation;  // one bid per client per round
    }
  }
  return BidDisposition::kAccept;
}

void AuctionService::apply_bid(const Connection& conn, std::uint64_t market_id,
                               std::uint64_t round, const BidRow& row) {
  auto market_it = markets_.find(market_id);
  if (market_it == markets_.end()) {
    MarketState market;
    market.mechanism = build_market_mechanism(config_.engine);
    market_it = markets_.emplace(market_id, std::move(market)).first;
  }
  market_it->second.pending[round].add(row, conn.id);
  // Clearing is deferred to the end of the poll tick (clear_tick_markets):
  // every market touched by ANY frame this tick clears through one
  // mega-batch engine pass instead of one pass per frame.
  tick_ready_markets_.push_back(market_id);
}

bool AuctionService::Bucket::has_client(std::uint64_t client) const noexcept {
  if (client_index.empty()) return false;
  const std::size_t mask = client_index.size() - 1;
  // Terminates: the load factor is at most 1/2, so an empty slot exists.
  for (std::size_t slot = mix_client_id(client) & mask;;
       slot = (slot + 1) & mask) {
    const std::uint32_t entry = client_index[slot];
    if (entry == 0) return false;
    if (rows[entry - 1].client == client) return true;
  }
}

void AuctionService::Bucket::add(const BidRow& row, std::uint64_t owner) {
  rows.push_back(row);
  row_owners.push_back(owner);
  if (contributor_ids.empty() || contributor_ids.back() != owner) {
    contributor_ids.push_back(owner);
  }
  if (2 * rows.size() > client_index.size()) {
    rebuild_index();  // doubles the table, indexing the new row too
  } else {
    index_row(rows.size() - 1);
  }
}

void AuctionService::Bucket::purge(std::uint64_t owner) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (row_owners[i] == owner) continue;
    rows[kept] = rows[i];
    row_owners[kept] = row_owners[i];
    ++kept;
  }
  if (kept == rows.size()) return;
  rows.resize(kept);
  row_owners.resize(kept);
  std::erase(contributor_ids, owner);
  rebuild_index();
}

void AuctionService::Bucket::rebuild_index() {
  const std::size_t slots =
      std::bit_ceil(std::max(kMinIndexSlots, 2 * rows.size()));
  client_index.assign(slots, 0);
  for (std::size_t i = 0; i < rows.size(); ++i) index_row(i);
}

void AuctionService::Bucket::index_row(std::size_t i) {
  const std::size_t mask = client_index.size() - 1;
  std::size_t slot = mix_client_id(rows[i].client) & mask;
  while (client_index[slot] != 0) slot = (slot + 1) & mask;
  client_index[slot] = static_cast<std::uint32_t>(i + 1);
}

void AuctionService::clear_tick_markets() {
  // Strict round order per market, one mega-batch engine pass per
  // iteration: each touched market contributes at most its next_round (when
  // that bucket is full) to a clear_market_rounds batch of DISTINCT
  // markets; a cleared round that unblocks an already-full successor
  // re-queues its market for the next iteration.
  while (!tick_ready_markets_.empty()) {
    std::sort(tick_ready_markets_.begin(), tick_ready_markets_.end());
    tick_ready_markets_.erase(
        std::unique(tick_ready_markets_.begin(), tick_ready_markets_.end()),
        tick_ready_markets_.end());

    batch_buckets_.clear();
    batch_market_ids_.clear();
    for (const std::uint64_t market_id : tick_ready_markets_) {
      const auto market_it = markets_.find(market_id);
      if (market_it == markets_.end()) continue;
      MarketState& market = market_it->second;
      // Fullness is re-checked at clear time: a connection dropped later in
      // the tick may have purged rows from a bucket that was full when its
      // frame arrived.
      const auto bucket_it = market.pending.find(market.next_round);
      if (bucket_it == market.pending.end() ||
          bucket_it->second.rows.size() < config_.engine.bids_per_round) {
        continue;
      }
      batch_buckets_.push_back(std::move(bucket_it->second));
      market.pending.erase(bucket_it);
      batch_market_ids_.push_back(market_id);
    }
    tick_ready_markets_.clear();
    if (batch_buckets_.empty()) return;

    // Requests are built only after batch_buckets_ stops growing — its
    // reallocation would invalidate the row pointers.
    batch_requests_.clear();
    for (std::size_t j = 0; j < batch_buckets_.size(); ++j) {
      MarketState& market = markets_.find(batch_market_ids_[j])->second;
      batch_requests_.push_back(
          MarketRoundRequest{.mechanism = market.mechanism.get(),
                             .round = market.next_round,
                             .rows = &batch_buckets_[j].rows,
                             .batch = &market.batch,
                             .result = &market.result});
    }
    clear_market_rounds(clearer_, batch_requests_, config_.engine);

    for (std::size_t j = 0; j < batch_buckets_.size(); ++j) {
      const std::uint64_t market_id = batch_market_ids_[j];
      MarketState& market = markets_.find(market_id)->second;
      const std::uint64_t round = market.next_round;
      market.next_round = round + 1;
      rounds_cleared_.fetch_add(1, std::memory_order_relaxed);

      result_scratch_.market = market_id;
      result_scratch_.round = round;
      result_scratch_.winners = market.result.winners;
      result_scratch_.payments = market.result.payments;

      SettlementAck ack;
      ack.market = market_id;
      ack.round = round;
      ack.total_payment = market.result.total_payment();
      ack.winner_count = market.result.winners.size();

      std::vector<std::uint64_t>& contributors =
          batch_buckets_[j].contributor_ids;
      std::sort(contributors.begin(), contributors.end());
      contributors.erase(std::unique(contributors.begin(), contributors.end()),
                         contributors.end());
      // Contributors are looked up by connection id, never fd: ids are
      // never reused, so a contributor that disconnected (its fd possibly
      // already handed to a new, unrelated client) simply fails the lookup
      // instead of receiving someone else's results.
      for (const std::uint64_t conn_id : contributors) {
        const auto conn_it = connections_.find(conn_id);
        if (conn_it == connections_.end() || conn_it->second.dead) continue;
        encode(result_scratch_, encode_scratch_);
        queue_frame(conn_it->second, encode_scratch_);
        encode(ack, encode_scratch_);
        queue_frame(conn_it->second, encode_scratch_);
      }
      tick_ready_markets_.push_back(market_id);  // cascade check next pass
    }
  }
}

void AuctionService::queue_frame(Connection& conn, const Frame& frame) {
  if (conn.dead) return;
  const std::size_t queued = conn.out.size() - conn.out_offset;
  if (queued + frame.size() > config_.max_out_bytes) {
    // The peer stopped reading; shedding it beats unbounded buffering.
    drop_connection(conn, /*protocol_error=*/true);
    return;
  }
  if (conn.out_offset > 0 && conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  flush_writes(conn);
}

void AuctionService::flush_writes(Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t rc =
        ::send(conn.fd, conn.out.data() + conn.out_offset,
               conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT later
      drop_connection(conn, /*protocol_error=*/false);
      return;
    }
    conn.out_offset += static_cast<std::size_t>(rc);
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
}

void AuctionService::drop_connection(Connection& conn, bool protocol_error) {
  if (conn.dead) return;
  conn.dead = true;
  connections_dropped_.fetch_add(1, std::memory_order_relaxed);
  if (protocol_error) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn.fd >= 0) {
    ::close(conn.fd);
  }
  // A gone connection can never hear a result, so its not-yet-cleared bids
  // must not decide future rounds.
  purge_connection_bids(conn.id);
}

void AuctionService::purge_connection_bids(std::uint64_t conn_id) {
  for (auto& [market_id, market] : markets_) {
    for (auto it = market.pending.begin(); it != market.pending.end();) {
      Bucket& bucket = it->second;
      bucket.purge(conn_id);
      if (bucket.rows.empty()) {
        it = market.pending.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void AuctionService::reap_dead_connections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second.dead) {
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace sfl::service
