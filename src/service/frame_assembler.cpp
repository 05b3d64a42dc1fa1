#include "service/frame_assembler.h"

#include <algorithm>
#include <utility>

namespace sfl::service {

namespace {

using sfl::dist::Frame;
using sfl::dist::frame_type_known;
using sfl::dist::kHeaderSize;
using sfl::dist::kWireMagic;
using sfl::dist::kWireVersion;

/// Cheap pre-validation of a buffered header: wrong magic, version, or type
/// means the stream is garbage — reject before trusting the length field
/// (full checksum validation happens at decode). Returns an empty string
/// when plausible, otherwise the condemnation reason. A correct-magic frame
/// carrying a DIFFERENT wire version is the one distinguishable case: it is
/// not line noise but a peer built from another wire revision, so the
/// reason names both versions and the fix — callers (the load generator's
/// fail-fast path) surface it verbatim instead of a generic header error.
std::string header_implausible_reason(const std::byte* header) {
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  }
  if (magic != kWireMagic) {
    return "implausible frame header (magic/version/type)";
  }
  const auto version = static_cast<std::uint8_t>(header[4]);
  if (version != kWireVersion) {
    return "peer speaks wire version " + std::to_string(version) +
           " but this build speaks version " + std::to_string(kWireVersion) +
           "; rebuild the older side so both ends share one wire revision";
  }
  if (!frame_type_known(static_cast<std::uint8_t>(header[5]))) {
    return "implausible frame header (magic/version/type)";
  }
  return {};
}

std::uint64_t header_payload_len(const std::byte* header) {
  std::uint64_t len = 0;
  for (int i = 0; i < 8; ++i) {
    len |= static_cast<std::uint64_t>(header[8 + i]) << (8 * i);
  }
  return len;
}

}  // namespace

FrameAssembler::FrameAssembler(std::size_t max_frame_bytes)
    : max_frame_bytes_(std::max(max_frame_bytes, kHeaderSize)) {}

void FrameAssembler::condemn(std::string reason) {
  condemned_ = true;
  reason_ = std::move(reason);
  buffer_.clear();
  consumed_ = 0;
}

void FrameAssembler::compact() {
  // Each compaction moves at most as many live bytes as were consumed since
  // the previous one, so the memmove cost is amortized O(1) per byte.
  if (consumed_ == 0 || consumed_ < buffered_bytes()) return;
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
  consumed_ = 0;
}

bool FrameAssembler::feed(std::span<const std::byte> bytes) {
  if (condemned_) return false;
  compact();
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // Validate the header as soon as it is complete — BEFORE accepting the
  // payload bytes a corrupt length field would ask for.
  if (buffered_bytes() >= kHeaderSize) {
    const std::byte* header = buffer_.data() + consumed_;
    if (std::string reason = header_implausible_reason(header);
        !reason.empty()) {
      condemn(std::move(reason));
      return false;
    }
    if (header_payload_len(header) > max_frame_bytes_ - kHeaderSize) {
      condemn("declared payload exceeds the frame size limit");
      return false;
    }
  }
  return true;
}

bool FrameAssembler::next_frame(Frame& out) {
  if (condemned_) return false;
  if (buffered_bytes() < kHeaderSize) return false;
  const std::byte* header = buffer_.data() + consumed_;
  if (std::string reason = header_implausible_reason(header);
      !reason.empty()) {
    // Reachable when a previous next_frame left the NEXT frame's bytes
    // buffered and that header is garbage.
    condemn(std::move(reason));
    return false;
  }
  const std::uint64_t payload_len = header_payload_len(header);
  if (payload_len > max_frame_bytes_ - kHeaderSize) {
    condemn("declared payload exceeds the frame size limit");
    return false;
  }
  const std::size_t frame_size =
      kHeaderSize + static_cast<std::size_t>(payload_len);
  if (buffered_bytes() < frame_size) return false;
  out.assign(header, header + frame_size);
  consumed_ += frame_size;
  return true;
}

}  // namespace sfl::service
