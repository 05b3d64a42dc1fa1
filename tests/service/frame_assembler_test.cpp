// Unit tests for FrameAssembler: incremental reassembly, coalesced frames,
// and the condemnation rules (bad header, oversized length claim).
#include "service/frame_assembler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "dist/wire_codec.h"
#include "service/rpc_messages.h"

namespace sfl::service {
namespace {

using sfl::dist::kHeaderSize;

Frame encoded_submit(std::uint64_t client) {
  SubmitBids msg;
  msg.client = client;
  msg.markets = {1};
  msg.rounds = {2};
  msg.values = {1.5};
  msg.bids = {0.5};
  msg.energy_costs = {1.0};
  Frame frame;
  encode(msg, frame);
  return frame;
}

TEST(FrameAssemblerTest, WholeFrameInOneFeed) {
  FrameAssembler assembler;
  const Frame wire = encoded_submit(7);
  ASSERT_TRUE(assembler.feed(wire));
  Frame out;
  ASSERT_TRUE(assembler.next_frame(out));
  EXPECT_EQ(out, wire);
  EXPECT_FALSE(assembler.next_frame(out));
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(FrameAssemblerTest, SlowLorisByteAtATimeStaysBoundedAndCompletes) {
  // The slow-loris shape: one byte per feed. The assembler must buffer at
  // most one frame and produce the frame only once complete.
  FrameAssembler assembler;
  const Frame wire = encoded_submit(9);
  Frame out;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_FALSE(assembler.next_frame(out)) << "completed early at byte " << i;
    ASSERT_TRUE(assembler.feed(std::span<const std::byte>(&wire[i], 1)));
    EXPECT_LE(assembler.buffered_bytes(), wire.size());
  }
  ASSERT_TRUE(assembler.next_frame(out));
  EXPECT_EQ(out, wire);
  EXPECT_FALSE(assembler.condemned());
}

TEST(FrameAssemblerTest, CoalescedFramesComeOutOneAtATime) {
  // 500 frames in one feed: extraction reads in place, so every frame must
  // come out intact and in order, and nothing may stay buffered.
  FrameAssembler assembler;
  std::vector<Frame> frames;
  Frame stream;
  for (std::uint64_t client = 0; client < 500; ++client) {
    frames.push_back(encoded_submit(client));
    stream.insert(stream.end(), frames.back().begin(), frames.back().end());
  }
  ASSERT_TRUE(assembler.feed(stream));

  Frame out;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(assembler.next_frame(out)) << "frame " << i;
    ASSERT_EQ(out, frames[i]) << "frame " << i;
  }
  EXPECT_FALSE(assembler.next_frame(out));
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  EXPECT_FALSE(assembler.condemned());
}

TEST(FrameAssemblerTest, SustainedFourKibFeedsStayBounded) {
  // Extraction never moves memory; the consumed prefix is compacted away
  // once it outweighs the live bytes. Under a steady stream of 4 KiB reads
  // the buffer must stay within two reads plus one frame, and every frame
  // must still come out intact and in order.
  constexpr std::size_t kChunk = 4096;
  FrameAssembler assembler;
  Frame stream;
  std::size_t frame_size = 0;
  for (std::uint64_t client = 0; client < 5000; ++client) {
    const Frame frame = encoded_submit(client);
    frame_size = frame.size();
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  Frame out;
  std::uint64_t next_client = 0;
  for (std::size_t offset = 0; offset < stream.size(); offset += kChunk) {
    const std::size_t len = std::min(kChunk, stream.size() - offset);
    ASSERT_TRUE(assembler.feed(
        std::span<const std::byte>(stream.data() + offset, len)));
    ASSERT_LE(assembler.held_bytes(), 2 * kChunk + frame_size)
        << "after feeding offset " << offset;
    while (assembler.next_frame(out)) {
      ASSERT_EQ(out, encoded_submit(next_client)) << "frame " << next_client;
      ++next_client;
    }
    ASSERT_LT(assembler.buffered_bytes(), frame_size);
  }
  EXPECT_EQ(next_client, 5000u);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(FrameAssemblerTest, FrameSplitAcrossFeedsPlusPartialNext) {
  FrameAssembler assembler;
  const Frame first = encoded_submit(4);
  const Frame second = encoded_submit(5);
  Frame stream;
  stream.insert(stream.end(), first.begin(), first.end());
  stream.insert(stream.end(), second.begin(), second.end());

  // Feed 1.5 frames, then the rest.
  const std::size_t split = first.size() + second.size() / 2;
  ASSERT_TRUE(assembler.feed(std::span<const std::byte>(stream.data(), split)));
  Frame out;
  ASSERT_TRUE(assembler.next_frame(out));
  EXPECT_EQ(out, first);
  ASSERT_FALSE(assembler.next_frame(out));  // second is incomplete
  ASSERT_TRUE(assembler.feed(std::span<const std::byte>(
      stream.data() + split, stream.size() - split)));
  ASSERT_TRUE(assembler.next_frame(out));
  EXPECT_EQ(out, second);
}

TEST(FrameAssemblerTest, GarbageHeaderCondemnsAtTwentyFourBytes) {
  FrameAssembler assembler;
  std::vector<std::byte> garbage(kHeaderSize - 1, std::byte{0xAB});
  // Below the header threshold nothing can be judged yet.
  ASSERT_TRUE(assembler.feed(garbage));
  EXPECT_FALSE(assembler.condemned());
  // The 24th byte completes the header: condemned immediately, without ever
  // trusting the (garbage) length field.
  const std::byte last{0xAB};
  EXPECT_FALSE(assembler.feed(std::span<const std::byte>(&last, 1)));
  EXPECT_TRUE(assembler.condemned());
  EXPECT_FALSE(assembler.condemned_reason().empty());
  // Condemned is terminal: valid bytes are refused too.
  EXPECT_FALSE(assembler.feed(encoded_submit(1)));
  Frame out;
  EXPECT_FALSE(assembler.next_frame(out));
}

TEST(FrameAssemblerTest, OversizedLengthClaimIsCondemnedBeforeBuffering) {
  FrameAssembler assembler(/*max_frame_bytes=*/256);
  Frame wire = encoded_submit(1);
  // Forge the payload-length field (offset 8) to claim far more than the
  // cap; the checksum no longer matters — the length is never trusted.
  const std::uint64_t huge = 1u << 20;
  std::memcpy(wire.data() + 8, &huge, sizeof(huge));
  EXPECT_FALSE(assembler.feed(wire));
  EXPECT_TRUE(assembler.condemned());
}

TEST(FrameAssemblerTest, GarbageAfterValidFrameCondemnsOnNextFrame) {
  FrameAssembler assembler;
  const Frame good = encoded_submit(6);
  Frame stream = good;
  stream.insert(stream.end(), kHeaderSize, std::byte{0xFF});
  // feed() only sees the (valid) first header; the garbage surfaces when
  // the second frame's header is examined.
  ASSERT_TRUE(assembler.feed(stream));
  Frame out;
  ASSERT_TRUE(assembler.next_frame(out));
  EXPECT_EQ(out, good);
  EXPECT_FALSE(assembler.next_frame(out));
  EXPECT_TRUE(assembler.condemned());
}

TEST(FrameAssemblerTest, UnknownFrameTypeIsImplausible) {
  FrameAssembler assembler;
  Frame wire = encoded_submit(1);
  wire[5] = std::byte{99};  // type byte outside the known range
  EXPECT_FALSE(assembler.feed(wire));
  EXPECT_TRUE(assembler.condemned());
}

TEST(FrameAssemblerTest, WireVersionMismatchGetsAnActionableReason) {
  // A correct-magic frame with a different version byte is a peer built
  // from another wire revision, not line noise — the condemnation reason
  // must name BOTH versions and the fix, so the load generator's fail-fast
  // path can surface it verbatim. The version byte is legal to patch: the
  // 24-byte header is not covered by the payload checksum.
  FrameAssembler assembler;
  Frame wire = encoded_submit(1);
  wire[4] = std::byte{0};  // an older wire revision
  EXPECT_FALSE(assembler.feed(wire));
  ASSERT_TRUE(assembler.condemned());
  const std::string& reason = assembler.condemned_reason();
  EXPECT_NE(reason.find("wire version 0"), std::string::npos) << reason;
  EXPECT_NE(reason.find("version " +
                        std::to_string(sfl::dist::kWireVersion)),
            std::string::npos)
      << reason;
  EXPECT_NE(reason.find("rebuild"), std::string::npos) << reason;
  // Generic garbage keeps the generic reason.
  FrameAssembler garbage_assembler;
  Frame garbage = encoded_submit(1);
  garbage[0] = std::byte{0x00};  // break the magic
  EXPECT_FALSE(garbage_assembler.feed(garbage));
  EXPECT_EQ(garbage_assembler.condemned_reason(),
            "implausible frame header (magic/version/type)");
}

}  // namespace
}  // namespace sfl::service
