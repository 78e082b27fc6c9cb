// FrameReader robustness: the rt transport's frame codec must survive
// arbitrary stream fragmentation and turn every malformed input into a
// typed error — never a crash, never a hang, never an unbounded buffer.
// Tagged frames (a principal id after the CRC) meet the same bar, and an
// untagged frame's bytes are pinned.

#include "rt/frame.h"

#include <gtest/gtest.h>

#include "storage/crc32c.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace seemore {
namespace rt {
namespace {

Bytes MakeBody(size_t len, uint8_t seed = 0x5a) {
  Bytes body(len);
  uint32_t x = seed + 1;
  for (size_t i = 0; i < len; ++i) {
    x = x * 1664525u + 1013904223u;
    body[i] = static_cast<uint8_t>(x >> 24);
  }
  return body;
}

TEST(RtFrame, RoundTripVariousSizes) {
  for (const size_t len : {0u, 1u, 7u, 8u, 9u, 255u, 4096u}) {
    const Bytes body = MakeBody(len);
    const Bytes frame = EncodeFrame(body);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + len);

    FrameReader reader;
    ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
    Payload out;
    ASSERT_TRUE(reader.Next(&out));
    EXPECT_EQ(out.ToBytes(), body);
    EXPECT_FALSE(reader.Next(&out));
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

// The satellite requirement: a multi-frame stream delivered one byte at a
// time, and split at EVERY byte boundary, decodes identically.
TEST(RtFrame, EveryByteBoundary) {
  Bytes stream;
  std::vector<Bytes> bodies;
  for (const size_t len : {0u, 3u, 17u, 64u}) {
    bodies.push_back(MakeBody(len, static_cast<uint8_t>(len)));
    const Bytes frame = EncodeFrame(bodies.back());
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  // One byte at a time.
  {
    FrameReader reader;
    std::vector<Bytes> decoded;
    for (const uint8_t byte : stream) {
      ASSERT_TRUE(reader.Feed(&byte, 1).ok());
      Payload out;
      while (reader.Next(&out)) decoded.push_back(out.ToBytes());
    }
    ASSERT_EQ(decoded.size(), bodies.size());
    for (size_t i = 0; i < bodies.size(); ++i) EXPECT_EQ(decoded[i], bodies[i]);
  }

  // Every two-chunk split.
  for (size_t split = 0; split <= stream.size(); ++split) {
    FrameReader reader;
    ASSERT_TRUE(reader.Feed(stream.data(), split).ok());
    ASSERT_TRUE(reader.Feed(stream.data() + split, stream.size() - split).ok());
    std::vector<Bytes> decoded;
    Payload out;
    while (reader.Next(&out)) decoded.push_back(out.ToBytes());
    ASSERT_EQ(decoded.size(), bodies.size()) << "split at " << split;
    for (size_t i = 0; i < bodies.size(); ++i) EXPECT_EQ(decoded[i], bodies[i]);
    EXPECT_EQ(reader.frames_decoded(), bodies.size());
  }
}

TEST(RtFrame, OversizedLengthPrefixIsTypedErrorAndPoisons) {
  FrameReader reader(/*max_frame=*/64);
  Bytes header(kFrameHeaderBytes, 0);
  const uint32_t huge = 65;  // one past the cap
  std::memcpy(header.data(), &huge, 4);

  const Status fed = reader.Feed(header.data(), header.size());
  EXPECT_EQ(fed.code(), StatusCode::kCorruption);
  EXPECT_TRUE(reader.failed());
  EXPECT_EQ(reader.buffered(), 0u) << "poisoned reader must drop its buffers";

  // Poisoned: further feeds keep failing, frames never appear.
  const Bytes good = EncodeFrame(MakeBody(8));
  EXPECT_EQ(reader.Feed(good.data(), good.size()).code(),
            StatusCode::kCorruption);
  Payload out;
  EXPECT_FALSE(reader.Next(&out));
}

TEST(RtFrame, GarbagePrefixRejectedBeforeBodyArrives) {
  // "GET / HTTP..." as a length prefix decodes to ~0x20544547 bytes — the
  // cap check must fire from the header alone, without buffering a body.
  const char* garbage = "GET / HTTP/1.1\r\n\r\n";
  FrameReader reader;
  const Status fed = reader.Feed(reinterpret_cast<const uint8_t*>(garbage),
                                 std::strlen(garbage));
  EXPECT_EQ(fed.code(), StatusCode::kCorruption);
  EXPECT_TRUE(reader.failed());
}

TEST(RtFrame, CrcMismatchIsTypedError) {
  Bytes frame = EncodeFrame(MakeBody(32));
  frame[kFrameHeaderBytes + 5] ^= 0x01;  // flip one body bit
  FrameReader reader;
  const Status fed = reader.Feed(frame.data(), frame.size());
  EXPECT_EQ(fed.code(), StatusCode::kCorruption);
  EXPECT_TRUE(reader.failed());
}

TEST(RtFrame, CorruptLengthSmallerThanBodyMisframes) {
  // A corrupted length that still passes the cap check frames the wrong
  // byte range; the CRC catches it.
  const Bytes body = MakeBody(32);
  Bytes frame = EncodeFrame(body);
  const uint32_t wrong = 16;
  std::memcpy(frame.data(), &wrong, 4);
  FrameReader reader;
  EXPECT_EQ(reader.Feed(frame.data(), frame.size()).code(),
            StatusCode::kCorruption);
}

TEST(RtFrame, MidFrameDisconnectIsTorn) {
  const Bytes frame = EncodeFrame(MakeBody(100));
  for (const size_t cut : {1u, 4u, 8u, 50u, 107u}) {
    FrameReader reader;
    ASSERT_TRUE(reader.Feed(frame.data(), cut).ok());
    const Status closed = reader.OnPeerClose();
    EXPECT_EQ(closed.code(), StatusCode::kCorruption) << "cut at " << cut;
  }
  // On a frame boundary the close is clean.
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
  EXPECT_TRUE(reader.OnPeerClose().ok());
}

TEST(RtFrame, MaxFrameBoundaryExact) {
  FrameReader reader(/*max_frame=*/64);
  const Bytes frame = EncodeFrame(MakeBody(64));  // exactly at the cap
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
  Payload out;
  ASSERT_TRUE(reader.Next(&out));
  EXPECT_EQ(out.size(), 64u);
}

TEST(RtFrame, LongStreamStaysCompact) {
  FrameReader reader;
  const Bytes frame = EncodeFrame(MakeBody(200));
  Payload out;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
    ASSERT_TRUE(reader.Next(&out));
    ASSERT_EQ(reader.buffered(), 0u);
  }
  EXPECT_EQ(reader.frames_decoded(), 1000u);
}

/// One decoded frame: its tag and body bytes.
struct Decoded {
  PrincipalId tag;
  Bytes body;
  bool operator==(const Decoded& other) const {
    return tag == other.tag && body == other.body;
  }
};

std::vector<Decoded> Drain(FrameReader& reader) {
  std::vector<Decoded> out;
  Payload body;
  PrincipalId tag = kNoTag;
  while (reader.Next(&body, &tag)) out.push_back({tag, body.ToBytes()});
  return out;
}

TEST(RtFrame, UntaggedBytesArePinned) {
  // u32 length | u32 CRC32C(body) | body, little-endian: the layout every
  // replica<->replica frame has always had.
  const Bytes body = {0x01, 0x02, 0x03, 0xfe};
  const Bytes expected = {0x04, 0x00, 0x00, 0x00, 0xb9, 0xcb, 0xbc, 0xb1,
                          0x01, 0x02, 0x03, 0xfe};
  EXPECT_EQ(EncodeFrame(body), expected);
  const auto frame = FrameBuffer::Wrap(Payload(body));
  EXPECT_EQ(frame->header_size(), kFrameHeaderBytes);
  EXPECT_EQ(frame->tag(), kNoTag);
  EXPECT_EQ(Bytes(frame->header(), frame->header() + kFrameHeaderBytes),
            Bytes(expected.begin(), expected.begin() + kFrameHeaderBytes));
}

TEST(RtFrame, TaggedRoundTripVariousSizes) {
  const PrincipalId tag = kClientIdBase + 7;
  for (const size_t len : {0u, 1u, 7u, 8u, 9u, 255u, 4096u}) {
    const Bytes body = MakeBody(len);
    const Bytes frame = EncodeFrame(body, tag);
    ASSERT_EQ(frame.size(), kTaggedFrameHeaderBytes + len);
    uint32_t word = 0;
    std::memcpy(&word, frame.data(), 4);
    EXPECT_EQ(word, kFrameTagFlag | static_cast<uint32_t>(len));
    PrincipalId wire_tag = 0;
    std::memcpy(&wire_tag, frame.data() + kFrameHeaderBytes, 4);
    EXPECT_EQ(wire_tag, tag);

    // The zero-copy send form puts the same bytes on the wire.
    const auto buffer = FrameBuffer::Wrap(Payload(body), tag);
    EXPECT_EQ(buffer->size(), frame.size());
    EXPECT_EQ(Bytes(buffer->header(), buffer->header() + buffer->header_size()),
              Bytes(frame.begin(), frame.begin() + kTaggedFrameHeaderBytes));

    FrameReader reader;
    ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
    EXPECT_EQ(Drain(reader), (std::vector<Decoded>{{tag, body}}));
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

// Tagged and untagged frames interleaved, split at every byte boundary and
// parsed through blocks small enough that headers and bodies straddle
// them: the same frames come out, and every strict prefix of the stream
// either waits cleanly or reads as a torn frame at close.
TEST(RtFrame, TaggedStreamSurvivesEverySplitAndTruncation) {
  std::vector<Decoded> frames = {{kNoTag, MakeBody(5, 1)},
                                 {kClientIdBase, MakeBody(0, 2)},
                                 {kClientIdBase + 1, MakeBody(21, 3)},
                                 {kNoTag, MakeBody(0, 4)},
                                 {kClientIdBase * 2 - 1, MakeBody(40, 5)}};
  Bytes stream;
  std::vector<size_t> boundaries = {0};
  for (const Decoded& frame : frames) {
    const Bytes wire = EncodeFrame(frame.body, frame.tag);
    stream.insert(stream.end(), wire.begin(), wire.end());
    boundaries.push_back(stream.size());
  }

  for (const size_t block : {size_t{16}, size_t{64}, kReadBlockBytes}) {
    for (size_t split = 0; split <= stream.size(); ++split) {
      BlockPool pool(block);
      FrameReader reader(kMaxFrameBytes, &pool);
      ASSERT_TRUE(reader.Feed(stream.data(), split).ok());
      const size_t complete =
          std::upper_bound(boundaries.begin(), boundaries.end(), split) -
          boundaries.begin() - 1;
      std::vector<Decoded> decoded = Drain(reader);
      ASSERT_EQ(decoded.size(), complete) << "block " << block << " cut "
                                          << split;
      const bool on_boundary = boundaries[complete] == split;
      EXPECT_EQ(reader.OnPeerClose().ok(), on_boundary)
          << "block " << block << " cut " << split;

      ASSERT_TRUE(reader.Feed(stream.data() + split, stream.size() - split).ok());
      for (Decoded& rest : Drain(reader)) decoded.push_back(std::move(rest));
      EXPECT_EQ(decoded, frames) << "block " << block << " split " << split;
      EXPECT_TRUE(reader.OnPeerClose().ok());
    }
  }
}

TEST(RtFrame, BadFlagOrTagIsTypedErrorAndPoisons) {
  const Bytes body = MakeBody(12);

  // A high bit other than the tag flag reads as a length past the cap.
  Bytes bad_flag = EncodeFrame(body);
  bad_flag[3] |= 0x40;
  {
    FrameReader reader;
    EXPECT_EQ(reader.Feed(bad_flag.data(), bad_flag.size()).code(),
              StatusCode::kCorruption);
    EXPECT_TRUE(reader.failed());
  }

  // A tag must be a principal id: a negative one is refused even under a
  // valid CRC (-1 included, which must not read as "untagged"), whether
  // the header arrives whole or a byte at a time.
  for (const PrincipalId tag :
       {PrincipalId{-1}, static_cast<PrincipalId>(0x80000000u | kClientIdBase)}) {
    Bytes bad_tag(kTaggedFrameHeaderBytes);
    const uint32_t word = kFrameTagFlag | static_cast<uint32_t>(body.size());
    uint8_t tag_bytes[4];
    std::memcpy(tag_bytes, &tag, 4);
    const uint32_t crc = storage::Crc32cExtend(storage::Crc32c(tag_bytes, 4),
                                               body.data(), body.size());
    std::memcpy(bad_tag.data(), &word, 4);
    std::memcpy(bad_tag.data() + 4, &crc, 4);
    std::memcpy(bad_tag.data() + 8, tag_bytes, 4);
    bad_tag.insert(bad_tag.end(), body.begin(), body.end());
    {
      FrameReader reader;
      EXPECT_EQ(reader.Feed(bad_tag.data(), bad_tag.size()).code(),
                StatusCode::kCorruption)
          << "tag " << tag;
      Payload out;
      EXPECT_FALSE(reader.Next(&out));
    }
    {
      BlockPool pool(/*block_bytes=*/10);
      FrameReader reader(kMaxFrameBytes, &pool);
      Status fed;
      for (const uint8_t byte : bad_tag) {
        fed = reader.Feed(&byte, 1);
        if (!fed.ok()) break;
      }
      EXPECT_EQ(fed.code(), StatusCode::kCorruption) << "tag " << tag;
      EXPECT_EQ(reader.buffered(), 0u);
    }
  }

  // The CRC covers the tag: a frame re-addressed in flight is refused.
  Bytes moved = EncodeFrame(body, kClientIdBase);
  moved[kFrameHeaderBytes] ^= 0x01;
  {
    FrameReader reader;
    EXPECT_EQ(reader.Feed(moved.data(), moved.size()).code(),
              StatusCode::kCorruption);
  }
}

TEST(RtFrame, MaxFrameCheckAppliesToTaggedFrames) {
  {
    FrameReader reader(/*max_frame=*/64);
    const Bytes frame = EncodeFrame(MakeBody(64), kClientIdBase);
    ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
    Payload out;
    PrincipalId tag = kNoTag;
    ASSERT_TRUE(reader.Next(&out, &tag));
    EXPECT_EQ(out.size(), 64u);
    EXPECT_EQ(tag, kClientIdBase);
  }
  {
    // Refused from the header alone, before any body is buffered.
    FrameReader reader(/*max_frame=*/64);
    const Bytes frame = EncodeFrame(MakeBody(65), kClientIdBase);
    EXPECT_EQ(reader.Feed(frame.data(), kFrameHeaderBytes).code(),
              StatusCode::kCorruption);
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(RtFrame, HelloRoundTrip) {
  const Hello hello{7, 0xfeedbeefcafe1234ULL};
  const Bytes frame = EncodeHello(hello);

  FrameReader reader;
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
  Payload body;
  ASSERT_TRUE(reader.Next(&body));

  const Result<Hello> decoded = DecodeHello(body.data(), body.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->sender, 7);
  EXPECT_EQ(decoded->fingerprint, 0xfeedbeefcafe1234ULL);
}

TEST(RtFrame, HelloRejectsWrongMagicAndTruncation) {
  const Bytes frame = EncodeHello(Hello{1, 42});
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
  Payload received;
  ASSERT_TRUE(reader.Next(&received));
  const Bytes body = received.ToBytes();

  Bytes wrong_magic = body;
  wrong_magic[0] ^= 0xff;
  EXPECT_EQ(DecodeHello(wrong_magic).status().code(), StatusCode::kCorruption);

  Bytes truncated(body.begin(), body.end() - 3);
  EXPECT_FALSE(DecodeHello(truncated).ok());

  Bytes extended = body;
  extended.push_back(0);
  EXPECT_FALSE(DecodeHello(extended).ok());

  // A non-HELLO body is rejected, not misinterpreted.
  EXPECT_FALSE(DecodeHello(MakeBody(17)).ok());
}

}  // namespace
}  // namespace rt
}  // namespace seemore
