// Wire-path buffer lifecycle: encode-once FrameBuffers, the iovec write
// queue's partial-write cursor, and the pooled zero-copy read path. These
// are the invariants the tcp transport's throughput rests on — one CRC
// pass per multicast, one sendmsg per flush, one copy only when a frame
// straddles a read block.

#include <gtest/gtest.h>
#include <sys/uio.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "rt/frame.h"
#include "rt/write_queue.h"
#include "wire/messages.h"

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

TEST(FrameBufferTest, WrapAliasesTheBodyAndMatchesEncodeFrame) {
  const Bytes body = MakeBody(64);
  Payload payload(body);
  std::shared_ptr<const FrameBuffer> frame = FrameBuffer::Wrap(payload);

  // Zero-copy: the frame's body IS the sender's payload buffer.
  EXPECT_EQ(frame->body().data(), payload.data());
  EXPECT_TRUE(frame->body().SharesBufferWith(payload));
  EXPECT_EQ(frame->size(), kFrameHeaderBytes + body.size());

  // header + body is byte-identical to the contiguous encoding, so the
  // receive side cannot tell which send path produced a frame.
  const Bytes expected = EncodeFrame(body);
  Bytes wire(frame->header(), frame->header() + kFrameHeaderBytes);
  wire.insert(wire.end(), frame->body().data(),
              frame->body().data() + frame->body().size());
  EXPECT_EQ(wire, expected);
}

/// Copy `n` bytes out of the queue's current iovec chain (bounded by what
/// the chain exposes), then advance the cursor — one simulated syscall
/// that the kernel cut short at `n` bytes. Returns completed frame count.
size_t TakeBytes(WriteQueue* queue, size_t n, Bytes* out) {
  iovec iov[16];
  size_t total = 0;
  const size_t niov = queue->BuildIovecs(iov, 16, &total);
  EXPECT_GE(total, n);
  size_t remaining = n;
  for (size_t i = 0; i < niov && remaining > 0; ++i) {
    const uint8_t* base = static_cast<const uint8_t*>(iov[i].iov_base);
    const size_t take = std::min(remaining, iov[i].iov_len);
    out->insert(out->end(), base, base + take);
    remaining -= take;
  }
  return queue->Advance(n);
}

// The satellite requirement: a partial write at EVERY byte boundary of a
// multi-frame chain resumes exactly where the kernel stopped — including
// boundaries inside a header, inside a body, and on frame edges.
TEST(WriteQueueTest, PartialWriteAtEverySplitBoundary) {
  const std::vector<Bytes> bodies = {MakeBody(5, 1), MakeBody(0, 2),
                                     MakeBody(37, 3), MakeBody(13, 4)};
  Bytes expected;
  for (const Bytes& body : bodies) {
    const Bytes frame = EncodeFrame(body);
    expected.insert(expected.end(), frame.begin(), frame.end());
  }

  for (size_t split = 0; split <= expected.size(); ++split) {
    WriteQueue queue(1u << 20);
    for (const Bytes& body : bodies) {
      ASSERT_TRUE(queue.Enqueue(FrameBuffer::Wrap(Payload(body))));
    }
    ASSERT_EQ(queue.queued_bytes(), expected.size());

    Bytes sent;
    size_t completed = TakeBytes(&queue, split, &sent);
    completed += TakeBytes(&queue, expected.size() - split, &sent);
    EXPECT_EQ(sent, expected) << "split at " << split;
    EXPECT_EQ(completed, bodies.size());
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.queued_bytes(), 0u);
  }
}

TEST(WriteQueueTest, IovecChainIsTwoEntriesPerFrameOnePerEmptyBody) {
  WriteQueue queue(1u << 20);
  ASSERT_TRUE(queue.Enqueue(FrameBuffer::Wrap(Payload(MakeBody(9)))));
  ASSERT_TRUE(queue.Enqueue(FrameBuffer::Wrap(Payload(MakeBody(0)))));
  ASSERT_TRUE(queue.Enqueue(FrameBuffer::Wrap(Payload(MakeBody(3)))));
  iovec iov[16];
  size_t total = 0;
  EXPECT_EQ(queue.BuildIovecs(iov, 16, &total), 5u);
  EXPECT_EQ(total, queue.queued_bytes());
  // A tiny iovec budget truncates the chain without corrupting it.
  EXPECT_EQ(queue.BuildIovecs(iov, 3, &total), 3u);
  EXPECT_EQ(total, (kFrameHeaderBytes + 9) + kFrameHeaderBytes);
}

// Backpressure accounting with shared frames: a multicast frame on five
// queues charges each queue its full wire size (the bytes that connection
// owes the kernel), not size/5 and not zero for "already counted".
TEST(WriteQueueTest, SharedFrameChargesEachQueueItsFullWireSize) {
  const Bytes body = MakeBody(100);
  std::shared_ptr<const FrameBuffer> frame = FrameBuffer::Wrap(Payload(body));
  WriteQueue a(1000), b(1000);
  ASSERT_TRUE(a.Enqueue(frame));
  ASSERT_TRUE(b.Enqueue(frame));
  EXPECT_EQ(a.queued_bytes(), frame->size());
  EXPECT_EQ(b.queued_bytes(), frame->size());

  // Both queues expose the SAME bytes — fan-out shares, never copies.
  iovec iov_a[4], iov_b[4];
  size_t total_a = 0, total_b = 0;
  ASSERT_EQ(a.BuildIovecs(iov_a, 4, &total_a), 2u);
  ASSERT_EQ(b.BuildIovecs(iov_b, 4, &total_b), 2u);
  EXPECT_EQ(iov_a[0].iov_base, iov_b[0].iov_base);
  EXPECT_EQ(iov_a[1].iov_base, iov_b[1].iov_base);

  // The cap is per queue: room for one copy of the frame but not two.
  WriteQueue small(frame->size() * 2 - 1);
  EXPECT_TRUE(small.Enqueue(frame));
  EXPECT_FALSE(small.Enqueue(frame));
  EXPECT_EQ(small.queued_bytes(), frame->size());

  // One queue draining must not disturb the other's accounting.
  Bytes sent;
  EXPECT_EQ(TakeBytes(&a, frame->size(), &sent), 1u);
  EXPECT_EQ(a.queued_bytes(), 0u);
  EXPECT_EQ(b.queued_bytes(), frame->size());
}

TEST(BlockPoolTest, ReusesABlockOnlyAfterEveryViewDies) {
  BlockPool pool(/*block_bytes=*/32, /*max_cached=*/4);
  std::shared_ptr<Bytes> block = pool.Acquire();
  EXPECT_EQ(pool.blocks_allocated(), 1u);
  const Bytes* raw = block.get();

  Payload view = Payload::View(block, 0, 8);
  pool.Recycle(std::move(block));

  // The view still aliases the block: Acquire must not hand it out.
  std::shared_ptr<Bytes> fresh = pool.Acquire();
  EXPECT_NE(fresh.get(), raw);
  EXPECT_EQ(pool.blocks_allocated(), 2u);
  EXPECT_EQ(pool.blocks_reused(), 0u);

  view = Payload();  // last view dies
  std::shared_ptr<Bytes> reused = pool.Acquire();
  EXPECT_EQ(reused.get(), raw);
  EXPECT_EQ(pool.blocks_reused(), 1u);
}

// The pooled read path: frames that fit a block come out as zero-copy
// views; a frame straddling the block boundary is reassembled by copy —
// and the stats ledger tells them apart honestly.
TEST(PooledReaderTest, StraddlingFrameIsCopiedInBlockFramesAliased) {
  BlockPool pool(/*block_bytes=*/64, /*max_cached=*/4);
  FrameReadStats stats;
  FrameReader reader(kMaxFrameBytes, &pool, &stats);

  const Bytes a = MakeBody(20, 1);  // 28 wire bytes: fits block 1
  const Bytes b = MakeBody(60, 2);  // 68 wire bytes: straddles 1 -> 2
  const Bytes c = MakeBody(10, 3);  // 18 wire bytes: fits block 2
  Bytes stream;
  for (const Bytes* body : {&a, &b, &c}) {
    const Bytes frame = EncodeFrame(*body);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(reader.Feed(stream.data(), stream.size()).ok());

  Payload out_a, out_b, out_c;
  ASSERT_TRUE(reader.Next(&out_a));
  ASSERT_TRUE(reader.Next(&out_b));
  ASSERT_TRUE(reader.Next(&out_c));
  Payload none;
  EXPECT_FALSE(reader.Next(&none));
  EXPECT_EQ(out_a.ToBytes(), a);
  EXPECT_EQ(out_b.ToBytes(), b);
  EXPECT_EQ(out_c.ToBytes(), c);

  EXPECT_EQ(stats.frames_aliased, 2u);
  EXPECT_EQ(stats.frames_copied, 1u);  // only the straddler
  EXPECT_EQ(stats.bytes_aliased, a.size() + c.size());
  EXPECT_EQ(stats.bytes_copied, b.size());
  EXPECT_EQ(reader.buffered(), 0u);
}

// An aliased frame must stay valid and immutable-to-others even after the
// reader has rolled past its block and the block went back to the pool.
TEST(PooledReaderTest, ViewsOutliveTheReadersProgress) {
  BlockPool pool(/*block_bytes=*/32, /*max_cached=*/4);
  FrameReadStats stats;
  FrameReader reader(kMaxFrameBytes, &pool, &stats);

  const Bytes first = MakeBody(16, 7);  // 24 wire bytes: fits block 1
  std::vector<Bytes> rest;
  Bytes stream = EncodeFrame(first);
  for (int i = 0; i < 8; ++i) {
    rest.push_back(MakeBody(16, static_cast<uint8_t>(10 + i)));
    const Bytes frame = EncodeFrame(rest.back());
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(reader.Feed(stream.data(), stream.size()).ok());

  Payload held;
  ASSERT_TRUE(reader.Next(&held));  // keep the first frame's view alive
  Payload out;
  size_t drained = 0;
  while (reader.Next(&out)) {
    EXPECT_EQ(out.ToBytes(), rest[drained]);
    ++drained;
  }
  EXPECT_EQ(drained, rest.size());
  // The held view still reads the original bytes: its block was never
  // reissued while the view lived.
  EXPECT_EQ(held.ToBytes(), first);
}

// A view change on the pooled read path: a digest-only VIEW-CHANGE naming
// 600 sequence numbers fits one read block whatever the batches behind it
// weigh (it is aliased, not copied), while a BATCH-RESPONSE carrying a batch
// larger than a block straddles blocks and is reassembled; both decode to
// the messages sent.
TEST(PooledReaderTest, DigestOnlyViewChangeFitsABlockBatchResponseStraddles) {
  BlockPool pool(kReadBlockBytes, /*max_cached=*/4);
  FrameReadStats stats;
  FrameReader reader(kMaxFrameBytes, &pool, &stats);

  SmViewChangeMsg view_change;
  view_change.new_view = 3;
  view_change.cert = CheckpointCert::Genesis();
  for (uint64_t seq = 1; seq <= 600; ++seq) {
    SmVcEntry entry;
    entry.view = 2;
    entry.seq = seq;
    entry.digest = Digest::Of(MakeBody(64, static_cast<uint8_t>(seq)));
    view_change.prepares.push_back(entry);
  }
  view_change.sender = 4;
  Request request;
  request.client = kClientIdBase;
  request.timestamp = 9;
  request.op = MakeBody(kReadBlockBytes + 4096, 7);
  Batch batch;
  batch.requests.push_back(request);
  BatchResponseMsg response;
  response.batches.push_back({600, batch.Encode()});

  const Bytes vc_body = view_change.ToMessage();
  const Bytes response_body = response.ToMessage(kSmBatchResponse);
  ASSERT_LT(vc_body.size() + kFrameHeaderBytes, kReadBlockBytes);
  Bytes stream = EncodeFrame(vc_body);
  const Bytes response_frame = EncodeFrame(response_body);
  stream.insert(stream.end(), response_frame.begin(), response_frame.end());
  ASSERT_TRUE(reader.Feed(stream.data(), stream.size()).ok());

  Payload vc_out, response_out;
  ASSERT_TRUE(reader.Next(&vc_out));
  ASSERT_TRUE(reader.Next(&response_out));
  EXPECT_EQ(stats.frames_aliased, 1u);
  EXPECT_EQ(stats.frames_copied, 1u);

  Decoder vc_dec = MakeDecoder(vc_out);
  ASSERT_EQ(vc_dec.GetU8(), kSmViewChange);
  Result<SmViewChangeMsg> vc_decoded =
      SmViewChangeMsg::DecodeFrom(vc_dec, 1024);
  ASSERT_TRUE(vc_decoded.ok());
  EXPECT_EQ(vc_decoded->ToMessage(), vc_body);

  Decoder response_dec = MakeDecoder(response_out);
  ASSERT_EQ(response_dec.GetU8(), kSmBatchResponse);
  Result<BatchResponseMsg> response_decoded =
      BatchResponseMsg::DecodeFrom(response_dec, 1024);
  ASSERT_TRUE(response_decoded.ok());
  ASSERT_EQ(response_decoded->batches.size(), 1u);
  EXPECT_EQ(Digest::Of(response_decoded->batches[0].batch),
            batch.ComputeDigest());
}

}  // namespace
}  // namespace rt
}  // namespace seemore
