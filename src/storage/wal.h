// Append-only segmented write-ahead log with CRC32C-framed records.
//
// Layout (all integers little-endian, via the wire Encoder):
//
//   segment file "wal-<index:016x>"
//   +--------------------------------------------------+
//   | header: magic u32 | version u32 | index u64      |  16 bytes
//   +--------------------------------------------------+
//   | frame:  crc u32 | len u32 | payload[len]         |  repeated
//   | ...                                              |
//   +--------------------------------------------------+
//
// The crc covers len || payload, so a corrupted length field is detected
// before it can send the scanner off a cliff. Payloads are opaque here; the
// DurableStore layer defines record types (commit / view-change).
//
// Durability contract (modeled on the Aeron Archive recovery shape,
// SNIPPETS.md §3):
//   - Append() buffers; every `fsync_interval` appends the open segment is
//     synced. Sync() forces it.
//   - A segment is synced when sealed (before its successor is created), so
//     torn writes can only live in the LAST segment.
//
// Recovery policy (scan → validate → truncate):
//   - Records are scanned segment by segment, frame by frame.
//   - Any invalid frame in a non-last segment is mid-log corruption: a
//     typed kCorruption error, never a silent truncation — sealed segments
//     were synced, so their bytes cannot have been lost legitimately.
//   - The first invalid frame in the last segment is either a torn tail
//     (crash mid-append: everything after it is garbage) or corruption
//     (a valid record still parses further on — bytes were damaged, not
//     lost). A forward resync scan distinguishes the two: finding any later
//     valid frame refuses with kCorruption; finding none truncates the tail
//     and recovery proceeds. Recovery therefore never un-commits a record
//     the medium durably holds.

#ifndef SEEMORE_STORAGE_WAL_H_
#define SEEMORE_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/medium.h"
#include "util/status.h"
#include "wire/wire.h"

namespace seemore {
namespace storage {

inline constexpr uint32_t kWalMagic = 0x4C57'4D53;  // "SMWL"
inline constexpr uint32_t kWalVersion = 1;
inline constexpr size_t kWalSegmentHeaderBytes = 16;
inline constexpr size_t kWalFrameHeaderBytes = 8;
/// Upper bound on one record; anything larger fails frame validation
/// immediately (a snapshot never travels through the WAL).
inline constexpr uint32_t kWalMaxRecordBytes = 1u << 24;

/// "wal-<index:016x>" — zero-padded so lexicographic order is log order.
std::string WalSegmentName(uint64_t index);

struct WalOptions {
  /// Roll to a new segment once the current one reaches this size.
  uint32_t segment_bytes = 64 * 1024;
  /// Appends per fsync; 1 = sync every record (group commit off).
  int fsync_interval = 1;
};

/// Result of scanning a medium's WAL at recovery time.
struct WalRecovery {
  /// Every valid record payload, in append order.
  std::vector<Bytes> payloads;
  uint64_t segments_scanned = 0;
  /// Torn bytes discarded from the last segment (0 for a clean shutdown).
  uint64_t truncated_bytes = 0;
};

/// Scan and validate the log. Read-only: the torn tail (if any) is reported,
/// not yet removed — callers decide whether to repair the medium.
/// kCorruption is the one typed failure; a missing log recovers empty.
Result<WalRecovery> RecoverWal(const StorageMedium& medium);

/// Latent damage to a stopped replica's newest WAL segment.
enum class WalTamper { kTruncate, kFlipBit };

/// Cut `offset_from_end` bytes off the newest segment, or flip bit 0 of the
/// byte that many bytes before its end. Out-of-range offsets clamp to the
/// segment head (deterministic header damage).
Status TamperWalTail(StorageMedium& medium, WalTamper tamper,
                     uint64_t offset_from_end);

class WriteAheadLog {
 public:
  WriteAheadLog(StorageMedium* medium, WalOptions options);

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Start a fresh log (first segment header written). The medium must hold
  /// no WAL segments — restart recovery compacts the old log away first.
  Status Create();

  /// Frame and append one record; syncs when the batch interval is reached
  /// or rolls (seal + sync) when the segment is full.
  Status Append(const Bytes& payload, uint64_t watermark);

  /// Force the open segment durable regardless of the batch interval.
  Status Sync();

  /// Delete sealed segments whose every record has watermark <= `floor`
  /// (the stable-checkpoint GC; the open segment is never deleted).
  Status GcBelow(uint64_t floor);

  /// Syncs performed so far (each one costs CostModel::fsync).
  uint64_t sync_count() const { return sync_count_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t segments_created() const { return segments_created_; }

 private:
  struct Segment {
    uint64_t index = 0;
    uint64_t size = 0;           // bytes written including header
    uint64_t max_watermark = 0;  // highest watermark appended
    bool any_records = false;
  };

  Status OpenSegment(uint64_t index);

  StorageMedium* medium_;
  const WalOptions options_;
  std::vector<Segment> sealed_;
  Segment open_;
  bool created_ = false;
  int unsynced_records_ = 0;
  uint64_t sync_count_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t segments_created_ = 0;
};

}  // namespace storage
}  // namespace seemore

#endif  // SEEMORE_STORAGE_WAL_H_
