#include "storage/wal.h"

#include <algorithm>
#include <cstdio>

#include "storage/crc32c.h"
#include "util/logging.h"

namespace seemore {
namespace storage {
namespace {

uint32_t ReadU32At(const Bytes& data, size_t offset) {
  uint32_t v;
  std::memcpy(&v, data.data() + offset, 4);
  return v;  // little-endian host assumption, same as the wire Encoder
}

/// Validate the frame starting at `offset`. On success stores the payload
/// length; any failure (short header, insane length, frame past EOF, CRC
/// mismatch) is "invalid" — the recovery policy decides what that means.
bool FrameValidAt(const Bytes& data, size_t offset, uint32_t* payload_len) {
  if (offset + kWalFrameHeaderBytes > data.size()) return false;
  const uint32_t stored_crc = ReadU32At(data, offset);
  const uint32_t len = ReadU32At(data, offset + 4);
  if (len > kWalMaxRecordBytes) return false;
  if (offset + kWalFrameHeaderBytes + len > data.size()) return false;
  // CRC covers len || payload so a damaged length cannot masquerade.
  const uint32_t actual =
      Crc32c(data.data() + offset + 4, 4 + static_cast<size_t>(len));
  if (actual != stored_crc) return false;
  *payload_len = len;
  return true;
}

/// Does ANY valid frame start at or after `offset`? Distinguishes a torn
/// tail (no: everything after the cut is unwritten garbage) from mid-log
/// corruption (yes: intact records exist beyond the damage, so bytes were
/// altered, not lost). Only runs on the already-failed path.
bool AnyValidFrameAfter(const Bytes& data, size_t offset) {
  for (size_t probe = offset; probe + kWalFrameHeaderBytes <= data.size();
       ++probe) {
    uint32_t len = 0;
    if (FrameValidAt(data, probe, &len)) return true;
  }
  return false;
}

Status CorruptionAt(const std::string& segment, size_t offset,
                    const char* what) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "wal segment %s: %s at offset %zu",
                segment.c_str(), what, offset);
  return Status::Corruption(buf);
}

}  // namespace

std::string WalSegmentName(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%016llx",
                static_cast<unsigned long long>(index));
  return buf;
}

Result<WalRecovery> RecoverWal(const StorageMedium& medium) {
  WalRecovery out;
  const std::vector<std::string> segments = medium.List("wal-");
  for (size_t seg = 0; seg < segments.size(); ++seg) {
    const std::string& name = segments[seg];
    const bool last = seg + 1 == segments.size();
    Result<Bytes> read = medium.ReadFile(name);
    SEEMORE_RETURN_IF_ERROR(read.status());
    const Bytes& data = *read;
    ++out.segments_scanned;

    // Header. A short or damaged header in the last segment follows the
    // same torn-vs-corrupt rule as a damaged frame; in a sealed segment it
    // is corruption outright.
    bool header_ok = data.size() >= kWalSegmentHeaderBytes;
    if (header_ok) {
      Decoder dec(data.data(), kWalSegmentHeaderBytes);
      const uint32_t magic = dec.GetU32();
      const uint32_t version = dec.GetU32();
      const uint64_t index = dec.GetU64();
      header_ok = dec.ok() && magic == kWalMagic && version == kWalVersion &&
                  WalSegmentName(index) == name;
    }
    if (!header_ok) {
      if (!last || AnyValidFrameAfter(data, 0)) {
        return CorruptionAt(name, 0, "bad segment header");
      }
      out.truncated_bytes += data.size();
      continue;  // torn at roll: the whole segment is a dead tail
    }

    size_t offset = kWalSegmentHeaderBytes;
    while (offset < data.size()) {
      uint32_t payload_len = 0;
      if (FrameValidAt(data, offset, &payload_len)) {
        const uint8_t* payload = data.data() + offset + kWalFrameHeaderBytes;
        out.payloads.emplace_back(payload, payload + payload_len);
        offset += kWalFrameHeaderBytes + payload_len;
        continue;
      }
      if (!last || AnyValidFrameAfter(data, offset + 1)) {
        return CorruptionAt(name, offset, "invalid record");
      }
      out.truncated_bytes += data.size() - offset;
      break;  // clean torn tail: keep the valid prefix
    }
  }
  return out;
}

WriteAheadLog::WriteAheadLog(StorageMedium* medium, WalOptions options)
    : medium_(medium), options_(options) {
  SEEMORE_CHECK(options_.fsync_interval >= 1) << "fsync_interval must be >= 1";
  SEEMORE_CHECK(options_.segment_bytes > kWalSegmentHeaderBytes);
}

Status TamperWalTail(StorageMedium& medium, WalTamper tamper,
                     uint64_t offset_from_end) {
  const bool truncate = tamper == WalTamper::kTruncate;
  const std::vector<std::string> segments = medium.List("wal-");
  if (segments.empty()) {
    return Status::FailedPrecondition(std::string("no wal segments to ") +
                                      (truncate ? "truncate" : "corrupt"));
  }
  const std::string& last = segments.back();
  SEEMORE_ASSIGN_OR_RETURN(uint64_t size, medium.SizeOf(last));
  if (truncate) {
    return medium.TruncateTo(
        last, offset_from_end >= size ? 0 : size - offset_from_end);
  }
  if (size == 0) return Status::FailedPrecondition("empty wal segment");
  return medium.FlipBit(
      last, offset_from_end >= size ? 0 : size - 1 - offset_from_end, 0);
}

Status WriteAheadLog::Create() {
  SEEMORE_CHECK(!created_) << "wal already created";
  if (!medium_->List("wal-").empty()) {
    return Status::FailedPrecondition(
        "medium already holds wal segments; recover and compact first");
  }
  created_ = true;
  return OpenSegment(0);
}

Status WriteAheadLog::OpenSegment(uint64_t index) {
  Encoder enc;
  enc.PutU32(kWalMagic);
  enc.PutU32(kWalVersion);
  enc.PutU64(index);
  const Bytes header = enc.Take();
  SEEMORE_RETURN_IF_ERROR(medium_->Append(WalSegmentName(index), header));
  open_ = Segment{};
  open_.index = index;
  open_.size = header.size();
  bytes_written_ += header.size();
  ++segments_created_;
  return Status::Ok();
}

Status WriteAheadLog::Append(const Bytes& payload, uint64_t watermark) {
  SEEMORE_CHECK(created_) << "wal not created";
  SEEMORE_CHECK(payload.size() <= kWalMaxRecordBytes);
  const std::string name = WalSegmentName(open_.index);
  Encoder enc;
  enc.Reserve(kWalFrameHeaderBytes + payload.size());
  enc.PutU32(0);  // crc, patched below
  enc.PutU32(static_cast<uint32_t>(payload.size()));
  enc.PutRaw(payload);
  Bytes frame = enc.Take();
  const uint32_t crc = Crc32c(frame.data() + 4, frame.size() - 4);
  std::memcpy(frame.data(), &crc, 4);

  SEEMORE_RETURN_IF_ERROR(medium_->Append(name, frame));
  open_.size += frame.size();
  open_.max_watermark = std::max(open_.max_watermark, watermark);
  open_.any_records = true;
  bytes_written_ += frame.size();
  ++unsynced_records_;

  if (open_.size >= options_.segment_bytes) {
    // Seal: sync before the successor exists, so torn writes can never hide
    // behind a newer segment (the recovery policy depends on this).
    SEEMORE_RETURN_IF_ERROR(Sync());
    sealed_.push_back(open_);
    return OpenSegment(open_.index + 1);
  }
  if (unsynced_records_ >= options_.fsync_interval) {
    return Sync();
  }
  return Status::Ok();
}

Status WriteAheadLog::Sync() {
  SEEMORE_CHECK(created_) << "wal not created";
  if (unsynced_records_ == 0) return Status::Ok();
  SEEMORE_RETURN_IF_ERROR(medium_->Sync(WalSegmentName(open_.index)));
  unsynced_records_ = 0;
  ++sync_count_;
  return Status::Ok();
}

Status WriteAheadLog::GcBelow(uint64_t floor) {
  size_t kept = 0;
  for (const Segment& segment : sealed_) {
    if (segment.any_records && segment.max_watermark <= floor) {
      SEEMORE_RETURN_IF_ERROR(medium_->Remove(WalSegmentName(segment.index)));
    } else {
      sealed_[kept++] = segment;
    }
  }
  sealed_.resize(kept);
  return Status::Ok();
}

}  // namespace storage
}  // namespace seemore
