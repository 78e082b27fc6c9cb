// The byte-level persistence substrate under the WAL and snapshot store.
//
// StorageMedium is a deliberately small flat-file interface (append, read,
// truncate, sync, list) — exactly what an append-only log needs and nothing
// a POSIX backend couldn't provide. The simulator uses MemMedium, which is
// deterministic, cloneable (recovery tests replay the same disk image many
// times) and models the two failure semantics the scenario layer injects:
//
//   - Process kill: nothing happens to the medium. Appended bytes survive
//     whether or not they were synced (the page cache outlives the process).
//   - Power loss: PowerLoss() rolls every file back to what the hardware
//     durably holds — everything up to the last Sync(), plus any later
//     fully-written sectors (kTornSector granularity). A record straddling
//     the cut survives only partially: a torn write.
//
// Corruption injection (FlipBit / TruncateTo) drives the recovery
// fuzz/property tests; it models latent media errors, not crash semantics.

#ifndef SEEMORE_STORAGE_MEDIUM_H_
#define SEEMORE_STORAGE_MEDIUM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "wire/wire.h"

namespace seemore {
namespace storage {

class StorageMedium {
 public:
  virtual ~StorageMedium() = default;

  /// Append `len` bytes to `name`, creating the file when absent. Appended
  /// bytes are visible to Read immediately but durable only after Sync.
  virtual Status Append(const std::string& name, const uint8_t* data,
                        size_t len) = 0;
  Status Append(const std::string& name, const Bytes& data) {
    return Append(name, data.data(), data.size());
  }

  /// Whole-file read (files here are bounded: one WAL segment or snapshot).
  virtual Result<Bytes> ReadFile(const std::string& name) const = 0;
  virtual Result<uint64_t> SizeOf(const std::string& name) const = 0;
  virtual bool Exists(const std::string& name) const = 0;
  /// All file names with the given prefix, lexicographically sorted (segment
  /// and snapshot names are zero-padded so this is also creation order).
  virtual std::vector<std::string> List(const std::string& prefix) const = 0;

  /// Chop the file to `size` bytes (recovery discards a torn tail with this).
  virtual Status TruncateTo(const std::string& name, uint64_t size) = 0;
  virtual Status Remove(const std::string& name) = 0;

  /// Make all bytes of `name` durable (fsync).
  virtual Status Sync(const std::string& name) = 0;
  /// Sync every file (fsync the lot at a batch boundary).
  virtual Status SyncAll() = 0;

  /// Flip one bit (latent corruption, fault injection). `bit` in [0, 8).
  virtual Status FlipBit(const std::string& name, uint64_t offset,
                         int bit) = 0;
};

/// Deterministic in-memory medium. One instance per replica; not thread-safe
/// (a scenario run owns its media the same way it owns its simulator).
class MemMedium final : public StorageMedium {
 public:
  /// Power-loss persistence granularity: a lost unsynced tail is cut at this
  /// alignment, leaving partially-written records behind.
  static constexpr uint64_t kTornSector = 512;

  Status Append(const std::string& name, const uint8_t* data,
                size_t len) override;
  Result<Bytes> ReadFile(const std::string& name) const override;
  Result<uint64_t> SizeOf(const std::string& name) const override;
  bool Exists(const std::string& name) const override;
  std::vector<std::string> List(const std::string& prefix) const override;
  Status TruncateTo(const std::string& name, uint64_t size) override;
  Status Remove(const std::string& name) override;
  Status Sync(const std::string& name) override;
  Status SyncAll() override;

  /// --- fault injection ---------------------------------------------------
  /// Roll every file back to its durable prefix extended to the last fully
  /// written sector: max(durable_size, size rounded down to kTornSector).
  void PowerLoss();
  Status FlipBit(const std::string& name, uint64_t offset,
                 int bit) override;

  /// Deep copy, including durable watermarks — recovery property tests
  /// mutate clones so every probe starts from the identical disk image.
  std::unique_ptr<MemMedium> Clone() const;

  /// Durable watermark of `name` (0 when absent) — test introspection.
  uint64_t DurableSize(const std::string& name) const;

  /// --- accounting (bench provenance) -------------------------------------
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t sync_calls() const { return sync_calls_; }

 private:
  struct File {
    Bytes data;
    uint64_t durable_size = 0;  // prefix guaranteed to survive power loss
  };

  std::map<std::string, File> files_;  // ordered: List() is a range scan
  uint64_t bytes_appended_ = 0;
  uint64_t sync_calls_ = 0;
};

}  // namespace storage
}  // namespace seemore

#endif  // SEEMORE_STORAGE_MEDIUM_H_
