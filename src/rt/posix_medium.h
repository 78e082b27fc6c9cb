// StorageMedium over real files: the durability backend for node processes.
//
// Each node process points one PosixMedium at its own data directory; the
// WAL / snapshot store stack (storage/durable_store.h) runs unmodified on
// top, exactly as it does over MemMedium in the simulator. File names map
// 1:1 to directory entries (names never contain '/'), Append keeps an open
// O_APPEND descriptor per file, and Sync is a real fsync — so a SIGKILLed
// node that is respawned with the same directory recovers through the same
// FileDurableStore::Recover path the simulator's restart events exercise.
//
// Not thread-safe: one node process owns its medium on the event-loop
// thread, the same ownership MemMedium has under a scenario run.

#ifndef SEEMORE_RT_POSIX_MEDIUM_H_
#define SEEMORE_RT_POSIX_MEDIUM_H_

#include <map>
#include <string>

#include "storage/medium.h"

namespace seemore {
namespace rt {

class PosixMedium final : public storage::StorageMedium {
 public:
  /// Creates `dir` (one level) when absent. Check status() before use.
  explicit PosixMedium(std::string dir);
  ~PosixMedium() override;

  PosixMedium(const PosixMedium&) = delete;
  PosixMedium& operator=(const PosixMedium&) = delete;

  const Status& status() const { return status_; }

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
  Status FlipBit(const std::string& name, uint64_t offset, int bit) override;

 private:
  std::string PathFor(const std::string& name) const;
  /// Cached O_APPEND fd for `name`, opened (and created) on demand.
  Result<int> AppendFdFor(const std::string& name);
  void DropFd(const std::string& name);
  /// fsync of the directory itself: a created or unlinked directory entry
  /// is not durable across power loss until this runs.
  Status SyncDir();

  const std::string dir_;
  Status status_;
  std::map<std::string, int> append_fds_;
};

}  // namespace rt
}  // namespace seemore

#endif  // SEEMORE_RT_POSIX_MEDIUM_H_
