#include "storage/medium.h"

#include <algorithm>

namespace seemore {
namespace storage {

MemMedium::File& MemMedium::FileFor(const std::string& name) {
  auto [it, created] = files_.try_emplace(name);
  if (created) it->second.incarnation = ++incarnations_;
  return it->second;
}

Status MemMedium::Append(const std::string& name, const uint8_t* data,
                         size_t len) {
  File& file = FileFor(name);
  file.data.insert(file.data.end(), data, data + len);
  bytes_appended_ += len;
  return Status::Ok();
}

Result<Bytes> MemMedium::ReadFile(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  return it->second.data;
}

Result<uint64_t> MemMedium::SizeOf(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  return static_cast<uint64_t>(it->second.data.size());
}

bool MemMedium::Exists(const std::string& name) const {
  return files_.count(name) > 0;
}

std::vector<std::string> MemMedium::List(const std::string& prefix) const {
  std::vector<std::string> names;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    names.push_back(it->first);
  }
  return names;
}

Status MemMedium::TruncateTo(const std::string& name, uint64_t size) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  File& file = it->second;
  if (size < file.data.size()) {
    file.data.resize(size);
    file.durable_size = std::min(file.durable_size, size);
  }
  return Status::Ok();
}

Status MemMedium::Remove(const std::string& name) {
  if (files_.erase(name) == 0) {
    return Status::NotFound("no such file: " + name);
  }
  return Status::Ok();
}

Status MemMedium::Sync(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  it->second.durable_size = it->second.data.size();
  ++sync_calls_;
  return Status::Ok();
}

Status MemMedium::SyncAll() {
  for (auto& [name, file] : files_) {
    file.durable_size = file.data.size();
  }
  ++sync_calls_;
  return Status::Ok();
}

Result<SyncJob> MemMedium::PrepareSync(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  const uint64_t size = it->second.data.size();
  const uint64_t incarnation = it->second.incarnation;
  return SyncJob([this, name, size, incarnation] {
    auto file = files_.find(name);
    if (file != files_.end() && file->second.incarnation == incarnation) {
      File& f = file->second;
      f.durable_size = std::max(
          f.durable_size, std::min<uint64_t>(size, f.data.size()));
      ++sync_calls_;
    }
    return Status::Ok();
  });
}

void MemMedium::PowerLoss() {
  for (auto& [name, file] : files_) {
    file.incarnation = ++incarnations_;
    const uint64_t sector_floor =
        (file.data.size() / kTornSector) * kTornSector;
    const uint64_t kept = std::max(file.durable_size, sector_floor);
    file.data.resize(std::min<uint64_t>(kept, file.data.size()));
  }
}

Status MemMedium::FlipBit(const std::string& name, uint64_t offset, int bit) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  if (offset >= it->second.data.size() || bit < 0 || bit >= 8) {
    return Status::OutOfRange("flip-bit outside " + name);
  }
  it->second.data[offset] ^= static_cast<uint8_t>(1u << bit);
  return Status::Ok();
}

std::unique_ptr<MemMedium> MemMedium::Clone() const {
  auto copy = std::make_unique<MemMedium>();
  copy->files_ = files_;
  copy->incarnations_ = incarnations_;
  copy->bytes_appended_ = bytes_appended_;
  copy->sync_calls_ = sync_calls_;
  return copy;
}

uint64_t MemMedium::DurableSize(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second.durable_size;
}

}  // namespace storage
}  // namespace seemore
