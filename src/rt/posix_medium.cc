#include "rt/posix_medium.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace seemore {
namespace rt {
namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

bool ValidName(const std::string& name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string::npos;
}

}  // namespace

PosixMedium::PosixMedium(std::string dir) : dir_(std::move(dir)) {
  if (mkdir(dir_.c_str(), 0755) < 0 && errno != EEXIST) {
    status_ = Errno("mkdir " + dir_);
  }
}

PosixMedium::~PosixMedium() {
  for (const auto& [name, fd] : append_fds_) close(fd);
}

std::string PosixMedium::PathFor(const std::string& name) const {
  return dir_ + "/" + name;
}

Result<int> PosixMedium::AppendFdFor(const std::string& name) {
  auto it = append_fds_.find(name);
  if (it != append_fds_.end()) return it->second;
  const std::string path = PathFor(name);
  int fd = open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0 && errno == ENOENT) {
    fd = open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd >= 0) {
      // The new directory entry must itself be durable, or the file (and
      // every fsynced byte in it) can vanish entirely on power loss.
      const Status dir_sync = SyncDir();
      if (!dir_sync.ok()) {
        close(fd);
        return dir_sync;
      }
    }
  }
  if (fd < 0) return Errno("open " + name);
  append_fds_[name] = fd;
  return fd;
}

Status PosixMedium::SyncDir() {
  const int fd = open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open " + dir_);
  const int rc = fsync(fd);
  close(fd);
  if (rc < 0) return Errno("fsync " + dir_);
  return Status::Ok();
}

void PosixMedium::DropFd(const std::string& name) {
  auto it = append_fds_.find(name);
  if (it != append_fds_.end()) {
    close(it->second);
    append_fds_.erase(it);
  }
}

Status PosixMedium::Append(const std::string& name, const uint8_t* data,
                           size_t len) {
  if (!ValidName(name)) return Status::InvalidArgument("bad file name");
  SEEMORE_ASSIGN_OR_RETURN(const int fd, AppendFdFor(name));
  size_t written = 0;
  while (written < len) {
    const ssize_t n = write(fd, data + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("append " + name);
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<Bytes> PosixMedium::ReadFile(const std::string& name) const {
  if (!ValidName(name)) return Status::InvalidArgument("bad file name");
  const int fd = open(PathFor(name).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + name);
    return Errno("open " + name);
  }
  Bytes out;
  uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st = Errno("read " + name);
      close(fd);
      return st;
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  close(fd);
  return out;
}

Result<uint64_t> PosixMedium::SizeOf(const std::string& name) const {
  if (!ValidName(name)) return Status::InvalidArgument("bad file name");
  struct stat st{};
  if (stat(PathFor(name).c_str(), &st) < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + name);
    return Errno("stat " + name);
  }
  return static_cast<uint64_t>(st.st_size);
}

bool PosixMedium::Exists(const std::string& name) const {
  if (!ValidName(name)) return false;
  struct stat st{};
  return stat(PathFor(name).c_str(), &st) == 0;
}

std::vector<std::string> PosixMedium::List(const std::string& prefix) const {
  std::vector<std::string> out;
  DIR* dir = opendir(dir_.c_str());
  if (dir == nullptr) return out;
  while (dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (!ValidName(name)) continue;
    if (name.compare(0, prefix.size(), prefix) == 0) out.push_back(name);
  }
  closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

Status PosixMedium::TruncateTo(const std::string& name, uint64_t size) {
  if (!ValidName(name)) return Status::InvalidArgument("bad file name");
  // The cached O_APPEND fd stays valid across truncate, but drop it anyway:
  // truncation is a recovery-time operation, not a hot path.
  DropFd(name);
  const int fd = open(PathFor(name).c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + name);
    return Errno("truncate " + name);
  }
  // The shrunk size is an inode change: fsync the file so a crash cannot
  // resurrect the truncated-away suffix.
  if (ftruncate(fd, static_cast<off_t>(size)) < 0 || fsync(fd) < 0) {
    const Status st = Errno("truncate " + name);
    close(fd);
    return st;
  }
  close(fd);
  return Status::Ok();
}

Status PosixMedium::Remove(const std::string& name) {
  if (!ValidName(name)) return Status::InvalidArgument("bad file name");
  DropFd(name);
  if (unlink(PathFor(name).c_str()) < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + name);
    return Errno("unlink " + name);
  }
  // Make the removal itself durable, or a crash can bring the stale file
  // back (e.g. a superseded snapshot outliving its replacement's WAL reset).
  return SyncDir();
}

Status PosixMedium::Sync(const std::string& name) {
  if (!ValidName(name)) return Status::InvalidArgument("bad file name");
  // Never create on sync: fsync of a file that was never written must be a
  // NotFound, not a silent empty-file creation.
  auto it = append_fds_.find(name);
  int fd = it != append_fds_.end() ? it->second : -1;
  if (fd < 0) {
    fd = open(PathFor(name).c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + name);
      return Errno("open " + name);
    }
    append_fds_[name] = fd;
  }
  if (fsync(fd) < 0) return Errno("fsync " + name);
  return Status::Ok();
}

Status PosixMedium::SyncAll() {
  for (const auto& [name, fd] : append_fds_) {
    if (fsync(fd) < 0) return Errno("fsync " + name);
  }
  return Status::Ok();
}

Status PosixMedium::FlipBit(const std::string& name, uint64_t offset,
                            int bit) {
  if (!ValidName(name)) return Status::InvalidArgument("bad file name");
  const int fd = open(PathFor(name).c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return Errno("open " + name);
  uint8_t byte = 0;
  Status status;
  if (bit < 0 || bit >= 8 ||
      pread(fd, &byte, 1, static_cast<off_t>(offset)) != 1) {
    status = Status::OutOfRange("flip-bit outside " + name);
  } else {
    byte ^= static_cast<uint8_t>(1u << bit);
    if (pwrite(fd, &byte, 1, static_cast<off_t>(offset)) != 1) {
      status = Errno("flip-bit " + name);
    }
  }
  close(fd);
  return status;
}

}  // namespace rt
}  // namespace seemore
