#include "storage/wal.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <vector>

#if defined(_WIN32)
#include <io.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/hash.h"
#include "common/logging.h"

namespace insightnotes::storage {

namespace {

constexpr char kWalMagic[8] = {'I', 'N', 'W', 'A', 'L', '\x01', '\0', '\0'};
constexpr size_t kFrameHeader = 2 * sizeof(uint32_t);  // length + crc.

long SizeOf(std::FILE* file) {
  if (std::fseek(file, 0, SEEK_END) != 0) return -1;
  return std::ftell(file);
}

Status TruncateFileTo(std::FILE* file, uint64_t size, const std::string& path) {
#if defined(_WIN32)
  if (_chsize_s(_fileno(file), static_cast<long long>(size)) != 0) {
    return Status::IoError("cannot truncate WAL '" + path + "' to " +
                           std::to_string(size) + " bytes");
  }
#else
  if (::ftruncate(fileno(file), static_cast<off_t>(size)) != 0) {
    return Status::IoError("cannot truncate WAL '" + path + "' to " +
                           std::to_string(size) + " bytes: " + std::strerror(errno));
  }
#endif
  return Status::OK();
}

Status SyncFileToDisk(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) {
    return Status::IoError("WAL flush failed for '" + path +
                           "': " + std::strerror(errno));
  }
#if defined(_WIN32)
  if (_commit(_fileno(file)) != 0) {
    return Status::IoError("WAL commit-to-disk failed for '" + path + "'");
  }
#else
  if (::fsync(fileno(file)) != 0) {
    return Status::IoError("WAL fsync failed for '" + path +
                           "': " + std::strerror(errno));
  }
#endif
  return Status::OK();
}

}  // namespace

Status FsyncDir(const std::string& dir_path) {
#if defined(_WIN32)
  (void)dir_path;
  return Status::OK();
#else
  const std::string dir = dir_path.empty() ? "." : dir_path;
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open directory '" + dir +
                           "' for fsync: " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("cannot fsync directory '" + dir +
                           "': " + std::strerror(saved_errno));
  }
  return Status::OK();
#endif
}

Status FsyncDirOf(const std::string& file_path) {
  return FsyncDir(std::filesystem::path(file_path).parent_path().string());
}

WriteAheadLog::~WriteAheadLog() {
  Status s = Close();
  if (!s.ok()) {
    INSIGHTNOTES_LOG(Error) << "WriteAheadLog::Close failed in destructor: "
                            << s.ToString();
  }
}

Status WriteAheadLog::Open(const std::string& path, bool truncate,
                           uint64_t keep_bytes) {
  if (is_open()) return Status::Internal("WAL already open");
  path_ = path;
  failed_ = false;
  num_appended_ = 0;
  if (!truncate) {
    file_ = std::fopen(path.c_str(), "rb+");
    if (file_ != nullptr) {
      long size = SizeOf(file_);
      if (size < 0) {
        std::fclose(file_);
        file_ = nullptr;
        return Status::IoError("cannot size WAL '" + path + "'");
      }
      if (keep_bytes != UINT64_MAX && static_cast<uint64_t>(size) > keep_bytes) {
        Status truncated = TruncateFileTo(file_, keep_bytes, path);
        if (!truncated.ok()) {
          std::fclose(file_);
          file_ = nullptr;
          return truncated.WithContext("cannot cut torn WAL tail");
        }
      }
      if (std::fseek(file_, 0, SEEK_END) != 0) {
        std::fclose(file_);
        file_ = nullptr;
        return Status::IoError("seek to WAL end failed for '" + path + "'");
      }
      // An empty (or fully truncated) file still needs its magic header.
      if (std::ftell(file_) == 0 &&
          std::fwrite(kWalMagic, 1, sizeof(kWalMagic), file_) != sizeof(kWalMagic)) {
        std::fclose(file_);
        file_ = nullptr;
        return Status::IoError("cannot write WAL header to '" + path + "'");
      }
      return Status::OK();
    }
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IoError("cannot open WAL '" + path + "'");
  }
  if (std::fwrite(kWalMagic, 1, sizeof(kWalMagic), file_) != sizeof(kWalMagic)) {
    std::fclose(file_);
    file_ = nullptr;
    return Status::IoError("cannot write WAL header to '" + path + "'");
  }
  return Status::OK();
}

Status WriteAheadLog::Append(std::string_view payload) {
  if (!is_open()) return Status::Internal("WAL not open");
  if (failed_) {
    return Status::IoError("WAL '" + path_ +
                           "' is failed after an unrecovered partial append");
  }
  long start = std::ftell(file_);
  if (start < 0) {
    return Status::IoError("cannot read WAL append offset of '" + path_ +
                           "': " + std::strerror(errno));
  }
  uint32_t length = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32(payload.data(), payload.size());
  char header[kFrameHeader];
  std::memcpy(header, &length, sizeof(length));
  std::memcpy(header + sizeof(length), &crc, sizeof(crc));
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header) ||
      std::fwrite(payload.data(), 1, payload.size(), file_) != payload.size()) {
    Status io = Status::IoError("WAL append failed for '" + path_ +
                                "': " + std::strerror(errno));
    // A torn frame may sit in the file or the stdio buffer. Rewind to the
    // pre-append offset so later appends extend the acknowledged prefix
    // instead of landing after a frame replay stops at; if the rewind
    // fails the log refuses further appends until repaired.
    std::clearerr(file_);
    if (std::fseek(file_, start, SEEK_SET) != 0 ||
        !TruncateFileTo(file_, static_cast<uint64_t>(start), path_).ok()) {
      failed_ = true;
      return io.WithContext("WAL failed (torn frame could not be rewound)");
    }
    return io;
  }
  ++num_appended_;
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  if (!is_open()) return Status::Internal("WAL not open");
  if (failed_) {
    return Status::IoError("WAL '" + path_ +
                           "' is failed after an unrecovered partial append");
  }
  return SyncFileToDisk(file_, path_);
}

Result<uint64_t> WriteAheadLog::AppendOffset() {
  if (!is_open()) return Status::Internal("WAL not open");
  long pos = std::ftell(file_);
  if (pos < 0) {
    return Status::IoError("cannot read WAL append offset of '" + path_ +
                           "': " + std::strerror(errno));
  }
  return static_cast<uint64_t>(pos);
}

Status WriteAheadLog::TruncateTo(uint64_t offset) {
  if (!is_open()) return Status::Internal("WAL not open");
  // fseek first: it flushes whatever stdio buffered, so the truncation
  // below removes those bytes too instead of having them re-land later.
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    failed_ = true;
    return Status::IoError("cannot seek WAL '" + path_ + "' to offset " +
                           std::to_string(offset) + ": " + std::strerror(errno));
  }
  Status truncated = TruncateFileTo(file_, offset, path_);
  if (!truncated.ok()) {
    failed_ = true;
    return truncated;
  }
  Status synced = SyncFileToDisk(file_, path_);
  if (!synced.ok()) {
    failed_ = true;
    return synced.WithContext("WAL rollback not durable");
  }
  failed_ = false;  // The valid prefix provably ends here: repaired.
  return Status::OK();
}

Status WriteAheadLog::Close() {
  Status result = Status::OK();
  if (file_ != nullptr) {
    if (std::fflush(file_) != 0) {
      result = Status::IoError("WAL flush on close failed for '" + path_ + "'");
    }
    if (std::fclose(file_) != 0 && result.ok()) {
      result = Status::IoError("WAL close failed for '" + path_ + "'");
    }
    file_ = nullptr;
  }
  return result;
}

Result<WriteAheadLog::ReplayStats> WriteAheadLog::Replay(
    const std::string& path, const std::function<Status(std::string_view)>& fn) {
  ReplayStats stats;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return stats;  // Missing log = empty log.
  long size_long = SizeOf(file);
  if (size_long < 0) {
    std::fclose(file);
    return Status::IoError("cannot size WAL '" + path + "'");
  }
  uint64_t size = static_cast<uint64_t>(size_long);
  std::rewind(file);

  char magic[sizeof(kWalMagic)];
  if (size == 0) {
    std::fclose(file);
    return stats;
  }
  if (size < sizeof(kWalMagic) ||
      std::fread(magic, 1, sizeof(magic), file) != sizeof(magic) ||
      std::memcmp(magic, kWalMagic, sizeof(magic)) != 0) {
    std::fclose(file);
    return Status::Corruption("'" + path + "' is not an InsightNotes WAL");
  }
  stats.valid_bytes = sizeof(kWalMagic);

  std::vector<char> payload;
  while (stats.valid_bytes + kFrameHeader <= size) {
    char header[kFrameHeader];
    if (std::fread(header, 1, sizeof(header), file) != sizeof(header)) break;
    uint32_t length, crc;
    std::memcpy(&length, header, sizeof(length));
    std::memcpy(&crc, header + sizeof(length), sizeof(crc));
    if (stats.valid_bytes + kFrameHeader + length > size) break;  // Torn tail.
    payload.resize(length);
    if (length > 0 && std::fread(payload.data(), 1, length, file) != length) break;
    if (Crc32(payload.data(), length) != crc) break;  // Corrupt tail.
    Status applied = fn(std::string_view(payload.data(), length));
    if (!applied.ok()) {
      std::fclose(file);
      return applied;
    }
    ++stats.records;
    stats.valid_bytes += kFrameHeader + length;
  }
  stats.truncated_bytes = size - stats.valid_bytes;
  std::fclose(file);
  return stats;
}

}  // namespace insightnotes::storage
