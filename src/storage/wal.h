// WriteAheadLog: an append-only log of length-prefixed, CRC32-checksummed
// byte records, synced to stable storage before the structures it protects
// are mutated. The annotation layer logs logical {annotation, region}
// records here (see annotation/wal_records.h); on reopen the engine replays
// the log to rebuild the raw-annotation store, treating the page file as a
// rebuildable cache of annotation bodies.
//
// On-disk format:
//   [8-byte magic "INWAL\x01\0\0"]
//   repeated records: [u32 payload length][u32 CRC32(payload)][payload]
//
// A crash can leave a torn tail (a partial record, or a record whose CRC
// does not match). Replay stops at the first such record and reports how
// many bytes it dropped; Open(..., keep_bytes) truncates the tail so new
// appends start from a clean prefix.

#ifndef INSIGHTNOTES_STORAGE_WAL_H_
#define INSIGHTNOTES_STORAGE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace insightnotes::storage {

/// Fsyncs directory `dir_path` itself (not its contents). POSIX only makes
/// a rename, create or unlink of a directory entry durable once the
/// directory's own inode is synced; skipping this lets a power loss
/// resurrect the old entry (or lose the new one). No-op on Windows, where
/// directory handles cannot be flushed and NTFS journals namespace updates.
Status FsyncDir(const std::string& dir_path);

/// Fsyncs the directory containing `file_path` (see FsyncDir).
Status FsyncDirOf(const std::string& file_path);

class WriteAheadLog {
 public:
  /// Replay outcome: records delivered and where the valid prefix ends.
  struct ReplayStats {
    uint64_t records = 0;
    uint64_t valid_bytes = 0;      // Magic + complete, checksum-valid records.
    uint64_t truncated_bytes = 0;  // Torn/corrupt tail bytes past the prefix.
  };

  WriteAheadLog() = default;
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens `path` for appending. With `truncate` the log starts empty (a
  /// fresh database); otherwise existing records are kept and, when
  /// `keep_bytes` (from ReplayStats::valid_bytes) is given, a torn tail
  /// beyond it is cut off first.
  Status Open(const std::string& path, bool truncate,
              uint64_t keep_bytes = UINT64_MAX);

  /// Appends one record. Buffered; call Sync() to make it durable. The
  /// record only counts as committed once Sync() returns OK. A partially
  /// written frame (short write, e.g. ENOSPC) is rewound to the pre-append
  /// offset so acknowledged records stay contiguous; if the rewind itself
  /// fails, the log enters a failed state and refuses further appends
  /// (see failed()) rather than let new records land after a torn frame
  /// that replay would stop at.
  Status Append(std::string_view payload);

  /// Flushes and fsyncs all appended records.
  Status Sync();

  /// Byte offset the next Append writes at. Capture it before an append to
  /// be able to roll the record back with TruncateTo if the mutation it
  /// describes is never applied.
  Result<uint64_t> AppendOffset();

  /// Discards every byte at or past `offset` (from AppendOffset), making
  /// the rollback durable (ftruncate + fsync). Also repairs a failed()
  /// log: on success the valid prefix ends at `offset` and appends are
  /// accepted again. On failure the log is (or stays) failed.
  Status TruncateTo(uint64_t offset);

  Status Close();

  bool is_open() const { return file_ != nullptr; }
  /// True after a partial append could not be rewound: the file may end in
  /// a torn frame, so Append/Sync are refused until TruncateTo or a
  /// reopen repairs the tail.
  bool failed() const { return failed_; }
  /// Successful Append calls since Open (not reduced by TruncateTo).
  uint64_t num_appended() const { return num_appended_; }

  /// Reads `path` and invokes `fn` for each complete, checksum-valid
  /// record in order, stopping early on a non-OK return. A missing file is
  /// an empty log. A torn or corrupt tail ends replay (reported in the
  /// stats, not an error); a bad magic header is Corruption.
  static Result<ReplayStats> Replay(
      const std::string& path,
      const std::function<Status(std::string_view payload)>& fn);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  bool failed_ = false;
  uint64_t num_appended_ = 0;
};

}  // namespace insightnotes::storage

#endif  // INSIGHTNOTES_STORAGE_WAL_H_
