// WriteAheadLog framing, replay, torn-tail handling, and the annotation
// layer's logical record codec layered on top of it.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <variant>
#include <vector>

#include "annotation/wal_records.h"

namespace insightnotes::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/insightnotes_wal_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".wal";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<std::string> ReplayAll(uint64_t* valid_bytes = nullptr,
                                     uint64_t* truncated = nullptr) {
    std::vector<std::string> records;
    auto stats = WriteAheadLog::Replay(path_, [&](std::string_view payload) {
      records.emplace_back(payload);
      return Status::OK();
    });
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats.ok()) {
      EXPECT_EQ(stats->records, records.size());
      if (valid_bytes != nullptr) *valid_bytes = stats->valid_bytes;
      if (truncated != nullptr) *truncated = stats->truncated_bytes;
    }
    return records;
  }

  void AppendRaw(const std::string& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    ASSERT_EQ(std::fclose(f), 0);
  }

  std::string path_;
};

TEST_F(WalTest, AppendReplayRoundTrip) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_, /*truncate=*/true).ok());
    ASSERT_TRUE(wal.Append("first").ok());
    ASSERT_TRUE(wal.Append("").ok());  // Empty payloads are legal frames.
    ASSERT_TRUE(wal.Append(std::string(10000, 'x')).ok());
    ASSERT_TRUE(wal.Sync().ok());
    EXPECT_EQ(wal.num_appended(), 3u);
    ASSERT_TRUE(wal.Close().ok());
  }
  auto records = ReplayAll();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "first");
  EXPECT_EQ(records[1], "");
  EXPECT_EQ(records[2], std::string(10000, 'x'));
}

TEST_F(WalTest, MissingFileReplaysAsEmpty) {
  uint64_t valid = 99, truncated = 99;
  auto records = ReplayAll(&valid, &truncated);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(valid, 0u);
  EXPECT_EQ(truncated, 0u);
}

TEST_F(WalTest, BadMagicIsCorruption) {
  AppendRaw("definitely not a WAL header");
  auto stats = WriteAheadLog::Replay(
      path_, [](std::string_view) { return Status::OK(); });
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status().ToString();
}

TEST_F(WalTest, TornTailStopsReplayAndIsTruncatedOnReopen) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_, true).ok());
    ASSERT_TRUE(wal.Append("kept-1").ok());
    ASSERT_TRUE(wal.Append("kept-2").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // A crash mid-append leaves a frame header promising more bytes than the
  // file holds.
  AppendRaw(std::string("\x40\x00\x00\x00\x99\x99\x99\x99partial", 15));

  uint64_t valid = 0, truncated = 0;
  auto records = ReplayAll(&valid, &truncated);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], "kept-2");
  EXPECT_EQ(truncated, 15u);

  // Reopening for append with keep_bytes cuts the torn tail off, and new
  // appends extend the clean prefix.
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_, false, valid).ok());
    ASSERT_TRUE(wal.Append("after-recovery").ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  records = ReplayAll(&valid, &truncated);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2], "after-recovery");
  EXPECT_EQ(truncated, 0u);
}

TEST_F(WalTest, CorruptPayloadStopsReplayAtThatRecord) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_, true).ok());
    ASSERT_TRUE(wal.Append("good").ok());
    ASSERT_TRUE(wal.Append("about to rot").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Flip the last payload byte: the CRC no longer matches.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
  ASSERT_EQ(std::fputc('!', f), '!');
  ASSERT_EQ(std::fclose(f), 0);

  uint64_t truncated = 0;
  auto records = ReplayAll(nullptr, &truncated);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "good");
  EXPECT_GT(truncated, 0u);
}

TEST_F(WalTest, ReopenWithoutTruncateKeepsRecords) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_, true).ok());
    ASSERT_TRUE(wal.Append("one").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_, false).ok());
    ASSERT_TRUE(wal.Append("two").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  auto records = ReplayAll();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "one");
  EXPECT_EQ(records[1], "two");
}

TEST_F(WalTest, TruncateToRollsBackAppendedRecords) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path_, /*truncate=*/true).ok());
  ASSERT_TRUE(wal.Append("keep").ok());
  ASSERT_TRUE(wal.Sync().ok());
  auto mark = wal.AppendOffset();
  ASSERT_TRUE(mark.ok()) << mark.status().ToString();
  // Even a synced record can be rolled back: the engine does this when the
  // store mutation the record describes never applied.
  ASSERT_TRUE(wal.Append("rolled back").ok());
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(wal.TruncateTo(*mark).ok());
  EXPECT_FALSE(wal.failed());
  ASSERT_TRUE(wal.Append("replacement").ok());
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(wal.Close().ok());

  auto records = ReplayAll();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "keep");
  EXPECT_EQ(records[1], "replacement");
}

TEST_F(WalTest, TruncateToZeroKeepsMagicIntactOnReopen) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_, /*truncate=*/true).ok());
    auto mark = wal.AppendOffset();
    ASSERT_TRUE(mark.ok());
    ASSERT_TRUE(wal.Append("only").ok());
    ASSERT_TRUE(wal.TruncateTo(*mark).ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  uint64_t valid = 0, truncated = 0;
  auto records = ReplayAll(&valid, &truncated);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(truncated, 0u);

  // The rolled-back log accepts appends again after a reopen.
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_, /*truncate=*/false, valid).ok());
    ASSERT_TRUE(wal.Append("fresh").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  records = ReplayAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "fresh");
}

TEST_F(WalTest, ReplayStopsOnCallbackError) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_, true).ok());
    ASSERT_TRUE(wal.Append("a").ok());
    ASSERT_TRUE(wal.Append("b").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  int delivered = 0;
  auto stats = WriteAheadLog::Replay(path_, [&](std::string_view) {
    ++delivered;
    return Status::Internal("replay handler refused");
  });
  EXPECT_TRUE(stats.status().IsInternal());
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace insightnotes::storage

namespace insightnotes::ann {
namespace {

Annotation MakeNote(const std::string& body) {
  Annotation note;
  note.kind = AnnotationKind::kComment;
  note.author = "alice";
  note.timestamp = 1437004800;
  note.title = "observation";
  note.body = body;
  return note;
}

TEST(WalRecordsTest, AddRecordRoundTrip) {
  WalAddRecord add;
  add.expected_id = 42;
  add.note = MakeNote("a goose eating stonewort");
  add.region = CellRegion{7, 123, {0, 2, 5}};
  auto decoded = DecodeWalEntry(EncodeWalEntry(WalEntry(add)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* got = std::get_if<WalAddRecord>(&*decoded);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->expected_id, 42u);
  EXPECT_EQ(got->note.kind, AnnotationKind::kComment);
  EXPECT_EQ(got->note.author, "alice");
  EXPECT_EQ(got->note.timestamp, 1437004800);
  EXPECT_EQ(got->note.title, "observation");
  EXPECT_EQ(got->note.body, "a goose eating stonewort");
  EXPECT_EQ(got->region.table, 7u);
  EXPECT_EQ(got->region.row, 123u);
  EXPECT_EQ(got->region.columns, (std::vector<size_t>{0, 2, 5}));
}

TEST(WalRecordsTest, AttachAndArchiveRoundTrip) {
  WalAttachRecord attach;
  attach.id = 9;
  attach.region = CellRegion{3, 77, {}};
  auto decoded_attach = DecodeWalEntry(EncodeWalEntry(WalEntry(attach)));
  ASSERT_TRUE(decoded_attach.ok());
  const auto* got_attach = std::get_if<WalAttachRecord>(&*decoded_attach);
  ASSERT_NE(got_attach, nullptr);
  EXPECT_EQ(got_attach->id, 9u);
  EXPECT_EQ(got_attach->region.table, 3u);
  EXPECT_EQ(got_attach->region.row, 77u);
  EXPECT_TRUE(got_attach->region.columns.empty());

  auto decoded_archive = DecodeWalEntry(EncodeWalEntry(WalEntry(WalArchiveRecord{5})));
  ASSERT_TRUE(decoded_archive.ok());
  const auto* got_archive = std::get_if<WalArchiveRecord>(&*decoded_archive);
  ASSERT_NE(got_archive, nullptr);
  EXPECT_EQ(got_archive->id, 5u);
}

TEST(WalRecordsTest, MalformedPayloadsAreCorruption) {
  EXPECT_TRUE(DecodeWalEntry("").status().IsCorruption());
  EXPECT_TRUE(DecodeWalEntry("\x09").status().IsCorruption());  // Unknown tag.

  WalAddRecord add;
  add.expected_id = 1;
  add.note = MakeNote("body");
  add.region = CellRegion{1, 2, {3}};
  std::string encoded = EncodeWalEntry(WalEntry(add));
  // Every strict prefix must be rejected, not mis-decoded.
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto truncated = DecodeWalEntry(std::string_view(encoded).substr(0, len));
    EXPECT_TRUE(truncated.status().IsCorruption()) << "prefix length " << len;
  }
  // Trailing garbage is rejected too.
  EXPECT_TRUE(DecodeWalEntry(encoded + "x").status().IsCorruption());
}

TEST(WalRecordsTest, HugeColumnCountIsRejectedNotAllocated) {
  // A corrupt count of ~4 billion columns must fail bounds-checking before
  // any allocation is attempted.
  WalAttachRecord attach;
  attach.id = 1;
  attach.region = CellRegion{1, 2, {}};
  std::string encoded = EncodeWalEntry(WalEntry(attach));
  // The column count is the last u32; overwrite it with 0xFFFFFFFF.
  ASSERT_GE(encoded.size(), 4u);
  encoded.replace(encoded.size() - 4, 4, "\xFF\xFF\xFF\xFF");
  EXPECT_TRUE(DecodeWalEntry(encoded).status().IsCorruption());
}

}  // namespace
}  // namespace insightnotes::ann
