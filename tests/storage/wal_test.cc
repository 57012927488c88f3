#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/bytes.h"

namespace velox {
namespace {

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

Observation Obs(uint64_t uid, double label) {
  return Observation{uid, uid * 10, label, static_cast<int64_t>(uid)};
}

TEST(Crc32Test, KnownVectors) {
  // CRC-32("123456789") = 0xCBF43926 (the classic check value).
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(digits, sizeof(digits)), 0xcbf43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, SensitiveToEveryByte) {
  std::vector<uint8_t> buf = {1, 2, 3, 4, 5, 6, 7, 8};
  uint32_t base = Crc32(buf);
  for (size_t i = 0; i < buf.size(); ++i) {
    auto mutated = buf;
    mutated[i] ^= 0x01;
    EXPECT_NE(Crc32(mutated), base) << "byte " << i;
  }
}

TEST(WalTest, AppendAndRecoverRoundTrip) {
  std::string path = TempPath("wal_roundtrip.wal");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE((*wal)->Append(Obs(i, static_cast<double>(i) / 2)).ok());
    }
    EXPECT_EQ((*wal)->records_appended(), 50u);
  }
  auto recovery = WriteAheadLog::Recover(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->clean);
  ASSERT_EQ(recovery->records.size(), 50u);
  EXPECT_EQ(recovery->records[7], Obs(7, 3.5));
  std::remove(path.c_str());
}

// ---- group commit (the write-batching amortization, DESIGN.md §15) ----

TEST(WalGroupCommitTest, WindowDefersSyncToOneEndGroupAndRecordsSurvive) {
  std::string path = TempPath("wal_group.wal");
  WalOptions options;
  options.sync = WalSyncPolicy::kFsync;
  options.fsync_every_n = 1;  // strict per-append sync outside a window
  {
    auto wal = WriteAheadLog::Open(path, options);
    ASSERT_TRUE(wal.ok());
    (*wal)->BeginGroup();
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE((*wal)->Append(Obs(i, 1.0)).ok());
    }
    // Inside the window nothing has committed yet.
    EXPECT_EQ((*wal)->group_commits(), 0u);
    ASSERT_TRUE((*wal)->EndGroup().ok());
    EXPECT_EQ((*wal)->group_commits(), 1u);
  }
  auto recovery = WriteAheadLog::Recover(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->clean);
  EXPECT_EQ(recovery->records.size(), 5u);
  std::remove(path.c_str());
}

TEST(WalGroupCommitTest, WindowsNestAndOnlyTheOutermostEndSyncs) {
  std::string path = TempPath("wal_group_nest.wal");
  WalOptions options;
  options.sync = WalSyncPolicy::kFsync;
  auto wal = WriteAheadLog::Open(path, options);
  ASSERT_TRUE(wal.ok());
  (*wal)->BeginGroup();
  (*wal)->BeginGroup();
  ASSERT_TRUE((*wal)->Append(Obs(1, 2.0)).ok());
  ASSERT_TRUE((*wal)->EndGroup().ok());  // inner: still inside the window
  EXPECT_EQ((*wal)->group_commits(), 0u);
  ASSERT_TRUE((*wal)->EndGroup().ok());  // outermost: the one sync
  EXPECT_EQ((*wal)->group_commits(), 1u);
  std::remove(path.c_str());
}

TEST(WalGroupCommitTest, EndWithoutBeginIsANoOp) {
  std::string path = TempPath("wal_group_noop.wal");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE((*wal)->EndGroup().ok());
  EXPECT_EQ((*wal)->group_commits(), 0u);
  std::remove(path.c_str());
}

TEST(WalGroupCommitTest, EmptyWindowCommitsNothing) {
  std::string path = TempPath("wal_group_empty.wal");
  WalOptions options;
  options.sync = WalSyncPolicy::kFsync;
  auto wal = WriteAheadLog::Open(path, options);
  ASSERT_TRUE(wal.ok());
  (*wal)->BeginGroup();
  ASSERT_TRUE((*wal)->EndGroup().ok());
  // No deferred appends, so no group commit is counted.
  EXPECT_EQ((*wal)->group_commits(), 0u);
  std::remove(path.c_str());
}

TEST(WalGroupCommitTest, AppendsAfterTheWindowSyncPerPolicyAgain) {
  std::string path = TempPath("wal_group_after.wal");
  WalOptions options;
  options.sync = WalSyncPolicy::kFsync;
  options.fsync_every_n = 1;
  auto wal = WriteAheadLog::Open(path, options);
  ASSERT_TRUE(wal.ok());
  (*wal)->BeginGroup();
  ASSERT_TRUE((*wal)->Append(Obs(1, 1.0)).ok());
  ASSERT_TRUE((*wal)->EndGroup().ok());
  // Post-window appends are back on the strict per-append policy; they
  // must not leak into a (closed) group.
  ASSERT_TRUE((*wal)->Append(Obs(2, 2.0)).ok());
  EXPECT_EQ((*wal)->group_commits(), 1u);
  EXPECT_EQ((*wal)->records_appended(), 2u);
  std::remove(path.c_str());
}

TEST(WalTest, RecoverMissingFileIsIoError) {
  EXPECT_TRUE(WriteAheadLog::Recover("/no/such/file.wal").status().IsIoError());
}

TEST(WalTest, EmptyFileRecoversCleanly) {
  std::string path = TempPath("wal_empty.wal");
  { std::ofstream touch(path); }
  auto recovery = WriteAheadLog::Recover(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->clean);
  EXPECT_TRUE(recovery->records.empty());
  std::remove(path.c_str());
}

TEST(WalTest, TornTailTruncatedNotFatal) {
  std::string path = TempPath("wal_torn.wal");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE((*wal)->Append(Obs(i, 1.0)).ok());
  }
  // Simulate a crash mid-append: chop a few bytes off the tail.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    auto size = in.tellg();
    in.close();
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size) - 5), 0);
  }
  auto recovery = WriteAheadLog::Recover(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_FALSE(recovery->clean);
  EXPECT_EQ(recovery->records.size(), 9u);  // last record lost, rest intact
  std::remove(path.c_str());
}

TEST(WalTest, CorruptPayloadStopsRecovery) {
  std::string path = TempPath("wal_corrupt.wal");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE((*wal)->Append(Obs(i, 1.0)).ok());
  }
  // Flip one byte inside the third record's payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    size_t record_size = 8 + Obs(0, 1.0).Serialize().size();
    f.seekp(static_cast<std::streamoff>(2 * record_size + 8 + 3));
    char b;
    f.read(&b, 1);
    f.seekp(static_cast<std::streamoff>(2 * record_size + 8 + 3));
    b = static_cast<char>(b ^ 0xff);
    f.write(&b, 1);
  }
  auto recovery = WriteAheadLog::Recover(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_FALSE(recovery->clean);
  EXPECT_EQ(recovery->records.size(), 2u);  // records before the corruption
  std::remove(path.c_str());
}

TEST(WalTest, AbsurdLengthHeaderRejected) {
  std::string path = TempPath("wal_hugelen.wal");
  {
    std::ofstream out(path, std::ios::binary);
    ByteWriter w;
    w.PutU32(0x40000000u);  // 1 GiB claimed payload
    w.PutU32(0);
    out.write(reinterpret_cast<const char*>(w.data().data()),
              static_cast<std::streamsize>(w.size()));
  }
  auto recovery = WriteAheadLog::Recover(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_FALSE(recovery->clean);
  EXPECT_TRUE(recovery->records.empty());
  std::remove(path.c_str());
}

TEST(WalTest, OpenRecoversAndTruncatesTornTailItself) {
  // Regression: Open() used to fopen("ab") blindly, so a writer that
  // reopened a torn log appended *after* the garbage tail — making its
  // own records unrecoverable (recovery stops at the first bad record).
  std::string path = TempPath("wal_open_torn.wal");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE((*wal)->Append(Obs(i, 1.0)).ok());
  }
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    auto size = in.tellg();
    in.close();
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size) - 5), 0);
  }
  // Direct Open (not DurableObservationLog): must surface the 9 valid
  // records and place new appends at a valid boundary.
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ((*wal)->recovered_records(), 9u);
    EXPECT_FALSE((*wal)->recovered_clean());
    EXPECT_EQ((*wal)->total_records(), 9u);
    ASSERT_TRUE((*wal)->Append(Obs(100, 7.0)).ok());
    EXPECT_EQ((*wal)->total_records(), 10u);
  }
  auto recovery = WriteAheadLog::Recover(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->clean);  // torn tail gone, new record valid
  ASSERT_EQ(recovery->records.size(), 10u);
  EXPECT_EQ(recovery->records[9], Obs(100, 7.0));
  std::remove(path.c_str());
}

TEST(WalTest, StatFailureOtherThanEnoentIsIoError) {
  // Regression: Open() treated *any* stat() failure as "fresh log". A
  // path whose parent is a regular file fails with ENOTDIR — such an
  // error may hide an existing log and must never silently start a new
  // one. (EACCES is untestable here: tests run as root.)
  std::string parent = TempPath("wal_not_a_dir");
  { std::ofstream touch(parent); }
  std::string path = parent + "/child.wal";
  auto wal = WriteAheadLog::Open(path);
  EXPECT_TRUE(wal.status().IsIoError()) << wal.status().ToString();
  // The observation-log wrapper must propagate the same error instead
  // of opening a fresh empty log.
  auto log = DurableObservationLog::Open(path);
  EXPECT_TRUE(log.status().IsIoError()) << log.status().ToString();
  std::remove(parent.c_str());
}

TEST(WalTest, MissingFileIsFreshLog) {
  std::string path = TempPath("wal_fresh.wal");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->recovered_records(), 0u);
  EXPECT_TRUE((*wal)->recovered_clean());
  std::remove(path.c_str());
}

TEST(WalTest, SyncPolicyNoneBuffersInProcess) {
  std::string path = TempPath("wal_none.wal");
  WalOptions options;
  options.sync = WalSyncPolicy::kNone;
  {
    auto wal = WriteAheadLog::Open(path, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Obs(1, 1.0)).ok());
    // Not flushed: the record sits in the stdio buffer, invisible to a
    // reader — exactly what "survives nothing" means.
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    EXPECT_EQ(in.tellg(), std::streampos(0));
  }
  // Clean close flushed it.
  auto recovery = WriteAheadLog::Recover(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->records.size(), 1u);
  std::remove(path.c_str());
}

TEST(WalTest, SyncPolicyFlushReachesOsImmediately) {
  std::string path = TempPath("wal_flush.wal");
  {
    auto wal = WriteAheadLog::Open(path);  // default kFlush
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Obs(1, 1.0)).ok());
    // Visible to other readers before close: a process crash here
    // would lose nothing.
    auto recovery = WriteAheadLog::Recover(path);
    ASSERT_TRUE(recovery.ok());
    EXPECT_EQ(recovery->records.size(), 1u);
  }
  std::remove(path.c_str());
}

TEST(WalTest, SyncPolicyFsyncGroupCommit) {
  std::string path = TempPath("wal_fsync.wal");
  WalOptions options;
  options.sync = WalSyncPolicy::kFsync;
  options.fsync_every_n = 3;
  {
    auto wal = WriteAheadLog::Open(path, options);
    ASSERT_TRUE(wal.ok());
    // 5 appends: syncs after #3, leaves a 2-record group-commit window
    // that the destructor must sync on clean shutdown.
    for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE((*wal)->Append(Obs(i, 1.0)).ok());
    ASSERT_TRUE((*wal)->Sync().ok());  // explicit sync also permitted
  }
  auto recovery = WriteAheadLog::Recover(path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->clean);
  EXPECT_EQ(recovery->records.size(), 5u);
  std::remove(path.c_str());
}

TEST(WalTest, RawPayloadRoundTrip) {
  std::string path = TempPath("wal_raw.wal");
  std::vector<uint8_t> a = {1, 2, 3};
  std::vector<uint8_t> b = {};  // empty payloads are legal
  std::vector<uint8_t> c(300, 0xab);
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendPayload(a).ok());
    ASSERT_TRUE((*wal)->AppendPayload(b).ok());
    ASSERT_TRUE((*wal)->AppendPayload(c).ok());
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  auto payloads = (*wal)->TakeRecoveredPayloads();
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], a);
  EXPECT_EQ(payloads[1], b);
  EXPECT_EQ(payloads[2], c);
  // Destructive read: a second take is empty.
  EXPECT_TRUE((*wal)->TakeRecoveredPayloads().empty());
  std::remove(path.c_str());
}

TEST(WalTest, EmptyPayloadRecordRoundTrips) {
  std::string path = TempPath("wal_empty_payload.wal");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendPayload({}).ok());
    EXPECT_EQ((*wal)->records_appended(), 1u);
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  auto payloads = (*wal)->TakeRecoveredPayloads();
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_TRUE(payloads[0].empty());
  std::remove(path.c_str());
}

TEST(WalTest, SyncPolicyNames) {
  EXPECT_STREQ(WalSyncPolicyName(WalSyncPolicy::kNone), "none");
  EXPECT_STREQ(WalSyncPolicyName(WalSyncPolicy::kFlush), "flush");
  EXPECT_STREQ(WalSyncPolicyName(WalSyncPolicy::kFsync), "fsync");
}

TEST(DurableLogTest, SurvivesRestart) {
  std::string path = TempPath("durable_log.wal");
  {
    auto log = DurableObservationLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (uint64_t i = 0; i < 20; ++i) {
      auto seq = (*log)->Append(Obs(i, 2.0));
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(seq.value(), i);
    }
  }
  // "Restart": reopen and find everything, then keep appending.
  auto reopened = DurableObservationLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->log()->size(), 20u);
  auto seq = (*reopened)->Append(Obs(99, 3.0));
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 20u);
  EXPECT_EQ((*reopened)->log()->ReadFrom(20)[0], Obs(99, 3.0));
  std::remove(path.c_str());
}

TEST(DurableLogTest, TornTailTruncatedOnReopenAndAppendable) {
  std::string path = TempPath("durable_torn.wal");
  {
    auto log = DurableObservationLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE((*log)->Append(Obs(i, 1.0)).ok());
  }
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    auto size = in.tellg();
    in.close();
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size) - 3), 0);
  }
  auto reopened = DurableObservationLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->log()->size(), 9u);
  // New appends land after the truncated tail and survive another
  // restart.
  ASSERT_TRUE((*reopened)->Append(Obs(50, 5.0)).ok());
  reopened->reset();
  auto again = DurableObservationLog::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->log()->size(), 10u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace velox
