// tman_faultdrill: an operational fire drill for the storage engine.
//
// Runs three staged incidents against a scratch kvstore instance and prints
// what an operator would see — recovery counters after a simulated power
// loss, the resume flow after a full disk, and the integrity report after
// on-disk corruption. Exits non-zero if any drill deviates from the
// documented recovery contract, so CI can run it as a smoke test:
//
//   tman_faultdrill <scratch-dir> [seed]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "kvstore/db.h"
#include "kvstore/fault_env.h"

namespace {

using tman::Status;
using tman::kv::DB;
using tman::kv::Env;
using tman::kv::FaultInjectionEnv;
using tman::kv::Options;
using tman::kv::ReadOptions;
using tman::kv::WriteOptions;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) g_failures++;
}

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%05d", i);
  return buf;
}

// Drill 1: power loss mid-workload, then reopen and read the recovery
// counters the way an operator triaging the incident would.
void CrashDrill(const std::string& dir, uint64_t seed) {
  std::printf("drill 1: power loss and WAL recovery\n");
  std::filesystem::remove_all(dir);
  FaultInjectionEnv fenv(Env::Default(), seed);
  Options options;
  options.env = &fenv;
  options.paranoid_checks = true;
  options.write_buffer_size = 8 * 1024;

  std::unique_ptr<DB> db;
  Status s = DB::Open(options, dir, &db);
  Check(s.ok(), "open fresh store: " + s.ToString());
  int synced = -1;
  for (int i = 0; i < 400; i++) {
    WriteOptions wo;
    wo.sync = (i % 10 == 9);
    if (!db->Put(wo, Key(i), std::string("v").append(std::to_string(i))).ok()) {
      break;
    }
    if (wo.sync) synced = i;
  }
  fenv.Crash();
  db.reset();  // the doomed process exits; its I/O already fails
  s = fenv.DropUnsyncedAndReset();
  Check(s.ok(), "simulate disk after power loss: " + s.ToString());

  s = DB::Open(options, dir, &db);
  Check(s.ok(), "reopen after crash (paranoid): " + s.ToString());
  if (!s.ok()) return;
  DB::Stats stats = db->GetStats();
  std::printf(
      "    recovered: wal_records=%llu wal_bytes=%llu dropped_bytes=%llu "
      "torn_tails=%llu\n",
      (unsigned long long)stats.wal_records_recovered,
      (unsigned long long)stats.wal_bytes_recovered,
      (unsigned long long)stats.wal_bytes_dropped,
      (unsigned long long)stats.wal_torn_tails);
  int present = 0;
  std::string value;
  while (db->Get(ReadOptions(), Key(present), &value).ok()) present++;
  Check(present > synced, "every sync-acknowledged write survived (" +
                              std::to_string(present) + " of 400 present)");
}

// Drill 2: the disk fills mid-flush, writes brick with a sticky error, the
// operator frees space and calls Resume().
void EnospcDrill(const std::string& dir, uint64_t seed) {
  std::printf("drill 2: disk full, then Resume()\n");
  std::filesystem::remove_all(dir);
  FaultInjectionEnv fenv(Env::Default(), seed);
  Options options;
  options.env = &fenv;
  options.write_buffer_size = 4 * 1024;

  std::unique_ptr<DB> db;
  Status s = DB::Open(options, dir, &db);
  Check(s.ok(), "open fresh store: " + s.ToString());

  fenv.NoSpaceAppends(".sst", -1);
  int acked = 0;
  for (int i = 0; i < 20000; i++) {
    s = db->Put(WriteOptions(), Key(i), "payload-" + std::to_string(i));
    if (!s.ok()) break;
    acked++;
  }
  Check(!s.ok(), "writes brick once the background flush hits ENOSPC");
  std::printf("    sticky error: %s\n", s.ToString().c_str());

  fenv.ClearFaults();  // operator frees disk space
  s = db->Resume();
  Check(s.ok(), "Resume() after space was freed: " + s.ToString());
  Check(db->GetStats().resume_count == 1, "resume counted in DB stats");
  bool all = true;
  std::string value;
  for (int i = 0; i < acked; i++) {
    if (!db->Get(ReadOptions(), Key(i), &value).ok()) all = false;
  }
  Check(all, "all " + std::to_string(acked) + " acknowledged writes intact");
  Check(db->Put(WriteOptions(), Key(acked), "after").ok() && db->Flush().ok(),
        "service restored: new writes flush cleanly");
}

// Drill 3: a bit rots on disk; VerifyIntegrity finds it before a query does.
void CorruptionDrill(const std::string& dir) {
  std::printf("drill 3: on-disk corruption and VerifyIntegrity\n");
  std::filesystem::remove_all(dir);
  Options options;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, dir, &db);
  Check(s.ok(), "open fresh store: " + s.ToString());
  for (int i = 0; i < 500; i++) {
    db->Put(WriteOptions(), Key(i), "payload-" + std::to_string(i));
  }
  Check(db->Flush().ok(), "flush to SSTable");

  DB::IntegrityReport clean;
  s = db->VerifyIntegrity(&clean);
  Check(s.ok() && clean.files_corrupt == 0,
        "clean store verifies (" + std::to_string(clean.blocks_checked) +
            " blocks checked)");

  std::string sst;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sst") sst = entry.path().string();
  }
  {
    std::fstream f(sst, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(21);
    char c = 0x3c;
    f.write(&c, 1);
  }
  DB::IntegrityReport report;
  s = db->VerifyIntegrity(&report);
  Check(s.IsCorruption() && report.files_corrupt >= 1,
        "bit flip detected: " + s.ToString());
  for (const auto& file : report.files) {
    if (!file.status.ok()) {
      std::printf("    corrupt: L%d file %06llu (%llu bytes): %s\n",
                  file.level, (unsigned long long)file.number,
                  (unsigned long long)file.file_size,
                  file.status.ToString().c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <scratch-dir> [seed]\n", argv[0]);
    return 2;
  }
  const std::string base = argv[1];
  const uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  std::filesystem::create_directories(base);

  CrashDrill(base + "/crash", seed);
  EnospcDrill(base + "/enospc", seed + 1);
  CorruptionDrill(base + "/corrupt");

  if (g_failures > 0) {
    std::printf("faultdrill: %d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("faultdrill: all checks passed\n");
  return 0;
}
