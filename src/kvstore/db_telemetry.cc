#include "kvstore/db_telemetry.h"

#include <string>

#include "kvstore/db.h"
#include "obs/event_log.h"
#include "obs/telemetry_server.h"

namespace tman::kv {

namespace {

void AppendField(std::string* out, const char* key, uint64_t value,
                 bool* first) {
  if (!*first) out->append(",");
  *first = false;
  out->append("\"");
  out->append(key);
  out->append("\":");
  out->append(std::to_string(value));
}

}  // namespace

std::string RenderDbStatsJson(const std::string& name,
                              const Status& background_error,
                              const DB::Stats& stats) {
  std::string out = "{";
  bool first = true;

  out.append("\"name\":\"");
  out.append(obs::JsonEscape(name));
  out.append("\"");
  first = false;

  const Status& bg = background_error;
  out.append(",\"healthy\":");
  out.append(bg.ok() ? "true" : "false");
  if (!bg.ok()) {
    out.append(",\"background_error\":\"");
    out.append(obs::JsonEscape(bg.ToString()));
    out.append("\"");
  }

  out.append(",\"files_per_level\":[");
  for (size_t i = 0; i < stats.files_per_level.size(); ++i) {
    if (i > 0) out.append(",");
    out.append(std::to_string(stats.files_per_level[i]));
  }
  out.append("],\"bytes_per_level\":[");
  for (size_t i = 0; i < stats.bytes_per_level.size(); ++i) {
    if (i > 0) out.append(",");
    out.append(std::to_string(stats.bytes_per_level[i]));
  }
  out.append("]");

  AppendField(&out, "memtable_bytes", stats.memtable_bytes, &first);
  AppendField(&out, "imm_memtable_bytes", stats.imm_memtable_bytes, &first);
  AppendField(&out, "block_cache_hits", stats.block_cache_hits, &first);
  AppendField(&out, "block_cache_misses", stats.block_cache_misses, &first);
  AppendField(&out, "flush_count", stats.flush_count, &first);
  AppendField(&out, "compaction_count", stats.compaction_count, &first);
  AppendField(&out, "compaction_bytes_read", stats.compaction_bytes_read,
              &first);
  AppendField(&out, "compaction_bytes_written", stats.compaction_bytes_written,
              &first);
  AppendField(&out, "stall_count", stats.stall_count, &first);
  AppendField(&out, "stall_micros", stats.stall_micros, &first);
  AppendField(&out, "wal_syncs", stats.wal_syncs, &first);
  AppendField(&out, "wal_records_recovered", stats.wal_records_recovered,
              &first);
  AppendField(&out, "wal_bytes_recovered", stats.wal_bytes_recovered, &first);
  AppendField(&out, "wal_bytes_dropped", stats.wal_bytes_dropped, &first);
  AppendField(&out, "wal_torn_tails", stats.wal_torn_tails, &first);
  AppendField(&out, "resume_count", stats.resume_count, &first);
  AppendField(&out, "compaction_filter_dropped", stats.compaction_filter_dropped,
              &first);
  AppendField(&out, "compaction_filter_tombstoned",
              stats.compaction_filter_tombstoned, &first);
  AppendField(&out, "files_ingested", stats.files_ingested, &first);
  AppendField(&out, "rows_ingested", stats.rows_ingested, &first);

  out.append("}");
  return out;
}

std::string RenderDbStatsJson(DB* db) {
  return RenderDbStatsJson(db->name(), db->background_error(), db->GetStats());
}

void AttachDbTelemetry(obs::TelemetryServer* server, DB* db) {
  server->set_status_source(
      [db]() { return RenderDbStatsJson(db) + "\n"; });
  server->set_health_source([db](std::string* detail) {
    const Status bg = db->background_error();
    if (bg.ok()) return true;
    *detail = "background_error: " + bg.ToString();
    return false;
  });
}

}  // namespace tman::kv
