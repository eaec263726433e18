// Telemetry-plane tests: the embedded HTTP server (endpoint contracts,
// malformed-request robustness, connection churn, port collisions), the
// maintenance-event listener delivery contract (exactly-once, outside
// locks, including the sticky background-error path via fault injection),
// the event ring, and an end-to-end TMan scrape of all five endpoints
// under a live workload. The whole suite also runs under TSan in CI.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/tman.h"
#include "kvstore/db.h"
#include "kvstore/db_telemetry.h"
#include "kvstore/event_listener.h"
#include "kvstore/fault_env.h"
#include "kvstore/sst_file_writer.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"
#include "traj/generator.h"

namespace tman {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_telem_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Minimal HTTP client: one request per connection (the server always closes).

struct HttpResponse {
  int code = 0;
  std::string body;
  std::string raw;
};

int ConnectTo(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends `request` verbatim and reads until the server closes.
HttpResponse RawRequest(int port, const std::string& request) {
  HttpResponse resp;
  int fd = ConnectTo(port);
  if (fd < 0) return resp;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (resp.raw.compare(0, 9, "HTTP/1.1 ") == 0 && resp.raw.size() > 12) {
    resp.code = std::atoi(resp.raw.c_str() + 9);
  }
  const size_t header_end = resp.raw.find("\r\n\r\n");
  if (header_end != std::string::npos) {
    resp.body = resp.raw.substr(header_end + 4);
  }
  return resp;
}

HttpResponse HttpGet(int port, const std::string& path) {
  return RawRequest(port, "GET " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n");
}

// ---------------------------------------------------------------------------
// Event-listener delivery (bare kv::DB)

// Counts every callback and remembers the last payloads; all methods take
// the mutex so TSan validates the "delivered outside DB locks" contract.
class CountingListener : public kv::EventListener {
 public:
  void OnFlushCompleted(const kv::FlushJobInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    flushes++;
    last_flush = info;
  }
  void OnCompactionCompleted(const kv::CompactionJobInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    compactions++;
    last_compaction = info;
  }
  void OnWriteStallBegin(const kv::WriteStallInfo&) override {
    std::lock_guard<std::mutex> lock(mu_);
    stall_begins++;
  }
  void OnWriteStallEnd(const kv::WriteStallInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    stall_ends++;
    stall_micros += info.micros;
  }
  void OnBackgroundError(const kv::BackgroundErrorInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    bg_errors++;
    last_error = info.status;
  }
  void OnIngestCompleted(const kv::IngestJobInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    ingests++;
    last_ingest = info;
  }
  void OnMemtableSealed(const kv::MemtableSealInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    seals++;
    last_seal = info;
  }

  mutable std::mutex mu_;
  int flushes = 0;
  int compactions = 0;
  int stall_begins = 0;
  int stall_ends = 0;
  int bg_errors = 0;
  int ingests = 0;
  int seals = 0;
  uint64_t stall_micros = 0;
  kv::FlushJobInfo last_flush;
  kv::CompactionJobInfo last_compaction;
  kv::IngestJobInfo last_ingest;
  kv::MemtableSealInfo last_seal;
  Status last_error;
};

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

TEST(EventListenerTest, FlushAndSealDeliveredExactlyOnce) {
  const std::string dir = TestDir("ev_flush");
  CountingListener listener;
  kv::Options options;
  options.listeners.push_back(&listener);
  std::unique_ptr<kv::DB> db;
  ASSERT_TRUE(kv::DB::Open(options, dir, &db).ok());

  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(kv::WriteOptions(), Key(i), "v").ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  {
    std::lock_guard<std::mutex> lock(listener.mu_);
    EXPECT_EQ(listener.flushes, 1);
    EXPECT_EQ(listener.seals, 1);
    EXPECT_EQ(listener.last_flush.entries, 100u);
    EXPECT_GT(listener.last_flush.file_size, 0u);
    EXPECT_EQ(listener.last_flush.db_name, dir);
    EXPECT_EQ(listener.last_seal.entries, 100u);
  }

  // An empty memtable has nothing to flush: no duplicate events.
  ASSERT_TRUE(db->Flush().ok());
  {
    std::lock_guard<std::mutex> lock(listener.mu_);
    EXPECT_EQ(listener.flushes, 1);
    EXPECT_EQ(listener.seals, 1);
  }
}

TEST(EventListenerTest, CompactionDelivered) {
  const std::string dir = TestDir("ev_compact");
  CountingListener listener;
  kv::Options options;
  options.listeners.push_back(&listener);
  std::unique_ptr<kv::DB> db;
  ASSERT_TRUE(kv::DB::Open(options, dir, &db).ok());

  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(db->Put(kv::WriteOptions(), Key(i), "v").ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  std::lock_guard<std::mutex> lock(listener.mu_);
  EXPECT_EQ(listener.flushes, 2);
  EXPECT_GE(listener.compactions, 1);
  EXPECT_GT(listener.last_compaction.input_files, 0u);
  EXPECT_GT(listener.last_compaction.bytes_written, 0u);
  EXPECT_EQ(listener.last_compaction.output_level,
            listener.last_compaction.level + 1);
}

TEST(EventListenerTest, WriteStallEpisodesArePaired) {
  const std::string dir = TestDir("ev_stall");
  CountingListener listener;
  kv::Options options;
  options.listeners.push_back(&listener);
  options.write_buffer_size = 4 * 1024;  // flush constantly
  options.l0_slowdown_trigger = 2;       // L0 backlog throttles quickly
  std::unique_ptr<kv::DB> db;
  ASSERT_TRUE(kv::DB::Open(options, dir, &db).ok());

  const std::string value(512, 'x');
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put(kv::WriteOptions(), Key(i), value).ok());
    if (db->GetStats().stall_count > 4) break;
  }
  db.reset();  // final drain

  std::lock_guard<std::mutex> lock(listener.mu_);
  EXPECT_GT(listener.stall_begins, 0);
  EXPECT_EQ(listener.stall_begins, listener.stall_ends);
}

TEST(EventListenerTest, IngestDelivered) {
  const std::string dir = TestDir("ev_ingest");
  CountingListener listener;
  kv::Options options;
  options.listeners.push_back(&listener);
  std::unique_ptr<kv::DB> db;
  ASSERT_TRUE(kv::DB::Open(options, dir, &db).ok());

  const std::string ext = dir + "/bulk-0.tmp";
  kv::SstFileWriter writer(options);
  ASSERT_TRUE(writer.Open(ext).ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(writer.Put(Key(i), "v").ok());
  }
  kv::ExternalSstFileInfo info;
  ASSERT_TRUE(writer.Finish(&info).ok());
  kv::DB::IngestOptions io;
  io.move_file = true;
  ASSERT_TRUE(db->IngestExternalFile(io, ext).ok());

  std::lock_guard<std::mutex> lock(listener.mu_);
  EXPECT_EQ(listener.ingests, 1);
  EXPECT_EQ(listener.last_ingest.entries, 500u);
  EXPECT_EQ(listener.last_ingest.file_path, ext);
}

TEST(EventListenerTest, BackgroundErrorDeliveredOnceAndStops) {
  const std::string dir = TestDir("ev_bgerr");
  CountingListener listener;
  kv::FaultInjectionEnv fenv(kv::Env::Default());
  kv::Options options;
  options.env = &fenv;
  options.listeners.push_back(&listener);
  options.write_buffer_size = 4 * 1024;
  std::unique_ptr<kv::DB> db;
  ASSERT_TRUE(kv::DB::Open(options, dir, &db).ok());

  fenv.NoSpaceAppends(".sst", -1);  // every SSTable build fails
  Status s;
  for (int i = 0; i < 20000; i++) {
    s = db->Put(kv::WriteOptions(), Key(i), std::string(128, 'x'));
    if (!s.ok()) break;
  }
  ASSERT_FALSE(s.ok());
  {
    std::lock_guard<std::mutex> lock(listener.mu_);
    EXPECT_EQ(listener.bg_errors, 1);  // sticky error emitted exactly once
    EXPECT_FALSE(listener.last_error.ok());
  }

  fenv.ClearFaults();
  ASSERT_TRUE(db->Resume().ok());
  ASSERT_TRUE(db->Put(kv::WriteOptions(), Key(0), "v").ok());
  std::lock_guard<std::mutex> lock(listener.mu_);
  EXPECT_EQ(listener.bg_errors, 1);  // recovery emits no further errors
}

TEST(EventListenerTest, MultipleListenersEachSeeEveryEvent) {
  const std::string dir = TestDir("ev_multi");
  CountingListener a;
  CountingListener b;
  obs::EventLog log(16);
  kv::EventLogListener ring(&log);
  kv::Options options;
  options.listeners = {&a, &b, &ring};
  std::unique_ptr<kv::DB> db;
  ASSERT_TRUE(kv::DB::Open(options, dir, &db).ok());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Put(kv::WriteOptions(), Key(i), "v").ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  std::lock_guard<std::mutex> la(a.mu_);
  std::lock_guard<std::mutex> lb(b.mu_);
  EXPECT_EQ(a.flushes, 1);
  EXPECT_EQ(b.flushes, 1);
  const std::string json = log.RenderJson();
  EXPECT_NE(json.find("\"flush\""), std::string::npos);
  EXPECT_NE(json.find("\"memtable_seal\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Event ring

TEST(EventLogTest, BoundedRingEvictsOldest) {
  obs::EventLog log(4);
  for (int i = 0; i < 10; i++) {
    obs::Event e;
    e.type = std::string("t").append(std::to_string(i));
    log.Append(std::move(e));
  }
  EXPECT_EQ(log.total_appended(), 10u);
  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().type, "t6");  // oldest retained
  EXPECT_EQ(events.back().type, "t9");
  EXPECT_GT(events.back().id, events.front().id);
}

TEST(EventLogTest, RenderJsonEscapes) {
  obs::EventLog log(4);
  obs::Event e;
  e.type = "quote";
  e.source = "a\"b\\c\n";
  log.Append(std::move(e));
  const std::string json = log.RenderJson();
  EXPECT_NE(json.find("a\\\"b\\\\c\\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TelemetryServer endpoint contracts

TEST(TelemetryServerTest, StartsOnEphemeralPortAndStops) {
  obs::TelemetryServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);

  const HttpResponse index = HttpGet(server.port(), "/");
  EXPECT_EQ(index.code, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
  EXPECT_LT(ConnectTo(server.port()), 0);  // no longer listening
}

TEST(TelemetryServerTest, PortInUseSurfacesError) {
  obs::TelemetryServer first;
  ASSERT_TRUE(first.Start(0).ok());
  obs::TelemetryServer second;
  const Status s = second.Start(first.port());
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(second.running());
  first.Stop();
}

TEST(TelemetryServerTest, ServesMetricsHealthEventsTraces) {
  obs::MetricsRegistry registry;
  registry.GetCounter("tman_test_requests_total")->Inc(7);
  obs::EventLog log(8);
  obs::Event ev;
  ev.type = "flush";
  ev.source = "test";
  log.Append(std::move(ev));
  obs::TraceRing ring(4);
  obs::TraceSpan span("TestQuery");
  span.End();
  ring.Capture(span);

  std::atomic<int> refreshes{0};
  obs::TelemetryServer server;
  server.set_metrics(&registry);
  server.set_event_log(&log);
  server.set_trace_ring(&ring);
  server.set_status_source([] { return std::string("{\"ok\":true}\n"); });
  server.set_health_source([](std::string*) { return true; });
  server.set_refresh_hook([&refreshes] { refreshes++; });
  ASSERT_TRUE(server.Start(0).ok());

  HttpResponse r = HttpGet(server.port(), "/metrics");
  EXPECT_EQ(r.code, 200);
  EXPECT_NE(r.body.find("tman_test_requests_total 7"), std::string::npos);
  EXPECT_GE(refreshes.load(), 1);

  r = HttpGet(server.port(), "/metrics.json");
  EXPECT_EQ(r.code, 200);
  EXPECT_NE(r.body.find("\"tman_test_requests_total\""), std::string::npos);

  r = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(r.code, 200);
  EXPECT_EQ(r.body, "ok\n");

  r = HttpGet(server.port(), "/statusz");
  EXPECT_EQ(r.code, 200);
  EXPECT_NE(r.body.find("\"ok\":true"), std::string::npos);

  r = HttpGet(server.port(), "/eventz");
  EXPECT_EQ(r.code, 200);
  EXPECT_NE(r.body.find("\"flush\""), std::string::npos);

  r = HttpGet(server.port(), "/tracez");
  EXPECT_EQ(r.code, 200);
  EXPECT_NE(r.body.find("TestQuery"), std::string::npos);

  // Query strings are ignored for routing.
  r = HttpGet(server.port(), "/healthz?verbose=1");
  EXPECT_EQ(r.code, 200);

  r = HttpGet(server.port(), "/nope");
  EXPECT_EQ(r.code, 404);
  EXPECT_GE(server.requests_served(), 8u);
  server.Stop();
}

TEST(TelemetryServerTest, UnhealthyReports503WithDetail) {
  obs::TelemetryServer server;
  server.set_health_source([](std::string* detail) {
    *detail = "background_error: IO error: disk full";
    return false;
  });
  ASSERT_TRUE(server.Start(0).ok());
  const HttpResponse r = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(r.code, 503);
  EXPECT_NE(r.body.find("disk full"), std::string::npos);
  server.Stop();
}

TEST(TelemetryServerTest, EndpointsWithoutSourcesReturn404) {
  obs::TelemetryServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(HttpGet(server.port(), "/metrics").code, 404);
  EXPECT_EQ(HttpGet(server.port(), "/statusz").code, 404);
  EXPECT_EQ(HttpGet(server.port(), "/eventz").code, 404);
  EXPECT_EQ(HttpGet(server.port(), "/tracez").code, 404);
  // /healthz without a source still answers: liveness needs no wiring.
  EXPECT_EQ(HttpGet(server.port(), "/healthz").code, 200);
  server.Stop();
}

TEST(TelemetryServerTest, MalformedRequestsAreRejectedNotFatal) {
  obs::TelemetryServer server;
  server.set_health_source([](std::string*) { return true; });
  obs::TelemetryServer::ServerOptions opts;
  opts.port = 0;
  opts.max_request_bytes = 512;
  ASSERT_TRUE(server.Start(opts).ok());

  EXPECT_EQ(RawRequest(server.port(), "garbage\r\n\r\n").code, 400);
  EXPECT_EQ(RawRequest(server.port(), "\r\n\r\n").code, 400);
  EXPECT_EQ(RawRequest(server.port(),
                       "POST /healthz HTTP/1.1\r\n\r\n")
                .code,
            405);
  // A request larger than the configured bound is refused.
  const std::string huge =
      "GET /" + std::string(4096, 'a') + " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(RawRequest(server.port(), huge).code, 413);

  // The server is still healthy afterwards.
  EXPECT_EQ(HttpGet(server.port(), "/healthz").code, 200);
  server.Stop();
}

TEST(TelemetryServerTest, SurvivesConnectionChurn) {
  obs::TelemetryServer server;
  server.set_health_source([](std::string*) { return true; });
  ASSERT_TRUE(server.Start(0).ok());

  // Clients that connect and vanish without sending anything, plus clients
  // that send half a request and hang up.
  for (int i = 0; i < 20; i++) {
    int fd = ConnectTo(server.port());
    ASSERT_GE(fd, 0);
    if (i % 2 == 0) {
      const char partial[] = "GET /health";
      (void)::send(fd, partial, sizeof(partial) - 1, 0);
    }
    ::close(fd);
  }

  // Concurrent well-formed scrapes still succeed.
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; i++) {
    threads.emplace_back([&server, &ok] {
      for (int j = 0; j < 8; j++) {
        if (HttpGet(server.port(), "/healthz").code == 200) ok++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 32);
  server.Stop();
}

TEST(TelemetryServerTest, AttachBareDbServesStatusAndHealth) {
  const std::string dir = TestDir("attach_db");
  kv::Options options;
  std::unique_ptr<kv::DB> db;
  ASSERT_TRUE(kv::DB::Open(options, dir, &db).ok());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Put(kv::WriteOptions(), Key(i), "v").ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  obs::TelemetryServer server;
  kv::AttachDbTelemetry(&server, db.get());
  ASSERT_TRUE(server.Start(0).ok());

  EXPECT_EQ(HttpGet(server.port(), "/healthz").code, 200);
  const HttpResponse r = HttpGet(server.port(), "/statusz");
  EXPECT_EQ(r.code, 200);
  EXPECT_NE(r.body.find("\"flush_count\":1"), std::string::npos);
  EXPECT_NE(r.body.find("\"healthy\":true"), std::string::npos);
  server.Stop();
}

// ---------------------------------------------------------------------------
// End-to-end: TMan with the telemetry plane on, scraped under live load.

TEST(TManTelemetryTest, AllEndpointsServeUnderLiveWorkload) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  core::TManOptions options;
  options.bounds = spec.bounds;
  options.tr.origin = 0;
  options.tr.period_seconds = 3600;
  options.tr.max_periods = 24;
  options.xzt.origin = 0;
  options.tshape.max_resolution = 15;
  options.num_shards = 2;
  options.num_servers = 2;
  options.genetic.generations = 5;
  options.kv.write_buffer_size = 64 * 1024;
  options.kv.metrics = new obs::MetricsRegistry();  // leaked into handles
  options.telemetry_port = 0;       // ephemeral
  options.slow_query_micros = 1;    // capture every query as "slow"
  options.event_log_capacity = 64;

  const std::string dir = TestDir("e2e");
  std::unique_ptr<core::TMan> tman;
  ASSERT_TRUE(core::TMan::Open(options, dir, &tman).ok());
  const int port = tman->telemetry_port();
  ASSERT_GT(port, 0);

  // The bulk load ingests one file per region and table; the Insert and
  // Flush then flush the primary table's regions.
  const auto data = traj::Generate(spec, 60, 7);
  const std::vector<traj::Trajectory> bulk(data.begin(), data.begin() + 40);
  const std::vector<traj::Trajectory> inserts(data.begin() + 40, data.end());
  ASSERT_TRUE(tman->BulkLoad(bulk).ok());
  ASSERT_TRUE(tman->Insert(inserts).ok());
  ASSERT_TRUE(tman->Flush().ok());
  EXPECT_GT(tman->primary_table()->GetStorageStats().flush_count, 0u);
  EXPECT_GT(
      options.kv.metrics->GetCounter("tman_kv_ingest_files_total")->value(),
      0u);

  // A scraping thread hammers the endpoints while queries run.
  std::atomic<bool> stop{false};
  std::atomic<int> scrape_errors{0};
  std::thread scraper([port, &stop, &scrape_errors] {
    while (!stop.load()) {
      for (const char* path :
           {"/metrics", "/healthz", "/statusz", "/eventz", "/tracez"}) {
        if (HttpGet(port, path).code != 200) scrape_errors++;
      }
    }
  });

  for (int i = 0; i < 5; i++) {
    std::vector<traj::Trajectory> out;
    core::QueryStats stats;
    ASSERT_TRUE(
        tman->TemporalRangeQuery(0, 3600 * 24, &out, &stats).ok());
  }
  stop.store(true);
  scraper.join();
  EXPECT_EQ(scrape_errors.load(), 0);

  // /healthz: live and no background errors.
  EXPECT_EQ(HttpGet(port, "/healthz").body, "ok\n");

  // /metrics: kv + per-region cluster series are exposed.
  const std::string metrics = HttpGet(port, "/metrics").body;
  EXPECT_NE(metrics.find("tman_kv_get_micros"), std::string::npos);
  EXPECT_NE(metrics.find("tman_cluster_region_writes_total{table=\"primary\""),
            std::string::npos);
  EXPECT_NE(metrics.find("tman_core_slow_queries_total"), std::string::npos);

  // Windowed view: after a manual rotation the _window_rate gauges render.
  options.kv.metrics->RotateWindow();
  const std::string windowed = HttpGet(port, "/metrics").body;
  EXPECT_NE(windowed.find("tman_cluster_region_writes_window_rate"),
            std::string::npos);

  // /statusz: per-table, per-region stats nested under "tables".
  const std::string status = HttpGet(port, "/statusz").body;
  EXPECT_NE(status.find("\"tables\""), std::string::npos);
  EXPECT_NE(status.find("\"name\":\"primary\""), std::string::npos);
  EXPECT_NE(status.find("\"uptime_seconds\""), std::string::npos);

  // /statusz: the shape catalog block tracks the occupancy set and the
  // registered shapes.
  auto catalog_field = [](const std::string& doc, const std::string& name) {
    const size_t block = doc.find("\"catalog\":{");
    if (block == std::string::npos) return std::string("missing");
    const size_t end = doc.find('}', block);
    const size_t at = doc.find("\"" + name + "\":", block);
    if (at == std::string::npos || at > end) return std::string("missing");
    const size_t value = at + name.size() + 3;
    return doc.substr(value, doc.find_first_of(",}", value) - value);
  };
  const size_t occupied = tman->index_cache()->occupied_elements();
  EXPECT_GT(occupied, 0u);
  EXPECT_EQ(catalog_field(status, "occupied_elements"),
            std::to_string(occupied));
  EXPECT_EQ(catalog_field(status, "occupancy_bytes"),
            std::to_string(tman->index_cache()->occupancy_bytes()));
  const uint64_t shapes = tman->index_cache()->registered_shapes();
  EXPECT_GT(shapes, 0u);
  EXPECT_EQ(catalog_field(status, "shapes"), std::to_string(shapes));
  EXPECT_EQ(catalog_field(status, "buffered_shapes"), "missing");
  EXPECT_EQ(catalog_field(status, "reencodes"), "missing");
  // A new store's Open loaded no catalog rows.
  EXPECT_EQ(catalog_field(status, "loaded_elements"), "0");
  EXPECT_EQ(catalog_field(status, "loaded_shapes"), "0");
  EXPECT_NE(catalog_field(status, "load_ms"), "missing");
  auto more = traj::Generate(spec, 20, 8);
  for (auto& t : more) t.tid += "-new";
  ASSERT_TRUE(tman->Insert(more).ok());
  const std::string after_insert = HttpGet(port, "/statusz").body;
  EXPECT_GT(tman->index_cache()->registered_shapes(), shapes);
  EXPECT_EQ(catalog_field(after_insert, "shapes"),
            std::to_string(tman->index_cache()->registered_shapes()));
  EXPECT_EQ(catalog_field(after_insert, "occupied_elements"),
            std::to_string(tman->index_cache()->occupied_elements()));

  // /eventz: the bulk load ingested files and the Flush after the Insert
  // flushed the primary table's regions, so both kinds of event exist.
  const std::string events = HttpGet(port, "/eventz").body;
  EXPECT_NE(events.find("\"flush\""), std::string::npos);
  EXPECT_NE(events.find("\"ingest\""), std::string::npos);

  // /tracez: with slow_query_micros=1 every query was captured.
  const std::string traces = HttpGet(port, "/tracez").body;
  EXPECT_NE(traces.find("TemporalRangeQuery"), std::string::npos);
  EXPECT_NE(traces.find("planning"), std::string::npos);

  EXPECT_EQ(tman->trace_ring()->total_captured(), 5u);

  // PublishMetrics stays safe under concurrent callers (satellite a).
  std::vector<std::thread> publishers;
  for (int i = 0; i < 4; i++) {
    publishers.emplace_back([&tman] {
      for (int j = 0; j < 16; j++) tman->PublishMetrics();
    });
  }
  for (auto& t : publishers) t.join();

  const size_t occupied_at_close = tman->index_cache()->occupied_elements();
  const uint64_t shapes_at_close = tman->index_cache()->registered_shapes();
  const int stale_port = port;
  tman.reset();  // clean shutdown joins the reporter + server threads
  EXPECT_LT(ConnectTo(stale_port), 0);

  // Reopened, the catalog block reports what Open read back from the meta
  // table: every element and shape registered before the close.
  ASSERT_TRUE(core::TMan::Open(options, dir, &tman).ok());
  const std::string reopened = HttpGet(tman->telemetry_port(), "/statusz").body;
  EXPECT_EQ(catalog_field(reopened, "loaded_elements"),
            std::to_string(occupied_at_close));
  EXPECT_EQ(catalog_field(reopened, "loaded_shapes"),
            std::to_string(shapes_at_close));
  EXPECT_EQ(catalog_field(reopened, "occupied_elements"),
            std::to_string(occupied_at_close));
  EXPECT_EQ(catalog_field(reopened, "shapes"), std::to_string(shapes_at_close));
  const std::string load_ms = catalog_field(reopened, "load_ms");
  EXPECT_NE(load_ms, "missing");
  EXPECT_GE(std::stod(load_ms), 0.0);
  tman.reset();
  delete options.kv.metrics;
}

TEST(TManTelemetryTest, SlowQueryThresholdFiltersFastQueries) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  core::TManOptions options;
  options.bounds = spec.bounds;
  options.tr.origin = 0;
  options.tr.period_seconds = 3600;
  options.tr.max_periods = 24;
  options.xzt.origin = 0;
  options.tshape.max_resolution = 15;
  options.num_shards = 2;
  options.num_servers = 2;
  options.genetic.generations = 5;
  options.slow_query_micros = 60LL * 1000 * 1000;  // nothing is this slow
  options.telemetry_port = 0;

  std::unique_ptr<core::TMan> tman;
  ASSERT_TRUE(core::TMan::Open(options, TestDir("slow"), &tman).ok());
  const auto data = traj::Generate(spec, 20, 11);
  ASSERT_TRUE(tman->BulkLoad(data).ok());

  std::vector<traj::Trajectory> out;
  ASSERT_TRUE(tman->TemporalRangeQuery(0, 3600, &out).ok());
  EXPECT_EQ(tman->trace_ring()->total_captured(), 0u);

  // An explicit trace request still flows to the caller's stats.
  core::QueryStats stats;
  core::QueryOptions qopts;
  qopts.trace = true;
  out.clear();
  ASSERT_TRUE(tman->TemporalRangeQuery(0, 3600, &out, &stats, qopts).ok());
  ASSERT_NE(stats.trace, nullptr);
  EXPECT_NE(stats.trace->Render().find("TemporalRangeQuery"),
            std::string::npos);
}

}  // namespace
}  // namespace tman
