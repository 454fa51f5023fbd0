// Integration tests for the embedded stats endpoint (src/net/stats_server.h):
// an ephemeral-port server scraped over a real socket while queries execute
// on another thread (monotone counters across scrapes; TSan CI runs this),
// the three routes, 404 handling, and graceful Stop.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include "ast/parser.h"
#include "ldl/ldl.h"
#include "net/stats_server.h"
#include "obs/feedback.h"
#include "obs/metrics.h"
#include "obs/process_metrics.h"
#include "obs/timeseries.h"

namespace ldl {
namespace {

/// Blocking one-shot HTTP GET against 127.0.0.1:port; returns the full
/// response (status line + headers + body), or "" on connect failure.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  const size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? "" : response.substr(sep + 4);
}

TEST(StatsServerTest, ServesHealthMetricsAndStatusz) {
  MetricsRegistry metrics;
  metrics.counter("engine.tuples_examined")->Increment(12);
  ProcessMetricsSource process(&metrics);
  TimeSeriesOptions ts;
  ts.metrics = &metrics;
  TimeSeriesSampler sampler(ts);
  sampler.SampleOnce();

  StatsServerOptions options;
  options.port = 0;  // ephemeral: tests must not collide on a fixed port
  options.metrics = &metrics;
  options.process = &process;
  options.sampler = &sampler;
  StatsServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(Body(health), "ok\n");

  const std::string scrape = HttpGet(server.port(), "/metrics");
  EXPECT_NE(scrape.find("200 OK"), std::string::npos);
  EXPECT_NE(scrape.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = Body(scrape);
  EXPECT_NE(body.find("# TYPE ldlopt_engine_tuples_examined counter"),
            std::string::npos);
  EXPECT_NE(body.find("ldlopt_engine_tuples_examined 12"),
            std::string::npos);
  EXPECT_NE(body.find("ldlopt_build_info{compiler="), std::string::npos);
  EXPECT_NE(body.find("ldlopt_process_uptime_seconds"), std::string::npos);

  const std::string statusz = Body(HttpGet(server.port(), "/statusz"));
  EXPECT_NE(statusz.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(statusz.find("\"build\":{"), std::string::npos);
  EXPECT_NE(statusz.find("\"timeseries\":{"), std::string::npos);
  EXPECT_NE(statusz.find("engine.tuples_examined"), std::string::npos);

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);

  EXPECT_GE(server.requests_served(), 4u);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(StatsServerTest, ScrapeCounterAndRefreshHook) {
  MetricsRegistry metrics;
  std::atomic<int> refreshes{0};
  StatsServerOptions options;
  options.port = 0;
  options.metrics = &metrics;
  options.refresh = [&refreshes] { refreshes.fetch_add(1); };
  StatsServer server(options);
  ASSERT_TRUE(server.Start().ok());
  HttpGet(server.port(), "/metrics");
  HttpGet(server.port(), "/healthz");  // not a scrape, no refresh
  HttpGet(server.port(), "/metrics");
  server.Stop();
  EXPECT_EQ(refreshes.load(), 2);
  EXPECT_EQ(metrics.counter_value("statsserver.scrapes"), 2u);
}

// Scrapes race real query execution: counters must be monotone between two
// scrapes taken while another thread drives the engine. This is the test
// the TSan job leans on for the whole telemetry path.
TEST(StatsServerTest, ConcurrentScrapesSeeMonotoneCounters) {
  const char* kProgram =
      "parent(a, b). parent(b, c). parent(c, d). parent(d, e).\n"
      "anc(X, Y) <- parent(X, Y).\n"
      "anc(X, Y) <- parent(X, Z), anc(Z, Y).\n";
  MetricsRegistry metrics;
  OptimizerOptions opt;
  opt.trace.metrics = &metrics;
  LdlSystem sys(opt);
  ASSERT_TRUE(sys.LoadProgram(kProgram).ok());

  TimeSeriesOptions ts;
  ts.metrics = &metrics;
  ts.period = std::chrono::milliseconds(1);
  TimeSeriesSampler sampler(ts);
  sampler.Start();

  StatsServerOptions options;
  options.port = 0;
  options.metrics = &metrics;
  options.sampler = &sampler;
  StatsServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::thread worker([&] {
    for (int i = 0; i < 50; ++i) {
      auto answer = sys.Query("anc(a, Y)");
      EXPECT_TRUE(answer.ok());
    }
    done.store(true);
  });

  auto extract = [](const std::string& body) -> long {
    const std::string key = "\nldlopt_engine_tuples_examined ";
    const size_t pos = body.find(key);
    if (pos == std::string::npos) return -1;
    return std::strtol(body.c_str() + pos + key.size(), nullptr, 10);
  };
  long last = -1;
  while (!done.load()) {
    const long now = extract(Body(HttpGet(server.port(), "/metrics")));
    ASSERT_GE(now, last) << "scraped counter went backwards";
    last = now;
  }
  worker.join();
  const long final_value =
      extract(Body(HttpGet(server.port(), "/metrics")));
  EXPECT_GE(final_value, last);
  EXPECT_GT(final_value, 0);

  server.Stop();
  sampler.Stop();
}

// /stats and /statusz render the live statistics while another thread
// writes facts and queries with the feedback loop attached, so every query
// re-collects statistics and the drift detector bumps the epoch: scrapes
// must see a consistent snapshot (TSan CI runs this) with a monotone epoch.
TEST(StatsServerTest, ConcurrentScrapesSeeConsistentStatistics) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram("parent(a, b).\n"
                              "anc(X, Y) <- parent(X, Y).\n"
                              "anc(X, Y) <- parent(X, Z), anc(Z, Y).\n")
                  .ok());
  StatisticsCatalog catalog;
  // A measurement far from the real size of parent/2: the detector trips
  // against every new statistics generation.
  catalog.Observe(ParseLiteral("parent(X, Y)")->predicate(),
                  Adornment::AllFree(2), 1e6, 0);
  DriftDetector detector;
  sys.set_feedback(&catalog, &detector);

  StatsServerOptions options;
  options.port = 0;
  options.feedback = &catalog;
  options.drift = &detector;
  options.statistics = [&sys] { return sys.StatisticsSnapshot(); };
  StatsServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::thread worker([&] {
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(sys.AddClause("parent(n" + std::to_string(i) + ", a).")
                      .ok());
      EXPECT_TRUE(sys.Query("anc(n0, Y)").ok());
    }
    done.store(true);
  });

  auto epoch_of = [](const std::string& body) -> long {
    const std::string key = "\"stats_epoch\":";
    const size_t pos = body.find(key);
    if (pos == std::string::npos) return -1;
    return std::strtol(body.c_str() + pos + key.size(), nullptr, 10);
  };
  long last = 0;
  int scrapes = 0;
  while (!done.load() || scrapes < 2) {
    for (const char* route : {"/stats", "/statusz"}) {
      const long epoch = epoch_of(Body(HttpGet(server.port(), route)));
      ASSERT_GE(epoch, last) << route << ": stats epoch went backwards";
      last = epoch;
    }
    ++scrapes;
  }
  worker.join();
  EXPECT_GT(detector.drift_events(), 0u);
  EXPECT_EQ(epoch_of(Body(HttpGet(server.port(), "/stats"))),
            static_cast<long>(sys.StatisticsSnapshot().epoch()));
  server.Stop();
  sys.set_feedback(nullptr, nullptr);
}

TEST(StatsServerTest, StopIsIdempotentAndRestartable) {
  MetricsRegistry metrics;
  StatsServerOptions options;
  options.port = 0;
  options.metrics = &metrics;
  {
    StatsServer server(options);
    server.Stop();  // safe without Start
    ASSERT_TRUE(server.Start().ok());
    const int port = server.port();
    EXPECT_NE(HttpGet(port, "/healthz").find("200"), std::string::npos);
    server.Stop();
    server.Stop();
    // The port is released: a second server can bind it again.
    StatsServerOptions again = options;
    again.port = port;
    StatsServer second(again);
    ASSERT_TRUE(second.Start().ok());
    EXPECT_EQ(second.port(), port);
    second.Stop();
  }  // destructor Stop on an already-stopped server is a no-op
}

// The feedback surfaces: /stats renders the catalog + drift view, /statusz
// gains the stats epoch and a feedback summary block.
TEST(StatsServerTest, ServesFeedbackCatalogOnStatsRoute) {
  Statistics stats;
  stats.Set(ParseLiteral("par(X, Y)")->predicate(),
            RelationStats{10, {10, 10}});
  stats.set_epoch(1);
  StatisticsCatalog catalog;
  catalog.Observe(ParseLiteral("par(X, Y)")->predicate(),
                  Adornment::AllFree(2), 1000, 1);
  DriftDetector detector;
  detector.Check(catalog, &stats, nullptr);

  StatsServerOptions options;
  options.port = 0;
  options.feedback = &catalog;
  options.drift = &detector;
  options.statistics = [&stats] { return stats; };
  StatsServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const std::string response = HttpGet(server.port(), "/stats");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const std::string body = Body(response);
  EXPECT_NE(body.find("\"stats_epoch\":2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"drift_events\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"predicate\":\"par\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"drift_history\":["), std::string::npos) << body;

  const std::string statusz = Body(HttpGet(server.port(), "/statusz"));
  EXPECT_NE(statusz.find("\"stats_epoch\":2"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("\"feedback\":{\"drift_events\":1"),
            std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("\"catalog_entries\":1"), std::string::npos)
      << statusz;
  server.Stop();
}

// Without the feedback pointers the new route still answers (empty JSON
// object) rather than 404ing: dashboards can probe unconditionally.
TEST(StatsServerTest, StatsRouteDegradesGracefullyWithoutFeedback) {
  StatsServerOptions options;
  options.port = 0;
  StatsServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::string response = HttpGet(server.port(), "/stats");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(Body(response), "{}");
  server.Stop();
}

}  // namespace
}  // namespace ldl
