// Integration tests for the serving subsystem: a real MatchServer on an
// ephemeral loopback port, driven by real sockets. Covers the protocol
// (JSON + CSV forms, errors), result correctness vs the in-process
// matcher, admission control (shed), the metrics endpoint, concurrent
// mixed clients, and graceful drain.

#include "server/server.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/json.h"
#include "support/counter_delta.h"

namespace fuzzymatch {
namespace server {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto table =
        db_->CreateTable("customers", CustomerGenerator::CustomerSchema());
    ASSERT_TRUE(table.ok());
    ref_ = *table;
    CustomerGenOptions options;
    options.num_tuples = 1200;
    CustomerGenerator gen(options);
    ASSERT_TRUE(gen.Populate(ref_).ok());
    FuzzyMatchConfig config;
    auto matcher = FuzzyMatcher::Build(db_.get(), "customers", config);
    ASSERT_TRUE(matcher.ok());
    matcher_ = std::move(*matcher);
  }

  std::unique_ptr<MatchServer> StartServer(ServerOptions options = {}) {
    options.port = 0;  // ephemeral
    auto srv = std::make_unique<MatchServer>(matcher_.get(),
                                             BatchCleaner::Options{}, options);
    EXPECT_TRUE(srv->Start().ok());
    return srv;
  }

  /// A clean reference row rendered as the JSON "row" array body.
  std::string RowJson(const Row& row) {
    std::string out = "[";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(',');
      if (row[i].has_value()) {
        AppendJsonString(*row[i], &out);
      } else {
        out += "null";
      }
    }
    out.push_back(']');
    return out;
  }

  std::unique_ptr<Database> db_;
  Table* ref_ = nullptr;
  std::unique_ptr<FuzzyMatcher> matcher_;
};

TEST_F(ServerTest, PingAndQuit) {
  auto srv = StartServer();
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  auto pong = client.Roundtrip("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, "{\"ok\":true,\"op\":\"ping\"}");
  auto bye = client.Roundtrip("quit");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(*bye, "{\"ok\":true,\"op\":\"quit\"}");
  // The server closes the connection after quit.
  auto eof = client.ReadLine();
  EXPECT_FALSE(eof.ok());
}

TEST_F(ServerTest, MatchAgainstExactReferenceRow) {
  auto srv = StartServer();
  auto clean = ref_->Get(5);
  ASSERT_TRUE(clean.ok());

  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  auto response = client.Roundtrip("{\"op\":\"match\",\"id\":9,\"row\":" +
                                   RowJson(*clean) + "}");
  ASSERT_TRUE(response.ok());
  auto doc = ParseJson(*response);
  ASSERT_TRUE(doc.ok()) << *response;
  EXPECT_TRUE(doc->Find("ok")->bool_value());
  EXPECT_EQ(doc->Find("id")->number_value(), 9.0);
  const JsonValue* matches = doc->Find("matches");
  ASSERT_NE(matches, nullptr);
  ASSERT_FALSE(matches->array_items().empty());
  const JsonValue& best = matches->array_items()[0];
  EXPECT_EQ(best.Find("tid")->number_value(), 5.0);
  EXPECT_DOUBLE_EQ(best.Find("similarity")->number_value(), 1.0);
}

TEST_F(ServerTest, ServedMatchEqualsInProcessMatch) {
  auto srv = StartServer();
  DatasetSpec spec = DatasetD2();
  spec.num_inputs = 30;
  auto inputs = GenerateInputs(ref_, spec, nullptr);
  ASSERT_TRUE(inputs.ok());

  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  for (const InputTuple& input : *inputs) {
    auto expected = matcher_->FindMatches(input.dirty);
    ASSERT_TRUE(expected.ok());
    auto response = client.Roundtrip("{\"op\":\"match\",\"row\":" +
                                     RowJson(input.dirty) + "}");
    ASSERT_TRUE(response.ok());
    auto doc = ParseJson(*response);
    ASSERT_TRUE(doc.ok());
    const JsonValue* matches = doc->Find("matches");
    ASSERT_NE(matches, nullptr) << *response;
    ASSERT_EQ(matches->array_items().size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      const JsonValue& m = matches->array_items()[i];
      EXPECT_EQ(static_cast<Tid>(m.Find("tid")->number_value()),
                (*expected)[i].tid);
      EXPECT_DOUBLE_EQ(m.Find("similarity")->number_value(),
                       (*expected)[i].similarity);
    }
  }
}

TEST_F(ServerTest, CsvFormAndErrors) {
  auto srv = StartServer();
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());

  // CSV clean of an exact reference row validates it.
  auto clean = ref_->Get(11);
  ASSERT_TRUE(clean.ok());
  std::string csv = "clean ";
  for (size_t i = 0; i < clean->size(); ++i) {
    if (i > 0) csv.push_back(',');
    csv += (*clean)[i].value_or("");
  }
  auto response = client.Roundtrip(csv);
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("\"outcome\":\"validated\""), std::string::npos)
      << *response;

  // Malformed request: error response, connection stays usable.
  auto err = client.Roundtrip("garbage request");
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->rfind("{\"ok\":false", 0), 0u);

  // Wrong arity: per-request error, not a connection error.
  auto arity = client.Roundtrip("{\"op\":\"match\",\"row\":[\"one\"]}");
  ASSERT_TRUE(arity.ok());
  EXPECT_NE(arity->find("arity"), std::string::npos) << *arity;

  auto pong = client.Roundtrip("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->rfind("{\"ok\":true", 0), 0u);
}

TEST_F(ServerTest, MetricsEndpointRendersRegistry) {
  auto srv = StartServer();
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  // Issue one query so query-path counters exist.
  auto clean = ref_->Get(3);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(
      client.Roundtrip("{\"op\":\"match\",\"row\":" + RowJson(*clean) + "}")
          .ok());

  auto body = client.FetchMetrics();
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body->find("fm_server_requests"), std::string::npos);
  EXPECT_NE(body->find("fm_server_active_connections"), std::string::npos);
  EXPECT_NE(body->find("fm_server_workers"), std::string::npos);
  // The alias spelling works too, and the terminator protocol holds.
  ASSERT_TRUE(client.Send("GET /metrics").ok());
  bool saw_eof = false;
  for (int i = 0; i < 10000; ++i) {
    auto line = client.ReadLine();
    ASSERT_TRUE(line.ok());
    if (*line == kMetricsEndMarker) {
      saw_eof = true;
      break;
    }
  }
  EXPECT_TRUE(saw_eof);
}

TEST_F(ServerTest, OverloadShedsWithExplicitResponse) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.handler_delay_ms = 200;  // every query occupies the one worker
  auto srv = StartServer(options);
  const test_support::CounterDelta shed_requests("server.shed_requests");

  auto clean = ref_->Get(0);
  ASSERT_TRUE(clean.ok());
  const std::string request =
      "{\"op\":\"match\",\"row\":" + RowJson(*clean) + "}";

  // More concurrent clients than worker+queue slots: some must shed.
  constexpr size_t kClients = 6;
  std::atomic<uint64_t> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      LineClient client;
      if (!client.Connect("127.0.0.1", srv->port()).ok()) {
        other.fetch_add(1);
        return;
      }
      auto response = client.Roundtrip(request);
      if (!response.ok()) {
        other.fetch_add(1);
      } else if (response->find("\"shed\":true") != std::string::npos) {
        shed.fetch_add(1);
      } else if (response->rfind("{\"ok\":true", 0) == 0) {
        ok.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(other.load(), 0u);
  EXPECT_EQ(ok.load() + shed.load(), kClients);
  EXPECT_GE(ok.load(), 1u) << "admitted requests must still be served";
  EXPECT_GE(shed.load(), 1u)
      << "with 6 clients against 1 worker + 1 queue slot, something sheds";
  EXPECT_EQ(shed_requests.value(), shed.load());
}

TEST_F(ServerTest, ConcurrentMixedClients) {
  ServerOptions options;
  options.workers = 3;
  auto srv = StartServer(options);
  DatasetSpec spec = DatasetD2();
  spec.num_inputs = 40;
  auto inputs = GenerateInputs(ref_, spec, nullptr);
  ASSERT_TRUE(inputs.ok());

  constexpr size_t kClients = 5;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client;
      if (!client.Connect("127.0.0.1", srv->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < inputs->size(); ++i) {
        const Row& row = (*inputs)[i].dirty;
        std::string request;
        switch ((c + i) % 3) {
          case 0:
            request = "{\"op\":\"match\",\"row\":" + RowJson(row) + "}";
            break;
          case 1:
            request = "{\"op\":\"clean\",\"row\":" + RowJson(row) + "}";
            break;
          default:
            request = "ping";
        }
        auto response = client.Roundtrip(request);
        if (!response.ok() || response->rfind("{\"ok\":true", 0) != 0) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
}

TEST_F(ServerTest, GracefulDrainCompletesInFlightRequests) {
  ServerOptions options;
  options.workers = 2;
  options.handler_delay_ms = 150;
  auto srv = StartServer(options);

  auto clean = ref_->Get(1);
  ASSERT_TRUE(clean.ok());
  const std::string request =
      "{\"op\":\"match\",\"row\":" + RowJson(*clean) + "}";

  // Two clients put requests in flight, then the server drains while
  // they wait: both must still receive full responses.
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      LineClient client;
      if (!client.Connect("127.0.0.1", srv->port()).ok()) return;
      auto response = client.Roundtrip(request);
      if (response.ok() && response->rfind("{\"ok\":true", 0) == 0) {
        completed.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  srv->RequestStop();  // what the SIGTERM handler calls
  srv->Shutdown();
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(completed.load(), 2u)
      << "drain must flush responses for admitted requests";

  // After shutdown the port no longer accepts.
  LineClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", srv->port()).ok());
}

TEST_F(ServerTest, ShutdownInvokesDrainFlushExactlyOnce) {
  std::atomic<int> flushes{0};
  ServerOptions options;
  options.drain_flush = [&flushes] {
    flushes.fetch_add(1);
    return Status::OK();
  };
  auto srv = StartServer(options);
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  ASSERT_TRUE(client.Roundtrip("ping").ok());
  EXPECT_EQ(flushes.load(), 0) << "drain flush must wait for shutdown";
  srv->Shutdown();
  EXPECT_EQ(flushes.load(), 1);
  // The destructor's Shutdown() is a no-op on an already-drained server.
  srv.reset();
  EXPECT_EQ(flushes.load(), 1);
}

TEST_F(ServerTest, RebuildVerbWithoutHandlerIsNotSupported) {
  auto srv = StartServer();
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  auto response = client.Roundtrip("rebuild");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->rfind("{\"ok\":false", 0), 0u) << *response;
  EXPECT_NE(response->find("\"code\":\"not_supported\""), std::string::npos)
      << *response;
}

TEST_F(ServerTest, RebuildVerbInvokesHandler) {
  std::atomic<int> rebuilds{0};
  ServerOptions options;
  options.rebuild_handler = [&rebuilds]() -> Result<EtiRebuildStats> {
    rebuilds.fetch_add(1);
    EtiRebuildStats stats;
    stats.build.eti_rows = 12345;
    stats.side_ops_replayed = 7;
    stats.total_seconds = 0.25;
    return stats;
  };
  auto srv = StartServer(options);
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  auto response = client.Roundtrip("{\"op\":\"rebuild\"}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(rebuilds.load(), 1);
  EXPECT_EQ(response->rfind("{\"ok\":true", 0), 0u) << *response;
  EXPECT_NE(response->find("\"op\":\"rebuild\""), std::string::npos);
  EXPECT_NE(response->find("\"eti_rows\":12345"), std::string::npos)
      << *response;
  EXPECT_NE(response->find("\"side_ops_replayed\":7"), std::string::npos);
}

TEST_F(ServerTest, RegistryInvariantsAfterServing) {
  obs::MetricsRegistry::Global().ResetAll();
  ServerOptions options;
  options.workers = 2;
  auto srv = StartServer(options);
  auto clean = ref_->Get(2);
  ASSERT_TRUE(clean.ok());
  {
    LineClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
    for (int i = 0; i < 10; ++i) {
      auto response = client.Roundtrip("{\"op\":\"match\",\"row\":" +
                                       RowJson(*clean) + "}");
      ASSERT_TRUE(response.ok());
    }
  }
  srv->Shutdown();

  auto& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter("server.requests")->value(), 10u);
  EXPECT_EQ(reg.GetCounter("server.responses")->value(), 10u);
  EXPECT_EQ(reg.GetCounter("server.shed_requests")->value(), 0u);
  EXPECT_EQ(reg.GetHistogram("server.request_seconds")->count(), 10u);
  EXPECT_EQ(reg.GetGauge("server.active_connections")->value(), 0.0);
}

}  // namespace
}  // namespace server
}  // namespace fuzzymatch
