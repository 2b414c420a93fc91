// Live-introspection tests: statusz/tracez JSON shape, slow-query capture
// via an injected sleep failpoint, and error-trace retention with the
// failing status — all over real sockets.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "fault/failpoint.h"
#include "gen/customer_gen.h"
#include "obs/flight_recorder.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"

namespace fuzzymatch {
namespace server {
namespace {

class IntrospectionTest : public ::testing::Test {
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
    options.num_tuples = 600;
    CustomerGenerator gen(options);
    ASSERT_TRUE(gen.Populate(ref_).ok());
    FuzzyMatchConfig config;
    auto matcher = FuzzyMatcher::Build(db_.get(), "customers", config);
    ASSERT_TRUE(matcher.ok());
    matcher_ = std::move(*matcher);
  }

  void TearDown() override { fault::Failpoints::Global().DisarmAll(); }

  std::unique_ptr<MatchServer> StartServer(ServerOptions options = {}) {
    options.port = 0;
    auto srv = std::make_unique<MatchServer>(matcher_.get(),
                                             BatchCleaner::Options{}, options);
    EXPECT_TRUE(srv->Start().ok());
    return srv;
  }

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

  /// One served match of reference row `tid`; asserts transport success.
  void ServeMatch(LineClient* client, Tid tid, bool expect_ok = true) {
    auto clean = ref_->Get(tid);
    ASSERT_TRUE(clean.ok());
    auto response =
        client->Roundtrip("{\"op\":\"match\",\"row\":" + RowJson(*clean) + "}");
    ASSERT_TRUE(response.ok());
    auto doc = ParseJson(*response);
    ASSERT_TRUE(doc.ok()) << *response;
    EXPECT_EQ(doc->Find("ok")->bool_value(), expect_ok) << *response;
  }

  std::unique_ptr<Database> db_;
  Table* ref_ = nullptr;
  std::unique_ptr<FuzzyMatcher> matcher_;
};

TEST_F(IntrospectionTest, StatuszReportsServerState) {
  ServerOptions options;
  options.workers = 3;
  auto srv = StartServer(options);
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  ServeMatch(&client, 1);

  auto response = client.Roundtrip("statusz");
  ASSERT_TRUE(response.ok());
  auto doc = ParseJson(*response);
  ASSERT_TRUE(doc.ok()) << *response;
  ASSERT_TRUE(doc->is_object());
  EXPECT_TRUE(doc->Find("ok")->bool_value());
  EXPECT_EQ(doc->Find("op")->string_value(), "statusz");
  EXPECT_GE(doc->Find("uptime_seconds")->number_value(), 0.0);
  EXPECT_NE(doc->Find("tracing_enabled"), nullptr);

  const JsonValue* build = doc->Find("build");
  ASSERT_NE(build, nullptr);
  for (const char* key : {"version", "build_type", "compiler"}) {
    ASSERT_NE(build->Find(key), nullptr) << key;
    EXPECT_FALSE(build->Find(key)->string_value().empty()) << key;
  }
  EXPECT_NE(build->Find("failpoints"), nullptr);

  const JsonValue* workers = doc->Find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_TRUE(workers->is_array());
  EXPECT_EQ(workers->array_items().size(), 3u);
  for (const JsonValue& w : workers->array_items()) {
    EXPECT_NE(w.Find("busy"), nullptr);
  }

  const JsonValue* queue = doc->Find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_GE(queue->Find("capacity")->number_value(), 1.0);

  const JsonValue* conns = doc->Find("connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_GE(conns->Find("active")->number_value(), 1.0);

  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* key :
       {"requests", "responses", "shed", "query_errors", "parse_errors"}) {
    EXPECT_NE(counters->Find(key), nullptr) << key;
  }
  EXPECT_GE(counters->Find("requests")->number_value(), 1.0);

  const JsonValue* accel = doc->Find("accel");
  ASSERT_NE(accel, nullptr);
  ASSERT_NE(accel->Find("present"), nullptr);
  if (accel->Find("present")->bool_value()) {
    EXPECT_GE(accel->Find("entries")->number_value(), 1.0);
    EXPECT_GE(accel->Find("bytes")->number_value(), 1.0);
  }

  const JsonValue* cache = doc->Find("tuple_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->Find("enabled"), nullptr);

  const JsonValue* recorder = doc->Find("recorder");
  ASSERT_NE(recorder, nullptr);
  for (const char* key :
       {"recorded", "slow", "errors", "retained", "slow_threshold_ms"}) {
    EXPECT_NE(recorder->Find(key), nullptr) << key;
  }
  EXPECT_GE(recorder->Find("recorded")->number_value(), 1.0);

  const JsonValue* process = doc->Find("process");
  ASSERT_NE(process, nullptr);
  EXPECT_GT(process->Find("rss_bytes")->number_value(), 0.0);
  EXPECT_GT(process->Find("open_fds")->number_value(), 0.0);
  EXPECT_GE(process->Find("uptime_seconds")->number_value(), 0.0);
}

TEST_F(IntrospectionTest, TracezRetainsRecentQueryWithSpanTree) {
  auto srv = StartServer();
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  ServeMatch(&client, 2);

  auto response = client.Roundtrip("tracez");
  ASSERT_TRUE(response.ok());
  auto doc = ParseJson(*response);
  ASSERT_TRUE(doc.ok()) << *response;
  EXPECT_TRUE(doc->Find("ok")->bool_value());
  EXPECT_EQ(doc->Find("op")->string_value(), "tracez");

  const JsonValue* recorder = doc->Find("recorder");
  ASSERT_NE(recorder, nullptr);
  ASSERT_NE(recorder->Find("stats"), nullptr);
  const JsonValue* traces = recorder->Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_TRUE(traces->is_array());
  ASSERT_FALSE(traces->array_items().empty());

  const JsonValue& trace = traces->array_items()[0];
  EXPECT_EQ(trace.Find("op")->string_value(), "match");
  EXPECT_GE(trace.Find("request_id")->number_value(), 1.0);
  EXPECT_FALSE(trace.Find("error")->bool_value());

  const JsonValue* spans = trace.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  bool saw_handle = false, saw_match = false;
  for (const JsonValue& span : spans->array_items()) {
    const std::string& name = span.Find("name")->string_value();
    if (name == "server.handle_query") {
      saw_handle = true;
      EXPECT_EQ(span.Find("parent")->number_value(), -1.0);
    }
    if (name == "match.find_matches") {
      saw_match = true;
      EXPECT_GE(span.Find("parent")->number_value(), 0.0);
    }
    EXPECT_GE(span.Find("duration_us")->number_value(), 0.0);
  }
  EXPECT_TRUE(saw_handle);
  EXPECT_TRUE(saw_match);

  const JsonValue* counts = trace.Find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_NE(counts->Find("candidates"), nullptr);
  EXPECT_NE(counts->Find("eti_lookups"), nullptr);
}

TEST_F(IntrospectionTest, TracezLimitCapsTraceCount) {
  auto srv = StartServer();
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  for (Tid tid = 1; tid <= 5; ++tid) {
    ServeMatch(&client, tid);
  }
  auto response = client.Roundtrip("tracez 2");
  ASSERT_TRUE(response.ok());
  auto doc = ParseJson(*response);
  ASSERT_TRUE(doc.ok()) << *response;
  const JsonValue* traces = doc->Find("recorder")->Find("traces");
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(traces->array_items().size(), 2u);

  auto bad = client.Roundtrip("tracez zero");
  ASSERT_TRUE(bad.ok());
  auto bad_doc = ParseJson(*bad);
  ASSERT_TRUE(bad_doc.ok());
  EXPECT_FALSE(bad_doc->Find("ok")->bool_value());
}

TEST_F(IntrospectionTest, SleepFailpointMakesQuerySlowAndCaptured) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  ServerOptions options;
  options.slow_trace_ms = 20;
  auto srv = StartServer(options);
  ASSERT_TRUE(fault::ArmFromSpec("match.query_delay=sleep:40").ok());

  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  ServeMatch(&client, 3);
  fault::Failpoints::Global().DisarmAll();

  auto response = client.Roundtrip("tracez");
  ASSERT_TRUE(response.ok());
  auto doc = ParseJson(*response);
  ASSERT_TRUE(doc.ok()) << *response;
  const JsonValue* recorder = doc->Find("recorder");
  EXPECT_GE(recorder->Find("stats")->Find("slow")->number_value(), 1.0);
  const JsonValue* traces = recorder->Find("traces");
  ASSERT_FALSE(traces->array_items().empty());
  // Outliers sort first: the slow trace leads and shows the stall.
  const JsonValue& trace = traces->array_items()[0];
  EXPECT_GE(trace.Find("duration_ms")->number_value(), 20.0);
  EXPECT_FALSE(trace.Find("error")->bool_value());
}

TEST_F(IntrospectionTest, FailedQueryTraceRetainedWithStatus) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto srv = StartServer();
  ASSERT_TRUE(fault::ArmFromSpec("match.fetch_tuple=error").ok());

  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  ServeMatch(&client, 4, /*expect_ok=*/false);

  auto response = client.Roundtrip("tracez");
  ASSERT_TRUE(response.ok());
  auto doc = ParseJson(*response);
  ASSERT_TRUE(doc.ok()) << *response;
  const JsonValue* recorder = doc->Find("recorder");
  EXPECT_GE(recorder->Find("stats")->Find("errors")->number_value(), 1.0);
  const JsonValue* traces = recorder->Find("traces");
  ASSERT_FALSE(traces->array_items().empty());
  const JsonValue& trace = traces->array_items()[0];
  EXPECT_TRUE(trace.Find("error")->bool_value());
  const JsonValue* status = trace.Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_NE(status->string_value().find("injected"), std::string::npos)
      << status->string_value();
}

}  // namespace
}  // namespace server
}  // namespace fuzzymatch
