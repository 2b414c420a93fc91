// fuzzymatch_server: the online serving daemon.
//
//   fuzzymatch_server --ref ref.csv [--port P] [--host A]
//                     [--workers N] [--queue N] [--max-conns N]
//                     [--idle-timeout-ms N]
//                     [--q N] [--h N] [--tokens] [--k N] [--threshold C]
//                     [--load-threshold C]
//                     [--accel-budget-mb MB] [--tuple-cache-mb MB]
//                     [--db PATH] [--wal-fsync always|group|never]
//                     [--verbose]
//
// Loads the reference CSV, builds the Error Tolerant Index once, then
// serves match/clean requests over the line protocol (see
// src/server/protocol.h) from a fixed worker pool. A full request queue
// sheds with {"ok":false,"error":"overloaded","shed":true}. SIGTERM and
// SIGINT trigger a graceful drain: in-flight requests complete and their
// responses flush — and, with a file-backed store, the WAL is
// group-committed and fsynced — before the process exits.
//
// --db makes the store file-backed and durable: maintenance commits
// through a write-ahead log at <PATH>.wal (replayed on the next open),
// --wal-fsync picks the log's durability/latency trade-off, and a
// restart with the same --db reattaches to the persisted ETI instead of
// rebuilding it. The default remains an in-memory store.
//
// A flag the server does not read fails startup with a diagnostic that
// names it, before any data loads.
//
// Try it with netcat:
//
//   $ fuzzymatch_server --ref ref.csv --port 7878 &
//   $ printf 'ping\n{"op":"match","row":["joe","smith",...],"id":1}\n' |
//       nc 127.0.0.1 7878

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include <unistd.h>

#include "common/csv.h"
#include "common/result.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/fuzzy_match.h"
#include "fault/failpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/process_metrics.h"
#include "obs/trace.h"
#include "server/server.h"
#include "storage/wal.h"

using namespace fuzzymatch;

namespace {

/// Tiny --flag[=value] parser: flags with values must use --flag value.
/// Remembers which flags were asked for, so startup can reject the ones
/// it never read.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        continue;
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const std::string* v = Find(key);
    return v == nullptr ? fallback : *v;
  }

  /// Strict numeric flags: a present-but-malformed value is a startup
  /// error with a one-line diagnostic, never a silent zero.
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const {
    const std::string* v = Find(key);
    if (v == nullptr) {
      return fallback;
    }
    errno = 0;
    char* end = nullptr;
    const int64_t n = std::strtoll(v->c_str(), &end, 10);
    if (v->empty() || end == nullptr || *end != '\0' || errno != 0) {
      return Status::InvalidArgument(StringPrintf(
          "--%s: '%s' is not an integer", key.c_str(), v->c_str()));
    }
    return n;
  }

  Result<double> GetDouble(const std::string& key, double fallback) const {
    const std::string* v = Find(key);
    if (v == nullptr) {
      return fallback;
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(v->c_str(), &end);
    if (v->empty() || end == nullptr || *end != '\0' || errno != 0) {
      return Status::InvalidArgument(StringPrintf(
          "--%s: '%s' is not a number", key.c_str(), v->c_str()));
    }
    return d;
  }

  /// InvalidArgument naming the first flag given but never read. Call
  /// once startup has read every flag it takes.
  Status RejectUnread() const {
    for (const auto& entry : values_) {
      if (read_.count(entry.first) == 0) {
        return Status::InvalidArgument("unknown flag --" + entry.first);
      }
    }
    return Status::OK();
  }

 private:
  const std::string* Find(const std::string& key) const {
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// GetInt plus a range check, for flags where out-of-range values would
/// otherwise be silently truncated by a narrowing cast.
Result<int64_t> GetIntInRange(const Args& args, const std::string& key,
                              int64_t fallback, int64_t lo, int64_t hi) {
  FM_ASSIGN_OR_RETURN(const int64_t v, args.GetInt(key, fallback));
  if (v < lo || v > hi) {
    return Status::InvalidArgument(
        StringPrintf("--%s: %lld out of range [%lld, %lld]", key.c_str(),
                     static_cast<long long>(v), static_cast<long long>(lo),
                     static_cast<long long>(hi)));
  }
  return v;
}

Row FieldsToRow(const std::vector<std::string>& fields) {
  Row row;
  row.reserve(fields.size());
  for (const auto& f : fields) {
    if (f.empty()) {
      row.emplace_back(std::nullopt);
    } else {
      row.emplace_back(f);
    }
  }
  return row;
}

Result<Table*> LoadCsvTable(Database* db, const std::string& name,
                            const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  CsvReader reader(&in);
  std::vector<std::string> fields;
  FM_ASSIGN_OR_RETURN(const bool has_header, reader.Next(&fields));
  if (!has_header) {
    return Status::InvalidArgument(path + " is empty");
  }
  FM_ASSIGN_OR_RETURN(Table * table, db->CreateTable(name, Schema(fields)));
  const size_t arity = fields.size();
  for (;;) {
    FM_ASSIGN_OR_RETURN(const bool more, reader.Next(&fields));
    if (!more) break;
    if (fields.size() != arity) {
      return Status::InvalidArgument(
          StringPrintf("%s row %llu has %zu fields, header has %zu",
                       path.c_str(),
                       static_cast<unsigned long long>(reader.records_read()),
                       fields.size(), arity));
    }
    FM_RETURN_IF_ERROR(table->Insert(FieldsToRow(fields)).status());
  }
  return table;
}

// Self-pipe: the signal handler's only job is to wake main (a write(2) to
// a pipe is async-signal-safe; so is the server's RequestStop, but the
// graceful Shutdown must run on a normal thread).
int g_stop_pipe[2] = {-1, -1};
server::MatchServer* g_server = nullptr;

void HandleStopSignal(int) {
  if (g_server != nullptr) {
    g_server->RequestStop();
  }
  const char byte = 1;
  // The return value is irrelevant: if the pipe is full, main is already
  // waking up.
  [[maybe_unused]] const ssize_t n = ::write(g_stop_pipe[1], &byte, 1);
}

Status Run(const Args& args) {
  const std::string ref_path = args.Get("ref", "");
  if (ref_path.empty()) {
    return Status::InvalidArgument("fuzzymatch_server requires --ref");
  }

  // Parse and validate every flag before touching the data so a typo'd
  // invocation fails in milliseconds with a one-line diagnostic.
  FuzzyMatchConfig config;
  FM_ASSIGN_OR_RETURN(const int64_t q, GetIntInRange(args, "q", 4, 1, 64));
  FM_ASSIGN_OR_RETURN(const int64_t h, GetIntInRange(args, "h", 3, 1, 256));
  FM_ASSIGN_OR_RETURN(const int64_t k, GetIntInRange(args, "k", 1, 1, 1024));
  config.eti.q = static_cast<int>(q);
  config.eti.signature_size = static_cast<int>(h);
  config.eti.index_tokens = args.Has("tokens");
  config.matcher.k = static_cast<size_t>(k);
  FM_ASSIGN_OR_RETURN(config.matcher.min_similarity,
                      args.GetDouble("threshold", 0.0));
  FM_ASSIGN_OR_RETURN(
      const int64_t accel_mb,
      GetIntInRange(args, "accel-budget-mb",
                    static_cast<int64_t>(config.accel_memory_bytes >> 20), 0,
                    1 << 20));
  config.accel_memory_bytes = static_cast<size_t>(accel_mb) << 20;
  FM_ASSIGN_OR_RETURN(
      const int64_t cache_mb,
      GetIntInRange(args, "tuple-cache-mb",
                    static_cast<int64_t>(config.matcher.tuple_cache_bytes >>
                                         20),
                    0, 1 << 20));
  config.matcher.tuple_cache_bytes = static_cast<size_t>(cache_mb) << 20;
  FM_ASSIGN_OR_RETURN(
      const int64_t build_threads,
      GetIntInRange(args, "build-threads", 1, 0, 256));
  config.build_threads = static_cast<int>(build_threads);

  BatchCleaner::Options clean_options;
  FM_ASSIGN_OR_RETURN(clean_options.load_threshold,
                      args.GetDouble("load-threshold", 0.8));

  server::ServerOptions options;
  options.host = args.Get("host", "127.0.0.1");
  FM_ASSIGN_OR_RETURN(const int64_t port,
                      GetIntInRange(args, "port", 7878, 0, 65535));
  options.port = static_cast<uint16_t>(port);
  FM_ASSIGN_OR_RETURN(const int64_t workers,
                      GetIntInRange(args, "workers", 4, 1, 4096));
  options.workers = static_cast<size_t>(workers);
  FM_ASSIGN_OR_RETURN(const int64_t queue,
                      GetIntInRange(args, "queue", 64, 1, 1 << 20));
  options.queue_capacity = static_cast<size_t>(queue);
  FM_ASSIGN_OR_RETURN(const int64_t max_conns,
                      GetIntInRange(args, "max-conns", 256, 1, 1 << 20));
  options.max_connections = static_cast<size_t>(max_conns);
  FM_ASSIGN_OR_RETURN(
      const int64_t idle_ms,
      GetIntInRange(args, "idle-timeout-ms", 30000, 0, 86400000));
  options.idle_timeout_ms = static_cast<int>(idle_ms);
  FM_ASSIGN_OR_RETURN(const int64_t slow_ms,
                      GetIntInRange(args, "slow-trace-ms", 100, 1, 3600000));
  options.slow_trace_ms = static_cast<int>(slow_ms);
  FM_ASSIGN_OR_RETURN(
      const int64_t recorder_cap,
      GetIntInRange(args, "recorder-capacity", 64, 1, 1 << 16));
  options.recorder_capacity = static_cast<size_t>(recorder_cap);
  if (args.Has("no-trace")) {
    obs::SetTracingEnabled(false);
  }

  // Out-of-band fault arming for harnesses driving this process (e.g.
  // tools/ci.sh obscheck injects a sleep to exercise slow-query capture).
  FM_RETURN_IF_ERROR(fault::ArmFromEnv());

  DatabaseOptions db_options;
  db_options.path = args.Get("db", "");
  db_options.pool_pages = 64 * 1024;
  FM_ASSIGN_OR_RETURN(db_options.wal_fsync,
                      ParseWalFsyncMode(args.Get("wal-fsync", "group")));
  FM_RETURN_IF_ERROR(args.RejectUnread());
  FM_ASSIGN_OR_RETURN(auto db, Database::Open(db_options));

  // A file-backed store that already holds the reference relation (a
  // restart with the same --db) is reattached; otherwise the CSV loads.
  Table* ref = nullptr;
  bool reattached = false;
  if (!db_options.path.empty()) {
    const Result<Table*> existing = db->GetTable("ref");
    if (existing.ok()) {
      ref = *existing;
      reattached = true;
    } else if (!existing.status().IsNotFound()) {
      return existing.status();
    }
  }
  if (ref == nullptr) {
    FM_ASSIGN_OR_RETURN(ref, LoadCsvTable(db.get(), "ref", ref_path));
  }
  FM_SLOG(Info, "server.reference_loaded")
      .Field("tuples", ref->row_count())
      .Field("path", reattached ? db_options.path : ref_path)
      .Field("reattached", reattached);

  // On a reattach the persisted ETI already exists; Open() attaches to
  // it instead of paying the build again.
  Result<std::unique_ptr<FuzzyMatcher>> built =
      FuzzyMatcher::Build(db.get(), "ref", config);
  if (!built.ok() && built.status().IsAlreadyExists()) {
    built = FuzzyMatcher::Open(db.get(), "ref", config.eti.StrategyName(),
                               config);
  }
  FM_ASSIGN_OR_RETURN(const auto matcher, std::move(built));
  FM_SLOG(Info, "server.eti_built")
      .Field("strategy", config.eti.StrategyName())
      .Field("seconds", matcher->build_stats().total_seconds)
      .Field("rows", matcher->build_stats().eti_rows);
  if (const EtiAccel* accel = matcher->eti().accelerator()) {
    FM_SLOG(Info, "server.accel_attached")
        .Field("entries", static_cast<uint64_t>(accel->entry_count()))
        .Field("bytes", static_cast<uint64_t>(accel->memory_bytes()))
        .Field("complete", accel->complete());
  }

  // Graceful drain must not lose acknowledged maintenance: after the
  // last response flushes, group-commit and fsync the WAL.
  options.drain_flush = [db = db.get()] { return db->FlushWal(); };
  options.rebuild_handler = [m = matcher.get()] { return m->RebuildEti(); };

  server::MatchServer srv(matcher.get(), clean_options, options);

  if (::pipe(g_stop_pipe) != 0) {
    return Status::IOError("pipe: " + std::string(std::strerror(errno)));
  }
  g_server = &srv;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  FM_RETURN_IF_ERROR(srv.Start());
  const obs::BuildInfo& build = obs::GetBuildInfo();
  FM_SLOG(Info, "server.start")
      .Field("host", options.host)
      .Field("port", static_cast<uint64_t>(srv.port()))
      .Field("workers", static_cast<uint64_t>(options.workers))
      .Field("queue", static_cast<uint64_t>(options.queue_capacity))
      .Field("slow_trace_ms", options.slow_trace_ms)
      .Field("tracing", obs::TracingEnabled())
      .Field("version", build.version)
      .Field("build_type", build.build_type);
  // Keep one human-facing line so `fuzzymatch_server &` in a shell still
  // shows where to connect.
  std::printf("serving on %s:%u (%zu workers, queue %zu); "
              "SIGTERM drains gracefully\n",
              options.host.c_str(), srv.port(), options.workers,
              options.queue_capacity);
  std::fflush(stdout);

  // Block until a stop signal arrives.
  char byte;
  while (::read(g_stop_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  FM_SLOG(Info, "server.drain");
  srv.Shutdown();
  g_server = nullptr;
  auto& reg = obs::MetricsRegistry::Global();
  FM_SLOG(Info, "server.stop")
      .Field("responses", reg.GetCounter("server.responses")->value())
      .Field("shed", reg.GetCounter("server.shed_requests")->value());
  return Status::OK();
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: fuzzymatch_server --ref ref.csv [--port P] [--host A]\n"
      "         [--workers N] [--queue N] [--max-conns N]\n"
      "         [--idle-timeout-ms N] [--q N] [--h N] [--tokens] [--k N]\n"
      "         [--threshold C] [--load-threshold C] [--build-threads N]\n"
      "         [--accel-budget-mb MB] [--tuple-cache-mb MB]\n"
      "         [--db PATH] [--wal-fsync always|group|never]\n"
      "         [--slow-trace-ms N] [--recorder-capacity N] [--no-trace]\n"
      "         [--verbose]\n"
      "env: FM_FAILPOINTS=\"name=sleep:MS,name=error\" arms failpoints\n"
      "     at startup (builds with -DFM_FAILPOINTS=ON only)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.Has("help") || argc < 2) {
    PrintUsage();
    return 2;
  }
  if (args.Has("verbose")) {
    SetLogLevel(LogLevel::kDebug);
  }
  const Status status = Run(args);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
