// fuzzymatch_cli: command-line front end for the library.
//
//   fuzzymatch_cli gen     --out ref.csv [--rows N] [--seed S]
//       Writes a synthetic Customer reference relation as CSV.
//
//   fuzzymatch_cli corrupt --ref ref.csv --out dirty.csv
//                          [--inputs N] [--profile D1|D2|D3] [--seeds]
//       Samples reference rows and corrupts them with the paper's Table 4
//       error model. --seeds appends the originating row number, so
//       accuracy can be audited downstream.
//
//   fuzzymatch_cli build   --ref ref.csv --db store.fmdb
//                          [--q N] [--h N] [--tokens]
//                          [--build-threads N] [--temp-dir DIR]
//                          [--sort-budget-kb KB]
//       Loads the reference CSV into a file-backed database, builds the
//       ETI with the requested parallelism, and checkpoints. The
//       persisted file is byte-identical for every --build-threads
//       value, which the CI buildcheck stage verifies with cmp(1).
//
//   fuzzymatch_cli match   --ref ref.csv --input dirty.csv --out out.csv
//                          [--q N] [--h N] [--tokens] [--k N]
//                          [--threshold C] [--load-threshold C]
//                          [--threads N] [--build-threads N]
//                          [--temp-dir DIR] [--metrics [FILE]]
//                          [--accel-budget-mb MB] [--tuple-cache-mb MB]
//                          [--bound-policy P] [--verbose]
//       Builds an Error Tolerant Index over the reference CSV and batch-
//       cleans the input CSV. The output repeats each input row and
//       appends: outcome (validated/corrected/routed), similarity, and
//       the matched reference row. --threads N fans the batch out over N
//       worker threads on the concurrent query path; routing decisions
//       and output row order are identical to the serial run.
//
//       --metrics dumps the process-wide metrics registry (buffer-pool
//       hit rates, pages read, ETI probes, OSC outcomes, per-phase span
//       and query latency histograms) in Prometheus text format to
//       stdout, or to FILE when a value is given. --verbose lowers the
//       log level to debug, which also emits a per-query phase
//       breakdown from the span tracer.
//
//   fuzzymatch_cli trace   --port P [--host A] [--limit N] [--json]
//       Fetches the flight recorder from a running fuzzymatch_server
//       (the `tracez` protocol verb) and pretty-prints each retained
//       trace as an indented span tree with per-span durations and the
//       trace's counters. --json dumps the raw tracez response instead,
//       for piping into other tooling.
//
// Every command rejects a flag it does not read: an unknown or
// misspelled flag exits non-zero, naming the flag, before any work runs.
//
// CSV convention: first record is the header; empty fields are NULL.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/batch_cleaner.h"
#include "core/fuzzy_match.h"
#include "eti/eti_builder.h"
#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/json.h"

using namespace fuzzymatch;

namespace {

/// Tiny --flag[=value] parser: flags with values must use --flag value.
/// Remembers which flags were asked for, so a command can reject the
/// ones it never read.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
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

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const std::string* v = Find(key);
    return v == nullptr ? fallback : std::strtoll(v->c_str(), nullptr, 10);
  }

  double GetDouble(const std::string& key, double fallback) const {
    const std::string* v = Find(key);
    return v == nullptr ? fallback : std::strtod(v->c_str(), nullptr);
  }

  /// InvalidArgument naming the first flag given but never read. Call
  /// once the command has read every flag it takes.
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

std::vector<std::string> RowToFields(const Row& row) {
  std::vector<std::string> fields;
  fields.reserve(row.size());
  for (const auto& f : row) {
    fields.push_back(f.value_or(""));
  }
  return fields;
}

/// Loads a CSV (header + records) into a new table named `name`.
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

Status CmdGen(const Args& args) {
  const std::string out_path = args.Get("out", "");
  if (out_path.empty()) {
    return Status::InvalidArgument("gen requires --out");
  }
  CustomerGenOptions options;
  options.num_tuples = static_cast<size_t>(args.GetInt("rows", 100000));
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  FM_RETURN_IF_ERROR(args.RejectUnread());
  CustomerGenerator generator(options);

  std::ofstream out(out_path);
  if (!out) {
    return Status::IOError("cannot write " + out_path);
  }
  CsvWriter writer(&out);
  writer.Write(CustomerGenerator::CustomerSchema().column_names());
  for (size_t i = 0; i < options.num_tuples; ++i) {
    writer.Write(RowToFields(generator.NextRow()));
  }
  std::printf("wrote %zu reference tuples to %s\n", options.num_tuples,
              out_path.c_str());
  return Status::OK();
}

Status CmdCorrupt(const Args& args) {
  const std::string ref_path = args.Get("ref", "");
  const std::string out_path = args.Get("out", "");
  if (ref_path.empty() || out_path.empty()) {
    return Status::InvalidArgument("corrupt requires --ref and --out");
  }
  const std::string profile = args.Get("profile", "D2");
  DatasetSpec spec = profile == "D1"   ? DatasetD1()
                     : profile == "D3" ? DatasetD3()
                                       : DatasetD2();
  spec.num_inputs = static_cast<size_t>(args.GetInt("inputs", 1000));
  spec.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  const bool with_seeds = args.Has("seeds");
  FM_RETURN_IF_ERROR(args.RejectUnread());

  FM_ASSIGN_OR_RETURN(auto db, Database::Open(DatabaseOptions{
                                   .path = "", .pool_pages = 64 * 1024}));
  FM_ASSIGN_OR_RETURN(Table * ref,
                      LoadCsvTable(db.get(), "ref", ref_path));
  if (spec.column_error_prob.size() != ref->schema().num_columns()) {
    // Non-customer schemas get a uniform error profile.
    spec.column_error_prob.assign(ref->schema().num_columns(), 0.5);
    spec.column_error_prob[0] = 0.8;
  }
  FM_ASSIGN_OR_RETURN(const std::vector<InputTuple> inputs,
                      GenerateInputs(ref, spec, nullptr));

  std::ofstream out(out_path);
  if (!out) {
    return Status::IOError("cannot write " + out_path);
  }
  CsvWriter writer(&out);
  std::vector<std::string> header = ref->schema().column_names();
  if (with_seeds) {
    header.push_back("_seed_row");
  }
  writer.Write(header);
  for (const InputTuple& input : inputs) {
    std::vector<std::string> fields = RowToFields(input.dirty);
    if (with_seeds) {
      fields.push_back(std::to_string(input.seed_tid));
    }
    writer.Write(fields);
  }
  std::printf("wrote %zu corrupted tuples (%s profile) to %s\n",
              inputs.size(), spec.name.c_str(), out_path.c_str());
  return Status::OK();
}

/// --bound-policy aggressive|tight|conservative (the per-candidate
/// upper-bound flavour of DESIGN.md 5e).
Status ApplyBoundPolicy(const Args& args, FuzzyMatchConfig* config) {
  const std::string policy = args.Get("bound-policy", "aggressive");
  if (policy == "aggressive") {
    config->matcher.bound_policy = MatcherOptions::BoundPolicy::kAggressive;
  } else if (policy == "tight") {
    config->matcher.bound_policy = MatcherOptions::BoundPolicy::kTight;
  } else if (policy == "conservative") {
    config->matcher.bound_policy =
        MatcherOptions::BoundPolicy::kConservative;
  } else {
    return Status::InvalidArgument(
        "--bound-policy must be aggressive, tight, or conservative");
  }
  return Status::OK();
}

Status CmdBuild(const Args& args) {
  const std::string ref_path = args.Get("ref", "");
  const std::string db_path = args.Get("db", "");
  if (ref_path.empty() || db_path.empty()) {
    return Status::InvalidArgument("build requires --ref and --db");
  }
  EtiBuilder::Options options;
  options.params.q = static_cast<int>(args.GetInt("q", 4));
  options.params.signature_size = static_cast<int>(args.GetInt("h", 3));
  options.params.index_tokens = args.Has("tokens");
  options.build_threads = static_cast<int>(args.GetInt("build-threads", 1));
  options.temp_dir = args.Get("temp-dir", "");
  options.sort_memory_bytes =
      static_cast<size_t>(args.GetInt("sort-budget-kb", 64 * 1024)) << 10;
  FM_RETURN_IF_ERROR(args.RejectUnread());
  FM_ASSIGN_OR_RETURN(auto db, Database::Open(DatabaseOptions{
                                   .path = db_path, .pool_pages = 64 * 1024}));
  FM_ASSIGN_OR_RETURN(Table * ref,
                      LoadCsvTable(db.get(), "ref", ref_path));

  FM_ASSIGN_OR_RETURN(const BuiltEti built,
                      EtiBuilder::Build(db.get(), ref, options));
  FM_RETURN_IF_ERROR(db->Checkpoint());

  const EtiBuildStats& stats = built.stats;
  std::printf(
      "built ETI %s over %llu tuples with %u thread(s): %llu rows, "
      "%llu stop q-grams, %llu spilled runs (spill dir %s)\n"
      "  scan %.2fs  sort %.2fs  merge %.2fs  total %.2fs -> %s\n",
      options.params.StrategyName().c_str(),
      static_cast<unsigned long long>(stats.reference_tuples),
      stats.build_threads,
      static_cast<unsigned long long>(stats.eti_rows),
      static_cast<unsigned long long>(stats.stop_qgrams),
      static_cast<unsigned long long>(stats.spilled_runs),
      stats.temp_dir.c_str(), stats.scan_seconds, stats.sort_seconds,
      stats.merge_seconds, stats.total_seconds, db_path.c_str());
  return Status::OK();
}

Status CmdMatch(const Args& args) {
  const std::string ref_path = args.Get("ref", "");
  const std::string input_path = args.Get("input", "");
  const std::string out_path = args.Get("out", "");
  if (ref_path.empty() || input_path.empty() || out_path.empty()) {
    return Status::InvalidArgument(
        "match requires --ref, --input and --out");
  }

  FuzzyMatchConfig config;
  config.eti.q = static_cast<int>(args.GetInt("q", 4));
  config.eti.signature_size = static_cast<int>(args.GetInt("h", 3));
  config.eti.index_tokens = args.Has("tokens");
  config.matcher.k = static_cast<size_t>(args.GetInt("k", 1));
  config.matcher.min_similarity = args.GetDouble("threshold", 0.0);
  config.build_threads =
      static_cast<int>(args.GetInt("build-threads", 1));
  config.temp_dir = args.Get("temp-dir", "");
  config.accel_memory_bytes =
      static_cast<size_t>(args.GetInt(
          "accel-budget-mb",
          static_cast<int64_t>(config.accel_memory_bytes >> 20)))
      << 20;
  config.matcher.tuple_cache_bytes =
      static_cast<size_t>(args.GetInt(
          "tuple-cache-mb",
          static_cast<int64_t>(config.matcher.tuple_cache_bytes >> 20)))
      << 20;
  FM_RETURN_IF_ERROR(ApplyBoundPolicy(args, &config));
  BatchCleaner::Options clean_options;
  clean_options.load_threshold = args.GetDouble("load-threshold", 0.8);
  const size_t threads =
      static_cast<size_t>(std::max<int64_t>(1, args.GetInt("threads", 1)));
  const bool dump_metrics = args.Has("metrics");
  const std::string metrics_path = args.Get("metrics", "");
  FM_RETURN_IF_ERROR(args.RejectUnread());

  FM_ASSIGN_OR_RETURN(auto db, Database::Open(DatabaseOptions{
                                   .path = "", .pool_pages = 64 * 1024}));
  FM_ASSIGN_OR_RETURN(Table * ref,
                      LoadCsvTable(db.get(), "ref", ref_path));
  std::printf("loaded %llu reference tuples from %s\n",
              static_cast<unsigned long long>(ref->row_count()),
              ref_path.c_str());

  FM_ASSIGN_OR_RETURN(const auto matcher,
                      FuzzyMatcher::Build(db.get(), "ref", config));
  std::printf("built ETI %s in %.2fs (%llu rows)\n",
              config.eti.StrategyName().c_str(),
              matcher->build_stats().total_seconds,
              static_cast<unsigned long long>(
                  matcher->build_stats().eti_rows));

  // Read the input feed (tolerating an extra trailing audit column).
  std::ifstream in(input_path);
  if (!in) {
    return Status::IOError("cannot open " + input_path);
  }
  CsvReader reader(&in);
  std::vector<std::string> fields;
  FM_ASSIGN_OR_RETURN(const bool has_header, reader.Next(&fields));
  if (!has_header) {
    return Status::InvalidArgument(input_path + " is empty");
  }
  const size_t arity = ref->schema().num_columns();
  std::vector<Row> inputs;
  std::vector<std::vector<std::string>> raw_inputs;
  for (;;) {
    FM_ASSIGN_OR_RETURN(const bool more, reader.Next(&fields));
    if (!more) break;
    if (fields.size() < arity) {
      return Status::InvalidArgument(
          StringPrintf("%s row %llu has %zu fields, need at least %zu",
                       input_path.c_str(),
                       static_cast<unsigned long long>(reader.records_read()),
                       fields.size(), arity));
    }
    raw_inputs.push_back(fields);
    fields.resize(arity);
    inputs.push_back(FieldsToRow(fields));
  }

  std::ofstream out(out_path);
  if (!out) {
    return Status::IOError("cannot write " + out_path);
  }
  CsvWriter writer(&out);
  std::vector<std::string> header = ref->schema().column_names();
  header.push_back("outcome");
  header.push_back("similarity");
  for (const auto& col : ref->schema().column_names()) {
    header.push_back("matched_" + col);
  }
  writer.Write(header);

  const BatchCleaner cleaner(matcher.get(), clean_options);
  FM_ASSIGN_OR_RETURN(
      const CleanStats stats,
      cleaner.CleanBatchParallel(
          inputs, threads,
          [&](size_t i, const CleanResult& result) -> Status {
            std::vector<std::string> record(raw_inputs[i].begin(),
                                            raw_inputs[i].begin() +
                                                static_cast<long>(arity));
            switch (result.outcome) {
              case CleanOutcome::kValidated:
                record.push_back("validated");
                break;
              case CleanOutcome::kCorrected:
                record.push_back("corrected");
                break;
              case CleanOutcome::kRouted:
                record.push_back("routed");
                break;
            }
            record.push_back(
                result.best_match
                    ? StringPrintf("%.4f", result.best_match->similarity)
                    : "");
            if (result.outcome != CleanOutcome::kRouted) {
              for (const auto& f : RowToFields(result.output)) {
                record.push_back(f);
              }
            } else {
              for (size_t c = 0; c < arity; ++c) {
                record.emplace_back();
              }
            }
            writer.Write(record);
            return Status::OK();
          }));

  std::printf(
      "processed %llu inputs in %.2fs: %llu validated, %llu corrected, "
      "%llu routed -> %s\n",
      static_cast<unsigned long long>(stats.processed),
      stats.elapsed_seconds,
      static_cast<unsigned long long>(stats.validated),
      static_cast<unsigned long long>(stats.corrected),
      static_cast<unsigned long long>(stats.routed), out_path.c_str());

  if (dump_metrics) {
    const std::string text = obs::MetricsRegistry::Global().RenderText();
    if (metrics_path.empty()) {
      std::fputs(text.c_str(), stdout);
    } else {
      std::ofstream metrics_out(metrics_path);
      if (!metrics_out) {
        return Status::IOError("cannot write " + metrics_path);
      }
      metrics_out << text;
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
  }
  return Status::OK();
}

/// Prints one span and, recursively, its children indented beneath it.
/// Span order within a trace is open order, so children always appear
/// after their parent; a simple scan per level keeps this O(n^2) in the
/// (bounded, <=192) span count.
void PrintSpanSubtree(const std::vector<server::JsonValue>& spans,
                      int64_t parent, int depth) {
  for (size_t i = 0; i < spans.size(); ++i) {
    const server::JsonValue* p = spans[i].Find("parent");
    if (!p || static_cast<int64_t>(p->number_value()) != parent) continue;
    const server::JsonValue* name = spans[i].Find("name");
    const server::JsonValue* dur = spans[i].Find("duration_us");
    std::printf("    %*s%s  %.3fms\n", depth * 2, "",
                name && name->is_string() ? name->string_value().c_str() : "?",
                dur ? dur->number_value() / 1e3 : 0.0);
    PrintSpanSubtree(spans, static_cast<int64_t>(i), depth + 1);
  }
}

Status CmdTrace(const Args& args) {
  if (!args.Has("port")) {
    return Status::InvalidArgument("trace requires --port");
  }
  const std::string host = args.Get("host", "127.0.0.1");
  const auto port = static_cast<uint16_t>(args.GetInt("port", 0));
  const int64_t limit = std::max<int64_t>(1, args.GetInt("limit", 16));
  const bool json = args.Has("json");
  FM_RETURN_IF_ERROR(args.RejectUnread());
  server::LineClient client;
  FM_RETURN_IF_ERROR(client.Connect(host, port));
  FM_ASSIGN_OR_RETURN(
      const std::string raw,
      client.Roundtrip(StringPrintf("tracez %lld",
                                    static_cast<long long>(limit))));
  if (json) {
    std::printf("%s\n", raw.c_str());
    return Status::OK();
  }
  FM_ASSIGN_OR_RETURN(const server::JsonValue doc, server::ParseJson(raw));
  const server::JsonValue* ok = doc.Find("ok");
  if (!ok || !ok->is_bool() || !ok->bool_value()) {
    const server::JsonValue* error = doc.Find("error");
    return Status::Internal(
        "server rejected tracez: " +
        (error && error->is_string() ? error->string_value() : raw));
  }
  const server::JsonValue* recorder = doc.Find("recorder");
  if (!recorder || !recorder->is_object()) {
    return Status::Internal("tracez response missing recorder object");
  }
  if (const server::JsonValue* stats = recorder->Find("stats")) {
    const auto stat = [&](const char* key) -> unsigned long long {
      const server::JsonValue* v = stats->Find(key);
      return v ? static_cast<unsigned long long>(v->number_value()) : 0;
    };
    const server::JsonValue* threshold =
        recorder->Find("slow_threshold_seconds");
    std::printf(
        "recorder: %llu recorded, %llu slow, %llu errors, %llu retained "
        "(slow threshold %.0fms)\n",
        stat("recorded"), stat("slow"), stat("errors"), stat("retained"),
        threshold ? threshold->number_value() * 1e3 : 0.0);
  }
  const server::JsonValue* traces = recorder->Find("traces");
  if (!traces || !traces->is_array() || traces->array_items().empty()) {
    std::printf("no traces retained (is tracing enabled on the server?)\n");
    return Status::OK();
  }
  for (const server::JsonValue& trace : traces->array_items()) {
    const auto num = [&](const char* key) -> double {
      const server::JsonValue* v = trace.Find(key);
      return v ? v->number_value() : 0.0;
    };
    const server::JsonValue* op = trace.Find("op");
    const server::JsonValue* error = trace.Find("error");
    const server::JsonValue* status = trace.Find("status");
    std::printf("\n#%llu %s  %.3fms%s\n",
                static_cast<unsigned long long>(num("request_id")),
                op && op->is_string() ? op->string_value().c_str() : "?",
                num("duration_ms"),
                error && error->is_bool() && error->bool_value() ? "  ERROR"
                                                                 : "");
    if (status && status->is_string()) {
      std::printf("    status: %s\n", status->string_value().c_str());
    }
    if (const server::JsonValue* counts = trace.Find("counts")) {
      if (counts->is_object() && !counts->object_items().empty()) {
        std::string line = "    counts:";
        for (const auto& [key, value] : counts->object_items()) {
          line += StringPrintf(
              " %s=%llu", key.c_str(),
              static_cast<unsigned long long>(value.number_value()));
        }
        std::printf("%s\n", line.c_str());
      }
    }
    const server::JsonValue* spans = trace.Find("spans");
    if (spans && spans->is_array()) {
      PrintSpanSubtree(spans->array_items(), -1, 0);
    }
    if (const server::JsonValue* dropped = trace.Find("dropped_spans")) {
      std::printf("    (%llu spans dropped by the width/depth bound)\n",
                  static_cast<unsigned long long>(dropped->number_value()));
    }
  }
  return Status::OK();
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: fuzzymatch_cli <gen|corrupt|build|match|trace> [flags]\n"
      "  gen     --out ref.csv [--rows N] [--seed S]\n"
      "  corrupt --ref ref.csv --out dirty.csv [--inputs N]\n"
      "          [--profile D1|D2|D3] [--seed S] [--seeds]\n"
      "  build   --ref ref.csv --db store.fmdb\n"
      "          [--q N] [--h N] [--tokens] [--build-threads N]\n"
      "          [--temp-dir DIR] [--sort-budget-kb KB]\n"
      "  match   --ref ref.csv --input dirty.csv --out out.csv\n"
      "          [--q N] [--h N] [--tokens] [--k N] [--threshold C]\n"
      "          [--load-threshold C] [--threads N] [--build-threads N]\n"
      "          [--temp-dir DIR] [--metrics [FILE]]\n"
      "          [--accel-budget-mb MB] [--tuple-cache-mb MB]\n"
      "          [--bound-policy aggressive|tight|conservative]\n"
      "          [--verbose]\n"
      "  trace   --port P [--host A] [--limit N] [--json]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (args.Has("verbose")) {
    SetLogLevel(LogLevel::kDebug);
  }
  Status status;
  if (command == "gen") {
    status = CmdGen(args);
  } else if (command == "corrupt") {
    status = CmdCorrupt(args);
  } else if (command == "build") {
    status = CmdBuild(args);
  } else if (command == "match") {
    status = CmdMatch(args);
  } else if (command == "trace") {
    status = CmdTrace(args);
  } else {
    PrintUsage();
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
