// hot_match, disk_read and disk_mixed: one closed-loop client calling
// FindMatches (and, on disk_mixed, the durable maintenance calls)
// directly.

#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fuzzymatch::Match;
using fuzzymatch::QueryStats;
using fuzzymatch::StringPrintf;

/// The sizes of one query workload.
struct QueryScale {
  size_t rows = 0;
  size_t pool_pages = 0;  // 8 KiB pages
  size_t accel_bytes = 0;
  size_t tuple_cache_bytes = 0;
  size_t inputs_per_profile = 0;
  int setup_repeats = 0;
  size_t removal_candidates = 0;  // 0 = no maintenance
};

// hot_match: the relation (about 17 MB of pages at 100k rows) fits the
// 32 MiB pool, and the accelerator and tuple cache keep their library
// defaults (64 MiB, 32 MiB).
QueryScale HotMatchScale(bool smoke) {
  const FuzzyMatchConfig defaults;
  QueryScale s;
  s.rows = smoke ? 3000 : 100000;
  s.pool_pages = 4096;
  s.accel_bytes = defaults.accel_memory_bytes;
  s.tuple_cache_bytes = defaults.matcher.tuple_cache_bytes;
  s.inputs_per_profile = smoke ? 100 : 20000;
  s.setup_repeats = smoke ? 1 : 3;
  return s;
}

// disk_read and disk_mixed: hot_match's 100k rows in a database file of
// about 17 MB, 5.5 times the 384-page (3 MiB) pool, and the 4 MiB
// accelerator and 2 MiB tuple-cache budgets sit well below the ETI and
// relation footprints. The run's report note prints the measured sizes.
QueryScale DiskScale(bool smoke, bool maintenance) {
  QueryScale s;
  s.rows = smoke ? 4000 : 100000;
  s.pool_pages = smoke ? 128 : 384;
  s.accel_bytes = smoke ? (256u << 10) : (4u << 20);
  s.tuple_cache_bytes = smoke ? (128u << 10) : (2u << 20);
  s.inputs_per_profile = smoke ? 100 : 15000;
  s.setup_repeats = smoke ? 1 : 3;
  s.removal_candidates = !maintenance ? 0 : smoke ? 200 : 4000;
  return s;
}

/// Op slots of the 20-op maintenance cycle: one insert and one remove
/// (10% of ops), each followed by a read-your-writes query.
constexpr size_t kCycle = 20;
constexpr size_t kInsertSlot = 3;
constexpr size_t kInsertCheckSlot = 4;
constexpr size_t kRemoveSlot = 13;
constexpr size_t kRemoveCheckSlot = 14;

/// State one workload carries across its measured phase and traced pass.
struct Workbench {
  FuzzyMatcher* matcher = nullptr;
  std::vector<InputTuple> inputs;
  size_t next_input = 0;
  bool maintenance = false;

  // Maintenance: rows to insert (made unique per insert), original rows
  // to remove, and what was acknowledged.
  std::vector<Row> insert_bases;
  uint64_t inserts_issued = 0;
  std::vector<std::pair<Tid, Row>> removal_rows;
  size_t next_removal = 0;
  std::vector<std::pair<Tid, Row>> inserted;
  std::unordered_set<Tid> removed_tids;
};

/// What one pass over the op loop measured.
struct PhaseResult {
  Samples query_s;  // FindMatches latency, seconds
  Samples maint_s;  // durable insert/remove latency, seconds
  Samples all_s;    // every op
  uint64_t queries = 0;
  uint64_t pool_queries = 0;
  uint64_t recalled = 0;
  uint64_t returned = 0;
  uint64_t maint_ops = 0;
  Counters query_delta;
  Counters maint_delta;
  double elapsed_s = 0;
  // Traced pass only: summed FindMatches span time and the same minus
  // the replayed lower-layer time.
  double find_matches_us = 0;
  double match_self_us = 0;
};

/// A row no reference row can equal: the base row with one extra name
/// token unique to this insert.
Row UniqueRow(const Row& base, uint64_t n) {
  Row row = base;
  std::string token = "ins";
  for (uint64_t v = n + 1; v > 0; v /= 26) {
    token.push_back(static_cast<char>('a' + v % 26));
  }
  row[0] = (row[0].has_value() ? *row[0] + " " : std::string()) + token;
  return row;
}

bool Contains(const std::vector<Match>& matches, Tid tid) {
  for (const Match& m : matches) {
    if (m.tid == tid) return true;
  }
  return false;
}

/// Runs the op loop until `deadline` (seconds since the steady epoch, 0 =
/// none) or `max_ops` ops (0 = none). With a probe, naive-scan probes run
/// between ops. With a tracer, every query is wrapped in spans and its
/// lower-layer calls are replayed.
void RunPhase(Workbench& wb, double deadline, size_t max_ops,
              NaiveProbe* probe, Tracer* tracer, QueryReplayer* replayer,
              OpLedger* ledger, PhaseResult* out) {
  FuzzyMatcher* matcher = wb.matcher;
  Tid last_inserted = 0;
  bool have_inserted = false;
  Tid last_removed = 0;
  const Row* last_removed_row = nullptr;
  const double start = Now();
  size_t k = 0;
  auto keep_going = [&] {
    if (max_ops > 0 && k >= max_ops) return false;
    return deadline == 0 || Now() < deadline;
  };

  // One query; `expect_top` / `expect_absent` are the read-your-writes
  // checks, `seed` the pool input's seed tid (recall).
  auto query = [&](const Row& row, const Tid* seed, const Tid* expect_top,
                   const Tid* expect_absent) {
    ledger->Attempt();
    QueryStats stats;
    uint32_t root = 0;
    uint32_t span = 0;
    if (tracer != nullptr) {
      root = tracer->Begin("request", k, 0);
      span = tracer->Begin("match.find_matches", k, root);
    }
    const Counters before = Counters::Read();
    const double t0 = Now();
    auto result = matcher->FindMatches(row, &stats);
    const double dt = Now() - t0;
    out->query_delta += Counters::Read() - before;
    if (tracer != nullptr) tracer->End(span);
    out->query_s.Add(dt);
    out->all_s.Add(dt);
    ++out->queries;
    if (!result.ok()) {
      ledger->Fail("FindMatches: " + result.status().ToString());
      if (tracer != nullptr) tracer->End(root);
      return;
    }
    if (tracer != nullptr) {
      const double lower = replayer->Replay(tracer, k, root, row, stats);
      out->find_matches_us += tracer->DurationUs(span);
      out->match_self_us += tracer->DurationUs(span) - lower;
      tracer->End(root);
    }
    out->returned += result->size();
    for (const Match& m : *result) {
      if (wb.removed_tids.count(m.tid) > 0) {
        ledger->Fail(StringPrintf("removed tid %u returned", m.tid));
        return;
      }
    }
    if (seed != nullptr) {
      ++out->pool_queries;
      if (Contains(*result, *seed)) ++out->recalled;
    }
    if (expect_top != nullptr &&
        (result->empty() || (*result)[0].tid != *expect_top)) {
      ledger->Fail(StringPrintf("inserted tid %u is not top-1 for itself",
                                *expect_top));
    }
    if (expect_absent != nullptr && Contains(*result, *expect_absent)) {
      ledger->Fail(StringPrintf("removed tid %u returned", *expect_absent));
    }
  };

  auto maintain = [&](bool insert) {
    ledger->Attempt();
    uint32_t span = 0;
    if (tracer != nullptr) {
      span = tracer->Begin(insert ? "core.insert" : "core.remove", k, 0);
    }
    const Counters before = Counters::Read();
    double dt = 0;
    Status status;
    if (insert) {
      Row row = UniqueRow(
          wb.insert_bases[wb.inserts_issued % wb.insert_bases.size()],
          wb.inserts_issued);
      ++wb.inserts_issued;
      const double t0 = Now();
      auto tid = matcher->InsertReferenceTuple(row);
      dt = Now() - t0;
      status = tid.status();
      have_inserted = tid.ok();
      if (tid.ok()) {
        last_inserted = *tid;
        wb.inserted.emplace_back(*tid, std::move(row));
      }
    } else {
      const auto& [tid, row] = wb.removal_rows[wb.next_removal++];
      const double t0 = Now();
      status = matcher->RemoveReferenceTuple(tid);
      dt = Now() - t0;
      if (status.ok()) {
        last_removed = tid;
        last_removed_row = &row;
        wb.removed_tids.insert(tid);
      }
    }
    out->maint_delta += Counters::Read() - before;
    if (tracer != nullptr) tracer->End(span);
    out->maint_s.Add(dt);
    out->all_s.Add(dt);
    ++out->maint_ops;
    if (!status.ok()) {
      ledger->Fail(std::string(insert ? "insert: " : "remove: ") +
                   status.ToString());
    }
  };

  for (; keep_going(); ++k) {
    if (probe != nullptr) probe->MaybeRun();
    const size_t slot = k % kCycle;
    if (wb.maintenance && slot == kInsertSlot) {
      maintain(true);
    } else if (wb.maintenance && slot == kRemoveSlot &&
               wb.next_removal < wb.removal_rows.size()) {
      maintain(false);
    } else if (wb.maintenance && slot == kInsertCheckSlot && have_inserted) {
      query(wb.inserted.back().second, nullptr, &last_inserted, nullptr);
    } else if (wb.maintenance && slot == kRemoveCheckSlot &&
               last_removed_row != nullptr) {
      query(*last_removed_row, nullptr, nullptr, &last_removed);
      last_removed_row = nullptr;
    } else {
      const InputTuple& input = wb.inputs[wb.next_input++ % wb.inputs.size()];
      query(input.dirty, &input.seed_tid, nullptr, nullptr);
    }
  }
  out->elapsed_s = Now() - start;
}

/// Picks `count` original tids to remove: none is the seed of a pool
/// input, so removals never take away a query's right answer.
std::vector<std::pair<Tid, Row>> PickRemovals(
    const std::vector<Row>& rows, const std::vector<InputTuple>& inputs,
    size_t count, uint64_t seed) {
  std::unordered_set<Tid> excluded;
  for (const InputTuple& input : inputs) excluded.insert(input.seed_tid);
  fuzzymatch::Rng rng(seed ^ 0x72656d6f7665ULL);
  std::vector<std::pair<Tid, Row>> out;
  while (out.size() < count && excluded.size() < rows.size()) {
    const Tid tid = static_cast<Tid>(rng.Uniform(rows.size()));
    if (excluded.insert(tid).second) out.emplace_back(tid, rows[tid]);
  }
  return out;
}

/// Adds the end-to-end metrics of a measured query phase.
void AddEndToEnd(PhaseResult& r, bool maintenance, NaiveProbe& probe,
                 Report* report) {
  AddRequestMetrics(r.all_s, r.queries + r.maint_ops, r.elapsed_s, probe,
                    report);
  report->AddLatency("query", r.query_s);
  report->Add("query_qps", static_cast<double>(r.queries) / r.elapsed_s,
              "1/s", r.queries);
  if (maintenance) {
    report->AddLatency("maint", r.maint_s);
  }
  report->Add("seed_recall",
              Ratio(static_cast<double>(r.recalled),
                    static_cast<double>(r.pool_queries)),
              "fraction", r.pool_queries);
}

/// The traced pass: a fresh query engine over the same index (so it
/// starts from the same cold caches as the measured phase), the same
/// inputs from the start, spans around every layer call.
Status TracedPass(const Args& args, Deployment& d, Workbench& wb,
                  PhaseResult& untraced, OpLedger* ledger, Report* report) {
  const FuzzyMatchConfig config = d.matcher->config();
  d.matcher.reset();
  FM_ASSIGN_OR_RETURN(d.matcher,
                      FuzzyMatcher::Open(d.db.get(), "customers",
                                         config.eti.StrategyName(), config));
  wb.matcher = d.matcher.get();
  wb.next_input = 0;
  Tracer tracer;
  QueryReplayer replayer(d.matcher.get());
  PhaseResult traced;
  const double deadline = args.ops > 0 ? 0 : Now() + args.seconds;
  RunPhase(wb, deadline, untraced.queries + untraced.maint_ops, nullptr,
           &tracer, &replayer, ledger, &traced);
  const uint64_t q = traced.queries;
  AddSelfTimes(tracer, q,
               {{"text.tokenize", "text.tokenize_us"},
                {"text.signature", "text.signature_us"},
                {"eti.lookup", "eti.lookup_us"},
                {"storage.get", "storage.get_us"},
                {"sim.fms", "sim.fms_us"}},
               report);
  report->Add("match.find_matches_us",
              Ratio(traced.find_matches_us, static_cast<double>(q)), "us", q);
  report->Add("match.self_us",
              Ratio(traced.match_self_us, static_cast<double>(q)), "us", q);
  report->Add("sim.fms_calls_per_query",
              Ratio(static_cast<double>(replayer.fms_calls()),
                    static_cast<double>(q)),
              "count", q);
  const double base = untraced.query_s.Quantile(0.5);
  report->Add("trace.overhead_frac",
              Ratio(traced.query_s.Quantile(0.5) - base, base), "fraction",
              q);
  const std::string path = args.work_dir + "/spans-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".csv";
  FM_RETURN_IF_ERROR(tracer.WriteCsv(path));
  report->Note(StringPrintf("traced pass: %zu spans over %llu queries "
                            "written to %s",
                            tracer.size(),
                            static_cast<unsigned long long>(q),
                            path.c_str()));
  return Status::OK();
}

/// Warms thread-local scratch and lazy structures on inputs that are not
/// part of the measured pool.
Status WarmUp(FuzzyMatcher* matcher, Table* table, uint64_t seed) {
  FM_ASSIGN_OR_RETURN(const std::vector<InputTuple> warm,
                      GenerateMixedInputs(table, 30, seed + 0x5741524d));
  for (const InputTuple& input : warm) {
    FM_RETURN_IF_ERROR(matcher->FindMatches(input.dirty).status());
  }
  return Status::OK();
}

/// Checks a reopened crash image: every acknowledged insert is present
/// with its row and every acknowledged remove is gone. Returns the number
/// of acknowledged ops the image lost.
uint64_t CountLostOps(const Table& table, const Workbench& wb,
                      OpLedger* ledger) {
  uint64_t lost = 0;
  for (const auto& [tid, row] : wb.inserted) {
    auto got = table.Get(tid);
    if (!got.ok() || *got != row) {
      ++lost;
      ledger->Fail(StringPrintf("acknowledged insert of tid %u lost", tid));
    }
  }
  for (const Tid tid : wb.removed_tids) {
    if (table.Get(tid).ok()) {
      ++lost;
      ledger->Fail(StringPrintf("acknowledged remove of tid %u undone", tid));
    }
  }
  return lost;
}

/// Takes a crash image of the database (main file and log as they are on
/// disk, nothing flushed at close), reopens it, which replays the log,
/// and checks it with CountLostOps. Every problem is an op failure.
void CheckDurability(const Args& args, Deployment& d, const Workbench& wb,
                     OpLedger* ledger, Report* report) {
  if (Status flushed = d.db->FlushWal(); !flushed.ok()) {
    ledger->Fail("final WAL flush: " + flushed.ToString());
    return;
  }
  const std::string path = d.db->path();
  const std::string image = args.work_dir + "/crash-image.db";
  std::filesystem::copy_file(path, image,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::copy_file(path + ".wal", image + ".wal",
                             std::filesystem::copy_options::overwrite_existing);
  d.matcher.reset();
  d.db.reset();

  fuzzymatch::DatabaseOptions options;
  options.path = image;
  {
    const double t0 = Now();
    auto db = Database::Open(options);
    report->Add("recovery_s", Now() - t0, "s", 1);
    auto table = db.ok() ? (*db)->GetTable("customers")
                         : Result<Table*>(db.status());
    if (table.ok()) {
      const uint64_t lost = CountLostOps(**table, wb, ledger);
      report->Add("durability.checked_ops",
                  static_cast<double>(wb.inserted.size() +
                                      wb.removed_tids.size()),
                  "count");
      report->Add("durability.lost_ops", static_cast<double>(lost), "count");
    } else {
      ledger->Fail("reopening the crash image: " +
                   table.status().ToString());
    }
  }
  std::filesystem::remove(image);
  std::filesystem::remove(image + ".wal");
}


Status RunQueryWorkload(const Args& args, const QueryScale& scale,
                        bool file_backed, Report* report, OpLedger* ledger) {
  std::vector<Row> rows = GenerateReferenceRows(kReferenceSeed, scale.rows);
  const uint64_t ref_bytes = ReferenceBytes(rows);

  SetupSpec spec;
  spec.db.pool_pages = scale.pool_pages;
  if (file_backed) {
    spec.db.path = args.work_dir + "/" + args.workload + ".db";
    spec.db.wal_fsync = fuzzymatch::WalFsyncMode::kGroup;
  }
  spec.config.accel_memory_bytes = scale.accel_bytes;
  spec.config.matcher.tuple_cache_bytes = scale.tuple_cache_bytes;
  spec.config.temp_dir = args.work_dir;
  FM_ASSIGN_OR_RETURN(Deployment d,
                      TimedSetUp(spec, rows, scale.setup_repeats, report));

  Workbench wb;
  wb.matcher = d.matcher.get();
  wb.maintenance = scale.removal_candidates > 0;
  FM_ASSIGN_OR_RETURN(wb.inputs, GenerateMixedInputs(
                                     d.table, scale.inputs_per_profile,
                                     args.seed));
  if (wb.maintenance) {
    wb.insert_bases = GenerateReferenceRows(args.seed + 0x494e53, 1000);
    wb.removal_rows =
        PickRemovals(rows, wb.inputs, scale.removal_candidates, args.seed);
  }
  rows = std::vector<Row>();  // the measured phase holds no copy of R
  FM_RETURN_IF_ERROR(WarmUp(d.matcher.get(), d.table, args.seed));

  report->Note(StringPrintf(
      "|R|=%zu rows (%.1f MB of field data); pool %zu pages of 8 KiB; "
      "accel budget %zu KiB; tuple cache %zu KiB; %zu pool inputs "
      "(D1/D2/D3 evenly)%s",
      scale.rows, static_cast<double>(ref_bytes) / 1e6, scale.pool_pages,
      scale.accel_bytes >> 10, scale.tuple_cache_bytes >> 10,
      wb.inputs.size(),
      wb.maintenance ? "; ops 90% queries, 5% durable inserts, 5% durable "
                       "removes, WAL fsync policy group"
                     : ""));

  NaiveProbe probe;
  PhaseResult measured;
  const double deadline = args.ops > 0 ? 0 : Now() + args.seconds;
  RunPhase(wb, deadline, args.ops, &probe, nullptr, nullptr, ledger,
           &measured);
  if (measured.queries > wb.inputs.size()) {
    report->Note("the input pool wrapped: later queries repeat inputs");
  }
  AddEndToEnd(measured, wb.maintenance, probe, report);
  AddReadPathCounts(measured.query_delta, measured.queries, measured.returned,
                    report);
  AddWritePathCounts(measured.maint_delta, measured.maint_ops, report);

  if (args.trace) {
    FM_RETURN_IF_ERROR(TracedPass(args, d, wb, measured, ledger, report));
  }
  if (file_backed) {
    const uint64_t db_bytes = std::filesystem::file_size(d.db->path()) +
                              std::filesystem::file_size(d.db->path() +
                                                         ".wal");
    report->Add("db_bytes_per_ref_byte",
                static_cast<double>(db_bytes) /
                    static_cast<double>(ref_bytes),
                "ratio");
    report->Note(StringPrintf("database %.1f MB = %.1fx the buffer pool",
                              static_cast<double>(db_bytes) / 1e6,
                              static_cast<double>(db_bytes) /
                                  static_cast<double>(scale.pool_pages *
                                                      8192)));
    if (wb.maintenance) {
      CheckDurability(args, d, wb, ledger, report);
    }
    d.matcher.reset();
    d.db.reset();
    std::filesystem::remove(spec.db.path);
    std::filesystem::remove(spec.db.path + ".wal");
  }
  return Status::OK();
}

}  // namespace

Status RunHotMatch(const Args& args, Report* report, OpLedger* ledger) {
  return RunQueryWorkload(args, HotMatchScale(args.smoke),
                          /*file_backed=*/false, report, ledger);
}

Status RunDiskRead(const Args& args, Report* report, OpLedger* ledger) {
  return RunQueryWorkload(args, DiskScale(args.smoke, /*maintenance=*/false),
                          /*file_backed=*/true, report, ledger);
}

Status RunDiskMixed(const Args& args, Report* report, OpLedger* ledger) {
  return RunQueryWorkload(args, DiskScale(args.smoke, /*maintenance=*/true),
                          /*file_backed=*/true, report, ledger);
}

}  // namespace perfbench
