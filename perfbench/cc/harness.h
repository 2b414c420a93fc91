// Shared pieces of the repository benchmark: arguments, exact-quantile
// samples, registry counter deltas, in-memory spans, the metric report,
// seeded data generation and the timed set-up of a FuzzyMatcher.
//
// Everything here measures the library from outside: it calls public
// functions and reads the process-wide obs::MetricsRegistry. No library
// code is instrumented for the benchmark.

#ifndef FUZZYMATCH_PERFBENCH_HARNESS_H_
#define FUZZYMATCH_PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/fuzzy_match.h"
#include "eti/eti.h"
#include "gen/dataset.h"
#include "sim/fms.h"
#include "storage/database.h"
#include "text/minhash.h"
#include "text/tokenizer.h"

namespace perfbench {

using fuzzymatch::Database;
using fuzzymatch::FuzzyMatchConfig;
using fuzzymatch::FuzzyMatcher;
using fuzzymatch::InputTuple;
using fuzzymatch::Result;
using fuzzymatch::Row;
using fuzzymatch::Status;
using fuzzymatch::Table;
using fuzzymatch::Tid;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for database files, spill runs and span dumps.
  std::string work_dir = ".";
  /// Toy sizes for the smoke and determinism tests.
  bool smoke = false;
  /// When > 0, each measured phase runs exactly this many operations
  /// instead of running for `seconds` (used by the determinism test).
  size_t ops = 0;
};

/// Seconds on the steady clock (arbitrary epoch).
double Now();

/// Raw timing samples with exact quantiles.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  /// Nearest-rank quantile over every sample; 0 when empty.
  double Quantile(double q);
  /// True when at least ten samples lie above quantile `q`.
  bool TailSupported(double q) const {
    return (1.0 - q) * static_cast<double>(values_.size()) >= 10.0;
  }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// The unit of the gated timings: one fixed naive-scan probe. The paper
/// reports normalized elapsed time, an operation's time divided by the
/// time of one naive probe on the same machine (Section 6); this is that
/// unit, made from the benchmark's own code and data so that no library
/// change moves it. One probe scores a fixed string by plain edit distance
/// against kRowsPerProbe strings drawn from kStrings seeded ones.
///
/// The benchmark runs on a few cores of a shared host whose speed drifts,
/// within a run and between runs minutes apart, by up to 1.8x on this
/// kind of work. A measured phase runs one probe every kIntervalS between
/// its ops, on the thread that issues them; divided by the median probe
/// time, a timing keeps what the program changed and sheds most of what
/// the host did.
class NaiveProbe {
 public:
  static constexpr size_t kStrings = 100000;
  static constexpr size_t kRowsPerProbe = 400;
  static constexpr double kIntervalS = 0.1;

  NaiveProbe();
  /// Runs one probe if the last ran at least kIntervalS ago.
  void MaybeRun() {
    if (Now() >= due_) Run();
  }
  size_t count() const { return seconds_.count(); }
  /// Median probe time; 0 before the first probe.
  double MedianSeconds() { return seconds_.Quantile(0.5); }

 private:
  void Run();
  size_t EditDistance(const std::string& a, const std::string& b);

  std::vector<std::string> strings_;
  std::vector<size_t> prev_, cur_;
  size_t next_ = 0;
  double due_ = 0;
  uint64_t sink_ = 0;
  Samples seconds_;
};

/// The registry counters the benchmark reads around measured phases.
enum CounterId : size_t {
  kEtiProbes,
  kEtiTidlistBytes,
  kAccelBytes,
  kAccelHits,
  kAccelNegatives,
  kAccelFallbacks,
  kMatchQueries,
  kMatchTids,
  kMatchCandidates,
  kMatchFetched,
  kMatchOscAttempted,
  kMatchOscSucceeded,
  kTupleCacheHits,
  kTupleCacheMisses,
  kPoolHits,
  kPoolMisses,
  kPagerReads,
  kPagerWrites,
  kBtreeLookups,
  kBtreeNodeReads,
  kWalBytes,
  kWalFsyncs,
  kWalCommits,
  kServerShed,
  kNumCounters,
};

/// A snapshot of every CounterId; subtract two for a phase delta.
struct Counters {
  std::array<uint64_t, kNumCounters> v{};

  static Counters Read();
  uint64_t operator[](CounterId id) const { return v[id]; }
  Counters operator-(const Counters& base) const;
  Counters& operator+=(const Counters& other);
};

/// In-memory span recorder for the traced pass. Spans are written out
/// once, at the end of the run.
class Tracer {
 public:
  struct Span {
    uint64_t request = 0;
    uint32_t parent = 0;  // 1-based index of the parent span; 0 = root
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Opens a span and returns its 1-based id.
  uint32_t Begin(const char* name, uint64_t request, uint32_t parent);
  void End(uint32_t id);
  /// Duration of one closed span, in microseconds.
  double DurationUs(uint32_t id) const;

  /// Per span name: total self time (duration minus the time covered by
  /// child spans), microseconds.
  std::map<std::string, double> SelfTimesUs() const;

  /// Writes one CSV line per span (id,parent,request,name,start_ns,end_ns).
  Status WriteCsv(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// Every metric a run measured, in the order it was added. Metrics a
/// workload does not exercise are recorded as not applicable: the report
/// prints "n/a" and the result line carries 0.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0);
  void NotApplicable(const std::string& name, const std::string& unit);
  /// Adds `<prefix>_p50_ms` and `<prefix>_p99_ms` from raw seconds.
  void AddLatency(const std::string& prefix, Samples& seconds);
  void Note(const std::string& line) { notes_.push_back(line); }

  bool Has(const std::string& name) const;
  /// Prints every metric with unit and sample count, then the notes.
  void Print(const std::string& workload) const;
  /// The result object: `names` become the metrics map.
  std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& names) const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
    bool applicable = true;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> notes_;
};

/// Correctness bookkeeping shared by every workload: each operation is
/// attempted once and either succeeds or fails; failures keep a short
/// sample of their reasons.
class OpLedger {
 public:
  void Attempt() { ++attempted_; }
  void Fail(const std::string& why);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// The reference relation is fixed per workload, like a scale factor: the
/// run seed draws the input stream and the maintenance ops, not R, so the
/// spread between seeds is the spread between input samples.
inline constexpr uint64_t kReferenceSeed = 42;

/// `count` rows of the synthetic Customer relation.
std::vector<Row> GenerateReferenceRows(uint64_t seed, size_t count);

/// Bytes of reference data: the summed lengths of every non-null field.
uint64_t ReferenceBytes(const std::vector<Row>& rows);

/// Dirty inputs mixed evenly from the D1, D2 and D3 error profiles,
/// `per_profile` of each, in a seeded random order.
Result<std::vector<InputTuple>> GenerateMixedInputs(Table* ref,
                                                    size_t per_profile,
                                                    uint64_t seed);

/// What one set-up built, and how long each part took.
struct Deployment {
  std::unique_ptr<Database> db;
  std::unique_ptr<FuzzyMatcher> matcher;
  Table* table = nullptr;
  double load_s = 0;   // rows into the Table
  double total_s = 0;  // load, build and (file-backed) checkpoint
};

struct SetupSpec {
  fuzzymatch::DatabaseOptions db;  // empty path = in-memory
  FuzzyMatchConfig config;
};

/// Loads `rows` into a fresh database, builds the matcher and, for a
/// file-backed store, checkpoints. A file-backed store starts from an
/// empty file.
Result<Deployment> SetUp(const SetupSpec& spec, const std::vector<Row>& rows);

/// Sets up `repeats` times (keeping only the last deployment alive) and
/// reports the median set-up time as setup_s plus the median build-phase
/// split from build_stats().
Result<Deployment> TimedSetUp(const SetupSpec& spec,
                              const std::vector<Row>& rows, int repeats,
                              Report* report);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Fraction helper: num / den, 0 when den is 0.
inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

/// Adds a measured phase's request metrics: latency_p50_ms,
/// latency_p99_ms and ops_per_s as measured, naive_probe_ms, and the
/// gated latency_p50_norm, latency_p99_norm and ops_per_probe, which are
/// the same three in units of the phase's median probe time.
void AddRequestMetrics(Samples& latency_s, uint64_t ops, double elapsed_s,
                       NaiveProbe& probe, Report* report);

/// Adds the read-path count metrics (per query) from a counter delta.
void AddReadPathCounts(const Counters& delta, uint64_t queries,
                       uint64_t returned, Report* report);

/// Adds the write-path count metrics (per maintenance op) from a delta;
/// `ops` == 0 records them as not applicable.
void AddWritePathCounts(const Counters& delta, uint64_t ops,
                        Report* report);

/// Replays one query's lower-layer calls under spans of the request's
/// root: tokenize, signature, ETI lookup, reference fetch and fms, on the
/// query's own input and the tids the matcher verified for it (the
/// top-scored tids; `stats` says how many came from storage and how many
/// from the tuple cache). The matcher must outlive the replayer.
class QueryReplayer {
 public:
  explicit QueryReplayer(const FuzzyMatcher* matcher);
  /// Returns the summed duration of the replayed calls, microseconds.
  double Replay(Tracer* tracer, uint64_t request, uint32_t root,
                const Row& input, const fuzzymatch::QueryStats& stats);
  uint64_t fms_calls() const { return fms_calls_; }

 private:
  struct Coord {
    std::string gram;
    uint32_t coordinate;
    uint32_t column;
    double share;
  };

  const FuzzyMatcher* matcher_;
  fuzzymatch::Tokenizer tokenizer_;
  fuzzymatch::MinHasher hasher_;
  fuzzymatch::FmsSimilarity fms_;
  fuzzymatch::EtiScratch scratch_;
  uint64_t fms_calls_ = 0;
  // Per-query buffers, reused.
  std::vector<Coord> coords_;
  std::vector<std::pair<Tid, double>> postings_;
  std::vector<std::pair<Tid, double>> ranked_;
  std::vector<Row> fetched_;
  std::vector<fuzzymatch::TokenizedTuple> fetched_tokens_;
};

/// Adds one `<metric>` per (span name, metric) pair: the span name's
/// total self time per request, microseconds.
void AddSelfTimes(const Tracer& tracer, uint64_t requests,
                  const std::vector<std::pair<std::string, std::string>>&
                      span_to_metric,
                  Report* report);

}  // namespace perfbench

#endif  // FUZZYMATCH_PERFBENCH_HARNESS_H_
