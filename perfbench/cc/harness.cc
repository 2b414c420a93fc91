#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/random.h"
#include "common/string_util.h"
#include "eti/signature.h"
#include "gen/customer_gen.h"
#include "obs/metrics.h"
#include "sim/fms.h"

namespace perfbench {

using fuzzymatch::StringPrintf;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  Samples s;
  for (const double x : v) s.Add(x);
  return s.Quantile(0.5);
}

constexpr std::array<const char*, kNumCounters> kCounterNames = {
    "eti.probes",
    "eti.tidlist_bytes_decoded",
    "eti_accel.bytes_decoded",
    "eti_accel.hits",
    "eti_accel.negative_hits",
    "eti_accel.fallbacks",
    "match.queries",
    "match.tids_processed",
    "match.candidates",
    "match.ref_tuples_fetched",
    "match.osc_attempted",
    "match.osc_succeeded",
    "tuple_cache.hits",
    "tuple_cache.misses",
    "bufferpool.hits",
    "bufferpool.misses",
    "pager.pages_read",
    "pager.pages_written",
    "btree.lookups",
    "btree.node_reads",
    "wal.bytes_written",
    "wal.fsyncs",
    "wal.commits",
    "server.shed_requests",
};

}  // namespace

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest sample with at least q of all samples at
  // or below it.
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(idx, values_.size() - 1)];
}

NaiveProbe::NaiveProbe() {
  // Two or three words of 3 to 9 letters, about the length of a name
  // plus a city, from a fixed splitmix64 stream.
  uint64_t state = 0x6e616976652d7072ULL;
  auto next = [&state] {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  strings_.reserve(kStrings);
  for (size_t i = 0; i < kStrings; ++i) {
    std::string s;
    const int words = 2 + static_cast<int>(next() % 2);
    for (int w = 0; w < words; ++w) {
      if (w > 0) s.push_back(' ');
      const int letters = 3 + static_cast<int>(next() % 7);
      for (int c = 0; c < letters; ++c) {
        s.push_back(static_cast<char>('a' + next() % 26));
      }
    }
    strings_.push_back(std::move(s));
  }
}

size_t NaiveProbe::EditDistance(const std::string& a, const std::string& b) {
  prev_.resize(b.size() + 1);
  cur_.resize(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev_[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur_[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      cur_[j] = std::min({prev_[j] + 1, cur_[j - 1] + 1,
                          prev_[j - 1] + (a[i - 1] != b[j - 1] ? 1 : 0)});
    }
    std::swap(prev_, cur_);
  }
  return prev_[b.size()];
}

void NaiveProbe::Run() {
  static const std::string kQuery = "robert johnson seattle";
  const double t0 = Now();
  for (size_t i = 0; i < kRowsPerProbe; ++i) {
    // A stride coprime to kStrings visits the strings in a scattered,
    // fixed order.
    next_ = (next_ + 104729) % kStrings;
    sink_ += EditDistance(strings_[next_], kQuery);
  }
  const double t1 = Now();
  seconds_.Add(t1 - t0);
  due_ = t1 + kIntervalS;
}


Counters Counters::Read() {
  static const std::array<fuzzymatch::obs::Counter*, kNumCounters> counters =
      [] {
        std::array<fuzzymatch::obs::Counter*, kNumCounters> out{};
        auto& registry = fuzzymatch::obs::MetricsRegistry::Global();
        for (size_t i = 0; i < kNumCounters; ++i) {
          out[i] = registry.GetCounter(kCounterNames[i]);
        }
        return out;
      }();
  Counters c;
  for (size_t i = 0; i < kNumCounters; ++i) c.v[i] = counters[i]->value();
  return c;
}

Counters Counters::operator-(const Counters& base) const {
  Counters d;
  for (size_t i = 0; i < kNumCounters; ++i) d.v[i] = v[i] - base.v[i];
  return d;
}

Counters& Counters::operator+=(const Counters& other) {
  for (size_t i = 0; i < kNumCounters; ++i) v[i] += other.v[i];
  return *this;
}

uint32_t Tracer::Begin(const char* name, uint64_t request, uint32_t parent) {
  Span span;
  span.request = request;
  span.parent = parent;
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

double Tracer::DurationUs(uint32_t id) const {
  const Span& s = spans_[id - 1];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
}

std::map<std::string, double> Tracer::SelfTimesUs() const {
  // Children of one parent run one after another, so the time they cover
  // is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e3;
  }
  return out;
}

Status Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(f, "id,parent,request,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%" PRIu32 ",%" PRIu64 ",%s,%" PRId64 ",%" PRId64 "\n",
                 i + 1, s.parent, s.request, s.name, s.start_ns, s.end_ns);
  }
  if (std::fclose(f) != 0) return Status::IOError("cannot close " + path);
  return Status::OK();
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  if (entries_.count(name) == 0) order_.push_back(name);
  entries_[name] = Entry{value, unit, samples, true};
}

void Report::NotApplicable(const std::string& name, const std::string& unit) {
  if (entries_.count(name) == 0) order_.push_back(name);
  entries_[name] = Entry{0.0, unit, 0, false};
}

void Report::AddLatency(const std::string& prefix, Samples& seconds) {
  Add(prefix + "_p50_ms", seconds.Quantile(0.50) * 1e3, "ms",
      seconds.count());
  Add(prefix + "_p99_ms", seconds.Quantile(0.99) * 1e3, "ms",
      seconds.count());
  if (!seconds.TailSupported(0.99)) {
    Note(prefix + "_p99_ms: fewer than 10 samples lie beyond p99 (n=" +
         std::to_string(seconds.count()) + "); the value is the maximum "
         "rank the sample supports, not a stable tail");
  }
}

bool Report::Has(const std::string& name) const {
  return entries_.count(name) > 0;
}

void Report::Print(const std::string& workload) const {
  std::printf("== %s ==\n", workload.c_str());
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    if (!e.applicable) {
      std::printf("  %-32s %16s %-8s\n", name.c_str(), "n/a", e.unit.c_str());
    } else if (e.samples > 0) {
      std::printf("  %-32s %16.10g %-8s n=%" PRIu64 "\n", name.c_str(),
                  e.value, e.unit.c_str(), e.samples);
    } else {
      std::printf("  %-32s %16.10g %-8s\n", name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  for (const std::string& note : notes_) {
    std::printf("  note: %s\n", note.c_str());
  }
  std::fflush(stdout);
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed,
                               const std::vector<std::string>& names) const {
  std::string out = StringPrintf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < names.size(); ++i) {
    const auto it = entries_.find(names[i]);
    const double value = it == entries_.end() ? 0.0 : it->second.value;
    const std::string unit = it == entries_.end() ? "" : it->second.unit;
    out += StringPrintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", names[i].c_str(),
                        std::isfinite(value) ? value : 0.0, unit.c_str());
  }
  out += "}}";
  return out;
}

void OpLedger::Fail(const std::string& why) {
  ++failed_;
  if (reasons_.size() < 5) reasons_.push_back(why);
}

std::vector<Row> GenerateReferenceRows(uint64_t seed, size_t count) {
  fuzzymatch::CustomerGenOptions options;
  options.seed = seed;
  options.num_tuples = count;
  fuzzymatch::CustomerGenerator generator(options);
  std::vector<Row> rows;
  rows.reserve(count);
  for (size_t i = 0; i < count; ++i) rows.push_back(generator.NextRow());
  return rows;
}

uint64_t ReferenceBytes(const std::vector<Row>& rows) {
  uint64_t bytes = 0;
  for (const Row& row : rows) {
    for (const auto& field : row) {
      if (field.has_value()) bytes += field->size();
    }
  }
  return bytes;
}

Result<std::vector<InputTuple>> GenerateMixedInputs(Table* ref,
                                                    size_t per_profile,
                                                    uint64_t seed) {
  const std::vector<fuzzymatch::DatasetSpec> specs = {
      fuzzymatch::DatasetD1(), fuzzymatch::DatasetD2(),
      fuzzymatch::DatasetD3()};
  std::vector<std::vector<InputTuple>> per_spec;
  for (size_t i = 0; i < specs.size(); ++i) {
    fuzzymatch::DatasetSpec spec = specs[i];
    spec.num_inputs = per_profile;
    spec.seed = seed * 7919 + i + 1;
    FM_ASSIGN_OR_RETURN(std::vector<InputTuple> inputs,
                        fuzzymatch::GenerateInputs(ref, spec, nullptr));
    per_spec.push_back(std::move(inputs));
  }
  std::vector<InputTuple> mixed;
  for (const auto& inputs : per_spec) {
    mixed.insert(mixed.end(), inputs.begin(), inputs.end());
  }
  // GenerateInputs hands its inputs out in hash-set order, which follows
  // the seed tids; a shuffled stream makes every prefix a uniform sample,
  // so a time-bounded run sees the same input mix however far it gets.
  fuzzymatch::Rng rng(seed);
  rng.Shuffle(mixed);
  return mixed;
}

Result<Deployment> SetUp(const SetupSpec& spec, const std::vector<Row>& rows) {
  if (!spec.db.path.empty()) {
    std::filesystem::remove(spec.db.path);
    std::filesystem::remove(spec.db.path + ".wal");
  }
  Deployment d;
  const double t0 = Now();
  FM_ASSIGN_OR_RETURN(d.db, Database::Open(spec.db));
  FM_ASSIGN_OR_RETURN(
      d.table,
      d.db->CreateTable("customers",
                        fuzzymatch::CustomerGenerator::CustomerSchema()));
  for (const Row& row : rows) {
    FM_RETURN_IF_ERROR(d.table->Insert(row).status());
  }
  d.load_s = Now() - t0;
  FM_ASSIGN_OR_RETURN(d.matcher,
                      FuzzyMatcher::Build(d.db.get(), "customers",
                                          spec.config));
  if (!spec.db.path.empty()) {
    FM_RETURN_IF_ERROR(d.db->Checkpoint());
  }
  d.total_s = Now() - t0;
  return d;
}

Result<Deployment> TimedSetUp(const SetupSpec& spec,
                              const std::vector<Row>& rows, int repeats,
                              Report* report) {
  std::vector<double> total, load, scan, sort, merge;
  Deployment d;
  for (int i = 0; i < repeats; ++i) {
    d.matcher.reset();
    d.db.reset();
    FM_ASSIGN_OR_RETURN(d, SetUp(spec, rows));
    total.push_back(d.total_s);
    load.push_back(d.load_s);
    const fuzzymatch::EtiBuildStats& stats = d.matcher->build_stats();
    scan.push_back(stats.scan_seconds);
    sort.push_back(stats.sort_seconds);
    merge.push_back(stats.merge_seconds);
  }
  const uint64_t n = static_cast<uint64_t>(repeats);
  report->Add("setup_s", Median(total), "s", n);
  report->Add("storage.load_s", Median(load), "s", n);
  report->Add("eti_build.scan_s", Median(scan), "s", n);
  report->Add("eti_build.sort_s", Median(sort), "s", n);
  report->Add("eti_build.merge_s", Median(merge), "s", n);
  return d;
}

void AddRequestMetrics(Samples& latency_s, uint64_t ops, double elapsed_s,
                       NaiveProbe& probe, Report* report) {
  report->AddLatency("latency", latency_s);
  const double ops_per_s = Ratio(static_cast<double>(ops), elapsed_s);
  report->Add("ops_per_s", ops_per_s, "1/s", ops);
  const double unit_s = probe.MedianSeconds();
  report->Add("naive_probe_ms", unit_s * 1e3, "ms", probe.count());
  const uint64_t n = latency_s.count();
  report->Add("latency_p50_norm", Ratio(latency_s.Quantile(0.50), unit_s),
              "probe", n);
  report->Add("latency_p99_norm", Ratio(latency_s.Quantile(0.99), unit_s),
              "probe", n);
  report->Add("ops_per_probe", ops_per_s * unit_s, "1/probe", ops);
}

double PeakRssMb() {
  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void AddReadPathCounts(const Counters& d, uint64_t queries, uint64_t returned,
                       Report* report) {
  const double q = static_cast<double>(queries);
  auto per_query = [&](CounterId id) {
    return Ratio(static_cast<double>(d[id]), q);
  };
  // Raw phase totals: with one client and a fixed op count they repeat
  // exactly from run to run.
  report->Add("count.eti.probes", static_cast<double>(d[kEtiProbes]),
              "count");
  report->Add("count.match.tids_processed", static_cast<double>(d[kMatchTids]),
              "count");
  report->Add("count.bufferpool.misses", static_cast<double>(d[kPoolMisses]),
              "count");
  report->Add("eti.probes_per_query", per_query(kEtiProbes), "count");
  report->Add("eti.tidlist_bytes_per_query",
              Ratio(static_cast<double>(d[kEtiTidlistBytes] +
                                        d[kAccelBytes]),
                    q),
              "B");
  const double accel_answered =
      static_cast<double>(d[kAccelHits] + d[kAccelNegatives]);
  report->Add("eti_accel.hit_ratio",
              Ratio(accel_answered,
                    accel_answered + static_cast<double>(d[kAccelFallbacks])),
              "fraction");
  report->Add("match.tids_per_query", per_query(kMatchTids), "count");
  report->Add("match.candidates_per_query", per_query(kMatchCandidates),
              "count");
  // A verified candidate is fetched from storage or served by the tuple
  // cache; both count as the paper's "fetched" tuples.
  const double verified =
      static_cast<double>(d[kMatchFetched] + d[kTupleCacheHits]);
  report->Add("match.fetched_per_query", Ratio(verified, q), "count");
  report->Add("match.fetch_yield",
              Ratio(static_cast<double>(returned), verified), "fraction");
  report->Add("match.osc_success_ratio",
              Ratio(static_cast<double>(d[kMatchOscSucceeded]),
                    static_cast<double>(d[kMatchOscAttempted])),
              "fraction");
  report->Add("tuple_cache.hit_ratio",
              Ratio(static_cast<double>(d[kTupleCacheHits]),
                    static_cast<double>(d[kTupleCacheHits] +
                                        d[kTupleCacheMisses])),
              "fraction");
  report->Add("bufferpool.hit_ratio",
              Ratio(static_cast<double>(d[kPoolHits]),
                    static_cast<double>(d[kPoolHits] + d[kPoolMisses])),
              "fraction");
  report->Add("bufferpool.misses_per_query", per_query(kPoolMisses), "count");
  report->Add("pager.reads_per_query", per_query(kPagerReads), "count");
  report->Add("btree.node_reads_per_lookup",
              Ratio(static_cast<double>(d[kBtreeNodeReads]),
                    static_cast<double>(d[kBtreeLookups])),
              "count");
}

void AddWritePathCounts(const Counters& d, uint64_t ops, Report* report) {
  if (ops == 0) {
    report->NotApplicable("wal.bytes_per_op", "B");
    report->NotApplicable("wal.fsyncs_per_op", "count");
    report->NotApplicable("pager.writes_per_op", "count");
    report->NotApplicable("wal.commit_size", "B");
    return;
  }
  const double n = static_cast<double>(ops);
  report->Add("count.wal.bytes_written", static_cast<double>(d[kWalBytes]),
              "B");
  report->Add("wal.bytes_per_op", static_cast<double>(d[kWalBytes]) / n, "B");
  report->Add("wal.fsyncs_per_op", static_cast<double>(d[kWalFsyncs]) / n,
              "count");
  report->Add("pager.writes_per_op",
              static_cast<double>(d[kPagerWrites]) / n, "count");
  report->Add("wal.commit_size",
              Ratio(static_cast<double>(d[kWalBytes]),
                    static_cast<double>(d[kWalCommits])),
              "B");
}

QueryReplayer::QueryReplayer(const FuzzyMatcher* matcher)
    : matcher_(matcher),
      tokenizer_(matcher->eti().MakeTokenizer()),
      hasher_(matcher->eti().MakeHasher()),
      fms_(&matcher->weights(), matcher->config().matcher.fms) {}

double QueryReplayer::Replay(Tracer* tracer, uint64_t request, uint32_t root,
                             const Row& input,
                             const fuzzymatch::QueryStats& stats) {
  double lower_us = 0;
  auto timed = [&](const char* name, auto&& body) {
    const uint32_t id = tracer->Begin(name, request, root);
    body();
    tracer->End(id);
    lower_us += tracer->DurationUs(id);
  };

  fuzzymatch::TokenizedTuple u;
  timed("text.tokenize", [&] { u = tokenizer_.TokenizeTuple(input); });
  coords_.clear();
  timed("text.signature", [&] {
    const fuzzymatch::EtiParams& params = matcher_->eti().params();
    for (uint32_t col = 0; col < u.size(); ++col) {
      for (const std::string& token : u[col]) {
        for (fuzzymatch::TokenCoordinate& c : fuzzymatch::MakeTokenCoordinates(
                 hasher_, params, token, fms_.TokenWeight(token, col))) {
          coords_.push_back(
              Coord{std::move(c.gram), c.coordinate, col, c.weight_share});
        }
      }
    }
  });
  postings_.clear();
  timed("eti.lookup", [&] {
    const fuzzymatch::Eti& eti = matcher_->eti();
    for (const Coord& c : coords_) {
      auto view = eti.LookupInto(c.gram, c.coordinate, c.column, &scratch_);
      if (!view.ok() || !view->found || view->is_stop) continue;
      for (size_t i = 0; i < view->num_tids; ++i) {
        postings_.emplace_back(view->tids[i], c.share);
      }
    }
  });

  // Outside any span, the benchmark's own reconstruction of which tids
  // the matcher verified: sum each tid's shares, best score first.
  std::sort(postings_.begin(), postings_.end());
  ranked_.clear();
  for (const auto& [tid, share] : postings_) {
    if (ranked_.empty() || ranked_.back().first != tid) {
      ranked_.emplace_back(tid, 0.0);
    }
    ranked_.back().second += share;
  }
  const size_t want = std::min<size_t>(
      ranked_.size(), stats.ref_tuples_fetched + stats.tuple_cache_hits);
  std::partial_sort(ranked_.begin(), ranked_.begin() + want, ranked_.end(),
                    [](const auto& a, const auto& b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                    });

  // The tuple cache served `tuple_cache_hits` verifications without a
  // storage read or re-tokenization: replay those two costs only for the
  // rest, and fms for every verified tuple.
  const size_t misses = std::min<size_t>(want, stats.ref_tuples_fetched);
  const Table& table = matcher_->reference();
  fetched_.resize(want);
  fetched_tokens_.resize(want);
  timed("storage.get", [&] {
    for (size_t i = 0; i < misses; ++i) {
      auto row = table.Get(ranked_[i].first);
      fetched_[i] = row.ok() ? std::move(*row) : Row{};
    }
  });
  timed("text.tokenize", [&] {
    for (size_t i = 0; i < misses; ++i) {
      fetched_tokens_[i] = tokenizer_.TokenizeTuple(fetched_[i]);
    }
  });
  for (size_t i = misses; i < want; ++i) {
    auto row = table.Get(ranked_[i].first);
    fetched_tokens_[i] = tokenizer_.TokenizeTuple(row.ok() ? *row : Row{});
  }
  timed("sim.fms", [&] {
    for (size_t i = 0; i < want; ++i) {
      fms_.Similarity(u, fetched_tokens_[i]);
    }
  });
  fms_calls_ += want;
  return lower_us;
}

void AddSelfTimes(const Tracer& tracer, uint64_t requests,
                  const std::vector<std::pair<std::string, std::string>>&
                      span_to_metric,
                  Report* report) {
  const auto self = tracer.SelfTimesUs();
  for (const auto& [span, metric] : span_to_metric) {
    const auto it = self.find(span);
    const double total = it == self.end() ? 0.0 : it->second;
    report->Add(metric, Ratio(total, static_cast<double>(requests)), "us",
                requests);
  }
}

}  // namespace perfbench
