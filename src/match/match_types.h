// Shared types of the fuzzy match query processors.

#ifndef FUZZYMATCH_MATCH_MATCH_TYPES_H_
#define FUZZYMATCH_MATCH_MATCH_TYPES_H_

#include <cstdint>
#include <vector>

#include "sim/fms.h"
#include "storage/table.h"

namespace fuzzymatch {

/// One fuzzy match: a reference tuple and its fms similarity to the input.
struct Match {
  Tid tid = 0;
  double similarity = 0.0;

  bool operator==(const Match& other) const {
    return tid == other.tid && similarity == other.similarity;
  }
};

/// Query-level knobs of the K-fuzzy-match problem and the algorithms.
struct MatcherOptions {
  /// K: number of matches to return.
  size_t k = 1;
  /// c: minimum fms similarity of returned matches (paper experiments: 0).
  double min_similarity = 0.0;
  /// Optimistic short circuiting (Section 4.3.2) on/off.
  bool use_osc = true;
  /// The new-tid admission optimization of Figure 3 step 9b on/off.
  bool admission_filter = true;

  /// How the candidate upper bounds (OSC stopping test, verification-order
  /// early exit) treat the Lemma 4.2 q-gram slack. This is THE
  /// accuracy/efficiency dial of the algorithm:
  ///
  ///  - kAggressive (default): bound = score/w(u), the paper's practical
  ///    behavior — its OSC walkthrough computes bounds without adjustment
  ///    terms, and its measured OSC success rates (50-75%) and candidate
  ///    fetch counts (~1-60 per input) are only reachable this way. Not a
  ///    true upper bound of fms: heavily corrupted inputs whose target
  ///    under-scores in the ETI can be cut early (a few points of
  ///    accuracy versus the exhaustive scan — consistent with the
  ///    accuracies the paper reports).
  ///  - kTight: bound = min(1, (2/q)·score/w(u) + (1-1/q)), a provable
  ///    upper bound of fms_apx. Near-exhaustive accuracy, but the
  ///    (1-1/q) floor (0.75 at q=4) means thousands of candidates stay
  ///    above any realistic threshold, so most of the index's speedup is
  ///    forfeited.
  ///  - kConservative: bound = (score + Σw(t)(1-1/q))/w(u), the slack the
  ///    paper's Figure 3 pseudocode carries. Early termination can never
  ///    fire at q = 4; every scored tid is verified.
  enum class BoundPolicy { kAggressive, kTight, kConservative };
  BoundPolicy bound_policy = BoundPolicy::kAggressive;
  /// fms parameters (c_ins, transpositions, column weights).
  FmsOptions fms;

  /// Budget of the verified-tuple cache (tokenized reference tuples kept
  /// across queries, DESIGN.md 5d); 0 disables it.
  size_t tuple_cache_bytes = 32u << 20;
};

/// Per-query counters (the quantities Figures 6, 8, 9, 10 report) — the
/// per-call out-param only. EtiMatcher records every finished query into
/// the process-wide obs::MetricsRegistry (`match.*` counters and the
/// `match.query_seconds` histogram) and its request trace; totals are
/// read from those two accounts.
struct QueryStats {
  uint64_t eti_lookups = 0;       // q-gram/token probes against the ETI
  uint64_t tids_processed = 0;    // tid-list entries scored
  uint64_t hash_table_size = 0;   // distinct tids that entered the table
  uint64_t candidates = 0;        // tids passing the score threshold
  uint64_t ref_tuples_fetched = 0;  // reference tuples fetched & compared
  uint64_t tuple_cache_hits = 0;  // verifications served from the cache
  bool osc_attempted = false;     // fetching test fired at least once
  bool osc_succeeded = false;     // stopping test confirmed the result
  double elapsed_seconds = 0.0;

  void Reset() { *this = QueryStats(); }
};

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_MATCH_MATCH_TYPES_H_
