// BatchCleaner: the productized Figure 1 operator.
//
// Incoming tuples are fuzzily matched against the reference relation and
// routed three ways, exactly as the paper's template prescribes:
//   - kValidated: an exact (similarity 1.0) match — load as-is;
//   - kCorrected: similarity >= the load threshold — load the matched
//     clean reference tuple instead of the input;
//   - kRouted: below the threshold — send to further cleaning.
// This mirrors the shipped incarnation of the paper (SSIS Fuzzy Lookup):
// a lookup transform with a similarity-threshold output split.

#ifndef FUZZYMATCH_CORE_BATCH_CLEANER_H_
#define FUZZYMATCH_CORE_BATCH_CLEANER_H_

#include <functional>

#include "core/fuzzy_match.h"

namespace fuzzymatch {

/// Where one input tuple ended up.
enum class CleanOutcome {
  kValidated,
  kCorrected,
  kRouted,
};

/// The full disposition of one input tuple.
struct CleanResult {
  CleanOutcome outcome = CleanOutcome::kRouted;
  /// The tuple to load: the matched reference tuple for kValidated /
  /// kCorrected, the (unusable) input itself for kRouted.
  Row output;
  /// Best match, if any cleared the matcher's minimum similarity.
  std::optional<Match> best_match;
};

/// Batch totals.
struct CleanStats {
  uint64_t processed = 0;
  uint64_t validated = 0;
  uint64_t corrected = 0;
  uint64_t routed = 0;
  double elapsed_seconds = 0.0;
};

/// Streams dirty tuples through a FuzzyMatcher and routes the results.
///
/// Thread safety: Clean() and CleanBatch() are safe to call from
/// concurrent threads (the matcher's query path is concurrent and the
/// cleaner itself holds no per-query state); CleanBatchParallel fans one
/// batch out over its own worker threads.
class BatchCleaner {
 public:
  struct Options {
    /// c_load: minimum similarity for loading a corrected tuple. Matches
    /// at or above similarity 1.0 count as validated instead.
    double load_threshold = 0.8;
  };

  /// `matcher` must outlive the cleaner.
  BatchCleaner(const FuzzyMatcher* matcher, Options options);

  /// Cleans one tuple.
  Result<CleanResult> Clean(const Row& input) const;

  /// Sink invoked per tuple by CleanBatch; receives the input's index.
  using Sink = std::function<Status(size_t index, const CleanResult&)>;

  /// Cleans a whole batch, invoking `sink` for each tuple (pass nullptr
  /// to only collect statistics). Stops at the first sink/match error.
  Result<CleanStats> CleanBatch(const std::vector<Row>& inputs,
                                const Sink& sink = nullptr) const;

  /// Cleans a batch on `threads` worker threads sharing the matcher's
  /// concurrent query path. Routing decisions are identical to the serial
  /// CleanBatch, and `sink` is still invoked serially in input order once
  /// all tuples are processed, so output row order stays deterministic.
  /// On a match error the first (lowest-index) error is returned and the
  /// remaining work is abandoned. `threads` <= 1 degenerates to
  /// CleanBatch.
  Result<CleanStats> CleanBatchParallel(const std::vector<Row>& inputs,
                                        size_t threads,
                                        const Sink& sink = nullptr) const;

  const Options& options() const { return options_; }

 private:
  /// Clean minus the trace boundary (which needs to observe the early
  /// returns' Status).
  Result<CleanResult> CleanImpl(const Row& input) const;

  const FuzzyMatcher* matcher_;
  Options options_;
};

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_CORE_BATCH_CLEANER_H_
