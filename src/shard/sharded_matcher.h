// ShardedMatcher: the scatter/gather coordinator over a ShardRouter.
//
// Each query is scattered to every shard's worker pool, runs the normal
// candidate/OSC pipeline against that shard's ETI (OSC's stopping test
// is sound per partition — see DESIGN.md 5h), and the per-shard top-K
// lists are k-way merged into the global top-K with deterministic
// (similarity desc, tid asc) ordering, so the merged output is
// byte-identical to the single-database matcher's.
//
// Each shard owns one query engine (with its own tuple cache) and one
// worker thread that drains the shard's task queue.

#ifndef FUZZYMATCH_SHARD_SHARDED_MATCHER_H_
#define FUZZYMATCH_SHARD_SHARDED_MATCHER_H_

#include <memory>
#include <vector>

#include "match/match_source.h"
#include "shard/shard_router.h"

namespace fuzzymatch {
namespace shard {

/// K-way merges per-shard top-K lists — each sorted best-first with the
/// matchers' (similarity desc, tid asc) order — into the global top-K,
/// preserving that order. Shards hold disjoint tids, so no deduplication
/// is needed. Exposed for unit testing.
std::vector<Match> MergeTopK(
    const std::vector<std::vector<Match>>& per_shard, size_t k);

/// Thread safety: FindMatches and GetReferenceTuple are safe from any
/// number of threads after Create() returns. Destroy only once no query
/// is in flight.
class ShardedMatcher : public MatchSource {
 public:
  /// `router` must outlive the matcher.
  static Result<std::unique_ptr<ShardedMatcher>> Create(ShardRouter* router);

  ~ShardedMatcher() override;

  /// Scatters the query to all shards and merges: at most K reference
  /// tuples (global tids) with fms >= c, most similar first, ties by
  /// ascending tid. `stats`, when given, receives the per-shard counters
  /// summed (osc_succeeded = every shard short-circuited).
  Result<std::vector<Match>> FindMatches(
      const Row& input, QueryStats* stats = nullptr) const override;

  /// Routes a global tid to its shard and fetches the tuple.
  Result<Row> GetReferenceTuple(Tid tid) const override;

  const Schema& reference_schema() const override {
    return router_->reference_schema();
  }

  const ShardRouter& router() const { return *router_; }
  size_t num_shards() const { return router_->num_shards(); }

  /// Tasks queued (not yet picked up) at shard `k` right now.
  size_t queue_depth(size_t k) const;

 private:
  struct ShardExec;
  struct Task;

  explicit ShardedMatcher(ShardRouter* router);

  Result<std::vector<Match>> FindMatchesImpl(const Row& input,
                                             QueryStats* stats) const;
  void WorkerLoop(ShardExec* exec) const;
  void RunTask(ShardExec* exec, Task* task) const;

  ShardRouter* router_;
  size_t k_;  // MatcherOptions::k of the shard engines
  std::vector<std::unique_ptr<ShardExec>> execs_;
};

}  // namespace shard
}  // namespace fuzzymatch

#endif  // FUZZYMATCH_SHARD_SHARDED_MATCHER_H_
