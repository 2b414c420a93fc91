// Registry deltas for tests. The process-wide obs::MetricsRegistry is the
// one account of every counter; a test reads a counter's growth around its
// own traffic instead of asking a component for a private copy.
//
// Usage:
//
//   const test_support::CounterDelta fetched("match.ref_tuples_fetched");
//   ... run queries ...
//   EXPECT_EQ(fetched.value(), expected);

#ifndef FUZZYMATCH_TESTS_SUPPORT_COUNTER_DELTA_H_
#define FUZZYMATCH_TESTS_SUPPORT_COUNTER_DELTA_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace fuzzymatch::test_support {

/// Growth of registry counter `name` since construction.
class CounterDelta {
 public:
  explicit CounterDelta(const std::string& name)
      : counter_(obs::MetricsRegistry::Global().GetCounter(name)),
        start_(counter_->value()) {}

  uint64_t value() const { return counter_->value() - start_; }

 private:
  const obs::Counter* counter_;
  uint64_t start_;
};

}  // namespace fuzzymatch::test_support

#endif  // FUZZYMATCH_TESTS_SUPPORT_COUNTER_DELTA_H_
