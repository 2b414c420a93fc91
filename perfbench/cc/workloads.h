// The benchmark's workloads. Each sets itself up from the run seed,
// drives the library through its public API, checks every answer, and
// records its metrics in the report. Operation outcomes go to the ledger;
// a non-OK status means the workload could not run at all.

#ifndef FUZZYMATCH_PERFBENCH_WORKLOADS_H_
#define FUZZYMATCH_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// In-process, single closed-loop client over an in-memory relation that
/// fits every cache.
Status RunHotMatch(const Args& args, Report* report, OpLedger* ledger);

/// The same relation behind an in-process MatchServer on loopback: a
/// closed loop to saturation; traced runs add an open-loop phase at a
/// fixed rate.
Status RunServed(const Args& args, Report* report, OpLedger* ledger);

/// A file-backed database 5.5 times larger than its buffer pool; one
/// closed-loop client calling FindMatches.
Status RunDiskRead(const Args& args, Report* report, OpLedger* ledger);

/// disk_read's database with the WAL in group-fsync mode; one client
/// interleaves queries with durable inserts and removes (90/10), checks
/// that it reads its own writes, and after the run reopens a crash image
/// and checks that every acknowledged op is present.
Status RunDiskMixed(const Args& args, Report* report, OpLedger* ledger);

}  // namespace perfbench

#endif  // FUZZYMATCH_PERFBENCH_WORKLOADS_H_
