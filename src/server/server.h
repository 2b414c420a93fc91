// MatchServer: the online serving subsystem — a dependency-free TCP
// server exposing the fuzzy-match operator over the line protocol of
// protocol.h.
//
// Architecture (thread-per-connection front, pooled execution back):
//
//   accept thread ──> connection threads (parse, admission control)
//                          │  bounded request queue (TryPush; full = shed
//                          ▼   with an explicit "overloaded" response)
//                     worker pool (fixed size; runs the concurrent
//                          │   match/clean query path)
//                          ▼
//                     response written back by the connection thread
//
// Each connection has at most one request in flight, so responses are
// trivially ordered. ping/metrics/quit are answered inline by the
// connection thread — they must stay responsive while the workers are
// saturated, which is precisely when an operator asks for metrics.
//
// Overload behavior: when the queue is full the request is refused
// immediately ({"ok":false,"error":"overloaded","shed":true}); when
// max_connections is reached new sockets get the same response at accept
// time. Idle connections are closed after idle_timeout_ms.
//
// Graceful drain: RequestStop() (async-signal-safe, callable from a
// SIGTERM handler) stops the accept loop; Shutdown() then closes the
// read side of every connection, lets in-flight requests finish and
// their responses flush, drains the queue, and joins all threads.

#ifndef FUZZYMATCH_SERVER_SERVER_H_
#define FUZZYMATCH_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/batch_cleaner.h"
#include "core/fuzzy_match.h"
#include "server/bounded_queue.h"
#include "server/protocol.h"

namespace fuzzymatch {
namespace server {

struct ServerOptions {
  /// Listen address. Loopback by default: the server is a backend, not an
  /// internet-facing endpoint.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Worker threads executing match/clean requests.
  size_t workers = 4;
  /// Bounded request queue capacity; a full queue sheds.
  size_t queue_capacity = 64;
  /// Accept-time connection cap; beyond it new sockets are refused with
  /// an "overloaded" response.
  size_t max_connections = 256;
  /// Per-connection read timeout: an idle connection is closed after this
  /// long with no complete request line. <= 0 disables.
  int idle_timeout_ms = 30000;
  /// Per-connection write timeout (a stuck client cannot hold a
  /// connection thread forever). <= 0 disables.
  int write_timeout_ms = 30000;
  /// Longest accepted request line; longer input poisons the connection.
  size_t max_line_bytes = 1 << 20;
  /// Test hook: artificial extra milliseconds of work per match/clean
  /// request, for deterministic overload/drain tests. 0 in production.
  int handler_delay_ms = 0;
  /// Flight-recorder slow-query threshold: a request slower than this is
  /// retained as an outlier and logged (event "query.slow"). <= 0 keeps
  /// the recorder's default.
  int slow_trace_ms = 100;
  /// Flight-recorder retention per class (recent ring and outlier ring,
  /// per stripe). 0 keeps the recorder's default.
  size_t recorder_capacity = 64;
  /// Invoked once by Shutdown() after the last in-flight request has
  /// flushed and the workers have joined — the graceful-drain hook the
  /// launcher uses to group-commit and fsync the WAL before exit. A
  /// non-OK status is logged, not fatal.
  std::function<Status()> drain_flush;
  /// Backs the "rebuild" admin verb: runs an online ETI rebuild (build
  /// beside, replay side log, atomic swap) while queries keep being
  /// served. Unset = the verb answers an unimplemented error.
  std::function<Result<EtiRebuildStats>()> rebuild_handler;
};

class MatchServer {
 public:
  /// `matcher` must outlive the server and already be built. The server
  /// constructs its own BatchCleaner from `clean_options`.
  MatchServer(const FuzzyMatcher* matcher, BatchCleaner::Options clean_options,
              ServerOptions options);

  /// Calls Shutdown() if the server is still running.
  ~MatchServer();

  MatchServer(const MatchServer&) = delete;
  MatchServer& operator=(const MatchServer&) = delete;

  /// Binds, listens, and spawns the accept thread and worker pool.
  Status Start();

  /// The bound port (after Start(); useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// Flags the server to stop and unblocks the accept loop. Safe to call
  /// from a signal handler (atomic store + shutdown(2)) and from any
  /// thread; does not block or join.
  void RequestStop();

  /// Graceful drain: stops accepting, lets in-flight requests complete
  /// and flush, then joins every thread. Idempotent; blocks.
  void Shutdown();

  bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Open connections right now. Request, response and shed counts are
  /// the registry's `server.*` counters.
  size_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

  const ServerOptions& options() const { return options_; }

 private:
  struct WorkItem {
    Request request;
    uint64_t request_id = 0;  // assigned at the connection boundary
    std::promise<std::string> reply;
  };

  /// Per-worker live state, read lock-free by statusz.
  struct WorkerState {
    std::atomic<bool> busy{false};
    std::atomic<uint64_t> request_id{0};
    std::atomic<int64_t> start_ns{0};  // steady-clock ns when work began
  };

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void WorkerLoop(size_t worker_index);
  void ConnectionLoop(Connection* conn);

  /// Executes one match/clean request (worker side).
  std::string HandleQuery(const Request& request);
  std::string HandleMatch(const Request& request);
  std::string HandleClean(const Request& request);

  /// Introspection verbs, answered inline by connection threads.
  std::string HandleStatusz() const;
  std::string HandleTracez(const Request& request) const;

  /// The "rebuild" admin verb, answered inline by the connection thread
  /// so the worker pool keeps serving queries for its whole duration.
  /// Serialized: concurrent rebuild requests queue behind rebuild_mu_.
  std::string HandleRebuild();

  /// Joins and erases finished connection threads.
  void ReapConnections();

  const FuzzyMatcher* matcher_;
  BatchCleaner cleaner_;
  ServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shut_down_{false};

  BoundedQueue<WorkItem*> queue_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerState>> worker_state_;
  std::chrono::steady_clock::time_point start_time_;

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;
  std::mutex rebuild_mu_;

  std::atomic<size_t> active_connections_{0};
  std::atomic<size_t> busy_workers_{0};
};

}  // namespace server
}  // namespace fuzzymatch

#endif  // FUZZYMATCH_SERVER_SERVER_H_
