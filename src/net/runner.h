// Runner: the daemon side of the remote fleet -- accepts engine
// connections and hosts one sandboxed subject replica per connection.
//
// An aid_runner (the binary in runner_main.cc, or a Runner embedded in a
// test/bench process) listens on a TCP port. Every accepted connection is
// served by a forked child process running proc::RunSubjectHost over a
// net::SocketChannel -- the exact loop the pipe transport execs into
// aid_subject_host, so a runner needs no binary besides itself and the
// whole SPEC -> READY -> RUN_TRIAL conversation is shared code.
//
// Fork-per-connection is what gives the daemon the same sandbox guarantee
// SubprocessTarget has locally: a subject that segfaults, aborts, or is
// SIGKILLed takes down its own child process and its one connection, never
// the daemon or the other hosted replicas. The engine observes the dropped
// connection as a crashed trial and reconnects (net::RemoteTarget).
//
// A Runner hosts as many replicas as connections it has accepted; the
// engine decides the fan-out (ParallelTarget clones = connections). There
// is no authentication or encryption on the wire -- see
// docs/remote_protocol.md for the trust model (private networks only).

#ifndef AID_NET_RUNNER_H_
#define AID_NET_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/socket.h"

namespace aid {

struct SharedHostStats;

struct RunnerOptions {
  /// Bind address. Default loopback: exposing a runner beyond the machine
  /// is an explicit decision (the protocol is unauthenticated).
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the outcome with Runner::port().
  int port = 0;
  int backlog = 64;
  /// Accept-loop tick: how often the daemon reaps exited session children
  /// and checks for Stop(). Purely internal latency tuning.
  int accept_poll_ms = 200;

  /// Extra per-trial latency every session child on this runner charges
  /// before answering, microseconds (SubjectHostOptions::trial_delay_us;
  /// `aid_runner --slow-us N`). The heterogeneous-fleet knob: benches and
  /// tests stand up one deliberately slow runner to exercise work
  /// stealing. 0 = full speed.
  uint64_t trial_delay_us = 0;

  /// Admission cap: with N live session children, the daemon answers the
  /// next connection itself -- HELLO, then a structured FAILED_PRECONDITION
  /// ERROR frame -- instead of forking another subject host
  /// (`aid_runner --max-sessions N`). Each session child is a whole subject
  /// replica; an unbounded fleet of engines could otherwise fork a runner
  /// machine into the ground. 0 = unlimited (the historical behavior).
  /// While at the cap, STATS connections are rejected too.
  int max_sessions = 0;
};

class Runner {
 public:
  /// Binds, starts the accept loop, and returns the live runner (its port
  /// is resolved even when options.port was 0). Unimplemented on platforms
  /// without sockets + fork.
  static Result<std::unique_ptr<Runner>> Start(RunnerOptions options = {});

  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  const std::string& host() const { return options_.host; }
  int port() const { return port_; }
  Endpoint endpoint() const { return Endpoint{options_.host, port_}; }

  /// Connections accepted (== subject replicas ever hosted).
  int sessions_started() const { return sessions_started_.load(); }

  /// The daemon's shared trial-statistics block (null when the mapping
  /// failed): one MAP_SHARED|MAP_ANONYMOUS page the accept loop hands every
  /// forked session child, so the totals any STATS connection reads cover
  /// every replica this node ever hosted. See proc/subject_host.h.
  const SharedHostStats* shared_stats() const { return shared_stats_; }

  /// Session children currently alive (exited ones are reaped first). The
  /// observability hook behind leak tests: a hung subject whose engine
  /// dropped the connection must leave this count, not grow it.
  int live_sessions();

  /// SIGKILLs every live session child without stopping the daemon: the
  /// chaos knob behind crash-recovery tests ("the machine lost its
  /// subjects but the runner survived"). Engines reconnect and respawn.
  void KillSessions();

  /// Stops accepting, kills all session children, joins the accept loop.
  /// Idempotent; the destructor calls it.
  void Stop();

 private:
  explicit Runner(RunnerOptions options) : options_(std::move(options)) {}

  void AcceptLoop();
  void ReapSessions(bool kill_first);

  RunnerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<int> sessions_started_{0};
  /// Pre-fork shared mapping (see shared_stats()); owned, munmap'd in ~.
  SharedHostStats* shared_stats_ = nullptr;
  uint64_t start_micros_ = 0;  ///< steady-clock daemon start, for uptime

  std::mutex sessions_mu_;
  std::vector<int64_t> session_pids_;

  std::thread accept_thread_;
};

/// `aid_runner --stats` client: connects to a runner at "host:port", sends
/// a STATS request through the shared wire protocol (HELLO -> STATS ->
/// STATS_REPLY, answered by a forked stats child like any session), and
/// returns the daemon's self-describing JSON stats document -- uptime,
/// sessions started, node-wide trial totals, and the trial latency
/// histogram on the telemetry bucket ladder. Unimplemented on platforms
/// without sockets.
Result<std::string> FetchRunnerStats(const std::string& endpoint,
                                     int timeout_ms = 5000);

}  // namespace aid

#endif  // AID_NET_RUNNER_H_
