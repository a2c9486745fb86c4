#include "generator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>

#include "serve/client.h"
#include "spans.h"

namespace e2ebench {

using slicetuner::Result;
using slicetuner::Status;
namespace json = slicetuner::json;
namespace serve = slicetuner::serve;

namespace {

// A free loopback port: bind port 0, read it back, release it.
Result<int> PickPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  int port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  if (port == 0) return Status::Internal("no free port");
  return port;
}

Result<int> ConnectSocket(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

// When a request may be sent: its due time, or the retry time after a shed.
uint64_t ReleaseNs(const Request& r) { return r.retry_ns ? r.retry_ns : r.due_ns; }

// Most responses one connection may owe before more are pipelined on it:
// keeps the daemon's per-connection output buffer far from its limit.
constexpr size_t kMaxOutstanding = 32;

// The daemon's workers can keep every core busy. It runs at this lower
// priority so the generator thread, which needs little CPU but needs it on
// time, is not queued behind them and keeps its open-loop schedule.
constexpr int kDaemonNice = 5;

}  // namespace

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

Daemon::Daemon(std::string serve_bin, std::vector<std::string> args,
               std::string log_path)
    : serve_bin_(std::move(serve_bin)),
      args_(std::move(args)),
      log_path_(std::move(log_path)) {}

Daemon::~Daemon() { Kill(); }

Result<double> Daemon::Start(int timeout_ms) {
  if (pid_ > 0) return Status::FailedPrecondition("daemon already running");
  ST_ASSIGN_OR_RETURN(port_, PickPort());
  std::vector<std::string> argv_store = {serve_bin_,
                                         "--port=" + std::to_string(port_)};
  argv_store.insert(argv_store.end(), args_.begin(), args_.end());
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) return Status::Internal("cannot open " + log_path_);
  const uint64_t spawn_ns = NowNs();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    (void)::setpriority(PRIO_PROCESS, 0, kDaemonNice);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(log_fd);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;

  const uint64_t deadline =
      spawn_ns + static_cast<uint64_t>(timeout_ms) * 1000000ull;
  serve::Request stats;
  stats.type = serve::RequestType::kStats;
  while (NowNs() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::Internal("daemon exited during start-up (see " +
                              log_path_ + ")");
    }
    Result<serve::ClientConnection> conn =
        serve::ClientConnection::Connect(port_, 1000);
    if (conn.ok()) {
      Result<json::Value> reply = conn->Call(stats, 10000);
      if (reply.ok() && serve::IsOkResponse(*reply)) {
        return static_cast<double>(NowNs() - spawn_ns) / 1e9;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Kill();
  return Status::Internal("daemon not ready in time (see " + log_path_ + ")");
}

Status Daemon::Shutdown(int timeout_ms) {
  if (pid_ <= 0) return Status::OK();
  serve::Request request;
  request.type = serve::RequestType::kShutdown;
  Result<serve::ClientConnection> conn = serve::ClientConnection::Connect(port_);
  if (conn.ok()) (void)conn->Call(request, timeout_ms);
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(timeout_ms) * 1000000ull;
  while (NowNs() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::OK();
      return Status::Internal("daemon exited uncleanly (see " + log_path_ +
                              ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Kill();
  return Status::Internal("daemon did not shut down in time");
}

void Daemon::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

Result<double> Daemon::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return Status::Internal("VmHWM not readable");
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

Generator::Generator(int port, int connections)
    : port_(port), conns_(static_cast<size_t>(connections)) {}

Generator::~Generator() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

Status Generator::Connect() {
  for (Conn& conn : conns_) {
    ST_ASSIGN_OR_RETURN(conn.fd, ConnectSocket(port_));
  }
  return Status::OK();
}

size_t Generator::Add(Request request) {
  const size_t index = requests_.size();
  requests_.push_back(std::move(request));
  ++open_;
  Schedule(index);
  return index;
}

void Generator::Schedule(size_t index) {
  // Requests mostly arrive in release order: insert from the back.
  const uint64_t key = ReleaseNs(requests_[index]);
  auto it = future_.end();
  while (it != future_.begin() && ReleaseNs(requests_[*(it - 1)]) > key) --it;
  future_.insert(it, index);
}

void Generator::SendLine(int conn_index, const std::string& line,
                         Expect expect, size_t index) {
  Conn& conn = conns_[static_cast<size_t>(conn_index)];
  conn.out += line;
  conn.out += '\n';
  conn.expect.emplace_back(expect, index);
  if (recording_ && expect != Expect::kCall) {
    requests_[index].lines.push_back(line);
  }
  (void)FlushOut(&conn);
}

Status Generator::FlushOut(Conn* conn) {
  while (!conn->out.empty()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
    conn->out.erase(0, static_cast<size_t>(n));
  }
  return Status::OK();
}

bool Generator::TrySend(size_t index) {
  Request& r = requests_[index];
  int pick = -1;
  if (r.kind == Request::Kind::kSubmit) {
    // A submit needs a free stream slot.
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (r.conn >= 0 && static_cast<int>(c) != r.conn) continue;
      if (conns_[c].stream < 0 && conns_[c].expect.size() < kMaxOutstanding) {
        pick = static_cast<int>(c);
        break;
      }
    }
    if (pick < 0) return false;
    conns_[static_cast<size_t>(pick)].stream = static_cast<long>(index);
    serve::Request submit;
    submit.type = serve::RequestType::kSubmitJob;
    submit.job = r.job;
    submit.session = r.job.session;
    SendLine(pick, submit.Serialize(), Expect::kSubmitAck, index);
  } else {
    size_t best = kMaxOutstanding;
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (r.conn >= 0 && static_cast<int>(c) != r.conn) continue;
      if (conns_[c].expect.size() < best) {
        best = conns_[c].expect.size();
        pick = static_cast<int>(c);
      }
    }
    if (pick < 0) return false;
    serve::Request poll;
    poll.type = serve::RequestType::kPoll;
    poll.session = r.target;
    SendLine(pick, poll.Serialize(), Expect::kPollReply, index);
  }
  r.state = Request::State::kInFlight;
  return true;
}

void Generator::Finish(size_t index, Request::State state,
                       const std::string& outcome,
                       const std::function<void(size_t)>& on_done) {
  Request& r = requests_[index];
  // A late reply to a request FailOpen already gave up on.
  if (r.state == Request::State::kDone || r.state == Request::State::kFailed)
    return;
  r.state = state;
  r.outcome = outcome;
  r.end_ns = NowNs();
  --open_;
  if (on_done) on_done(index);
}

size_t Generator::FailOpen(const std::string& why) {
  size_t failed = 0;
  for (Request& r : requests_) {
    if (r.state == Request::State::kDone || r.state == Request::State::kFailed)
      continue;
    r.state = Request::State::kFailed;
    r.outcome = why;
    r.end_ns = NowNs();
    ++failed;
  }
  open_ = 0;
  future_.clear();
  waiting_submits_.clear();
  waiting_polls_.clear();
  return failed;
}

Status Generator::HandleLine(int conn_index, const std::string& line,
                             const std::function<void(size_t)>& on_done) {
  Conn& conn = conns_[static_cast<size_t>(conn_index)];
  Result<json::Value> parsed = json::Value::Parse(line);
  if (!parsed.ok() || !parsed->is_object()) {
    return Status::Internal("unparseable line from daemon: " + line);
  }
  const json::Value& msg = *parsed;
  if (msg.Has("frame")) {
    if (conn.stream < 0) {
      return Status::Internal("frame without a subscription: " + line);
    }
    const size_t index = static_cast<size_t>(conn.stream);
    Request& r = requests_[index];
    if (recording_) r.lines.push_back(line);
    if (msg.GetString("session") != r.job.session) {
      return Status::Internal("frame for the wrong session: " + line);
    }
    if (msg.GetString("frame") == "done") {
      conn.stream = -1;
      const std::string state = msg.GetString("state");
      Finish(index,
             state == "done" ? Request::State::kDone : Request::State::kFailed,
             state, on_done);
    }
    return Status::OK();
  }
  if (conn.expect.empty()) {
    return Status::Internal("unsolicited response: " + line);
  }
  const auto [expect, index] = conn.expect.front();
  conn.expect.pop_front();
  if (expect == Expect::kCall) {
    call_reply_ = msg;
    call_done_ = true;
    return Status::OK();
  }
  Request& r = requests_[index];
  if (r.state == Request::State::kFailed) {
    // Given up on by FailOpen. An acknowledged submit is not subscribed to,
    // so its stream slot is free again; a subscribed one keeps the slot
    // until its done frame arrives.
    if (expect == Expect::kSubmitAck) conn.stream = -1;
    return Status::OK();
  }
  if (recording_) r.lines.push_back(line);
  const bool ok = serve::IsOkResponse(msg);
  switch (expect) {
    case Expect::kSubmitAck: {
      if (ok) {
        serve::Request stream;
        stream.type = serve::RequestType::kStream;
        stream.session = r.job.session;
        SendLine(conn_index, stream.Serialize(), Expect::kStreamAck, index);
        return Status::OK();
      }
      conn.stream = -1;
      const long long retry_ms = msg.GetInt("retry_after_ms", 0);
      const uint64_t now = NowNs();
      ++r.sheds;
      if (retry_ms > 0 &&
          now + static_cast<uint64_t>(retry_ms) * 1000000ull <
              retry_deadline_ns_) {
        // Shed: back off as hinted and resubmit (the due time, and so the
        // latency origin, stays put).
        r.retry_ns = now + static_cast<uint64_t>(retry_ms) * 1000000ull;
        r.state = Request::State::kPending;
        Schedule(index);
        return Status::OK();
      }
      if (retry_ms == 0) --r.sheds;  // a hard error, not a shed
      Finish(index, Request::State::kFailed, msg.GetString("error"), on_done);
      return Status::OK();
    }
    case Expect::kStreamAck:
      if (!ok) {
        conn.stream = -1;
        Finish(index, Request::State::kFailed, msg.GetString("error"),
               on_done);
      }
      return Status::OK();
    case Expect::kPollReply:
      r.response = msg;
      if (ok && msg.Has("state")) {
        Finish(index, Request::State::kDone, msg.GetString("state"), on_done);
      } else {
        Finish(index, Request::State::kFailed, msg.GetString("error"),
               on_done);
      }
      return Status::OK();
    case Expect::kCall:
      break;
  }
  return Status::OK();
}

Status Generator::ReadConn(int conn_index,
                           const std::function<void(size_t)>& on_done) {
  Conn& conn = conns_[static_cast<size_t>(conn_index)];
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::Internal("daemon closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return Status::Internal(std::string("recv: ") + std::strerror(errno));
  }
  size_t start = 0;
  for (;;) {
    const size_t nl = conn.in.find('\n', start);
    if (nl == std::string::npos) break;
    const std::string line = conn.in.substr(start, nl - start);
    start = nl + 1;
    ST_RETURN_NOT_OK(HandleLine(conn_index, line, on_done));
  }
  conn.in.erase(0, start);
  return Status::OK();
}

Status Generator::Run(uint64_t deadline_ns,
                      const std::function<void(size_t)>& on_done) {
  std::vector<pollfd> fds(conns_.size());
  while (open_ > 0) {
    const uint64_t now = NowNs();
    if (now >= deadline_ns) return Status::OK();
    // Release what is due; how late this loop got to it is the generator's
    // own lateness.
    while (!future_.empty()) {
      Request& r = requests_[future_.front()];
      if (ReleaseNs(r) > now) break;
      if (r.seen_ns == 0) r.seen_ns = now;
      (r.kind == Request::Kind::kSubmit ? waiting_submits_ : waiting_polls_)
          .push_back(future_.front());
      future_.pop_front();
    }
    // FIFO per kind: a submit waiting for a stream slot never holds up a
    // poll, and the first request that cannot go blocks those behind it.
    for (auto* queue : {&waiting_submits_, &waiting_polls_}) {
      while (!queue->empty() && TrySend(queue->front())) queue->pop_front();
    }
    uint64_t wake = deadline_ns;
    if (!future_.empty()) {
      const Request& r = requests_[future_.front()];
      wake = std::min(wake, ReleaseNs(r));
    }
    for (size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events = POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT);
      fds[c].revents = 0;
    }
    const uint64_t wait_ns = wake > now ? wake - now : 0;
    timespec timeout;
    timeout.tv_sec = static_cast<time_t>(wait_ns / 1000000000ull);
    timeout.tv_nsec = static_cast<long>(wait_ns % 1000000000ull);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("ppoll failed");
    }
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (fds[c].revents & POLLOUT) ST_RETURN_NOT_OK(FlushOut(&conns_[c]));
      if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
        ST_RETURN_NOT_OK(ReadConn(static_cast<int>(c), on_done));
      }
    }
  }
  return Status::OK();
}

Result<json::Value> Generator::Call(const serve::Request& request,
                                    int timeout_ms) {
  Conn& conn = conns_[0];
  call_done_ = false;
  SendLine(0, request.Serialize(), Expect::kCall, 0);
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(timeout_ms) * 1000000ull;
  while (!call_done_) {
    if (NowNs() >= deadline) return Status::Internal("call timed out");
    pollfd fd{conn.fd, static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)), 0};
    if (::poll(&fd, 1, 50) < 0 && errno != EINTR) {
      return Status::Internal("poll failed");
    }
    if (fd.revents & POLLOUT) ST_RETURN_NOT_OK(FlushOut(&conn));
    if (fd.revents & (POLLIN | POLLHUP | POLLERR)) {
      ST_RETURN_NOT_OK(ReadConn(0, nullptr));
    }
  }
  return call_reply_;
}

}  // namespace e2ebench
