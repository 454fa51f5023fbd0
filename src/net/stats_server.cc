#include "net/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "base/json.h"
#include "base/strings.h"
#include "obs/prometheus.h"

namespace ldl {

namespace {

constexpr size_t kMaxRequestBytes = 8 * 1024;

std::string HttpResponse(int code, const std::string& reason,
                         const std::string& content_type,
                         const std::string& body) {
  return StrCat("HTTP/1.1 ", code, " ", reason, "\r\n",
                "Content-Type: ", content_type, "\r\n",
                "Content-Length: ", body.size(), "\r\n",
                "Connection: close\r\n\r\n", body);
}

/// First line of an HTTP request -> the request path, or "" when the line
/// is not a GET. Query strings are ignored (no endpoint takes parameters).
std::string ParseRequestPath(const std::string& request) {
  const size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  if (line.rfind("GET ", 0) != 0) return "";
  const size_t path_start = 4;
  size_t path_end = line.find(' ', path_start);
  if (path_end == std::string::npos) path_end = line.size();
  std::string path = line.substr(path_start, path_end - path_start);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  return path;
}

}  // namespace

Status StatsServer::Start() {
  if (running_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("stats server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::InvalidArgument(
        StrCat("socket() failed: ", std::strerror(errno)));
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrCat("bind(127.0.0.1:", options_.port, ") failed: ", err));
  }
  if (::listen(listen_fd_, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(StrCat("listen() failed: ", err));
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }

  stop_requested_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread(&StatsServer::AcceptLoop, this);
  return Status::OK();
}

void StatsServer::Stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  // Wake the blocking accept(); the loop then sees stop_requested_.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  running_.store(false, std::memory_order_relaxed);
}

void StatsServer::AcceptLoop() {
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_requested_.load(std::memory_order_relaxed)) break;
      if (errno == EINTR) continue;
      break;  // Listener is gone; nothing to serve on.
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void StatsServer::HandleConnection(int fd) {
  // A slow or stuck client gets a bounded slice of the accept thread.
  timeval timeout;
  timeout.tv_sec = 2;
  timeout.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buf[2048];
  while (request.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
    if (request.find("\r\n\r\n") != std::string::npos) break;
    if (request.find("\n\n") != std::string::npos) break;
  }
  if (request.empty()) return;

  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::string path = ParseRequestPath(request);

  std::string body;
  std::string content_type;
  std::string response;
  if (path.empty()) {
    response = HttpResponse(405, "Method Not Allowed",
                            "text/plain; charset=utf-8",
                            "only GET is supported\n");
  } else if (HandlePath(path, &body, &content_type)) {
    response = HttpResponse(200, "OK", content_type, body);
  } else {
    response = HttpResponse(
        404, "Not Found", "text/plain; charset=utf-8",
        "not found; try /metrics, /healthz, /statusz, or /stats\n");
  }

  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = ::send(fd, response.data() + sent,
                             response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

bool StatsServer::HandlePath(const std::string& path, std::string* body,
                             std::string* content_type) {
  if (path == "/metrics") {
    if (options_.metrics != nullptr) {
      options_.metrics->counter("statsserver.scrapes")->Increment();
    }
    if (options_.refresh) options_.refresh();
    *body = RenderMetrics();
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return true;
  }
  if (path == "/healthz" || path == "/") {
    *body = "ok\n";
    *content_type = "text/plain; charset=utf-8";
    return true;
  }
  if (path == "/statusz") {
    if (options_.refresh) options_.refresh();
    *body = RenderStatusz();
    *content_type = "application/json; charset=utf-8";
    return true;
  }
  if (path == "/stats") {
    if (options_.refresh) options_.refresh();
    *body = RenderStats();
    *content_type = "application/json; charset=utf-8";
    return true;
  }
  return false;
}

std::string StatsServer::RenderStats() {
  if (!options_.statistics) {
    return RenderStatsJson(options_.feedback, options_.drift, nullptr);
  }
  const Statistics snapshot = options_.statistics();
  return RenderStatsJson(options_.feedback, options_.drift, &snapshot);
}

std::string StatsServer::RenderMetrics() {
  if (options_.metrics == nullptr) return "";
  PrometheusOptions prom;
  if (options_.process != nullptr) {
    prom.build_info = &options_.process->build_info();
  }
  return RenderPrometheus(*options_.metrics, prom);
}

std::string StatsServer::RenderStatusz() {
  std::ostringstream os;
  os << "{";
  os << "\"server\":{\"port\":" << port_ << ",\"requests\":"
     << requests_.load(std::memory_order_relaxed) << "}";
  if (options_.process != nullptr) {
    const BuildInfo& info = options_.process->build_info();
    char uptime[40];
    std::snprintf(uptime, sizeof(uptime), "%.3f",
                  options_.process->uptime_seconds());
    os << ",\"uptime_seconds\":" << uptime;
    os << ",\"peak_rss_bytes\":" << ReadPeakRssBytes();
    os << ",\"build\":{"
       << "\"compiler\":\"" << JsonEscape(info.compiler) << "\","
       << "\"standard\":\"" << JsonEscape(info.standard) << "\","
       << "\"build_type\":\"" << JsonEscape(info.build_type) << "\","
       << "\"git\":\"" << JsonEscape(info.git) << "\","
       << "\"sanitizer\":\"" << JsonEscape(info.sanitizer) << "\"}";
  }
  if (options_.statistics) {
    os << ",\"stats_epoch\":" << options_.statistics().epoch();
  }
  if (options_.drift != nullptr) {
    os << ",\"feedback\":{\"drift_events\":" << options_.drift->drift_events()
       << ",\"last_max_q_error\":"
       << json::Number(options_.drift->last_max_q_error());
    if (options_.feedback != nullptr) {
      os << ",\"catalog_entries\":" << options_.feedback->size()
         << ",\"observations\":" << options_.feedback->total_observations();
    }
    os << "}";
  } else if (options_.feedback != nullptr) {
    os << ",\"feedback\":{\"catalog_entries\":" << options_.feedback->size()
       << ",\"observations\":" << options_.feedback->total_observations()
       << "}";
  }
  if (options_.sampler != nullptr) {
    os << ",\"timeseries\":";
    options_.sampler->WriteJson(os);
  }
  if (options_.query_log != nullptr) {
    const std::vector<QueryLogRecord> records = options_.query_log->snapshot();
    const size_t tail =
        records.size() > options_.log_tail ? options_.log_tail : records.size();
    os << ",\"query_log\":{\"records\":" << records.size() << ",\"tail\":[";
    for (size_t i = records.size() - tail; i < records.size(); ++i) {
      if (i != records.size() - tail) os << ",";
      os << records[i].ToJson();
    }
    os << "]}";
  }
  os << "}";
  return os.str();
}

}  // namespace ldl
