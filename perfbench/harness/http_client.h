// Minimal blocking HTTP/1.1 GET client for the serve workload. The serve
// front end closes the connection after each response, so every request
// opens its own connection.

#ifndef PERFBENCH_HARNESS_HTTP_CLIENT_H_
#define PERFBENCH_HARNESS_HTTP_CLIENT_H_

#include <string>

namespace perfbench {

struct HttpResult {
  bool transport_ok = false;  // connected and read a status line
  int status = 0;
  std::string body;
};

// GET http://127.0.0.1:<port><target>.
HttpResult HttpGet(int port, const std::string& target, int timeout_ms);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HTTP_CLIENT_H_
