// The serve-layer probe of the traced run: an open-loop client against an
// in-process ServeServer serving the workload's queries.

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <random>
#include <thread>

#include "harness/http_client.h"
#include "harness/open_loop.h"
#include "harness/workloads.h"
#include "serve/serve_server.h"
#include "telemetry/json_value.h"

namespace perfbench {
namespace {

using hef::QueryId;

constexpr int kTimeoutMs = 5000;
constexpr int kWarmRequestsPerQuery = 8;
// 1200 arrivals at kServeRate, so the serve-layer p99s have 12 samples
// beyond them.
constexpr double kServeProbeSeconds = 12;
constexpr std::uint64_t kSpinNanos = 1'000'000;

struct Served {
  QueryId id = QueryId::kQ1_1;
  Arrival at;
  bool ok = false;     // 200 with the reference rows
  bool wrong = false;  // 200 whose rows differ from the reference
  double queue_ms = 0;
  double exec_ms = 0;
  std::uint64_t trace_id = 0;
};

std::string Target(QueryId id) {
  return std::string("/query?q=") + hef::QueryName(id);
}

// Parses a hef-serve-v1 body and compares its rows with the reference.
void CheckBody(const HttpResult& http, const hef::QueryResult& ref,
               Served& out) {
  if (!http.transport_ok || http.status != 200) return;
  auto doc = hef::telemetry::JsonValue::Parse(http.body);
  if (!doc.ok()) {
    out.wrong = true;
    return;
  }
  out.queue_ms = doc->NumberOr("queue_ms", 0);
  out.exec_ms = doc->NumberOr("exec_ms", 0);
  // The hex form: the numeric trace_id does not survive a double.
  out.trace_id =
      std::strtoull(doc->StringOr("trace", "0").c_str(), nullptr, 16);
  const hef::telemetry::JsonValue* rows = doc->Find("rows");
  bool same = rows != nullptr && rows->is_array() &&
              rows->array().size() == ref.rows.size();
  for (std::size_t i = 0; same && i < ref.rows.size(); ++i) {
    const hef::telemetry::JsonValue& row = rows->array()[i];
    const hef::telemetry::JsonValue* keys = row.Find("keys");
    same = keys != nullptr && keys->is_array() && keys->array().size() == 3 &&
           row.NumberOr("value", -1) ==
               static_cast<double>(ref.rows[i].value);
    for (std::size_t k = 0; same && k < 3; ++k) {
      same = keys->array()[k].number() ==
             static_cast<double>(ref.rows[i].keys[k]);
    }
  }
  out.ok = same;
  out.wrong = !same;
}

Served Request(int port, QueryId id, const hef::QueryResult& ref) {
  Served s;
  s.id = id;
  s.at.sent_ns = NowNanos();
  s.at.due_ns = s.at.sent_ns;
  const HttpResult http = HttpGet(port, Target(id), kTimeoutMs);
  s.at.done_ns = NowNanos();
  CheckBody(http, ref, s);
  return s;
}

void Count(const Served& s, RunReport& report) {
  report.Count(s.ok, s.wrong);
  if (s.wrong) {
    std::fprintf(stderr, "hefbench: served %s rows differ from the reference\n",
                 hef::QueryName(s.id));
  }
}

// Sends the seeded fixed-rate schedule from kServeConnections client threads:
// each claims the next arrival, sleeps until it is due and sends it, so a
// request is late only when every connection is busy or its client thread
// is not scheduled in time.
std::vector<Served> OpenLoop(int port, const std::vector<QueryId>& mix,
                             const std::map<QueryId, hef::QueryResult>& refs,
                             double seconds, std::uint64_t seed) {
  const std::vector<std::uint64_t> due =
      FixedRateSchedule(kServeRate, seconds, seed);
  std::mt19937_64 pick(seed ^ 0x5EEDC0DEULL);
  std::vector<Served> served(due.size());
  for (Served& s : served) s.id = mix[pick() % mix.size()];
  const std::uint64_t start = NowNanos() + 10'000'000;  // 10 ms lead
  std::atomic<std::size_t> next{0};
  auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= served.size()) return;
      Served& s = served[i];
      s.at.due_ns = start + due[i];
      // Sleep to shortly before the due time, then spin: on a shared VM a
      // timer wakeup can be late by several ms, which would be charged to
      // the server. Yielding lets any runnable server thread go first.
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(s.at.due_ns - kSpinNanos)));
      while (NowNanos() < s.at.due_ns) sched_yield();
      s.at.sent_ns = NowNanos();
      const HttpResult http = HttpGet(port, Target(s.id), kTimeoutMs);
      s.at.done_ns = NowNanos();
      CheckBody(http, refs.at(s.id), s);
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeConnections; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  return served;
}

// Per request: the client's wait from due time to response, the HTTP
// exchange inside it, and the server-reported queue and execution times.
void RecordSpans(const std::vector<Served>& served, SpanLog& spans) {
  for (const Served& s : served) {
    const std::uint32_t root = spans.Add("client.request", 0, s.at.due_ns,
                                         s.at.done_ns, s.trace_id);
    const std::uint32_t http = spans.Add("http.request", root, s.at.sent_ns,
                                         s.at.done_ns, s.trace_id);
    // Queue wait then execution, ending when the response arrived.
    const auto exec_ns = static_cast<std::uint64_t>(s.exec_ms * 1e6);
    const auto queue_ns = static_cast<std::uint64_t>(s.queue_ms * 1e6);
    const std::uint64_t exec_start =
        s.at.done_ns - std::min(exec_ns, s.at.done_ns);
    spans.Add("serve.exec", http, exec_start, s.at.done_ns, s.trace_id);
    spans.Add("serve.queue", http, exec_start - std::min(queue_ns, exec_start),
              exec_start, s.trace_id);
  }
}

}  // namespace

void AddServeLayerProbe(const WorkloadSpec& spec,
                        const hef::ssb::SsbDatabase& db,
                        const std::map<QueryId, hef::QueryResult>& refs,
                        std::uint64_t seed, SpanLog& spans,
                        RunReport& report) {
  hef::serve::ServeServer server(db, MakeServeConfig());
  const std::uint64_t t0 = NowNanos();
  const hef::Status started = server.Start(0);
  spans.Add("ServeServer::Start", 0, t0, NowNanos());
  if (!started.ok()) {
    std::fprintf(stderr, "hefbench: serve start failed: %s\n",
                 started.ToString().c_str());
    report.Count(false);
    return;
  }
  const int port = server.port();
  // Warm both executors' plan caches: every query several times from two
  // concurrent clients.
  std::vector<std::vector<Served>> warm(2);
  {
    std::vector<std::thread> warmers;
    for (int c = 0; c < 2; ++c) {
      warmers.emplace_back([&, c] {
        for (int k = 0; k < kWarmRequestsPerQuery / 2; ++k) {
          for (const QueryId id : spec.queries) {
            warm[c].push_back(Request(port, id, refs.at(id)));
          }
        }
      });
    }
    for (std::thread& t : warmers) t.join();
  }
  for (const auto& part : warm) {
    for (const Served& s : part) Count(s, report);
  }

  const std::vector<Served> served =
      OpenLoop(port, spec.queries, refs, kServeProbeSeconds, seed);
  RecordSpans(served, spans);
  ServeLayer layer;
  for (const Served& s : served) {
    Count(s, report);
    layer.queue_ms.push_back(s.queue_ms);
    layer.exec_ms.push_back(s.exec_ms);
    layer.http_ms.push_back(
        std::max(0.0, s.at.ServiceMs() - s.queue_ms - s.exec_ms));
    layer.late_ms.push_back(s.at.LateMs());
  }
  AddServeLayerMetrics(layer, report);
}

}  // namespace perfbench
