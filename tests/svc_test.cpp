// Tests for the simulation service (src/svc/): wire-format round-trips
// and strictness, job-queue ordering and bounds, server lifecycle and
// structured rejections, in-flight dedup and the result store,
// cancellation and deadlines, and the two cross-cutting properties
// DESIGN.md section 13 pins down -- counter conservation (submitted ==
// completed + cancelled + rejected) and payload byte-identity across
// worker counts. The whole binary runs under the tsan preset in
// scripts/check.sh, so every assertion here doubles as a data-race probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/trace_event.h"
#include "src/svc/queue.h"
#include "src/svc/server.h"
#include "src/svc/telemetry.h"
#include "src/svc/wire.h"
#include "src/tune/runner.h"

namespace smd::svc {
namespace {

// Simulation cost dominates; keep test experiments small. 16 molecules
// simulates in ~10 ms; 64 in ~40 ms (used where a job must stay busy
// long enough to cancel behind).
constexpr int kSmall = 16;
constexpr int kSlow = 64;

struct Deltas {
  std::int64_t submitted, completed, cancelled, rejected, deduped, simulated,
      cache_hit;
};

class CounterProbe {
 public:
  CounterProbe() : reg_(obs::CounterRegistry::process()) {
    base_ = read();
  }
  Deltas delta() const {
    const Deltas now = read();
    return {now.submitted - base_.submitted, now.completed - base_.completed,
            now.cancelled - base_.cancelled, now.rejected - base_.rejected,
            now.deduped - base_.deduped,     now.simulated - base_.simulated,
            now.cache_hit - base_.cache_hit};
  }

 private:
  Deltas read() const {
    return {reg_.counter("svc.jobs.submitted"),
            reg_.counter("svc.jobs.completed"),
            reg_.counter("svc.jobs.cancelled"),
            reg_.counter("svc.jobs.rejected"),
            reg_.counter("svc.jobs.deduped"),
            reg_.counter("svc.jobs.simulated"),
            reg_.counter("svc.jobs.cache_hit")};
  }
  obs::CounterRegistry& reg_;
  Deltas base_{};
};

Request small_request(const std::string& id, core::Variant v = core::Variant::kVariable) {
  Request r;
  r.id = id;
  r.config.variant = v;
  r.n_molecules = kSmall;
  return r;
}

// ---- Wire format. ---------------------------------------------------------

TEST(Wire, RequestRoundTripAndDefaults) {
  Request r;
  r.id = "r1";
  r.config.variant = core::Variant::kFixed;
  r.config.fixed_list_length = 12;
  r.n_molecules = 128;
  r.priority = 3;
  r.timeout_ms = 250;
  const Request back = Request::from_json(r.to_json());
  EXPECT_EQ(back.id, "r1");
  EXPECT_EQ(back.config.key(), r.config.key());
  EXPECT_EQ(back.n_molecules, 128);
  EXPECT_EQ(back.priority, 3);
  EXPECT_EQ(back.timeout_ms, 250);

  // All fields optional: an empty object is the default request.
  const Request dflt = Request::from_json(obs::Json::object());
  EXPECT_EQ(dflt.config.key(), tune::Candidate{}.key());
  EXPECT_EQ(dflt.n_molecules, 900);
  EXPECT_EQ(dflt.priority, 0);
}

TEST(Wire, UnknownKeysAndBadBatchesThrow) {
  obs::Json j = obs::Json::object();
  j.set("frobnicate", 1);
  EXPECT_THROW(Request::from_json(j), WireError);

  obs::Json nested = obs::Json::object();
  obs::Json cfg = obs::Json::object();
  cfg.set("no_such_axis", 2);
  nested.set("config", std::move(cfg));
  EXPECT_THROW(Request::from_json(nested), WireError);

  EXPECT_THROW(parse_request_file(obs::Json("not a batch")), WireError);
  obs::Json vfuture = obs::Json::object();
  vfuture.set("schema_version", 999);
  vfuture.set("requests", obs::Json::array());
  EXPECT_THROW(parse_request_file(vfuture), WireError);
}

TEST(Wire, ErrorCodeNamesRoundTrip) {
  for (const ErrorCode c :
       {ErrorCode::kOk, ErrorCode::kBadRequest, ErrorCode::kQueueFull,
        ErrorCode::kShutdown, ErrorCode::kBudgetExceeded, ErrorCode::kCancelled,
        ErrorCode::kDeadlineExceeded, ErrorCode::kInternal}) {
    EXPECT_EQ(parse_error_code(error_code_name(c)), c);
  }
  EXPECT_THROW(parse_error_code("nonsense"), WireError);
}

TEST(Wire, RequestHashMixesMoleculeCount) {
  const tune::Candidate c;
  EXPECT_NE(request_hash(c, 64, tune::kModelVersion),
            request_hash(c, 128, tune::kModelVersion));
  EXPECT_EQ(request_hash(c, 64, tune::kModelVersion),
            request_hash(c, 64, tune::kModelVersion));
}

TEST(Wire, ResponsePayloadRoundTripsByteIdentically) {
  Response r;
  r.id = "x";
  r.config_hash = 0xabcdef0123456789ull;
  r.served_by = "sim";
  r.metrics.time_ms = 1.25;
  r.metrics.source = "sim";
  r.payload = payload_text(r.config_hash, tune::Candidate{}, 64, r.metrics);
  r.total_ns = 12345;
  const Response back = Response::from_json(r.to_json());
  EXPECT_EQ(back.payload, r.payload);
  EXPECT_EQ(back.config_hash, r.config_hash);
  EXPECT_EQ(back.total_ns, 12345);
}

// ---- Queue ordering and bounds. -------------------------------------------

std::shared_ptr<InflightJob> job(std::uint64_t hash, int priority) {
  auto j = std::make_shared<InflightJob>();
  j->hash = hash;
  j->priority = priority;
  return j;
}

TEST(Queue, PriorityThenFifo) {
  JobQueue q(16);
  ASSERT_TRUE(q.push(0, job(1, 0)));
  ASSERT_TRUE(q.push(5, job(2, 5)));
  ASSERT_TRUE(q.push(0, job(3, 0)));
  ASSERT_TRUE(q.push(5, job(4, 5)));
  // Priority 5 first (FIFO within: 2 then 4), then priority 0 (1 then 3).
  EXPECT_EQ(q.pop()->hash, 2u);
  EXPECT_EQ(q.pop()->hash, 4u);
  EXPECT_EQ(q.pop()->hash, 1u);
  EXPECT_EQ(q.pop()->hash, 3u);
}

TEST(Queue, CapacityAndCloseSemantics) {
  JobQueue q(2);
  EXPECT_TRUE(q.push(0, job(1, 0)));
  EXPECT_TRUE(q.push(0, job(2, 0)));
  EXPECT_FALSE(q.push(0, job(3, 0))) << "over-capacity push must fail";
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.peak_depth(), 2u);
  q.close();
  EXPECT_FALSE(q.push(0, job(4, 0))) << "closed queue must refuse pushes";
  // Already-queued jobs still drain after close; then nullptr forever.
  EXPECT_NE(q.pop(), nullptr);
  EXPECT_NE(q.pop(), nullptr);
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_EQ(q.pop(), nullptr);
}

// ---- Server lifecycle and structured rejections. --------------------------

TEST(Server, InvalidConfigurationThrows) {
  ServerOptions zero_workers;
  zero_workers.workers = 0;
  EXPECT_THROW(Server{zero_workers}, std::invalid_argument);
  ServerOptions zero_cap;
  zero_cap.queue_cap = 0;
  EXPECT_THROW(Server{zero_cap}, std::invalid_argument);
}

TEST(Server, StructuredRejections) {
  CounterProbe probe;
  ServerOptions opts;
  opts.workers = 1;
  opts.max_molecules = 32;
  Server server(opts);

  Request bad = small_request("bad");
  bad.n_molecules = -1;
  EXPECT_EQ(server.submit(bad).wait().error, ErrorCode::kBadRequest);

  Request over = small_request("over");
  over.n_molecules = 64;  // > max_molecules
  EXPECT_EQ(server.submit(over).wait().error, ErrorCode::kBudgetExceeded);

  Request invalid = small_request("invalid");
  invalid.config.n_clusters = -4;  // machine config fails validation
  const Response r = server.submit(invalid).wait();
  EXPECT_EQ(r.error, ErrorCode::kBadRequest);
  EXPECT_FALSE(r.message.empty());

  server.shutdown();
  EXPECT_EQ(server.submit(small_request("late")).wait().error,
            ErrorCode::kShutdown);

  const Deltas d = probe.delta();
  EXPECT_EQ(d.submitted, 4);
  EXPECT_EQ(d.rejected, 4);
  EXPECT_EQ(d.completed + d.cancelled, 0);
  EXPECT_EQ(d.simulated, 0);
}

// One element that fails to parse costs one bad_request, exactly like a
// parsed request the server rejects; the rest of the batch is served.
TEST(Server, MalformedBatchElementIsOneBadRequest) {
  const obs::Json batch = obs::Json::parse(R"({"schema_version":2,"requests":[
      {"id":"good","config":{"variant":"fixed"},"n_molecules":16},
      {"id":"typo","config":{"variant":"bogus"}},
      {"n_molecules":16,"frobnicate":1},
      {"id":"empty","n_molecules":0}]})");
  const std::vector<BatchEntry> entries = parse_request_file(batch);
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].error, "");
  EXPECT_NE(entries[1].error.find("unknown variant 'bogus'"),
            std::string::npos)
      << entries[1].error;
  EXPECT_EQ(entries[1].request.id, "typo");
  EXPECT_NE(entries[2].error.find("frobnicate"), std::string::npos);
  EXPECT_EQ(entries[2].request.id, "");
  EXPECT_EQ(entries[3].error, "");  // parses; the server rejects it

  CounterProbe probe;
  ServerOptions opts;
  opts.workers = 1;
  Server server(opts);
  std::vector<JobHandle> handles;
  for (const BatchEntry& e : entries) {
    handles.push_back(e.error.empty()
                          ? server.submit(e.request)
                          : server.reject_malformed(e.request.id, e.error));
  }
  server.drain();
  EXPECT_EQ(handles[0].wait().error, ErrorCode::kOk);
  for (std::size_t i = 1; i < handles.size(); ++i) {
    const Response& r = handles[i].wait();
    EXPECT_EQ(r.error, ErrorCode::kBadRequest) << i;
    EXPECT_FALSE(r.message.empty()) << i;
  }
  EXPECT_EQ(handles[1].wait().id, "typo");
  EXPECT_EQ(handles[1].wait().message, entries[1].error);
  EXPECT_EQ(handles[2].wait().id.rfind("job-", 0), 0u);  // server-assigned

  const Deltas d = probe.delta();
  EXPECT_EQ(d.submitted, 4);
  EXPECT_EQ(d.rejected, 3);
  EXPECT_EQ(d.completed, 1);
}

// L < 1 used to spin a worker past any deadline (build_fixed_like never
// ended), and int axes wrapped around (clusters=4294967312 ran as 16).
// Both are now one bad_request each, and the rest of the batch is served.
TEST(Server, ShortListAndWrappedAxisAreBadRequests) {
  const obs::Json batch = obs::Json::parse(R"({"schema_version":2,"requests":[
      {"id":"bad","config":{"variant":"fixed","L":0},"n_molecules":32,
       "timeout_ms":2000},
      {"id":"wrap","config":{"clusters":4294967312},"n_molecules":16},
      {"id":"good","config":{"variant":"fixed","L":4},"n_molecules":16}]})");
  const std::vector<BatchEntry> entries = parse_request_file(batch);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_NE(entries[0].error.find("axis 'L'"), std::string::npos)
      << entries[0].error;
  EXPECT_NE(entries[1].error.find("axis 'clusters'"), std::string::npos)
      << entries[1].error;
  EXPECT_EQ(entries[2].error, "");

  CounterProbe probe;
  ServerOptions opts;
  opts.workers = 1;
  Server server(opts);
  std::vector<JobHandle> handles;
  for (const BatchEntry& e : entries) {
    handles.push_back(e.error.empty()
                          ? server.submit(e.request)
                          : server.reject_malformed(e.request.id, e.error));
  }
  // A candidate built in code meets the same check in submit().
  Request direct = small_request("direct", core::Variant::kDuplicated);
  direct.config.fixed_list_length = 0;
  handles.push_back(server.submit(direct));
  server.drain();

  EXPECT_EQ(handles[0].wait().error, ErrorCode::kBadRequest);
  EXPECT_EQ(handles[1].wait().error, ErrorCode::kBadRequest);
  EXPECT_EQ(handles[2].wait().error, ErrorCode::kOk);
  const Response& r = handles[3].wait();
  EXPECT_EQ(r.error, ErrorCode::kBadRequest);
  EXPECT_NE(r.message.find("axis 'L'"), std::string::npos) << r.message;

  const Deltas d = probe.delta();
  EXPECT_EQ(d.submitted, 4);
  EXPECT_EQ(d.rejected, 3);
  EXPECT_EQ(d.completed, 1);
  EXPECT_EQ(d.simulated, 1);
}

// Integers outside their field's range used to convert silently:
// n_molecules 4294967328 ran as 32, priority wrapped the same way,
// timeout_ms 1e30 was an undefined conversion, and a timeout past the
// int64 nanosecond clock overflowed the deadline. Each is now one
// bad_request, and the request next to it in the batch is served.
void expect_bad_request_beside_good(const std::string& bad_fields,
                                    const std::string& want) {
  const obs::Json batch = obs::Json::parse(
      R"({"schema_version":2,"requests":[{"id":"bad",)" + bad_fields +
      R"(},{"id":"good","n_molecules":16}]})");
  const std::vector<BatchEntry> entries = parse_request_file(batch);
  ASSERT_EQ(entries.size(), 2u);

  CounterProbe probe;
  ServerOptions opts;
  opts.workers = 1;
  Server server(opts);
  std::vector<JobHandle> handles;
  for (const BatchEntry& e : entries) {
    handles.push_back(e.error.empty()
                          ? server.submit(e.request)
                          : server.reject_malformed(e.request.id, e.error));
  }
  server.drain();
  const Response& bad = handles[0].wait();
  EXPECT_EQ(bad.id, "bad");
  EXPECT_EQ(bad.error, ErrorCode::kBadRequest);
  EXPECT_NE(bad.message.find(want), std::string::npos) << bad.message;
  EXPECT_EQ(handles[1].wait().error, ErrorCode::kOk);
  const Deltas d = probe.delta();
  EXPECT_EQ(d.rejected, 1);
  EXPECT_EQ(d.completed, 1);
}

TEST(Server, WrappedMoleculeCountIsABadRequest) {
  expect_bad_request_beside_good(
      R"("n_molecules":4294967328)",
      "request field 'n_molecules': 4294967328 is outside int's range");
}

TEST(Server, WrappedPriorityIsABadRequest) {
  expect_bad_request_beside_good(
      R"("n_molecules":16,"priority":-4294967296)",
      "request field 'priority': -4294967296 is outside int's range");
}

TEST(Server, TimeoutOutsideInt64IsABadRequest) {
  expect_bad_request_beside_good(
      R"("n_molecules":16,"timeout_ms":1e30)",
      "request field 'timeout_ms': 1e+30 is outside the integer range");
}

TEST(Server, DeadlinePastTheClockIsABadRequest) {
  expect_bad_request_beside_good(
      R"("n_molecules":16,"timeout_ms":1e13)",
      "timeout_ms 10000000000000 puts the deadline past the int64");
}

// Axis values that used to be served ok: a bandwidth parsed as inf, a
// cache bandwidth below one bank (clamped to one), an SRF size whose word
// count overflows int64, and a negative blocking or strip length. A value
// outside its axis's range is rejected by the parser, naming the axis; a
// cache of zero banks fails the machine check, MC010.
TEST(Server, OutOfRangeAxesAreBadRequests) {
  const std::pair<const char*, const char*> cases[] = {
      {R"("config":{"dram_gbps":1e999},"n_molecules":16)", "axis 'dram_gbps'"},
      {R"("config":{"cache_gbps":1e30},"n_molecules":16)", "axis 'cache_gbps'"},
      {R"("config":{"cache_gbps":0},"n_molecules":16)", "MC010"},
      {R"("config":{"cache_gbps":-5},"n_molecules":16)", "MC010"},
      {R"("config":{"srf_kb":72057594037927936},"n_molecules":16)",
       "axis 'srf_kb'"},
      {R"("config":{"blocking":-1},"n_molecules":16)", "axis 'blocking'"},
      {R"("config":{"strip":-3},"n_molecules":16)", "axis 'strip'"}};
  for (const auto& [fields, want] : cases) {
    SCOPED_TRACE(fields);
    expect_bad_request_beside_good(fields, want);
  }
}

// Config keys printed doubles with %.6g, so 38.4000001 and 38.4000002 had
// one config_hash (the default config's): the second request was served
// as a dedup of the first and its payload carried the first one's
// dram_gbps. Each now simulates and carries its own.
TEST(Server, ConfigsPastSixSignificantDigitsStayDistinct) {
  const obs::Json batch = obs::Json::parse(R"({"schema_version":2,"requests":[
      {"id":"a","config":{"dram_gbps":38.4000001},"n_molecules":16},
      {"id":"b","config":{"dram_gbps":38.4000002},"n_molecules":16}]})");
  const std::vector<BatchEntry> entries = parse_request_file(batch);
  ASSERT_EQ(entries.size(), 2u);

  CounterProbe probe;
  ServerOptions opts;
  opts.workers = 2;
  Server server(opts);
  std::vector<JobHandle> handles;
  for (const BatchEntry& e : entries) {
    ASSERT_EQ(e.error, "");
    handles.push_back(server.submit(e.request));
  }
  server.drain();
  const double want[] = {38.4000001, 38.4000002};
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const Response& r = handles[i].wait();
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(r.served_by, "sim") << r.id;
    EXPECT_NE(r.config_hash,
              request_hash(tune::Candidate{}, kSmall, tune::kModelVersion));
    const obs::Json payload = obs::Json::parse(r.payload);
    EXPECT_EQ(payload.at("config").at("dram_gbps").as_double(), want[i])
        << r.payload;
  }
  EXPECT_NE(handles[0].wait().config_hash, handles[1].wait().config_hash);
  const Deltas d = probe.delta();
  EXPECT_EQ(d.simulated, 2);
  EXPECT_EQ(d.deduped, 0);
}

// ---- Correctness: payload identity and dedup. -----------------------------

TEST(Server, PayloadMatchesDirectSingleThreadedRun) {
  core::ExperimentSetup setup;
  setup.n_molecules = kSmall;
  const core::Problem problem = core::Problem::make(setup);
  tune::Candidate cand;
  cand.variant = core::Variant::kFixed;
  const tune::Metrics direct = tune::evaluate(problem, cand);
  const std::uint64_t hash =
      request_hash(cand, kSmall, tune::kModelVersion);
  const std::string want = payload_text(hash, cand, kSmall, direct);

  ServerOptions opts;
  opts.workers = 2;
  Server server(opts);
  Request req = small_request("p1", core::Variant::kFixed);
  const Response r = server.submit(req).wait();
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.config_hash, hash);
  EXPECT_EQ(r.payload, want) << "server payload differs from direct run";
  EXPECT_EQ(r.served_by, "sim");
}

TEST(Server, BoxWithoutPairsIsServedZeroRatesNotNull) {
  // One molecule has no neighbour within the cutoff: the run simulates 0
  // cycles, and its rates read 0 instead of a non-finite value the payload
  // would carry as null.
  ServerOptions opts;
  opts.workers = 1;
  Server server(opts);
  Request req = small_request("one");
  req.n_molecules = 1;
  const Response r = server.submit(req).wait();
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NE(r.payload.find("\"solution_gflops\":0"), std::string::npos)
      << r.payload;
  EXPECT_EQ(r.payload.find("null"), std::string::npos) << r.payload;
}

TEST(Server, DuplicatesSimulateExactlyOnce) {
  CounterProbe probe;
  ServerOptions opts;
  opts.workers = 2;
  Server server(opts);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(server.submit(small_request("dup-" + std::to_string(i))));
  }
  server.drain();
  std::string payload;
  for (const auto& h : handles) {
    const Response& r = h.wait();
    ASSERT_TRUE(r.ok()) << r.message;
    if (payload.empty()) payload = r.payload;
    EXPECT_EQ(r.payload, payload);
  }
  const Deltas d = probe.delta();
  EXPECT_EQ(d.submitted, 6);
  EXPECT_EQ(d.completed, 6);
  EXPECT_EQ(d.simulated, 1) << "duplicates must attach, not re-simulate";

  // Resubmission after completion: the result store, still no simulation.
  const Response again = server.submit(small_request("again")).wait();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.payload, payload);
  EXPECT_EQ(again.served_by, "cache");
  EXPECT_EQ(probe.delta().simulated, 1);
}

TEST(Server, WarmPersistentCacheServesWithZeroSimulations) {
  const std::string path = testing::TempDir() + "/svc_test_cache.json";
  std::remove(path.c_str());
  ServerOptions opts;
  opts.workers = 1;
  opts.cache_path = path;
  std::string payload;
  {
    Server server(opts);
    const Response r = server.submit(small_request("cold")).wait();
    ASSERT_TRUE(r.ok());
    payload = r.payload;
  }  // shutdown saves the cache atomically
  CounterProbe probe;
  {
    Server server(opts);
    const Response r = server.submit(small_request("warm")).wait();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.served_by, "cache");
    EXPECT_EQ(r.payload, payload) << "persistent cache altered the payload";
  }
  const Deltas d = probe.delta();
  EXPECT_EQ(d.simulated, 0);
  EXPECT_EQ(d.cache_hit, 1);
  std::remove(path.c_str());
}

// One result store: with a cache path, a repeat request is a store hit
// like a warm start's -- no simulation, the payload a direct run renders
// -- and the file saved at shutdown holds the one result once.
TEST(Server, RepeatWithACachePathIsServedFromTheStore) {
  const std::string path = testing::TempDir() + "/svc_test_repeat.json";
  std::remove(path.c_str());
  core::ExperimentSetup setup;
  setup.n_molecules = kSmall;
  const core::Problem problem = core::Problem::make(setup);
  tune::Candidate cand;
  cand.variant = core::Variant::kDuplicated;
  const std::uint64_t hash = request_hash(cand, kSmall, tune::kModelVersion);
  const std::string want =
      payload_text(hash, cand, kSmall, tune::evaluate(problem, cand));

  ServerOptions opts;
  opts.workers = 2;
  opts.cache_path = path;
  {
    Server server(opts);
    const Response first =
        server.submit(small_request("first", cand.variant)).wait();
    ASSERT_TRUE(first.ok()) << first.message;
    EXPECT_EQ(first.served_by, "sim");
    EXPECT_EQ(first.payload, want);
    CounterProbe probe;
    const Response again =
        server.submit(small_request("again", cand.variant)).wait();
    ASSERT_TRUE(again.ok()) << again.message;
    EXPECT_EQ(again.served_by, "cache");
    EXPECT_EQ(again.payload, want) << "store hit differs from a direct run";
    const Deltas d = probe.delta();
    EXPECT_EQ(d.simulated, 0);
    EXPECT_EQ(d.cache_hit, 1);
  }  // shutdown saves the store
  tune::ResultCache saved(path, tune::kModelVersion);
  EXPECT_EQ(saved.load(), 1u);
  tune::Metrics m;
  EXPECT_TRUE(saved.lookup(hash, &m));
  std::remove(path.c_str());
}

// A store that cannot be saved used to throw out of ~Server, which
// terminated the process. The destructor counts the error; an explicit
// shutdown() throws it.
TEST(Server, UnwritableCachePathDoesNotEscapeTheDestructor) {
  obs::CounterRegistry& reg = obs::CounterRegistry::process();
  const std::int64_t errors = reg.counter("svc.cache.save_errors");
  ServerOptions opts;
  opts.workers = 1;
  opts.cache_path = testing::TempDir() + "/svc_test_no_such_dir/cache.json";
  {
    Server server(opts);
    ASSERT_TRUE(server.submit(small_request("counted")).wait().ok());
  }
  EXPECT_EQ(reg.counter("svc.cache.save_errors"), errors + 1);
  Server server(opts);
  ASSERT_TRUE(server.submit(small_request("reported")).wait().ok());
  EXPECT_THROW(server.shutdown(), std::exception);
}

// ---- Cancellation, deadlines, queue-full. ---------------------------------

TEST(Server, CancelBeforeRunAndQueueFull) {
  CounterProbe probe;
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_cap = 1;
  Server server(opts);

  // Occupy the single worker with a slow job (~40 ms)...
  Request slow = small_request("slow");
  slow.n_molecules = kSlow;
  JobHandle busy = server.submit(slow);
  // ...wait until the worker picked it up (the queue slot frees)...
  while (server.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // ...queue a victim behind it and cancel it long before it can start.
  JobHandle victim = server.submit(small_request("victim"));
  EXPECT_EQ(server.cancel("victim"), 1u);
  EXPECT_EQ(server.cancel("no-such-id"), 0u);
  // The queue (cap 1) now holds the victim: a third job must reject.
  const Response full = server.submit(small_request("third", core::Variant::kExpanded)).wait();
  EXPECT_EQ(full.error, ErrorCode::kQueueFull);

  EXPECT_EQ(victim.wait().error, ErrorCode::kCancelled);
  EXPECT_TRUE(busy.wait().ok());
  server.drain();
  const Deltas d = probe.delta();
  EXPECT_EQ(d.submitted, 3);
  EXPECT_EQ(d.completed, 1);
  EXPECT_EQ(d.cancelled, 1);
  EXPECT_EQ(d.rejected, 1);
  EXPECT_EQ(d.simulated, 1) << "the cancelled job must not simulate";
}

TEST(Server, DeadlineExceededBehindSlowJob) {
  ServerOptions opts;
  opts.workers = 1;
  Server server(opts);
  Request slow = small_request("slow");
  slow.n_molecules = kSlow;  // ~40 ms >> the 1 ms deadline behind it
  JobHandle busy = server.submit(slow);
  Request hurried = small_request("hurried", core::Variant::kExpanded);
  hurried.timeout_ms = 1;
  const Response r = server.submit(hurried).wait();
  EXPECT_EQ(r.error, ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(busy.wait().ok());
}

// A cancelled duplicate never blocks the other requesters of its config:
// the simulation proceeds and everyone else still gets the result.
TEST(Server, CancelledDuplicateDoesNotPoisonTheJob) {
  ServerOptions opts;
  opts.workers = 1;
  Server server(opts);
  Request slow = small_request("slow");
  slow.n_molecules = kSlow;
  JobHandle busy = server.submit(slow);
  while (server.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  JobHandle keep = server.submit(small_request("keep"));
  JobHandle drop = server.submit(small_request("drop"));  // same config: attaches
  EXPECT_EQ(server.cancel("drop"), 1u);
  EXPECT_EQ(drop.wait().error, ErrorCode::kCancelled);
  const Response& kept = keep.wait();
  ASSERT_TRUE(kept.ok()) << kept.message;
  EXPECT_FALSE(kept.payload.empty());
  EXPECT_TRUE(busy.wait().ok());
}

// ---- The randomized concurrency property. ---------------------------------
//
// A fixed-seed random mix of duplicate configs, priorities, tight
// deadlines and mid-stream cancellations, replayed at several worker
// counts. Two invariants must hold for every run:
//   1. conservation: submitted == completed + cancelled + rejected;
//   2. determinism: every kOk payload for a config is byte-identical to
//      the single-threaded reference payload of that config.
TEST(ServerProperty, RandomMixConservesCountersAndPayloads) {
  constexpr int kRequests = 48;
  constexpr int kUnique = 5;

  // Reference payloads, computed once, single-threaded, outside a server.
  core::ExperimentSetup setup;
  setup.n_molecules = kSmall;
  const core::Problem problem = core::Problem::make(setup);
  std::vector<tune::Candidate> configs(kUnique);
  std::vector<std::string> want(kUnique);
  for (int u = 0; u < kUnique; ++u) {
    configs[u].unroll = 1 + u;  // distinct, all valid
    const tune::Metrics m = tune::evaluate(problem, configs[u]);
    want[u] = payload_text(request_hash(configs[u], kSmall,
                                        tune::kModelVersion),
                           configs[u], kSmall, m);
  }

  for (const int workers : {1, 4}) {
    CounterProbe probe;
    std::mt19937 rng(20260809);  // same mix for every worker count
    ServerOptions opts;
    opts.workers = workers;
    opts.queue_cap = 8;  // tight: the mix provokes real kQueueFull paths
    Server server(opts);
    std::vector<JobHandle> handles;
    std::vector<int> config_of;
    for (int i = 0; i < kRequests; ++i) {
      Request req;
      req.id = "mix-" + std::to_string(i);
      const int u = static_cast<int>(rng() % kUnique);
      req.config = configs[u];
      req.n_molecules = kSmall;
      req.priority = static_cast<int>(rng() % 3);
      if (rng() % 8 == 0) req.timeout_ms = 1;     // some tight deadlines
      handles.push_back(server.submit(req));
      config_of.push_back(u);
      if (rng() % 6 == 0) {                       // some mid-stream cancels
        server.cancel("mix-" + std::to_string(rng() % (i + 1)));
      }
    }
    server.drain();
    int completed = 0, cancelled = 0, rejected = 0;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const Response& r = handles[i].wait();
      switch (r.error) {
        case ErrorCode::kOk:
          ++completed;
          EXPECT_EQ(r.payload, want[static_cast<std::size_t>(config_of[i])])
              << "payload for " << r.id << " differs from the reference at "
              << workers << " workers";
          break;
        case ErrorCode::kCancelled:
        case ErrorCode::kDeadlineExceeded: ++cancelled; break;
        default: ++rejected; break;
      }
    }
    server.shutdown();
    const Deltas d = probe.delta();
    EXPECT_EQ(d.submitted, kRequests);
    EXPECT_EQ(d.completed, completed);
    EXPECT_EQ(d.cancelled, cancelled);
    EXPECT_EQ(d.rejected, rejected);
    EXPECT_EQ(d.submitted, d.completed + d.cancelled + d.rejected)
        << "counter conservation violated at " << workers << " workers";
    EXPECT_LE(d.simulated, kUnique) << "more simulations than unique configs";
    EXPECT_GT(completed, 0) << "the mix should complete at least one request";
  }
}

// ---- Wire v2: partition timing and trace id (DESIGN.md section 15). -------

TEST(Wire, ResponseTimingAndTraceRoundTripExactly) {
  Response r;
  r.id = "t";
  r.error = ErrorCode::kCancelled;
  r.message = "cancelled";
  r.config_hash = 0x1122334455667788ull;
  r.served_by = "";
  r.trace_id = 0xfeedfacecafebeefull;
  r.admission_ns = 11;
  r.queue_ns = 22;
  r.lookup_ns = 33;
  r.simulate_ns = 44;
  r.serialize_ns = 55;
  r.complete_ns = 66;
  r.total_ns = 11 + 22 + 33 + 44 + 55 + 66;
  const obs::Json j = r.to_json();
  EXPECT_EQ(j.at("schema_version").as_int(), kWireSchemaVersion);
  const Response back = Response::from_json(j);
  EXPECT_EQ(back.trace_id, r.trace_id);
  EXPECT_EQ(back.admission_ns, 11);
  EXPECT_EQ(back.queue_ns, 22);
  EXPECT_EQ(back.lookup_ns, 33);
  EXPECT_EQ(back.simulate_ns, 44);
  EXPECT_EQ(back.serialize_ns, 55);
  EXPECT_EQ(back.complete_ns, 66);
  EXPECT_EQ(back.total_ns, r.total_ns);
}

TEST(Wire, VersionOneResponsesStillParse) {
  // A version-1 record (pre-partition timing, no trace id): the fields
  // added in version 2 default to zero instead of throwing.
  obs::Json j = obs::Json::object();
  j.set("schema_version", 1);
  j.set("id", "old");
  j.set("error", error_code_name(ErrorCode::kCancelled));
  j.set("message", "cancelled");
  j.set("config_hash", "00000000000000ff");
  j.set("served_by", "");
  obs::Json t = obs::Json::object();
  t.set("queue_ns", 100);
  t.set("lookup_ns", 5);
  t.set("simulate_ns", 0);
  t.set("serialize_ns", 0);
  t.set("total_ns", 150);
  j.set("timing", std::move(t));
  const Response r = Response::from_json(j);
  EXPECT_EQ(r.error, ErrorCode::kCancelled);
  EXPECT_EQ(r.config_hash, 0xffu);
  EXPECT_EQ(r.trace_id, 0u);
  EXPECT_EQ(r.admission_ns, 0);
  EXPECT_EQ(r.complete_ns, 0);
  EXPECT_EQ(r.queue_ns, 100);
  EXPECT_EQ(r.total_ns, 150);
}

/// The DESIGN.md section 15 sum-to-total invariant for one response.
std::int64_t phase_sum(const Response& r) {
  return r.admission_ns + r.queue_ns + r.lookup_ns + r.simulate_ns +
         r.serialize_ns + r.complete_ns;
}

TEST(Server, SingleRequestPhasesPartitionTotalExactly) {
  ServerOptions opts;
  opts.workers = 1;
  Server server(opts);
  const Response r = server.submit(small_request("one")).wait();
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NE(r.trace_id, 0u) << "every request gets a trace";
  EXPECT_GT(r.total_ns, 0);
  EXPECT_EQ(phase_sum(r), r.total_ns)
      << "the six phases must partition the end-to-end latency";
  // Every phase is a non-negative interval of the boundary chain.
  for (const std::int64_t ns : {r.admission_ns, r.queue_ns, r.lookup_ns,
                                r.simulate_ns, r.serialize_ns, r.complete_ns}) {
    EXPECT_GE(ns, 0);
  }
  // The ok response fed all four latency histograms.
  EXPECT_EQ(server.queue_wait_hist().count(), 1u);
  EXPECT_EQ(server.execute_hist().count(), 1u);
  EXPECT_EQ(server.serialize_hist().count(), 1u);
  EXPECT_EQ(server.total_hist().count(), 1u);
  EXPECT_EQ(server.total_hist().sum_ns(), r.total_ns);
  // And the stats snapshot carries them under the telemetry names.
  const obs::Json stats = server.stats_json();
  EXPECT_EQ(stats.at("svc.latency.total").at("count").as_int(), 1);
}

// ---- The acceptance property: span trees partition latency. ----------------
//
// The ISSUE acceptance criterion, verbatim: under a randomized mix of
// duplicates, cancellations and tight deadlines at several worker
// counts, every response's six phases sum to its end-to-end latency
// exactly, and the span tree of every request -- recovered from the
// in-memory log, from the Chrome trace export, and from the JSONL event
// log -- partitions the root span exactly, with the root's duration
// equal to the response's total_ns.
TEST(ServerProperty, SpanTreesPartitionLatencyUnderRandomMix) {
  constexpr int kRequests = 32;
  constexpr int kUnique = 4;
  std::vector<tune::Candidate> configs(kUnique);
  for (int u = 0; u < kUnique; ++u) configs[u].unroll = 1 + u;

  for (const int workers : {1, 4}) {
    const std::string events_path =
        testing::TempDir() + "/svc_test_spans_" + std::to_string(workers) +
        ".jsonl";
    obs::EventLog events;
    events.open(events_path);
    ServerOptions opts;
    opts.workers = workers;
    opts.queue_cap = 8;
    opts.record_spans = true;
    opts.event_log = &events;
    std::vector<Response> responses;
    {
      Server server(opts);
      std::mt19937 rng(20260810);
      std::vector<JobHandle> handles;
      for (int i = 0; i < kRequests; ++i) {
        Request req;
        req.id = "span-" + std::to_string(i);
        req.config = configs[rng() % kUnique];
        req.n_molecules = kSmall;
        req.priority = static_cast<int>(rng() % 3);
        if (rng() % 8 == 0) req.timeout_ms = 1;
        handles.push_back(server.submit(req));
        if (rng() % 6 == 0) {
          server.cancel("span-" + std::to_string(rng() % (i + 1)));
        }
      }
      server.drain();
      for (const JobHandle& h : handles) responses.push_back(h.wait());

      // 1. Every response -- completed, cancelled, timed out or rejected
      //    -- partitions exactly.
      std::map<std::uint64_t, const Response*> by_trace;
      for (const Response& r : responses) {
        EXPECT_EQ(phase_sum(r), r.total_ns)
            << r.id << " (" << error_code_name(r.error) << ") at " << workers
            << " workers";
        EXPECT_NE(r.trace_id, 0u);
        by_trace[r.trace_id] = &r;
      }
      ASSERT_EQ(by_trace.size(), responses.size())
          << "trace ids must be unique per request";

      // One reusable checker for all three recovery paths.
      const auto check_trees = [&](const std::vector<obs::SpanRecord>& spans,
                                   const char* source) {
        std::map<std::uint64_t, std::vector<obs::SpanRecord>> traces;
        for (const obs::SpanRecord& s : spans) {
          traces[s.ctx.trace_id].push_back(s);
        }
        ASSERT_EQ(traces.size(), responses.size())
            << source << ": one trace per request at " << workers << " workers";
        for (const auto& [trace_id, tree] : traces) {
          std::string why;
          EXPECT_TRUE(obs::spans_partition_exactly(tree, &why))
              << source << ": " << why;
          ASSERT_EQ(tree.size(), 7u) << source << ": root + six phases";
          ASSERT_TRUE(by_trace.count(trace_id)) << source;
          const Response& r = *by_trace[trace_id];
          for (const obs::SpanRecord& s : tree) {
            if (s.ctx.parent_id != 0) continue;  // the root span
            EXPECT_EQ(s.duration_ns(), r.total_ns)
                << source << ": root span of " << r.id
                << " must cover exactly the end-to-end latency";
            EXPECT_EQ(s.arg, r.id) << source;
          }
        }
      };

      // 2. The in-memory span log.
      check_trees(server.spans().snapshot(), "span log");

      // 3. The Chrome trace export, parsed back from rendered JSON.
      obs::TraceSink sink;
      server.spans().append_chrome(&sink);
      const obs::Json chrome = obs::Json::parse(sink.chrome_json().dump(0));
      check_trees(obs::spans_from_chrome(chrome), "chrome trace");

      server.shutdown();
    }

    // 4. The JSONL event log, reloaded from disk after the server died.
    events.close();
    const obs::EventLogLoad load = obs::load_event_log(events_path);
    EXPECT_EQ(load.dropped, 0u);
    std::vector<obs::SpanRecord> from_log;
    for (const obs::Json& e : load.events) {
      if (e.at("type").as_string() == "span") {
        from_log.push_back(obs::span_from_json(e));
      }
    }
    std::map<std::uint64_t, std::vector<obs::SpanRecord>> traces;
    for (const obs::SpanRecord& s : from_log) {
      traces[s.ctx.trace_id].push_back(s);
    }
    EXPECT_EQ(traces.size(), responses.size())
        << "event log: one trace per request at " << workers << " workers";
    for (const auto& [trace_id, tree] : traces) {
      std::string why;
      EXPECT_TRUE(obs::spans_partition_exactly(tree, &why))
          << "event log: " << why;
    }
    std::remove(events_path.c_str());
  }
}

// ---- Histogram fidelity at load (satellite of DESIGN.md section 15). ------
//
// 1000+ requests through the real server: the four service histograms
// must agree with the exact sorted per-response latencies to within the
// documented kQuantileRelErr bound, at every headline quantile.
TEST(ServerProperty, HistogramQuantilesTrackExactSortedLatencies) {
  constexpr int kRequests = 1000;
  constexpr int kUnique = 6;
  std::vector<tune::Candidate> configs(kUnique);
  for (int u = 0; u < kUnique; ++u) configs[u].unroll = 1 + u;

  ServerOptions opts;
  opts.workers = 4;
  opts.queue_cap = kRequests;
  Server server(opts);
  std::vector<JobHandle> handles;
  handles.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.id = "load-" + std::to_string(i);
    req.config = configs[i % kUnique];
    req.n_molecules = kSmall;
    handles.push_back(server.submit(req));
  }
  server.drain();

  std::vector<std::int64_t> queue_wait, execute, serialize, total;
  for (const JobHandle& h : handles) {
    const Response& r = h.wait();
    ASSERT_TRUE(r.ok()) << r.id << ": " << r.message;
    ASSERT_EQ(phase_sum(r), r.total_ns) << r.id;
    queue_wait.push_back(r.queue_ns);
    execute.push_back(r.lookup_ns + r.simulate_ns);
    serialize.push_back(r.serialize_ns);
    total.push_back(r.total_ns);
  }

  const auto check = [](const obs::LatencyHistogram& h,
                        std::vector<std::int64_t> exact, const char* name) {
    ASSERT_EQ(h.count(), exact.size()) << name;
    std::sort(exact.begin(), exact.end());
    for (const double q : {0.50, 0.90, 0.95, 0.99}) {
      const auto rank = std::min<std::size_t>(
          exact.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(exact.size())));
      const double want = static_cast<double>(exact[rank]);
      const double got = h.quantile(q);
      EXPECT_LE(std::abs(got - want),
                std::max(1.0, want * obs::LatencyHistogram::kQuantileRelErr))
          << name << " p" << q * 100 << ": histogram " << got << " vs exact "
          << want;
    }
    EXPECT_EQ(h.max_ns(), exact.back()) << name;
  };
  check(server.queue_wait_hist(), queue_wait, "svc.latency.queue_wait");
  check(server.execute_hist(), execute, "svc.latency.execute");
  check(server.serialize_hist(), serialize, "svc.latency.serialize");
  check(server.total_hist(), total, "svc.latency.total");
}

// ---- Telemetry-name drift guard (DESIGN.md section 15 table). --------------
//
// The analogue of the analysis check-catalogue test: every metric the
// service and tracing layers emit must appear exactly once in the
// DESIGN.md telemetry table, and the table must not list names the code
// no longer emits.
TEST(Telemetry, EveryMetricAppearsExactlyOnceInDesignTable) {
  const std::string path = std::string(SMD_SOURCE_DIR) + "/DESIGN.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::map<std::string, int> seen;  // table-row metric names -> occurrences
  std::string line;
  while (std::getline(in, line)) {
    // Table rows of the form "| `svc.jobs.submitted` | counter | ... |".
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t close = line.find('`', 3);
    if (close == std::string::npos) continue;
    const std::string name = line.substr(3, close - 3);
    if (name.rfind("svc.", 0) != 0 && name.rfind("tune.", 0) != 0 &&
        name.rfind("obs.", 0) != 0) {
      continue;
    }
    ++seen[name];
  }
  for (const MetricInfo& m : known_metric_names()) {
    EXPECT_EQ(seen[m.name], 1)
        << m.name << " must appear exactly once in the DESIGN.md "
        << "telemetry table";
    seen.erase(m.name);
  }
  for (const auto& [name, n] : seen) {
    ADD_FAILURE() << "DESIGN.md telemetry table lists " << name << " (" << n
                  << "x) but svc::known_metric_names() does not";
  }
}

}  // namespace
}  // namespace smd::svc
