// Tests for the telemetry layer: the Json value type (dump/parse
// round-trips, escaping, error reporting), the counter/gauge registry with
// its RAII timers, the Chrome trace-event sink, and the DESIGN.md
// section 15 tracing surface -- the mergeable latency histogram (quantile
// error bound vs exact sorted samples), span trees and their partition
// checker, the crash-safe JSONL event log (rotation, torn-line
// tolerance), and the background stats exporter. The bench records and
// trace files every binary emits are built from exactly these pieces, so
// their invariants are pinned here.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/exporter.h"
#include "src/obs/json.h"
#include "src/obs/latency_histogram.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/trace_event.h"

namespace smd::obs {
namespace {

TEST(Json, ScalarDump) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, IntegersStayIntegers) {
  // 2^53-scale cycle counters must not pick up a ".0" or scientific
  // notation; doubles keep full precision via %.17g.
  EXPECT_EQ(Json(std::uint64_t{9007199254740993ULL}).dump(), "9007199254740992");
  EXPECT_EQ(Json(std::int64_t{123456789012345}).dump(), "123456789012345");
  const Json d = Json::parse("0.1");
  EXPECT_DOUBLE_EQ(d.as_double(), 0.1);
  EXPECT_DOUBLE_EQ(Json::parse(d.dump()).as_double(), 0.1);
}

TEST(Json, AsIntThrowsOutsideInt64) {
  EXPECT_EQ(Json(-0x1p63).as_int(), INT64_MIN);
  EXPECT_EQ(Json::parse("-7.9").as_int(), -7);
  EXPECT_THROW((void)Json(0x1p63).as_int(), std::out_of_range);
  EXPECT_THROW((void)Json::parse("1e30").as_int(), std::out_of_range);
  EXPECT_THROW((void)Json(std::nan("")).as_int(), std::out_of_range);
  EXPECT_THROW((void)Json(-INFINITY).as_int(), std::out_of_range);
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(INFINITY).dump(), "null");
}

TEST(Json, ObjectPreservesInsertionOrderAndSetReplaces) {
  Json j = Json::object();
  j.set("z", 1).set("a", 2).set("m", 3);
  EXPECT_EQ(j.dump(), "{\"z\":1,\"a\":2,\"m\":3}");
  j.set("a", 9);  // replace in place, order unchanged
  EXPECT_EQ(j.dump(), "{\"z\":1,\"a\":9,\"m\":3}");
  EXPECT_EQ(j.size(), 3u);
  EXPECT_TRUE(j.contains("m"));
  EXPECT_FALSE(j.contains("q"));
  EXPECT_EQ(j.at("a").as_int(), 9);
  EXPECT_THROW(j.at("q"), std::out_of_range);
}

TEST(Json, ArrayAccess) {
  Json a = Json::array();
  a.push_back(1).push_back("two").push_back(Json::object());
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.at(1).as_string(), "two");
  EXPECT_THROW(a.at(3), std::out_of_range);
}

TEST(Json, StringEscapes) {
  const std::string raw = "line\nquote\"back\\slash\ttab\x01";
  const Json j(raw);
  const std::string dumped = j.dump();
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
  EXPECT_NE(dumped.find("\\\""), std::string::npos);
  EXPECT_NE(dumped.find("\\\\"), std::string::npos);
  EXPECT_NE(dumped.find("\\t"), std::string::npos);
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
  EXPECT_EQ(Json::parse(dumped).as_string(), raw);
}

TEST(Json, ParseUnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");       // é
  EXPECT_EQ(Json::parse("\"\\u2603\"").as_string(), "\xe2\x98\x83");   // snowman
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, RoundTripNestedDocument) {
  Json doc = Json::object();
  doc.set("name", "fig7").set("ok", true).set("cycles", std::int64_t{1013265});
  Json arr = Json::array();
  for (int i = 0; i < 3; ++i) {
    Json row = Json::object();
    row.set("i", i).set("x", 0.25 * i).set("none", nullptr);
    arr.push_back(std::move(row));
  }
  doc.set("rows", std::move(arr));

  for (int indent : {0, 2}) {
    const Json back = Json::parse(doc.dump(indent));
    EXPECT_EQ(back.dump(), doc.dump()) << "indent=" << indent;
    EXPECT_EQ(back.at("rows").at(2).at("x").as_double(), 0.5);
    EXPECT_TRUE(back.at("rows").at(0).at("none").is_null());
  }
}

TEST(Json, ParseErrorsCarryOffset) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "1 2",
                          "\"\\u12\"", "{\"a\" 1}", "nul", "[1 2]"}) {
    EXPECT_THROW(Json::parse(bad), std::runtime_error) << bad;
  }
  try {
    Json::parse("[1, x]");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(Json, FileRoundTrip) {
  Json j = Json::object();
  j.set("k", 1);
  const std::string path = testing::TempDir() + "/obs_test_roundtrip.json";
  write_file(j, path);
  const Json back = load_file(path);
  EXPECT_EQ(back.dump(), j.dump());
  std::remove(path.c_str());
  EXPECT_THROW(load_file(path), std::runtime_error);
}

// ---- Structural diff (the bit-identity gates, DESIGN.md section 10). -----

TEST(JsonDiff, IdenticalTreesAndKeyOrderMatch) {
  const Json a = Json::parse(R"({"x":1,"y":[true,"s",null,2.5]})");
  const Json b = Json::parse(R"({"y":[true,"s",null,2.5],"x":1})");
  EXPECT_EQ(diff(a, a), "");
  EXPECT_EQ(diff(a, b), "");
}

TEST(JsonDiff, NamesMissingKeysOnEitherSide) {
  const Json a = Json::parse(R"({"run":{"cycles":5,"old":1}})");
  const Json b = Json::parse(R"({"run":{"cycles":5,"new":[1,2]}})");
  EXPECT_EQ(diff(a, b),
            "run.old: 1 vs missing; run.new: missing vs array[2]");
}

TEST(JsonDiff, NamesTypeChange) {
  const Json a = Json::parse(R"({"v":{"x":3},"w":"3"})");
  const Json b = Json::parse(R"({"v":[3],"w":3})");
  EXPECT_EQ(diff(a, b), "v: object{1} vs array[1]; w: \"3\" vs 3");
  EXPECT_EQ(diff(Json(1), Json("1")), "<root>: 1 vs \"1\"");
}

TEST(JsonDiff, ArrayLengthChangeThenCommonPrefix) {
  const Json a = Json::parse(R"({"iv":[{"label":"k"},{"label":"g"}]})");
  const Json b = Json::parse(R"({"iv":[{"label":"k"},{"label":"s"},{}]})");
  EXPECT_EQ(diff(a, b), "iv: length 2 vs 3; iv[1].label: \"g\" vs \"s\"");
}

TEST(JsonDiff, NumbersCompareByBitPattern) {
  EXPECT_EQ(diff(Json(0.0), Json(-0.0)), "<root>: 0 vs -0");
  EXPECT_EQ(diff(Json(std::nan("")), Json(std::nan(""))), "");
  EXPECT_EQ(diff(Json(std::int64_t{7}), Json(7.0)), "");
}

TEST(JsonDiff, CapsReportAtTwelveWithRemainderCount) {
  Json a = Json::object();
  Json b = Json::object();
  for (int i = 0; i < 15; ++i) {
    a.set("f" + std::to_string(i), i);
    b.set("f" + std::to_string(i), i + 1);
  }
  const std::string d = diff(a, b);
  EXPECT_EQ(d.rfind("f0: 0 vs 1; f1: 1 vs 2", 0), 0u) << d;
  EXPECT_NE(d.find("f11: 11 vs 12; ... (3 more)"), std::string::npos) << d;
  EXPECT_EQ(d.find("f12"), std::string::npos) << d;
}

TEST(Registry, CountersAndGauges) {
  CounterRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.add("sim.runs");
  reg.add("sim.runs");
  reg.add("mem.words", 128);
  reg.set_gauge("srf.peak", 4096.0);
  EXPECT_EQ(reg.counter("sim.runs"), 2);
  EXPECT_EQ(reg.counter("mem.words"), 128);
  EXPECT_EQ(reg.counter("missing"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge("srf.peak"), 4096.0);
  EXPECT_DOUBLE_EQ(reg.gauge("missing"), 0.0);

  const Json j = reg.to_json();
  EXPECT_EQ(j.at("counters").at("sim.runs").as_int(), 2);
  EXPECT_DOUBLE_EQ(j.at("gauges").at("srf.peak").as_double(), 4096.0);

  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(Registry, ScopedTimerAccumulates) {
  CounterRegistry reg;
  for (int i = 0; i < 3; ++i) {
    ScopedTimer t(reg, "phase");
  }
  EXPECT_EQ(reg.counter("phase.calls"), 3);
  EXPECT_GE(reg.gauge("phase.seconds"), 0.0);
}

TEST(Registry, GlobalIsAProcessSingleton) {
  CounterRegistry::global().add("obs_test.probe", 5);
  EXPECT_GE(CounterRegistry::global().counter("obs_test.probe"), 5);
}

// The registry is written from parallel tuner workers; run this suite under
// the `tsan` preset to prove the locking (ROADMAP: thread-safe telemetry).
TEST(Registry, ConcurrentAddsAreLossFree) {
  CounterRegistry reg;
  constexpr int kThreads = 8, kAdds = 2000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg] {
      for (int i = 0; i < kAdds; ++i) {
        reg.add("shared.hits");
        reg.set_gauge("shared.peak", static_cast<double>(i));
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(reg.counter("shared.hits"), kThreads * kAdds);
}

TEST(Registry, RedirectShardsThenMergeMatchesSerial) {
  // Workers write through CounterRegistry::global() while a
  // ScopedRegistryRedirect points it at a per-thread shard; merging the
  // shards afterwards must equal one thread doing all the work, regardless
  // of merge order (merge is commutative: counters and .seconds gauges add,
  // other gauges take the max).
  constexpr int kThreads = 4, kAdds = 500;
  std::vector<CounterRegistry> shards(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&shards, t] {
      ScopedRegistryRedirect redirect(shards[static_cast<std::size_t>(t)]);
      for (int i = 0; i < kAdds; ++i) {
        CounterRegistry::global().add("worker.ops");
      }
      CounterRegistry::global().set_gauge("worker.rank", static_cast<double>(t));
      CounterRegistry::global().set_gauge("worker.seconds", 0.25);
    });
  }
  for (auto& th : pool) th.join();

  CounterRegistry forward, backward;
  for (int t = 0; t < kThreads; ++t) {
    forward.merge(shards[static_cast<std::size_t>(t)]);
    backward.merge(shards[static_cast<std::size_t>(kThreads - 1 - t)]);
  }
  EXPECT_EQ(forward.counter("worker.ops"), kThreads * kAdds);
  EXPECT_DOUBLE_EQ(forward.gauge("worker.rank"), kThreads - 1.0);  // max
  EXPECT_DOUBLE_EQ(forward.gauge("worker.seconds"), 0.25 * kThreads);  // sum
  EXPECT_EQ(forward.to_json().dump(), backward.to_json().dump());

  // The redirect was scoped: none of it leaked into the process registry.
  EXPECT_EQ(CounterRegistry::process().counter("worker.ops"), 0);
}

TEST(TraceSink, ChromeJsonParsesBack) {
  TraceSink sink;
  sink.set_process_name(0, "variant variable");
  sink.set_track_name(0, 0, "clusters (kernel)");
  sink.set_track_name(0, 1, "memory (SDR 0)");
  sink.add({"kernel interact", "kernel", 0, 0, 1000, 250, {}});
  sink.add({"gather s3", "memory", 0, 1, 500, 900, {}});
  EXPECT_EQ(sink.size(), 2u);

  const Json doc = Json::parse(sink.chrome_json().dump(2));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ns");
  // Trace files carry the same schema versioning as --json bench records.
  EXPECT_EQ(doc.at("schema_version").as_int(), kTraceSchemaVersion);
  const Json& evs = doc.at("traceEvents");
  int n_meta = 0, n_slices = 0;
  for (const Json& e : evs.elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      ++n_meta;
      EXPECT_TRUE(e.at("name").as_string() == "process_name" ||
                  e.at("name").as_string() == "thread_name");
      EXPECT_TRUE(e.at("args").contains("name"));
    } else {
      ASSERT_EQ(ph, "X");
      ++n_slices;
      EXPECT_TRUE(e.contains("ts"));
      EXPECT_TRUE(e.contains("dur"));
    }
  }
  EXPECT_EQ(n_meta, 3);
  EXPECT_EQ(n_slices, 2);

  // ts/dur are microseconds: the 1000 ns kernel slice starts at 1 us.
  for (const Json& e : evs.elements()) {
    if (e.at("ph").as_string() == "X" && e.at("cat").as_string() == "kernel") {
      EXPECT_DOUBLE_EQ(e.at("ts").as_double(), 1.0);
      EXPECT_DOUBLE_EQ(e.at("dur").as_double(), 0.25);
    }
  }
}

TEST(TraceSink, MergeCombinesEventsAndDedupesTrackNames) {
  TraceSink a, b;
  a.set_process_name(0, "run");
  a.set_track_name(0, 0, "clusters (kernel)");
  a.add({"kernel k", "kernel", 0, 0, 0, 100, {}});
  b.set_process_name(0, "run");             // same key: must not duplicate
  b.set_track_name(0, 0, "clusters (kernel)");
  b.set_track_name(0, 1, "memory (SDR 0)");
  b.add({"load s0", "memory", 0, 1, 50, 80, {}});
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  int n_meta = 0;
  const Json doc = a.chrome_json();
  for (const Json& e : doc.at("traceEvents").elements()) {
    if (e.at("ph").as_string() == "M") ++n_meta;
  }
  EXPECT_EQ(n_meta, 3);  // one process_name + two thread_names, no dupes
}

// Parallel tuner workers each trace into a private sink while their
// counters go through a ScopedRegistryRedirect shard; folding the shards
// into the process sink afterwards must land every worker's events exactly
// once, whatever the merge order. Run under the `tsan` preset to prove the
// shards really are thread-confined.
TEST(TraceSink, WorkerShardEventsLandExactlyOnceAfterMerge) {
  constexpr int kThreads = 4, kEvents = 50;
  std::vector<TraceSink> sinks(kThreads);
  std::vector<CounterRegistry> regs(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&sinks, &regs, t] {
      ScopedRegistryRedirect redirect(regs[static_cast<std::size_t>(t)]);
      TraceSink& sink = sinks[static_cast<std::size_t>(t)];
      sink.set_process_name(t, "worker " + std::to_string(t));
      for (int i = 0; i < kEvents; ++i) {
        sink.add({"ev " + std::to_string(t) + "." + std::to_string(i),
                  "kernel", t, 0, static_cast<std::uint64_t>(i) * 10, 10, {}});
        CounterRegistry::global().add("trace.events");
      }
    });
  }
  for (auto& th : pool) th.join();

  TraceSink forward, backward;
  CounterRegistry counters;
  for (int t = 0; t < kThreads; ++t) {
    forward.merge(sinks[static_cast<std::size_t>(t)]);
    backward.merge(sinks[static_cast<std::size_t>(kThreads - 1 - t)]);
    counters.merge(regs[static_cast<std::size_t>(t)]);
  }
  ASSERT_EQ(forward.size(), kThreads * kEvents);
  ASSERT_EQ(backward.size(), kThreads * kEvents);
  // The sinks and the counter shards agree on the event count.
  EXPECT_EQ(counters.counter("trace.events"),
            static_cast<std::int64_t>(forward.size()));
  // Every (name) is distinct, so exactly-once is checkable by uniqueness.
  std::vector<std::string> names;
  for (const TraceEvent& e : forward.events()) names.push_back(e.name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  // Merge order changes event interleaving but not the slice multiset:
  // both orders serialize the same number of slices and metadata records.
  EXPECT_EQ(forward.chrome_json().at("traceEvents").size(),
            backward.chrome_json().at("traceEvents").size());
}

// Timer snapshot consistency under concurrency: add_seconds updates the
// `<name>.seconds` gauge and the `<name>.calls` counter under one lock,
// so any snapshot (to_json takes the same lock) observes them in
// agreement -- calls x 1.0s each means the two values are equal at every
// instant. The svc server's per-phase timers rely on this.
TEST(Registry, ThreadedTimerSnapshotsAreConsistent) {
  CounterRegistry reg;
  constexpr int kWriters = 4;
  constexpr int kAddsPerWriter = 400;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&reg] {
      for (int i = 0; i < kAddsPerWriter; ++i) {
        reg.add_seconds("svc.phase.test", 1.0);
      }
    });
  }
  int snapshots = 0;
  while (reg.counter("svc.phase.test.calls") < kWriters * kAddsPerWriter) {
    const Json snap = reg.to_json();
    const Json* calls = snap.at("counters").find("svc.phase.test.calls");
    const Json* secs = snap.at("gauges").find("svc.phase.test.seconds");
    const std::int64_t n = calls == nullptr ? 0 : calls->as_int();
    const double s = secs == nullptr ? 0.0 : secs->as_double();
    EXPECT_DOUBLE_EQ(s, static_cast<double>(n))
        << "snapshot " << snapshots << " tore a timer update apart";
    ++snapshots;
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(reg.counter("svc.phase.test.calls"), kWriters * kAddsPerWriter);
  EXPECT_DOUBLE_EQ(reg.gauge("svc.phase.test.seconds"),
                   static_cast<double>(kWriters * kAddsPerWriter));
}

TEST(TraceSink, WriteProducesLoadableFile) {
  TraceSink sink;
  sink.add({"op", "memory", 0, 1, 0, 10, {}});
  const std::string path = testing::TempDir() + "/obs_test_trace.json";
  sink.write(path);
  const Json doc = load_file(path);
  EXPECT_EQ(doc.at("traceEvents").size(), 1u);
  std::remove(path.c_str());
}

// ---- LatencyHistogram (DESIGN.md section 15). -----------------------------

TEST(LatencyHistogram, BucketGeometryIsContiguousAndConsistent) {
  // The scheme is fixed: every value lands in the bucket whose [lo, hi)
  // range contains it, consecutive buckets tile the axis with no gap or
  // overlap, and log buckets of octave [2^m, 2^(m+1)) are 2^(m-5) wide.
  for (std::size_t i = 0; i < 64 + 32 * 20; ++i) {
    const std::uint64_t lo = LatencyHistogram::bucket_lo(i);
    const std::uint64_t hi = LatencyHistogram::bucket_hi(i);
    ASSERT_LT(lo, hi) << "bucket " << i;
    EXPECT_EQ(LatencyHistogram::bucket_hi(i), LatencyHistogram::bucket_lo(i + 1))
        << "gap/overlap at bucket " << i;
    EXPECT_EQ(LatencyHistogram::bucket_index(lo), i);
    EXPECT_EQ(LatencyHistogram::bucket_index(hi - 1), i);
    if (i < 64) {
      EXPECT_EQ(hi - lo, 1u) << "linear bucket " << i << " must be 1 ns";
    } else {
      // Width 2^(m-5): at most a 1/32 slice of the value, so the midpoint
      // is within 1/64 of any member -- the kQuantileRelErr bound.
      EXPECT_LE(static_cast<double>(hi - lo), static_cast<double>(lo) / 32.0)
          << "bucket " << i;
    }
  }
  // Spot checks across magnitudes, including the linear/log seam.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{63},
        std::uint64_t{64}, std::uint64_t{65}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{1000}, std::uint64_t{123456789},
        std::uint64_t{1} << 40}) {
    const std::size_t i = LatencyHistogram::bucket_index(v);
    EXPECT_LE(LatencyHistogram::bucket_lo(i), v);
    EXPECT_LT(v, LatencyHistogram::bucket_hi(i));
  }
}

TEST(LatencyHistogram, EmptyNegativeAndExactSmallValues) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min_ns(), 0);
  EXPECT_EQ(h.max_ns(), 0);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);

  h.record(-17);  // clamps to 0
  h.record(3);
  h.record(3);
  h.record(7);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min_ns(), 0);
  EXPECT_EQ(h.max_ns(), 7);
  EXPECT_EQ(h.sum_ns(), 13);
  // Below 64 ns the histogram is exact: quantiles are the true order
  // statistics at rank floor(q*n).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.0);
}

/// Exact sorted quantile with the histogram's rank convention.
double exact_quantile(std::vector<std::int64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto n = sorted.size();
  const auto rank = std::min<std::size_t>(
      n - 1, static_cast<std::size_t>(q * static_cast<double>(n)));
  return static_cast<double>(sorted[rank]);
}

TEST(LatencyHistogram, QuantilesWithinDocumentedBoundOfExactSorted) {
  // Randomized property check of the kQuantileRelErr = 1/64 bound,
  // against samples spanning nine decades (the service sees ns-scale
  // serialize phases next to ms-scale simulations).
  std::mt19937_64 rng(20260809);
  std::uniform_real_distribution<double> mag(0.0, 9.0);
  LatencyHistogram h;
  std::vector<std::int64_t> samples;
  for (int i = 0; i < 5000; ++i) {
    const auto v = static_cast<std::int64_t>(std::pow(10.0, mag(rng)));
    samples.push_back(v);
    h.record(v);
  }
  ASSERT_EQ(h.count(), samples.size());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const double exact = exact_quantile(samples, q);
    const double est = h.quantile(q);
    EXPECT_LE(std::abs(est - exact),
              std::max(1.0, exact * LatencyHistogram::kQuantileRelErr))
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(LatencyHistogram, MergeIsExactAndOrderIndependent) {
  // Same global scheme everywhere => merge is bucket-wise addition:
  // merging shards must be byte-identical to one histogram fed the union,
  // in either merge order.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::int64_t> dist(0, 1 << 20);
  LatencyHistogram a, b, all;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = dist(rng);
    (i % 3 == 0 ? a : b).record(v);
    all.record(v);
  }
  LatencyHistogram ab(a), ba(b);
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.to_json().dump(), all.to_json().dump());
  EXPECT_EQ(ba.to_json().dump(), all.to_json().dump());

  // Self-merge doubles every statistic instead of deadlocking.
  LatencyHistogram self;
  self.record(100);
  self.record(200);
  self.merge(self);
  EXPECT_EQ(self.count(), 4u);
  EXPECT_EQ(self.sum_ns(), 600);

  // Merging an empty histogram is the identity.
  LatencyHistogram empty;
  LatencyHistogram copy(all);
  copy.merge(empty);
  EXPECT_EQ(copy.to_json().dump(), all.to_json().dump());
}

TEST(LatencyHistogram, JsonRoundTripsByteIdentically) {
  LatencyHistogram h;
  for (const std::int64_t v : {0, 1, 63, 64, 999, 123456, 98765432}) {
    h.record(v);
  }
  const Json j = h.to_json();
  EXPECT_EQ(j.at("scheme").as_string(), LatencyHistogram::kScheme);
  const LatencyHistogram back = LatencyHistogram::from_json(j);
  EXPECT_EQ(back.to_json().dump(), j.dump());
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.min_ns(), h.min_ns());
  EXPECT_EQ(back.max_ns(), h.max_ns());
  EXPECT_DOUBLE_EQ(back.quantile(0.5), h.quantile(0.5));

  // Unknown scheme and count/bucket disagreement are load errors.
  Json bad_scheme = h.to_json();
  bad_scheme.set("scheme", "us-linear");
  EXPECT_THROW(LatencyHistogram::from_json(bad_scheme), std::runtime_error);
  Json bad_count = h.to_json();
  bad_count.set("count", 999);
  EXPECT_THROW(LatencyHistogram::from_json(bad_count), std::runtime_error);
}

// Server workers record into the shared histograms concurrently; run
// under the `tsan` preset to prove the locking.
TEST(LatencyHistogram, ConcurrentRecordsAreLossFree) {
  LatencyHistogram h;
  constexpr int kThreads = 8, kRecords = 2000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) {
        h.record(t * kRecords + i);
        if (i % 64 == 0) {
          // Concurrent snapshots must see internally consistent state.
          const LatencyHistogram snap(h);
          const Json j = snap.to_json();
          std::uint64_t total = 0;
          for (const Json& pair : j.at("buckets").elements()) {
            total += static_cast<std::uint64_t>(pair.at(1).as_int());
          }
          EXPECT_EQ(total, snap.count());
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(h.count(), kThreads * kRecords);
}

TEST(LatencyHistogram, CopyAndAssignSnapshotConsistently) {
  LatencyHistogram h;
  h.record(10);
  h.record(1000);
  const LatencyHistogram copy(h);
  EXPECT_EQ(copy.to_json().dump(), h.to_json().dump());
  LatencyHistogram assigned;
  assigned.record(5);  // overwritten
  assigned = h;
  EXPECT_EQ(assigned.to_json().dump(), h.to_json().dump());
  assigned = assigned;  // self-assignment is a no-op
  EXPECT_EQ(assigned.count(), 2u);
}

// ---- Spans (DESIGN.md section 15). ----------------------------------------

TEST(Span, LogHandsOutFreshIds) {
  SpanLog log;
  const SpanContext root = log.make_root();
  EXPECT_NE(root.trace_id, 0u);
  EXPECT_NE(root.span_id, 0u);
  EXPECT_EQ(root.parent_id, 0u);
  const SpanContext child = log.make_child(root);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.parent_id, root.span_id);
  EXPECT_NE(child.span_id, root.span_id);
  const SpanContext root2 = log.make_root();
  EXPECT_NE(root2.trace_id, root.trace_id);
}

TEST(Span, JsonRoundTrip) {
  SpanRecord rec;
  rec.ctx = {0xdeadbeefcafef00dULL, 42, 7};
  rec.name = "simulate";
  rec.category = "svc.phase";
  rec.arg = "job-3";
  rec.start_ns = 123456789;
  rec.end_ns = 987654321;
  const Json j = span_json(rec);
  EXPECT_EQ(j.at("type").as_string(), "span");
  EXPECT_EQ(j.at("trace").as_string(), "deadbeefcafef00d");
  const SpanRecord back = span_from_json(j);
  EXPECT_EQ(back.ctx.trace_id, rec.ctx.trace_id);
  EXPECT_EQ(back.ctx.span_id, rec.ctx.span_id);
  EXPECT_EQ(back.ctx.parent_id, rec.ctx.parent_id);
  EXPECT_EQ(back.name, rec.name);
  EXPECT_EQ(back.category, rec.category);
  EXPECT_EQ(back.arg, rec.arg);
  EXPECT_EQ(back.start_ns, rec.start_ns);
  EXPECT_EQ(back.end_ns, rec.end_ns);
  // And byte-identically through a second render.
  EXPECT_EQ(span_json(back).dump(), j.dump());

  EXPECT_THROW(span_from_json(Json::object()), std::runtime_error);
}

/// A three-phase trace whose children tile the root exactly.
std::vector<SpanRecord> tiled_trace(SpanLog& log, std::int64_t t0,
                                    const std::string& arg) {
  const SpanContext root_ctx = log.make_root();
  std::vector<SpanRecord> spans;
  spans.push_back({root_ctx, "request", "svc", arg, t0, t0 + 600});
  const char* names[] = {"alpha", "beta", "gamma"};
  const std::int64_t cuts[] = {0, 100, 350, 600};
  for (int i = 0; i < 3; ++i) {
    spans.push_back({log.make_child(root_ctx), names[i], "svc.phase", "",
                     t0 + cuts[i], t0 + cuts[i + 1]});
  }
  return spans;
}

TEST(Span, ChromeExportRoundTripsExactly) {
  // Spans survive the trip through the (microsecond-double) Chrome trace
  // because the exact ns timestamps and ids ride in the slice args.
  SpanLog log;
  for (const SpanRecord& rec : tiled_trace(log, 1000, "job-0")) {
    log.record(rec);
  }
  for (const SpanRecord& rec : tiled_trace(log, 2500, "job-1")) {
    log.record(rec);
  }
  TraceSink sink;
  // A non-span slice in the same sink must not confuse the reader.
  sink.add({"kernel interact", "kernel", 0, 0, 0, 10, {}});
  log.append_chrome(&sink);

  const Json doc = Json::parse(sink.chrome_json().dump(2));
  const std::vector<SpanRecord> back = spans_from_chrome(doc);
  const std::vector<SpanRecord> orig = log.snapshot();
  ASSERT_EQ(back.size(), orig.size());
  std::map<std::uint64_t, const SpanRecord*> by_span;
  for (const SpanRecord& rec : back) by_span[rec.ctx.span_id] = &rec;
  for (const SpanRecord& rec : orig) {
    ASSERT_TRUE(by_span.count(rec.ctx.span_id)) << rec.name;
    const SpanRecord& b = *by_span[rec.ctx.span_id];
    EXPECT_EQ(b.ctx.trace_id, rec.ctx.trace_id);
    EXPECT_EQ(b.ctx.parent_id, rec.ctx.parent_id);
    EXPECT_EQ(b.name, rec.name);
    EXPECT_EQ(b.start_ns, rec.start_ns) << rec.name;
    EXPECT_EQ(b.end_ns, rec.end_ns) << rec.name;
    EXPECT_EQ(b.arg, rec.arg);
  }
  // Both reconstructed traces still partition exactly.
  std::map<std::uint64_t, std::vector<SpanRecord>> traces;
  for (const SpanRecord& rec : back) traces[rec.ctx.trace_id].push_back(rec);
  ASSERT_EQ(traces.size(), 2u);
  for (const auto& [trace_id, spans] : traces) {
    std::string why;
    EXPECT_TRUE(spans_partition_exactly(spans, &why)) << why;
  }
}

TEST(Span, PartitionCheckerRejectsBrokenTrees) {
  SpanLog log;
  std::string why;

  std::vector<SpanRecord> good = tiled_trace(log, 0, "ok");
  EXPECT_TRUE(spans_partition_exactly(good, &why)) << why;

  {  // Gap: second child starts after the first ends.
    std::vector<SpanRecord> t = tiled_trace(log, 0, "gap");
    t[2].start_ns += 10;
    EXPECT_FALSE(spans_partition_exactly(t, &why));
    EXPECT_FALSE(why.empty());
  }
  {  // Overlap: second child starts before the first ends.
    std::vector<SpanRecord> t = tiled_trace(log, 0, "overlap");
    t[2].start_ns -= 10;
    EXPECT_FALSE(spans_partition_exactly(t, nullptr));
  }
  {  // Last child falls short of the root's end.
    std::vector<SpanRecord> t = tiled_trace(log, 0, "short");
    t[3].end_ns -= 10;
    EXPECT_FALSE(spans_partition_exactly(t, &why));
  }
  {  // First child misses the root's start.
    std::vector<SpanRecord> t = tiled_trace(log, 0, "late");
    t[1].start_ns += 10;
    EXPECT_FALSE(spans_partition_exactly(t, &why));
  }
  {  // Two roots in one trace.
    std::vector<SpanRecord> t = tiled_trace(log, 0, "tworoots");
    SpanRecord extra = t[0];
    extra.ctx.span_id += 1000;
    t.push_back(extra);
    EXPECT_FALSE(spans_partition_exactly(t, &why));
  }
  {  // No root at all.
    std::vector<SpanRecord> t = tiled_trace(log, 0, "noroot");
    t.erase(t.begin());
    EXPECT_FALSE(spans_partition_exactly(t, &why));
  }
  // Order independence: shuffling the good trace must not matter.
  std::mt19937 rng(11);
  std::shuffle(good.begin(), good.end(), rng);
  EXPECT_TRUE(spans_partition_exactly(good, &why)) << why;
}

// ---- Event log (DESIGN.md section 15). ------------------------------------

Json event(const std::string& kind, int i) {
  Json j = Json::object();
  j.set("type", kind).set("i", i);
  return j;
}

TEST(EventLog, AppendReloadAndCounters) {
  const std::string path = testing::TempDir() + "/obs_test_events.jsonl";
  const std::int64_t appended0 =
      CounterRegistry::process().counter("obs.events.appended");
  {
    EventLog log;
    EXPECT_FALSE(log.enabled());
    log.append(event("noop", 0));  // no-op before open
    log.open(path);
    EXPECT_TRUE(log.enabled());
    for (int i = 0; i < 5; ++i) log.append(event("probe", i));
  }  // destructor closes
  const EventLogLoad load = load_event_log(path);
  EXPECT_EQ(load.dropped, 0u);
  ASSERT_EQ(load.events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(load.events[static_cast<std::size_t>(i)].at("i").as_int(), i);
  }
  EXPECT_EQ(CounterRegistry::process().counter("obs.events.appended"),
            appended0 + 5);

  // A missing file is an empty log, never a throw.
  std::remove(path.c_str());
  const EventLogLoad missing = load_event_log(path);
  EXPECT_TRUE(missing.events.empty());
  EXPECT_EQ(missing.dropped, 0u);
}

TEST(EventLog, TornFinalLineIsDroppedAndCounted) {
  // A crash can tear at most the flushed-per-line final record; the
  // tolerant reader must keep everything before it and count the loss
  // (same warm-start policy as tune.cache.load_corrupt).
  const std::string path = testing::TempDir() + "/obs_test_torn.jsonl";
  {
    EventLog log;
    log.open(path);
    for (int i = 0; i < 3; ++i) log.append(event("probe", i));
  }
  {
    std::ofstream os(path, std::ios::app | std::ios::binary);
    os << "{\"type\":\"probe\",\"i\":3";  // torn mid-write, no newline
  }
  const std::int64_t torn0 =
      CounterRegistry::process().counter("obs.events.load_torn");
  const EventLogLoad load = load_event_log(path);
  EXPECT_EQ(load.events.size(), 3u);
  EXPECT_EQ(load.dropped, 1u);
  EXPECT_EQ(CounterRegistry::process().counter("obs.events.load_torn"),
            torn0 + 1);
  std::remove(path.c_str());
}

TEST(EventLog, RotationArchivesEveryEventExactlyOnce) {
  const std::string path = testing::TempDir() + "/obs_test_rotate.jsonl";
  EventLog log;
  // The archive holds the most recent finished segment, so size the
  // budget for exactly one rotation: 40 events total ~950 bytes crosses
  // the 600-byte line once, and the remainder (< 350 bytes) cannot cross
  // it again.
  log.open(path, 600);
  std::remove(log.archive_path().c_str());
  const std::int64_t rotated0 =
      CounterRegistry::process().counter("obs.events.rotated");
  constexpr int kEvents = 40;
  for (int i = 0; i < kEvents; ++i) log.append(event("probe", i));
  log.close();
  EXPECT_EQ(CounterRegistry::process().counter("obs.events.rotated"),
            rotated0 + 1);

  // The archive is one complete JSON array document (written atomically),
  // the live file holds the most recent segment; between them every event
  // index appears, in order, with the archive holding the older ones.
  const Json archive = load_file(log.archive_path());
  EXPECT_GT(archive.size(), 0u);
  const EventLogLoad live = load_event_log(path);
  EXPECT_EQ(live.dropped, 0u);
  std::vector<std::int64_t> live_idx;
  for (const Json& e : live.events) live_idx.push_back(e.at("i").as_int());
  // The live segment is the tail: it ends at the last appended event.
  ASSERT_FALSE(live_idx.empty());
  EXPECT_EQ(live_idx.back(), kEvents - 1);
  // Rotation is at-least-once (a crash between archive and restart may
  // duplicate), but in-process it is exact: archive + live == appended.
  std::vector<std::int64_t> all;
  for (const Json& e : archive.elements()) all.push_back(e.at("i").as_int());
  all.insert(all.end(), live_idx.begin(), live_idx.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);

  std::remove(path.c_str());
  std::remove(log.archive_path().c_str());
}

TEST(EventLog, OpenFailureThrows) {
  EventLog log;
  EXPECT_THROW(log.open(testing::TempDir() + "/no_such_dir_xyz/events.jsonl"),
               std::runtime_error);
  EXPECT_FALSE(log.enabled());
}

// ---- write_file_atomic failure paths. -------------------------------------

TEST(WriteFileAtomic, UnwritableDirectoryThrowsAndLeavesNoTemp) {
  Json j = Json::object();
  j.set("k", 1);
  const std::string path = testing::TempDir() + "/no_such_dir_xyz/out.json";
  EXPECT_THROW(write_file_atomic(j, path), std::runtime_error);
  // Neither the target nor a stray temp file may exist afterwards.
  EXPECT_THROW(load_file(path), std::runtime_error);
  EXPECT_THROW(load_file(path + ".tmp"), std::runtime_error);
}

TEST(WriteFileAtomic, ReplacesExistingTargetAtomically) {
  const std::string path = testing::TempDir() + "/obs_test_atomic.json";
  Json v1 = Json::object();
  v1.set("gen", 1);
  write_file(v1, path);  // rename target already exists
  Json v2 = Json::object();
  v2.set("gen", 2);
  write_file_atomic(v2, path);
  EXPECT_EQ(load_file(path).at("gen").as_int(), 2);
  // The temp file was consumed by the rename.
  EXPECT_THROW(load_file(path + ".tmp"), std::runtime_error);
  std::remove(path.c_str());
}

// ---- Stats exporter (DESIGN.md section 15). -------------------------------

TEST(StatsExporter, StopEmitsFinalSnapshotToFile) {
  // Even a run far shorter than the interval produces one snapshot: the
  // one-shot --stats path of smdserve is exactly start() + stop().
  const std::string path = testing::TempDir() + "/obs_test_stats.json";
  CounterRegistry::process().add("obs_test.exporter_probe", 3);
  StatsExporter exp;
  EXPECT_FALSE(exp.running());
  StatsExporter::Options opts;
  opts.interval_ms = 1'000'000;
  opts.path = path;
  opts.extra = [] {
    Json e = Json::object();
    e.set("probe", true);
    return e;
  };
  exp.start(opts);
  EXPECT_TRUE(exp.running());
  exp.stop();
  exp.stop();  // idempotent
  EXPECT_FALSE(exp.running());
  EXPECT_GE(exp.snapshots(), 1u);

  const Json snap = load_file(path);
  EXPECT_EQ(snap.at("type").as_string(), "stats");
  EXPECT_TRUE(snap.contains("seq"));
  EXPECT_TRUE(snap.contains("uptime_ms"));
  EXPECT_GE(snap.at("registry").at("counters").at("obs_test.exporter_probe")
                .as_int(),
            3);
  EXPECT_TRUE(snap.at("extra").at("probe").as_bool());
  std::remove(path.c_str());
}

TEST(StatsExporter, PeriodicSnapshotsLandInEventLog) {
  const std::string path = testing::TempDir() + "/obs_test_stats.jsonl";
  EventLog log;
  log.open(path);
  StatsExporter exp;
  StatsExporter::Options opts;
  opts.interval_ms = 5;
  opts.event_log = &log;
  exp.start(opts);
  // Wait for the cadence to prove itself rather than sleeping blind.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (exp.snapshots() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  exp.stop();
  log.close();
  const std::uint64_t emitted = exp.snapshots();
  ASSERT_GE(emitted, 3u);

  const EventLogLoad load = load_event_log(path);
  EXPECT_EQ(load.dropped, 0u);
  std::vector<std::int64_t> seqs;
  for (const Json& e : load.events) {
    if (e.at("type").as_string() == "stats") seqs.push_back(e.at("seq").as_int());
  }
  ASSERT_EQ(seqs.size(), emitted);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], static_cast<std::int64_t>(i));  // gap-free sequence
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace smd::obs
