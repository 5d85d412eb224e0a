// bds_perfbench: the repository benchmark runner.
//
//   bds_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--short] [--corrupt] [--bdsd PATH]
//   bds_perfbench --self-test
//
// Workloads: flow_datapath, flow_control, verify_cec, daemon_mix (see
// perfbench/README.md). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, the metrics as
// name: value for everything the run measured. perfbench/run.py keeps the
// ones BENCHMARK.json declares, with their units: with --trace 0 the
// end-to-end ones, with --trace 1 the per-layer ones.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "oracle.hpp"

namespace perfbench {

namespace {

// Hand-written 2-bit adder: the oracle's own check of its BLIF reader
// (OFF-set cubes, continuation lines), evaluator and adder reference.
constexpr const char* kAdd2 = R"(.model add2
.inputs a0 a1 \
 b0 b1
.outputs s0 s1 cout
.names a0 b0 s0
00 0
11 0
.names a0 b0 c0
11 1
.names a1 b1 c0 s1
100 1
010 1
001 1
111 1
.names a1 b1 c0 cout
11- 1
1-1 1
-11 1
.end
)";

/// Returns 0 when the oracle accepts the adder, rejects a corrupted copy
/// and a carry-less copy, and sees every single-cube mutation it makes.
int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  const auto accepts = [](const std::string& text) {
    try {
      check_against_spec(parse_blif(text), adder_spec(2), 7, 64);
      return true;
    } catch (const OracleError&) {
      return false;
    }
  };
  const std::string add2 = kAdd2;
  expect(accepts(add2), "2-bit adder matches the adder reference");
  expect(!accepts(complement_first_output(add2)),
         "complemented output is rejected");
  std::string no_carry = add2;
  no_carry.replace(no_carry.find("11 1\n.names a1"), 4, "10 1");
  expect(!accepts(no_carry), "adder with a wrong carry is rejected");
  const Blif ref = parse_blif(add2);
  const Blif bad = parse_blif(no_carry);
  const Vectors all = make_vectors(ref.inputs, 1, 0);
  expect(first_difference(ref, ref, all) < 0, "a netlist equals itself");
  expect(first_difference(ref, bad, all) == 1,
         "the first output the wrong carry reaches (s1) is located");
  bool threw = false;
  try {
    parse_blif(".model x\n.inputs a\n.outputs y\n.names a y\n1 1\n"
               ".names a y\n0 1\n.end\n");
  } catch (const OracleError&) {
    threw = true;
  }
  expect(threw, "a doubly driven signal is rejected");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: bds_perfbench --workload flow_datapath|flow_control|"
               "verify_cec|daemon_mix --seed N --seconds S --trace 0|1 "
               "[--short] [--corrupt] [--bdsd PATH]\n"
               "       bds_perfbench --self-test\n";
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Turns a value that is not finite into 0 and marks the run incorrect
/// (JSON has no NaN or infinity).
void check_finite(Result& r) {
  for (Metric& m : r.metrics) {
    if (std::isfinite(m.value)) continue;
    std::cerr << "perfbench: metric " << m.name << " is not finite\n";
    r.correct = false;
    m.value = 0.0;
  }
}

}  // namespace

void Result::fail(const std::string& why) {
  ++failed;
  if (failed <= 10) std::cerr << "perfbench: operation failed: " << why << "\n";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void add_setup_metric(Result& r, const std::vector<double>& setup_seconds) {
  std::cerr << "perfbench: set-up repetitions [s]:";
  for (const double s : setup_seconds) std::cerr << ' ' << s;
  std::cerr << "\n";
  r.add("setup_s", median(setup_seconds));
}

void add_job_metrics(Result& r, const std::vector<double>& job_seconds,
                     const std::vector<double>& rates) {
  std::vector<double> ms;
  ms.reserve(job_seconds.size());
  for (const double s : job_seconds) ms.push_back(s * 1e3);
  r.add("jobs_per_s", median(rates));
  r.add("job_p50_ms", median(ms));
  r.add("job_p90_ms", quantile(ms, 0.9));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      const std::string t = argv[++i];
      if (t != "0" && t != "1") return usage();
      o.trace = t == "1";
      have_trace = true;
    } else if (a == "--bdsd" && has_value) {
      o.bdsd = argv[++i];
    } else if (a == "--short") {
      o.short_mode = true;
    } else if (a == "--corrupt") {
      o.corrupt = true;
    } else if (a == "--self-test") {
      return self_test();
    } else {
      return usage();
    }
  }
  if (o.workload.empty() || !have_trace || !(o.seconds > 0)) return usage();

  Result r;
  try {
    if (o.workload == "flow_datapath") {
      r = run_flow(o, true);
    } else if (o.workload == "flow_control") {
      r = run_flow(o, false);
    } else if (o.workload == "verify_cec") {
      r = run_verify_cec(o);
    } else if (o.workload == "daemon_mix") {
      r = run_daemon_mix(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (r.attempted == 0) {
    std::cerr << "perfbench: no operation was attempted\n";
    return 1;
  }
  check_finite(r);

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": " + json_number(m.value);
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
