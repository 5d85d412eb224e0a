// Shared types of the benchmark runner: run options, the result a
// workload hands back, clocks, and the per-round statistics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool short_mode = false;  ///< one round, one set-up, every check
  bool corrupt = false;   ///< corrupt the first checked output (self-test)
  std::string bdsd;       ///< daemon binary for daemon_mix
};

/// A measured value. Names and units are declared in BENCHMARK.json.
struct Metric {
  std::string name;
  double value = 0.0;
};

struct Result {
  bool correct = true;  ///< false when the run itself could not be trusted
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
  /// Counts one operation as failed and says why on stderr.
  void fail(const std::string& why);
};

/// Per-round values of each per-layer metric; a run reports the median
/// over its rounds.
using Series = std::map<std::string, std::vector<double>>;

double now_s();          ///< steady clock, seconds
double process_cpu_s();  ///< user + system CPU of this process, seconds
double peak_rss_mb();    ///< peak resident set of this process, MB

double median(std::vector<double> v);
/// Nearest-rank quantile, q in (0, 1].
double quantile(std::vector<double> v, double q);

/// FNV-1a 64 of a byte string, as 16 hex digits (output digests).
std::string digest(const std::string& bytes);

/// Adds setup_s, the median of the set-up repetitions, and lists them
/// on stderr.
void add_setup_metric(Result& r, const std::vector<double>& setup_seconds);

/// Adds the throughput and latency metrics every workload reports:
/// jobs_per_s is the median of the per-slice rates `rates` (jobs/s over
/// each round or time slice of the run, so a burst of interference from
/// outside moves one slice, not the figure), job_p50_ms and job_p90_ms
/// come from every job's latency.
void add_job_metrics(Result& r, const std::vector<double>& job_seconds,
                     const std::vector<double>& rates);

Result run_flow(const Options& options, bool datapath);
Result run_verify_cec(const Options& options);
Result run_daemon_mix(const Options& options);

}  // namespace perfbench
