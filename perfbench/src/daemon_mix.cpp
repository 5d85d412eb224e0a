// daemon_mix: four closed-loop service::Clients against a bdsd daemon
// (a child process built from examples/bdsd_main.cpp) on a Unix socket,
// every request mapped onto the embedded library. Three requests in four
// repeat a circuit warmed during set-up (result-cache hits): a seeded pool,
// and the fault circuit once per round. One in four is a seeded control
// circuit from a fresh list that the cache has not seen, or has evicted
// since (misses and inserts). The cache byte budget holds the pool but not
// the fresh list, so the fresh stream evicts.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "flow.hpp"
#include "gen/gen.hpp"
#include "oracle.hpp"
#include "service/client.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr unsigned kClients = 4;
constexpr unsigned kPool = 192;
// One client round: this many pool repeats, one request of the fault
// circuit (flow.hpp), and this many fresh circuits, in a seeded order.
constexpr unsigned kPoolPerRound = 8;
constexpr unsigned kFreshPerRound = 3;
// Fresh circuits, walked in a cycle: each comes back only after the other
// kFresh - 1, long after its cache entries were evicted (the fresh list
// takes about one and a half times the budget the pool leaves free).
constexpr unsigned kFresh = 512;
// Result-cache budget of the daemon. The warmed pool takes about a third
// of it. The clients walk the pool through one shared cursor, so every pool
// circuit comes back after kPool repeats, and the fresh circuits inserted
// in between fill less than a quarter of the rest: the pool stays
// resident while the fresh stream evicts.
constexpr std::size_t kCacheBytes = 1536u << 10;

bds::service::OptimizeRequest request_of(std::string blif) {
  bds::service::OptimizeRequest req;
  req.blif = std::move(blif);
  req.options.map_lib = "mcnc";
  return req;
}

/// Per-pass seconds and the map pass counters, read back from the
/// stats table the daemon returns with every response. A table without
/// a `map` row leaves `qor` at 0.
struct Table {
  std::map<std::string, double> pass_ms;
  double total_ms = 0.0;
  Qor qor;
};

Table read_table(const std::string& table) {
  Table t;
  std::istringstream is(table);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::vector<std::string> toks;
    std::string tok;
    while (ls >> tok) toks.push_back(tok);
    if (toks.size() < 2 || toks[0] == "pass") continue;
    // The time column is the first token printed with four decimals;
    // nodes and literals ("before->after" or one number) follow it.
    std::size_t ti = 0;
    for (std::size_t i = 1; i < toks.size() && ti == 0; ++i) {
      const auto dot = toks[i].find('.');
      if (dot != std::string::npos && toks[i].size() - dot == 5 &&
          toks[i].find_first_not_of("0123456789.") == std::string::npos) {
        ti = i;
      }
    }
    if (ti == 0) continue;
    const double ms = std::stod(toks[ti]) * 1e3;
    if (toks[0] == "total") {
      t.total_ms = ms;
      continue;
    }
    t.pass_ms[toks[0]] += ms;
    if (toks[0] != "map" || ti + 2 >= toks.size()) continue;
    const std::string& lits = toks[ti + 2];
    t.qor.literals = std::stod(lits.substr(0, lits.find("->")));
    for (std::size_t i = ti + 3; i < toks.size(); ++i) {
      const auto eq = toks[i].find('=');
      if (eq == std::string::npos) continue;
      const std::string key = toks[i].substr(0, eq);
      const double val = std::stod(toks[i].substr(eq + 1));
      if (key == "mapped_area") t.qor.area = val;
      if (key == "mapped_delay") t.qor.delay = val;
      if (key == "mapped_gates") t.qor.gates = val;
    }
  }
  return t;
}

/// The daemon child process: spawned on construction, drained with
/// SIGTERM and reaped on destruction.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket) : socket_(socket) {
    ::unlink(socket_.c_str());
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    const std::string cache = std::to_string(kCacheBytes);
    const std::string clients = std::to_string(kClients);
    std::vector<std::string> args = {binary, "-socket", socket_, "-c", clients,
                                     "-cache-bytes", cache};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary + ": " + std::strerror(rc));
    }
    // Wait for the socket to accept.
    for (int i = 0; i < 1000; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("bdsd exited during start-up");
      }
      try {
        bds::service::Client probe(socket_);
        probe.connect();
        return;
      } catch (const bds::service::ConnectError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    stop();
    throw std::runtime_error("bdsd did not listen within 10 s");
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// User+system CPU seconds the daemon has used so far.
  [[nodiscard]] double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)), {});
    const auto close = stat.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream is(stat.substr(close + 2));
    std::vector<std::string> f;
    std::string tok;
    while (is >> tok) f.push_back(tok);
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    if (f.size() < 13) return 0.0;
    const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
    return (std::stod(f[11]) + std::stod(f[12])) / ticks;
  }

  /// Peak resident set of the daemon, MB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
      }
    }
    return 0.0;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    ::unlink(socket_.c_str());
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

struct Circuit {
  std::string name;  ///< generator call
  std::string input;
  std::string answer;  ///< first answer; every later one must equal it
  Qor qor;
  bool ok = false;     ///< the oracle accepts the answer
  bool known_fault = false;
};

/// One request of the measured window.
struct Op {
  unsigned client = 0;
  std::size_t round = 0;
  Circuit* circuit = nullptr;
  bool fresh = false;  ///< from the fresh list, not warmed
  double seconds = 0.0;
  double done_at = 0.0;  ///< completion time, seconds into the window
  bds::service::OptimizeResponse response;
  std::string error;   ///< transport failure
};

std::string oracle_check(const std::string& input, const std::string& answer,
                         std::uint64_t seed) {
  try {
    check_against_reference(parse_blif(answer), parse_blif(input), seed, 1024);
  } catch (const OracleError& e) {
    return e.what();
  }
  return "";
}

/// Oracle check of a warmed circuit's answer, and of the QoR its stats
/// table gave: the QoR sums must not read 0 because a row was not found.
std::string check_warmed(const Circuit& c, std::uint64_t seed) {
  if (!(c.qor.area > 0) || !(c.qor.literals > 0) || !(c.qor.gates > 0)) {
    return "no map row with a positive area, literals and gates in the stats table";
  }
  return oracle_check(c.input, c.answer, seed);
}

}  // namespace

Result run_daemon_mix(const Options& o) {
  ::signal(SIGPIPE, SIG_IGN);
  Result r;
  ::mkdir(".bench_run", 0755);
  const std::string socket =
      ".bench_run/bdsd-" + std::to_string(::getpid()) + ".sock";
  if (o.bdsd.empty()) throw std::runtime_error("daemon_mix needs --bdsd PATH");

  // Set-up: start a daemon, draw the circuits and warm the pool. It is
  // done twice before the measured window (the second daemon serves it)
  // and twice after, so that setup_s, the median, samples the machine's
  // speed at both ends of the run.
  struct SetUp {
    std::unique_ptr<Daemon> daemon;
    std::vector<Circuit> pool;  // the seeded pool, then the fault circuit
    std::vector<Circuit> fresh;
  };
  std::vector<double> setups;
  const auto set_up = [&] {
    SetUp su;
    const double t0 = now_s();
    su.daemon = std::make_unique<Daemon>(o.bdsd, socket);
    // Pool and fresh list: distinct circuits, the shapes in turn.
    SplitMix rng(o.seed ^ 0xd5eedULL);
    Circuit fault;
    fault.name = circuit_name(kFaultShape, kFaultSeed);
    fault.input = to_blif(make_circuit(kFaultShape, kFaultSeed));
    fault.known_fault = true;
    std::set<std::string> drawn = {fault.name};
    const auto draw = [&](unsigned i) {
      const Shape shape = kShapes[i % std::size(kShapes)];
      const std::uint64_t seed = draw_seed(shape, rng, drawn);
      Circuit c;
      c.name = circuit_name(shape, seed);
      c.input = to_blif(make_circuit(shape, seed));
      return c;
    };
    for (unsigned i = 0; i < kPool; ++i) su.pool.push_back(draw(i));
    for (unsigned i = 0; i < kFresh; ++i) su.fresh.push_back(draw(i));
    su.pool.push_back(std::move(fault));
    bds::service::Client c(socket);
    c.connect();
    for (Circuit& e : su.pool) {
      const auto resp = c.optimize(request_of(e.input));
      if (resp.status != bds::service::Status::kOk) {
        throw std::runtime_error("warming request failed: " + resp.error);
      }
      e.answer = resp.blif;
      e.qor = read_table(resp.stats_table).qor;
    }
    setups.push_back(now_s() - t0);
    return su;
  };
  SetUp su;
  for (int rep = 0; rep < (o.short_mode ? 1 : 2); ++rep) {
    su.daemon.reset();  // one daemon on the socket at a time
    su = set_up();
  }
  std::vector<Circuit>& pool = su.pool;
  std::vector<Circuit>& fresh = su.fresh;
  std::unique_ptr<Daemon>& daemon = su.daemon;
  Circuit& fault = pool.back();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::string why = check_warmed(pool[i], o.seed + i);
    pool[i].ok = why.empty();
    if (!why.empty()) std::cerr << "perfbench: " << pool[i].name << ": " << why << "\n";
  }

  bds::service::Client admin(socket);
  admin.connect();
  const bds::service::ServerStats before = admin.server_stats();
  if (before.cache_evictions != 0) {
    std::cerr << "perfbench: the warmed pool does not fit the cache budget\n";
    r.correct = false;
  }

  // Measured window: closed loop, each client runs whole rounds of
  // kPoolPerRound pool repeats, the fault circuit and kFreshPerRound fresh
  // circuits in a seeded order.
  std::vector<std::vector<Op>> ops(kClients);
  std::atomic<std::size_t> cursor{0};        // shared walk over the pool
  std::atomic<std::size_t> fresh_cursor{0};  // and over the fresh list
  const double cpu0 = daemon->cpu_s();
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (unsigned k = 0; k < kClients; ++k) {
    threads.emplace_back([&, k] {
      SplitMix rng(o.seed * 31 + k + 1);
      bds::service::Client c(socket);
      try {
        c.connect();
      } catch (const std::exception& e) {
        Op op;
        op.client = k;
        op.error = e.what();
        ops[k].push_back(std::move(op));
        return;
      }
      enum class Slot { kPool, kFault, kFresh };
      std::vector<Slot> slots(kPoolPerRound, Slot::kPool);
      slots.push_back(Slot::kFault);
      slots.insert(slots.end(), kFreshPerRound, Slot::kFresh);
      for (std::size_t round = 0;; ++round) {
        shuffle(slots, rng);
        for (const Slot slot : slots) {
          Op op;
          op.client = k;
          op.round = round;
          op.fresh = slot == Slot::kFresh;
          if (slot == Slot::kPool) {
            op.circuit = &pool[cursor.fetch_add(1) % kPool];
          } else if (slot == Slot::kFault) {
            op.circuit = &fault;
          } else {
            op.circuit = &fresh[fresh_cursor.fetch_add(1) % kFresh];
          }
          const auto req = request_of(op.circuit->input);
          const double j0 = now_s();
          try {
            op.response = c.optimize(req);
          } catch (const std::exception& e) {
            op.error = e.what();
          }
          const double j1 = now_s();
          op.seconds = j1 - j0;
          op.done_at = j1 - t0;
          ops[k].push_back(std::move(op));
        }
        if (o.short_mode || now_s() - t0 >= o.seconds) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double window = now_s() - t0;
  const double cpu = daemon->cpu_s() - cpu0;
  const bds::service::ServerStats after = admin.server_stats();
  const double daemon_rss = daemon->peak_rss_mb();
  admin.close();
  daemon.reset();
  for (int rep = 0; rep < (o.short_mode ? 0 : 2); ++rep) set_up();
  add_setup_metric(r, setups);

  // Throughput per whole second of the window (a short run has one slice).
  const auto slices = static_cast<std::size_t>(std::max(1.0, std::floor(window)));
  std::vector<double> rates(slices, 0.0);
  for (const auto& list : ops) {
    for (const Op& op : list) {
      const auto slice = static_cast<std::size_t>(op.done_at);
      if (op.error.empty() && slice < slices) rates[slice] += 1.0;
    }
  }
  if (slices == 1) rates[0] /= std::max(window, 1e-9);

  // Checks and per-round layer numbers.
  std::vector<double> job_seconds;
  double hits = 0.0, misses = 0.0, repeat_misses = 0.0;
  bool corrupted = false;
  Series rounds;
  std::map<std::pair<unsigned, std::size_t>, std::vector<const Op*>> by_round;
  for (const auto& list : ops) {
    for (const Op& op : list) {
      ++r.attempted;
      if (!op.error.empty()) {
        r.fail("request: " + op.error);
        continue;
      }
      job_seconds.push_back(op.seconds);
      by_round[{op.client, op.round}].push_back(&op);
      const auto& resp = op.response;
      hits += static_cast<double>(resp.cache_hits);
      misses += static_cast<double>(resp.cache_misses);
      if (!op.fresh) repeat_misses += static_cast<double>(resp.cache_misses);
      Circuit& e = *op.circuit;
      // --corrupt: the first answer of a circuit that would otherwise pass.
      const bool corrupt = o.corrupt && !corrupted && !e.known_fault;
      corrupted = corrupted || corrupt;
      const std::string answer =
          corrupt ? complement_first_output(resp.blif) : resp.blif;
      if (resp.status != bds::service::Status::kOk) {
        r.fail("status " + std::to_string(static_cast<int>(resp.status)) +
               ": " + resp.error);
      } else {
        // A fresh circuit's first answer is checked by the oracle; every
        // answer for the same circuit must then repeat it byte for byte.
        const std::string what =
            e.name + (e.known_fault ? " (known sweep fault)" : "");
        if (e.answer.empty()) {
          e.answer = answer;
          const std::string why = oracle_check(e.input, answer, o.seed);
          e.ok = why.empty();
          if (!e.ok) std::cerr << "perfbench: " << what << ": " << why << "\n";
        }
        if (answer != e.answer) {
          r.fail(what + ": answer differs from its first answer");
        } else if (!e.ok) {
          r.fail(what + ": answer is wrong");
        }
      }
    }
  }
  for (const auto& [key, list] : by_round) {
    double rt = 0.0, pipe = 0.0;
    std::map<std::string, double> pass;
    for (const Op* op : list) {
      rt += op->seconds * 1e3;
      const Table t = read_table(op->response.stats_table);
      pipe += t.total_ms;
      for (const auto& [p, ms] : t.pass_ms) {
        pass[p == "map" ? "map.map_ms" : "opt." + p + "_ms"] += ms;
      }
    }
    const double n = static_cast<double>(list.size());
    rounds["service.roundtrip_ms"].push_back(rt / n);
    rounds["service.pipeline_ms"].push_back(pipe / n);
    for (const auto& [k, v] : pass) rounds[k].push_back(v / n);
    rounds["trace.job_ms"].push_back(rt / n);
    rounds["trace.layers_ms"].push_back(pipe / n);
    rounds["trace.unattributed_ms"].push_back((rt - pipe) / n);
    rounds["trace.covered_pct"].push_back(rt > 0 ? 100.0 * pipe / rt : 0.0);
  }

  Qor sum;
  for (const Circuit& e : pool) {
    sum.area += e.qor.area;
    sum.delay += e.qor.delay;
    sum.literals += e.qor.literals;
  }
  const double jobs = static_cast<double>(job_seconds.size());
  std::cerr << "perfbench: daemon_mix requests=" << r.attempted
            << " cache hits=" << hits << " misses=" << misses
            << " repeat misses=" << repeat_misses
            << " insertions=" << after.cache_insertions - before.cache_insertions
            << " evictions=" << after.cache_evictions - before.cache_evictions
            << " sheds=" << after.sheds << " pool bytes=" << before.cache_bytes
            << " cache bytes=" << after.cache_bytes << "\n";
  r.add("cpu_ms_per_job", jobs > 0 ? cpu * 1e3 / jobs : 0.0);
  add_job_metrics(r, job_seconds, rates);
  r.add("peak_rss_mb", daemon_rss);
  r.add("mapped_area", sum.area);
  r.add("mapped_delay", sum.delay);
  r.add("factored_literals", sum.literals);
  if (o.trace) {
    for (const auto& [k, v] : rounds) r.add(k, median(v));
    r.add("trace.jobs_per_s", median(rates));
    r.add("service.sheds", static_cast<double>(after.sheds));
    r.add("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
    const auto per_job = [jobs](std::uint64_t n) {
      return jobs > 0 ? static_cast<double>(n) / jobs : 0.0;
    };
    r.add("cache.insertions", per_job(after.cache_insertions - before.cache_insertions));
    r.add("cache.evictions", per_job(after.cache_evictions - before.cache_evictions));
  }
  return r;
}

}  // namespace perfbench
