// Measurement driver of the repo benchmark (run through perfbench/run.py).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// Runs repetitions of the workload's ScenarioSpec through the public
// scenario runtimes for S seconds and prints one JSON object per
// repetition, then one "end" object with the peak RSS, the host and (traced
// runs) the codec micro-timings the per-layer ledger multiplies out. With
// --trace 1, repetitions alternate untraced/traced so the tracing overhead
// is measured in the same process. run.py turns the records into metrics.

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "gate.hpp"
#include "probe.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"
#include "transport/frame.hpp"

namespace {

namespace ds = delphi::scenario;
using perfbench::now_ns;

/// One workload: the spec every repetition runs (seed appended per rep) and
/// a small spec of the same substrate that warms code and allocator first.
struct Workload {
  const char* name;
  const char* spec;
  const char* warmup;
  /// Repeat the exact same simulation every repetition (and check that it
  /// reproduces bit for bit) instead of drawing new inputs per repetition.
  bool deterministic;
};

// Delphi parameters are spelled out so the gate reads the same eps/rho0 the
// protocol ran with. Sockets use the AWS-figure defaults (inputs within 20
// of 40000); sim-cps is the fig6c drone point at n = 85, δ = 5 m.
constexpr const char* kAwsDelphi =
    "protocol=delphi n=4 center=40000 delta=20 space-min=0 space-max=200000 "
    "rho0=10 eps=2 delta-max=2000 auth=1";

const Workload kWorkloads[] = {
    {"sim-cps",
     "protocol=delphi substrate=sim testbed=cps n=85 center=0 delta=5 "
     "space-min=-1000 space-max=1000 rho0=0.5 eps=0.5 delta-max=50",
     "protocol=delphi substrate=sim testbed=cps n=16 center=0 delta=5 "
     "space-min=-1000 space-max=1000 rho0=0.5 eps=0.5 delta-max=50",
     true},
    // Socket warmups run the full spec: the first run of a process grows
    // the heap by a few hundred MB, which no later repetition pays again.
    {"tcp-sequential", "substrate=tcp instances=200 mux-mode=sequential",
     "substrate=tcp instances=200 mux-mode=sequential", false},
    {"tcp-concurrent", "substrate=tcp instances=256 mux-mode=concurrent",
     "substrate=tcp instances=256 mux-mode=concurrent", false},
    {"udp-concurrent", "substrate=udp instances=64 mux-mode=concurrent",
     "substrate=udp instances=64 mux-mode=concurrent", false},
};

ds::ScenarioSpec make_spec(const Workload& w, const char* body,
                           std::uint64_t seed) {
  std::string text = body;
  if (!w.deterministic) text = std::string(kAwsDelphi) + " " + text;
  text += " seed=" + std::to_string(seed);
  return ds::ScenarioSpec::from_text(text);
}

/// Minimal JSON object writer (numbers with all their digits).
class Json {
 public:
  Json& num(const char* key, double v) {
    sep(key);
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ << buf;
    } else {
      out_ << "null";
    }
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    sep(key);
    out_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ << ' ';
      } else {
        out_ << c;
      }
    }
    out_ << '"';
    return *this;
  }
  Json& boolean(const char* key, bool v) {
    sep(key);
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& list(const char* key, const std::vector<double>& v) {
    sep(key);
    out_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v[i]);
      out_ << (i ? "," : "") << buf;
    }
    out_ << ']';
    return *this;
  }
  void print() {
    std::printf("%s}\n", out_.str().c_str());
    std::fflush(stdout);
  }

 private:
  void sep(const char* key) {
    out_ << (first_ ? "{" : ",") << '"' << key << "\":";
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

ds::RunReport run_on_substrate(const ds::ScenarioSpec& spec,
                               const ds::ProtocolRegistry& reg) {
  switch (spec.substrate) {
    case ds::Substrate::kTcp:
      return ds::TcpRuntime(&reg).run(spec);
    case ds::Substrate::kUdp:
      return ds::UdpRuntime(&reg).run(spec);
    case ds::Substrate::kSim:
      break;
  }
  return ds::SimRuntime(&reg).run(spec);
}

/// Order-sensitive digest of everything a simulation reports.
std::uint64_t digest(const ds::RunReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (double o : r.outputs) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &o, sizeof bits);
    mix(bits);
  }
  mix(r.honest_bytes);
  mix(r.honest_msgs);
  std::uint64_t rt = 0;
  std::memcpy(&rt, &r.runtime_ms, sizeof rt);
  mix(rt);
  for (const auto& nc : r.nodes) mix(nc.msgs_delivered);
  return h;
}

/// Totals the traced repetitions hand to the micro-timings.
struct FrameTotals {
  double bytes = 0;
  double msgs = 0;
};

/// One repetition: run the spec once and print its record.
void run_rep(const ds::ScenarioSpec& spec, bool traced, bool record,
             FrameTotals& frames) {
  perfbench::RunProbe probe(spec, traced);
  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  const auto t_call = now_ns();
  const ds::RunReport rep = run_on_substrate(spec, probe.registry());
  const auto t_ret = now_ns();
  probe.close_thread();
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);
  if (!record) return;

  const std::size_t n = probe.n();
  const std::size_t k = probe.instances();
  const bool sim = spec.substrate == ds::Substrate::kSim;

  // Lifecycle. Setup ends when the first node starts its first instance. The
  // start of every node is reported apart (setup_all_s): on the socket
  // substrates one straggler node often starts 10–80 ms after the others.
  std::vector<std::int64_t> node_first(n, std::numeric_limits<std::int64_t>::max());
  std::int64_t last_decide = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t sid = 0; sid < k; ++sid) {
      const auto& s = probe.stamp(sid, i);
      if (s.start_ns != 0) node_first[i] = std::min(node_first[i], s.start_ns);
      last_decide = std::max(last_decide, s.decide_ns);
    }
  }
  std::sort(node_first.begin(), node_first.end());
  const bool all_started =
      node_first.back() != std::numeric_limits<std::int64_t>::max();
  const std::int64_t first_start = node_first.front();

  std::vector<std::vector<bool>> decided(n, std::vector<bool>(k, false));
  std::vector<double> lat_ms;
  std::size_t undecided = 0;
  std::vector<bool> inst_done(k, true);
  for (std::size_t sid = 0; sid < k; ++sid) {
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& s = probe.stamp(sid, i);
      decided[i][sid] = s.decide_ns != 0;
      if (s.decide_ns == 0) inst_done[sid] = false;
      if (s.start_ns != 0) lo = std::min(lo, s.start_ns);
      hi = std::max(hi, s.decide_ns);
    }
    if (!inst_done[sid]) {
      ++undecided;
      continue;
    }
    lat_ms.push_back(sim ? rep.runtime_ms : static_cast<double>(hi - lo) / 1e6);
  }

  // Correctness gate, per instance.
  std::size_t violations = 0;
  std::string first_violation;
  const double eps = spec.param("eps", 2.0);
  const double rho0 = spec.param("rho0", 10.0);
  const auto per = perfbench::split_by_instance(rep.outputs, decided);
  for (std::size_t sid = 0; sid < k; ++sid) {
    if (!inst_done[sid]) continue;
    const std::string why =
        per.empty() ? "output vector does not match the decisions"
                    : perfbench::check_instance(probe.inputs(sid), per[sid],
                                                eps, rho0);
    if (!why.empty()) {
      ++violations;
      if (first_violation.empty()) {
        first_violation = "instance " + std::to_string(sid) + ": " + why;
      }
    }
  }
  if (!rep.node_errors.empty() && first_violation.empty()) {
    first_violation = "node " + std::to_string(rep.node_errors[0].id) +
                      " died: " + rep.node_errors[0].message;
  }

  std::uint64_t deliveries = 0;
  std::uint64_t catchup = 0;
  for (const auto& nc : rep.nodes) {
    deliveries += nc.msgs_delivered;
    catchup += nc.catchup_frames;
  }

  Json j;
  j.str("kind", "rep")
      .boolean("traced", traced)
      .num("seed", static_cast<double>(spec.seed))
      .boolean("ok", rep.ok && all_started && rep.node_errors.empty())
      .num("instances", static_cast<double>(k))
      .num("undecided", static_cast<double>(undecided))
      .num("violations", static_cast<double>(violations))
      .str("first_violation", first_violation)
      .num("wall_s", seconds(t_ret - t_call))
      .num("setup_s", seconds(first_start - t_call))
      .num("setup_all_s", seconds(node_first.back() - t_call))
      .num("window_s", seconds(last_decide - first_start))
      .num("teardown_s", seconds(t_ret - last_decide))
      .list("lat_ms", lat_ms)
      .num("honest_bytes", static_cast<double>(rep.honest_bytes))
      .num("honest_msgs", static_cast<double>(rep.honest_msgs))
      .num("deliveries", static_cast<double>(deliveries))
      .num("catchup_frames", static_cast<double>(catchup))
      .num("cpu_user_s", tv_seconds(ru1.ru_utime) - tv_seconds(ru0.ru_utime))
      .num("cpu_sys_s", tv_seconds(ru1.ru_stime) - tv_seconds(ru0.ru_stime))
      .num("nvcsw", static_cast<double>(ru1.ru_nvcsw - ru0.ru_nvcsw))
      .num("node_threads", sim ? 1.0 : static_cast<double>(n))
      .str("digest", sim ? std::to_string(digest(rep)) : "");
  if (traced) {
    const auto t = probe.totals();
    j.num("handler_ns", static_cast<double>(t.sum.handler_ns))
        .num("handler_calls", static_cast<double>(t.sum.deliveries))
        .num("send_ns", static_cast<double>(t.sum.send_ns))
        .num("send_calls", static_cast<double>(t.sum.sends))
        .num("decode_ns", static_cast<double>(t.sum.decode_ns))
        .num("decode_calls", static_cast<double>(t.sum.frames))
        .num("node_cpu_ns", static_cast<double>(t.node_cpu_ns));
    frames.bytes += static_cast<double>(rep.honest_bytes);
    frames.msgs += static_cast<double>(rep.honest_msgs);
  }
  j.print();
}

volatile std::uint8_t g_sink = 0;

/// Median ns per call of `op` over 9 batches of `batch` calls.
template <typename Op>
double ns_per_call(std::size_t batch, Op op) {
  std::vector<double> v;
  for (int b = 0; b < 9; ++b) {
    const auto t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) op();
    v.push_back(static_cast<double>(now_ns() - t0) /
                static_cast<double>(batch));
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Times the codec primitives at the run's mean frame size: HMAC tag over
/// channel + payload, frame-body encode, unauthenticated frame parse.
void print_codec_timings(const FrameTotals& frames) {
  constexpr std::size_t kTag = delphi::crypto::kMacTagSize;
  constexpr std::size_t kPrefix = 4;   // u32 length
  constexpr std::uint32_t kChannel = 7u << 16;  // a mux window (3-byte uvarint)
  constexpr std::size_t kChannelBytes = 3;
  const double mean_wire = frames.msgs > 0 ? frames.bytes / frames.msgs : 0;
  const std::size_t wire = static_cast<std::size_t>(std::llround(mean_wire));
  const std::size_t payload =
      wire > kTag + kPrefix + kChannelBytes ? wire - kTag - kPrefix - kChannelBytes
                                            : 1;
  std::vector<std::uint8_t> data(payload);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }

  delphi::crypto::Key key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  const delphi::crypto::HmacKey hk(key);
  const auto body = delphi::transport::encode_frame_body(kChannel, data, true);
  const std::span<const std::uint8_t> tagged(body->data() + kPrefix,
                                             body->size() - kPrefix);
  const double tag_ns = ns_per_call(4000, [&] {
    g_sink = static_cast<std::uint8_t>(g_sink + hk.tag(tagged)[0]);
  });
  const double encode_ns = ns_per_call(4000, [&] {
    const auto b = delphi::transport::encode_frame_body(kChannel, data, true);
    g_sink = static_cast<std::uint8_t>(g_sink + (*b)[kPrefix]);
  });
  // Parse a stream of frames, one next_view per frame, refilling the parser
  // a batch at a time.
  const auto one = delphi::transport::encode_frame(kChannel, data, nullptr);
  constexpr std::size_t kStream = 256;
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < kStream; ++i) {
    stream.insert(stream.end(), one.begin(), one.end());
  }
  delphi::transport::FrameParser parser;
  std::size_t left = 0;
  const double parse_ns = ns_per_call(4096, [&] {
    if (left == 0) {
      parser.feed(stream);
      left = kStream;
    }
    const auto f = parser.next_view();
    --left;
    g_sink = static_cast<std::uint8_t>(g_sink + f->payload[0]);
  });

  Json()
      .str("kind", "codec")
      .num("mean_frame_bytes", mean_wire)
      .num("tag_ns", tag_ns)
      .num("encode_ns", encode_ns)
      .num("parse_ns", parse_ns)
      .print();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

void print_end() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  utsname u{};
  uname(&u);
  Json()
      .str("kind", "end")
      .num("peak_rss_kb", static_cast<double>(ru.ru_maxrss))
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .str("cpu", cpu_model())
      .str("kernel", std::string(u.sysname) + " " + u.release)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("sha256_hw", delphi::crypto::sha256_hw_accelerated())
      .print();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "sim-cps|tcp-sequential|tcp-concurrent|udp-concurrent "
               "--seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') usage(what);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t secs = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      for (const auto& cand : kWorkloads) {
        if (cand.name == std::string(argv[i + 1])) w = &cand;
      }
      if (w == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      seed = parse_u64(argv[i + 1], "bad --seed");
    } else if (flag == "--seconds") {
      secs = parse_u64(argv[i + 1], "bad --seconds");
    } else if (flag == "--trace") {
      trace = static_cast<int>(parse_u64(argv[i + 1], "bad --trace"));
    } else {
      usage("unknown flag");
    }
  }
  if (w == nullptr || secs == 0 || (trace != 0 && trace != 1) || argc % 2 == 0) {
    usage("missing or bad arguments");
  }

  try {
    FrameTotals frames;
    {
      FrameTotals unused;
      run_rep(make_spec(*w, w->warmup, seed), false, false, unused);
    }
    const auto deadline =
        now_ns() + static_cast<std::int64_t>(secs) * 1'000'000'000;
    const int min_reps = trace == 1 ? 2 : 1;
    for (int rep = 0;; ++rep) {
      // Socket repetitions draw fresh inputs (and fresh per-instance seeds,
      // which step by one per instance) from the run seed.
      const std::uint64_t rep_seed =
          w->deterministic ? seed
                           : seed * 1'000'003ULL + static_cast<std::uint64_t>(rep) * 1024;
      const bool traced = trace == 1 && rep % 2 == 1;
      run_rep(make_spec(*w, w->spec, rep_seed), traced, true, frames);
      if (rep + 1 >= min_reps && now_ns() >= deadline) break;
    }
    if (trace == 1) print_codec_timings(frames);
    print_end();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
