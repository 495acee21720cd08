// osu.cpp — osu_paper: the paper's two-node testbed and data path.
//
// A `vni: "true"` two-pod job is admitted through the control plane and
// each pod opens an endpoint on the pod VNI.  Two rank threads, each
// pinned to its own CPU of the allowed set, then run through
// mpi::RankContext (blocking verbs, synchronous fabric walk, ofi tag
// matching, thread hand-off):
//   phase A — osu_bw-style windowed sends (window 64) over the 1 B..1 MiB
//             sweep, the window acknowledged by a 4 B message;
//   phase B — an 8 B ping-pong.
// Pinning matters: with both ranks free to share one CPU the round trip
// flips between two modes run to run (see benchmark/README.md).
// The virtual-time answers come from the first trial after each session's
// warm-up, which starts from the same state in every session.  The 8 B
// one-way latency is gated to repeat exactly.  The 1 MiB bandwidth is
// not: both ranks draw timing jitter from the fabric's one stream (a
// receive draws its RX overhead), and in an osu_bw window rank 1's
// receives race rank 0's sends, so the order of draws, and the last
// digits of the bandwidth, follow the threads' interleaving.  The
// ping-pong never has both ranks drawing at once.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/stack.hpp"
#include "mpi/comm.hpp"

namespace bench {
namespace {

using namespace shs;

constexpr int kWindow = 64;
constexpr std::uint32_t kDataTag = 101;
constexpr std::uint32_t kAckTag = 102;
constexpr std::uint32_t kPingTag = 201;
constexpr std::uint32_t kPongTag = 202;
constexpr std::uint64_t kPingBytes = 8;
/// Spans are recorded for one ping-pong iteration in this many (the
/// per-call durations of every iteration are kept as plain samples).
constexpr int kSpanEvery = 64;

struct OsuSizes {
  int bw_skip = 2;
  int bw_iters = 32;
  int pp_skip = 100;
  int pp_iters = 20000;
};

/// Stack, endpoints and communicator.  Endpoints are destroyed before
/// the stack that issued them.
struct OsuSetup {
  std::unique_ptr<core::SlingshotStack> stack;
  std::vector<std::unique_ptr<ofi::Endpoint>> endpoints;
  std::unique_ptr<mpi::Communicator> comm;
  double job_start_ms = 0;
  std::vector<double> open_endpoint_us;
};

std::unique_ptr<OsuSetup> build(std::uint64_t seed, Report& report) {
  auto s = std::make_unique<OsuSetup>();
  core::StackConfig cfg;
  cfg.seed = seed;
  s->stack = std::make_unique<core::SlingshotStack>(cfg);
  core::SlingshotStack& stack = *s->stack;
  const std::uint64_t t0 = now_ns();
  auto job = stack.submit_job({.name = "osu",
                               .vni_annotation = "true",
                               .pods = 2,
                               .run_duration = 3600 * kSecond,
                               .spread_key = "osu"});
  const bool running =
      job.is_ok() && stack.run_until(
                         [&] {
                           int n = 0;
                           for (const auto& p : stack.pods_of_job(job.value())) {
                             n += p.status.phase == k8s::PodPhase::kRunning;
                           }
                           return n == 2;
                         },
                         120 * kSecond);
  s->job_start_ms = seconds_since(t0) * 1e3;
  report.gate(running, "osu job admitted, both pods running");
  if (!running) return nullptr;
  std::vector<ofi::Endpoint*> eps;
  for (const auto& pod : stack.pods_of_job(job.value())) {
    auto handle = stack.exec_in_pod(pod.meta.uid);
    auto dom = handle.is_ok() ? stack.domain_for(handle.value())
                              : Result<ofi::Domain>(handle.status());
    if (!dom.is_ok()) {
      report.gate(false, "pod domain");
      return nullptr;
    }
    const std::uint64_t e0 = now_ns();
    auto ep = dom.value().open_endpoint(pod.status.vni);
    s->open_endpoint_us.push_back(static_cast<double>(now_ns() - e0) / 1e3);
    if (!ep.is_ok()) {
      report.gate(false, "open_endpoint on the pod VNI");
      return nullptr;
    }
    eps.push_back(ep.value().get());
    s->endpoints.push_back(std::move(ep).value());
  }
  report.gate(eps[0]->addr().nic != eps[1]->addr().nic,
              "ranks on distinct nodes");
  s->comm = mpi::Communicator::create(eps);
  return s;
}

/// What each rank thread measures in one trial.
struct RankLog {
  std::uint64_t bad_ops = 0;
  std::uint64_t msgs = 0;
  std::size_t unexpected_max = 0;
  std::vector<double> send_us;
  std::vector<double> recv_us;
};

struct TrialOut {
  RankLog rank[2];
  double bw_wall_s = 0;
  std::vector<double> rtt_us;
  double vt_one_way_us = 0;
  double vt_bw_1mib_mbps = 0;
};

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// One rank's side of a trial.  Rank 0 sends the bw windows and the
/// pings; rank 1 receives, acknowledges and pongs.
void rank_main(int me, mpi::RankContext& rank, ofi::Endpoint& ep,
               const OsuSizes& z, const std::vector<std::uint64_t>& sweep,
               bool timed, Lane* lane, TrialOut& out) {
  RankLog& log = out.rank[me];
  const int peer = 1 - me;
  const auto check = [&](const Result<mpi::RecvInfo>& r, std::uint64_t size) {
    if (!r.is_ok() || r.value().size != size || r.value().source != peer) {
      ++log.bad_ops;
    }
  };

  // Phase A: osu_bw.
  const std::uint64_t a0 = now_ns();
  for (const std::uint64_t size : sweep) {
    Scope size_span(lane, "bw_size", size);
    SimTime vt_begin = 0;
    for (int it = 0; it < z.bw_skip + z.bw_iters; ++it) {
      if (it == z.bw_skip) vt_begin = rank.vt();
      if (me == 0) {
        for (int w = 0; w < kWindow; ++w) {
          if (!rank.send(1, kDataTag, {}, size).is_ok()) ++log.bad_ops;
        }
        check(rank.recv(1, kAckTag, {}), 4);
      } else {
        for (int w = 0; w < kWindow; ++w) check(rank.recv(0, kDataTag, {}), size);
        if (!rank.send(0, kAckTag, {}, 4).is_ok()) ++log.bad_ops;
      }
      log.msgs += kWindow;
      log.unexpected_max = std::max(log.unexpected_max, ep.unexpected_depth());
    }
    if (me == 0 && size == sweep.back()) {
      const double bytes = static_cast<double>(size) * z.bw_iters * kWindow;
      out.vt_bw_1mib_mbps = bytes / to_seconds(rank.vt() - vt_begin) / 1e6;
    }
  }
  if (me == 0) out.bw_wall_s = seconds_since(a0);

  // Phase B: 8 B ping-pong.
  SimTime vt_begin = 0;
  if (me == 0) out.rtt_us.reserve(static_cast<std::size_t>(z.pp_iters));
  if (timed) {
    log.send_us.reserve(static_cast<std::size_t>(z.pp_iters));
    log.recv_us.reserve(static_cast<std::size_t>(z.pp_iters));
  }
  for (int it = 0; it < z.pp_skip + z.pp_iters; ++it) {
    const bool measured = it >= z.pp_skip;
    if (it == z.pp_skip) vt_begin = rank.vt();
    Lane* span_lane = measured && it % kSpanEvery == 0 ? lane : nullptr;
    Scope iter_span(span_lane, "pingpong", static_cast<std::uint64_t>(it));
    const std::uint64_t t0 = now_ns();
    std::uint64_t t1 = 0;
    std::uint64_t t2 = 0;
    if (me == 0) {
      {
        Scope s(span_lane, "mpi.send", static_cast<std::uint64_t>(it));
        if (!rank.send(1, kPingTag, {}, kPingBytes).is_ok()) ++log.bad_ops;
      }
      t1 = timed ? now_ns() : 0;
      {
        Scope s(span_lane, "mpi.recv", static_cast<std::uint64_t>(it));
        check(rank.recv(1, kPongTag, {}), kPingBytes);
      }
      t2 = now_ns();
      if (measured) out.rtt_us.push_back(static_cast<double>(t2 - t0) / 1e3);
    } else {
      {
        Scope s(span_lane, "mpi.recv", static_cast<std::uint64_t>(it));
        check(rank.recv(0, kPingTag, {}), kPingBytes);
      }
      t1 = timed ? now_ns() : 0;
      {
        Scope s(span_lane, "mpi.send", static_cast<std::uint64_t>(it));
        if (!rank.send(0, kPongTag, {}, kPingBytes).is_ok()) ++log.bad_ops;
      }
      t2 = timed ? now_ns() : 0;
    }
    if (timed && measured) {
      const double first = static_cast<double>(t1 - t0) / 1e3;
      const double second = static_cast<double>(t2 - t1) / 1e3;
      log.send_us.push_back(me == 0 ? first : second);
      log.recv_us.push_back(me == 0 ? second : first);
    }
  }
  if (me == 0) {
    out.vt_one_way_us =
        to_micros(rank.vt() - vt_begin) / (2.0 * z.pp_iters);
  }
}

std::vector<int> allowed_cpu_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

TrialOut run_trial(OsuSetup& s, const OsuSizes& z,
                   const std::vector<std::uint64_t>& sweep, bool timed,
                   Lane* lanes[2]) {
  TrialOut out;
  const std::vector<int> cpus = allowed_cpu_list();
  std::thread peer([&] {
    pin_to(cpus[1 % cpus.size()]);
    rank_main(1, s.comm->rank(1), *s.endpoints[1], z, sweep, timed, lanes[1],
              out);
  });
  // Rank 0 runs on its own thread too, so the driver's affinity is left
  // untouched for the next set-up.
  std::thread self([&] {
    pin_to(cpus[0]);
    rank_main(0, s.comm->rank(0), *s.endpoints[0], z, sweep, timed, lanes[0],
              out);
  });
  self.join();
  peer.join();
  return out;
}

}  // namespace

void run_osu(const Options& opt, Report& report, Tracer& tracer) {
  OsuSizes z;
  if (opt.smoke) z = {1, 2, 10, 500};
  const OsuSizes warm{1, 1, 10, 500};
  std::vector<std::uint64_t> sweep;
  for (std::uint64_t b = 1; b <= (1ULL << 20); b <<= 1) sweep.push_back(b);
  report.config("window", kWindow);
  report.config("bw_iters", z.bw_iters);
  report.config("pingpong_iters", z.pp_iters);
  report.config("sessions", opt.sessions);
  report.config("pinned_distinct_cpus", allowed_cpu_list().size() >= 2);

  std::vector<double> job_start_ms;
  std::vector<double> open_us;
  std::unique_ptr<OsuSetup> s;
  Lane* none[2] = {nullptr, nullptr};
  Lane* traced[2] = {nullptr, nullptr};
  if (opt.trace) {
    traced[0] = &tracer.lane();
    traced[1] = &tracer.lane();
  }
  std::vector<double> rate[2];  // [traced?] phase A msgs/s per trial
  std::vector<double> rtt;
  std::vector<double> rtt_p50;  // each untraced trial's median round trip
  std::vector<double> send_us;
  std::vector<double> recv_us;
  std::vector<double> vt_lat;  // the first trial of every session
  std::vector<double> vt_bw;
  bool first_of_session = false;
  std::size_t unexpected_max = 0;
  const std::vector<double> setup_s = run_sessions(
      opt, opt.trace ? 2 : 1,
      [&] {
        s = build(opt.seed, report);
        if (!s) return false;
        const TrialOut w = run_trial(*s, warm, sweep, false, none);
        report.gate(w.rank[0].bad_ops + w.rank[1].bad_ops == 0,
                    "warm-up receives");
        job_start_ms.push_back(s->job_start_ms);
        open_us.insert(open_us.end(), s->open_endpoint_us.begin(),
                       s->open_endpoint_us.end());
        first_of_session = true;
        return true;
      },
      [&](int i) {
        const bool timed = opt.trace && (i & 1);
        const TrialOut out =
            run_trial(*s, z, sweep, timed, timed ? traced : none);
        std::uint64_t bad = 0;
        for (const RankLog& r : out.rank) {
          bad += r.bad_ops;
          unexpected_max = std::max(unexpected_max, r.unexpected_max);
          send_us.insert(send_us.end(), r.send_us.begin(), r.send_us.end());
          recv_us.insert(recv_us.end(), r.recv_us.begin(), r.recv_us.end());
        }
        report.attempted(out.rank[0].msgs + out.rank[1].msgs +
                         2 * static_cast<std::uint64_t>(z.pp_iters + z.pp_skip));
        report.failed(bad);
        report.gate(bad == 0, "every recv has the expected size and source");
        rate[timed].push_back(static_cast<double>(out.rank[0].msgs) /
                              out.bw_wall_s);
        if (!timed) {
          rtt.insert(rtt.end(), out.rtt_us.begin(), out.rtt_us.end());
          rtt_p50.push_back(median(out.rtt_us));
        }
        if (first_of_session) {
          vt_lat.push_back(out.vt_one_way_us);
          vt_bw.push_back(out.vt_bw_1mib_mbps);
          first_of_session = false;
        }
      },
      [&] { s.reset(); });
  if (rate[0].empty()) return;
  report.gate(std::all_of(vt_lat.begin(), vt_lat.end(),
                          [&](double x) { return x == vt_lat.front(); }),
              "virtual one-way latency repeats exactly in every session");

  if (!opt.trace) {
    report.metric("ops_per_s", run_rate(rate[0]), "1/s", rate[0]);
    report.metric("latency_p50_us", run_time(rtt_p50), "us", rtt_p50);
    report.metric("vt_latency_us", vt_lat.front(), "us", vt_lat);
    report.metric("setup_s", median(setup_s), "s", setup_s);
    return;
  }
  report.metric("mpi.send_us_p50", median(send_us), "us");
  report.metric("mpi.recv_us_p50", median(recv_us), "us");
  report.metric("mpi.rtt_p99_us", quantile(rtt, 0.99), "us");
  report.metric("ofi.unexpected_max", static_cast<double>(unexpected_max),
                "count");
  report.metric("osu.vt_bw_1MiB_MBps", median(vt_bw), "MB/s", vt_bw);
  report.metric("k8s.osu_job_start_ms", median(job_start_ms), "ms",
                job_start_ms);
  report.metric("cxi.open_endpoint_us", median(open_us), "us");
  report.metric("trace_overhead_pct",
                100.0 * (1.0 - run_rate(rate[1]) / run_rate(rate[0])), "%");
}

}  // namespace bench
