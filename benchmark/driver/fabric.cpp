// fabric.cpp — the two data-plane workloads.
//
// Both run on a 256-node dragonfly stack (8 nodes/switch, 4 switches per
// group, UGAL) with two `vni: "true"` tenant jobs of 128 pods admitted
// through the real control plane, one endpoint per pod opened through
// domain_for/open_endpoint, and traffic posted through the stack's
// ShardEngine.  The loop is closed: 32 rounds (one op per pod each) are
// posted, flushed, and drained before the next batch.  Each batch is
// posted 1 ms of virtual time after the previous one, so it starts on an
// idle fabric and every batch models the same load.
//
// The model's answer, vt_latency_us, comes from an untimed probe: the
// first pass of the schedule after each session's warm-up reads the
// virtual time of every packet and completion.  Its input and the stack's
// state are the same in every session, so its mean latency is too, and it
// is gated to be.
//
//   fabric_permutation: zero jitter; in every round each pod sends 2 KiB
//     to the pod half its tenant away in a fresh seeded pod order.
//     Almost all data plane.
//   fabric_rma_jitter: default (jittered) timing; seeded intra-tenant
//     destinations, a 1:1:1 mix of send / RMA write / RMA read of 8 B,
//     256 B or 4 KiB, and 1 op in 64 a cross-tenant probe that the
//     fabric must drop.
#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common.hpp"
#include "core/stack.hpp"

namespace bench {
namespace {

using namespace shs;

constexpr std::size_t kNodes = 256;
constexpr int kPodsPerTenant = 128;
constexpr int kRoundsPerFlush = 32;
constexpr std::uint64_t kPermBytes = 2048;
constexpr std::uint64_t kSizes[] = {8, 256, 4096};
/// Each region is a read half (never written; holds the seeded pattern)
/// and a write half (RMA writes land here).
constexpr std::size_t kHalf = 8192;
constexpr int kProbeEvery = 64;
constexpr int kVerifyEvery = 64;
constexpr SimDuration kBatchGap = from_millis(1);
constexpr int kWarmupBatches = 2;

enum class OpKind : std::uint8_t { kSend, kWrite, kRead, kProbe };
struct Op {
  OpKind kind = OpKind::kSend;
  std::uint16_t dst = 0;  ///< member index
  std::uint32_t size = 0;
  std::uint32_t offset = 0;
};

struct Member {
  hsn::NicAddr nic = 0;
  hsn::EndpointId ep = 0;
  hsn::CassiniNic* nic_ptr = nullptr;
  hsn::RKey rkey = 0;
};

/// Per-op outcome accounting, checked against the switch and NIC
/// counters by the conservation gates.
struct Tally {
  std::uint64_t sends = 0, writes = 0, reads = 0, probes = 0;
  std::uint64_t rx = 0, write_done = 0, read_done = 0, errors = 0;
  std::uint64_t checked = 0, mismatched = 0, post_failed = 0;
  double vt_sum_us = 0;
  std::uint64_t vt_n = 0;
  [[nodiscard]] std::uint64_t ops() const {
    return sends + writes + reads + probes;
  }
  Tally& operator+=(const Tally& o) {
    sends += o.sends;
    writes += o.writes;
    reads += o.reads;
    probes += o.probes;
    rx += o.rx;
    write_done += o.write_done;
    read_done += o.read_done;
    errors += o.errors;
    checked += o.checked;
    mismatched += o.mismatched;
    post_failed += o.post_failed;
    vt_sum_us += o.vt_sum_us;
    vt_n += o.vt_n;
    return *this;
  }
};

/// A stack with two admitted tenants and one endpoint per pod.  Members
/// are destroyed in reverse order: endpoints first, then the stack, then
/// the memory regions its NICs pointed into.
struct TenantFabric {
  std::vector<std::vector<std::byte>> regions;
  std::unique_ptr<core::SlingshotStack> stack;
  std::vector<std::unique_ptr<ofi::Endpoint>> endpoints;
  std::vector<Member> members;  ///< tenant 0's pods, then tenant 1's
  double tenant_start_s = 0;
  std::vector<double> open_endpoint_us;
  SimTime next_vt = 0;
  std::uint64_t next_op = 1;
  std::uint64_t read_ordinal = 0;
  struct ReadCheck {
    std::uint32_t target = 0;
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };
  std::unordered_map<std::uint64_t, ReadCheck> read_checks;
};

struct FabricConfig {
  bool rma = false;
  bool jitter = false;
  int workers = 1;
  std::uint64_t seed = 0;
};

/// Builds the stack, admits both tenants, opens every endpoint.  Fails
/// the gate (and returns null) when any step the workload relies on
/// does not hold.
std::unique_ptr<TenantFabric> build(const FabricConfig& fc, Report& report) {
  auto f = std::make_unique<TenantFabric>();
  core::StackConfig cfg;
  cfg.nodes = kNodes;
  cfg.topology.kind = hsn::TopologyKind::kDragonfly;
  cfg.topology.routing = hsn::RoutingPolicy::kUgal;
  cfg.topology.nodes_per_switch = 8;
  cfg.topology.switches_per_group = 4;
  cfg.data_plane_threads = fc.workers;
  cfg.seed = fc.seed;
  if (!fc.jitter) {
    cfg.timing.jitter_amplitude = 0.0;
    cfg.timing.run_bias_amplitude = 0.0;
  }
  f->stack = std::make_unique<core::SlingshotStack>(cfg);
  core::SlingshotStack& stack = *f->stack;

  const std::uint64_t t0 = now_ns();
  std::vector<k8s::Uid> jobs;
  for (const char* name : {"tenant-a", "tenant-b"}) {
    core::JobOptions tenant;
    tenant.name = name;
    tenant.vni_annotation = "true";
    tenant.pods = kPodsPerTenant;
    tenant.run_duration = 3600 * kSecond;
    auto job = stack.submit_job(tenant);
    if (!job.is_ok()) {
      report.gate(false, "tenant job submitted");
      return nullptr;
    }
    jobs.push_back(job.value());
  }
  const bool running = stack.run_until(
      [&] {
        for (const k8s::Uid job : jobs) {
          for (const auto& p : stack.pods_of_job(job)) {
            if (p.status.phase != k8s::PodPhase::kRunning) return false;
          }
          if (stack.pods_of_job(job).size() !=
              static_cast<std::size_t>(kPodsPerTenant)) {
            return false;
          }
        }
        return true;
      },
      600 * kSecond, from_millis(50));
  f->tenant_start_s = seconds_since(t0);
  report.gate(running, "both tenants admitted and running");
  if (!running) return nullptr;

  std::vector<bool> nic_used(kNodes, false);
  std::vector<hsn::Vni> vnis;
  for (const k8s::Uid job : jobs) {
    for (const auto& pod : stack.pods_of_job(job)) {
      auto handle = stack.exec_in_pod(pod.meta.uid);
      if (!handle.is_ok()) {
        report.gate(false, "exec_in_pod");
        return nullptr;
      }
      auto dom = stack.domain_for(handle.value());
      if (!dom.is_ok()) {
        report.gate(false, "domain_for");
        return nullptr;
      }
      const std::uint64_t e0 = now_ns();
      auto ep = dom.value().open_endpoint(pod.status.vni);
      f->open_endpoint_us.push_back(static_cast<double>(now_ns() - e0) / 1e3);
      if (!ep.is_ok()) {
        report.gate(false, "open_endpoint on the pod VNI");
        return nullptr;
      }
      Member m;
      m.nic = ep.value()->addr().nic;
      m.ep = ep.value()->addr().ep;
      m.nic_ptr = &stack.fabric().nic(m.nic);
      if (nic_used[m.nic]) {
        // Probes assume disjoint tenants: a shared node would authorize
        // both VNIs on one switch port.
        report.gate(false, "one pod per node");
        return nullptr;
      }
      nic_used[m.nic] = true;
      if (fc.rma) {
        auto& region = f->regions.emplace_back(2 * kHalf);
        for (std::size_t o = 0; o < region.size(); ++o) {
          region[o] = static_cast<std::byte>(pattern_byte(fc.seed, m.nic, o));
        }
        auto rkey = ep.value()->mr_reg(region);
        if (!rkey.is_ok()) {
          report.gate(false, "mr_reg");
          return nullptr;
        }
        m.rkey = rkey.value();
      }
      f->members.push_back(m);
      f->endpoints.push_back(std::move(ep).value());
    }
    vnis.push_back(stack.pods_of_job(job).front().status.vni);
  }
  report.gate(vnis.size() == 2 && vnis[0] != vnis[1] &&
                  vnis[0] != hsn::kInvalidVni,
              "tenants hold distinct VNIs");
  return f;
}

/// The seeded op schedule of one trial: ops[(batch * rounds + round) *
/// members + source].  Every trial of a run replays it.  The RMA mix draws
/// its kinds and sizes from shuffled decks of all nine combinations and
/// puts one probe at a seeded place in every kProbeEvery ops, so every
/// seed posts the same mix.  Drawn independently per op, the mix alone
/// moved the mean virtual latency over a 1.2 % range across eight seeds;
/// with the decks the range is 0.6 %.
std::vector<Op> make_schedule(const FabricConfig& fc, int batches) {
  const int n = 2 * kPodsPerTenant;
  InputRng rng(fc.seed ^ 0xfab5c4edULL);
  std::vector<Op> ops(static_cast<std::size_t>(batches) * kRoundsPerFlush * n);
  std::vector<std::uint16_t> order(kPodsPerTenant);
  std::vector<int> deck;  // kind * 3 + size index
  std::size_t probe_at = 0;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const auto src = static_cast<int>(k % n);
    const int tenant = src / kPodsPerTenant;
    Op& op = ops[k];
    if (!fc.rma) {
      // Each round is a half-shift permutation over a fresh seeded pod
      // order per tenant, so a trial averages over hundreds of
      // placements instead of resting on one seed's path lengths.
      if (src % kPodsPerTenant == 0) {
        for (int i = 0; i < kPodsPerTenant; ++i) {
          order[i] = static_cast<std::uint16_t>(tenant * kPodsPerTenant + i);
        }
        for (int i = kPodsPerTenant - 1; i > 0; --i) {
          std::swap(order[i], order[rng.below(i + 1)]);
        }
        for (int i = 0; i < kPodsPerTenant; ++i) {
          ops[k - src % kPodsPerTenant + (order[i] - tenant * kPodsPerTenant)] =
              {OpKind::kSend, order[(i + kPodsPerTenant / 2) % kPodsPerTenant],
               kPermBytes, 0};
        }
      }
      continue;
    }
    if (k % kProbeEvery == 0) probe_at = k + rng.below(kProbeEvery);
    if (k == probe_at) {
      op.kind = OpKind::kProbe;
      op.size = static_cast<std::uint32_t>(kSizes[rng.below(3)]);
      op.dst = static_cast<std::uint16_t>((1 - tenant) * kPodsPerTenant +
                                          rng.below(kPodsPerTenant));
      continue;
    }
    if (deck.empty()) {
      for (int c = 0; c < 9; ++c) deck.push_back(c);
      for (int i = 8; i > 0; --i) std::swap(deck[i], deck[rng.below(i + 1)]);
    }
    op.kind = static_cast<OpKind>(deck.back() / 3);
    op.size = static_cast<std::uint32_t>(kSizes[deck.back() % 3]);
    deck.pop_back();
    op.offset = static_cast<std::uint32_t>(rng.below(kHalf - op.size + 1));
    const auto other = rng.below(kPodsPerTenant - 1);
    const int local = src % kPodsPerTenant;
    op.dst = static_cast<std::uint16_t>(
        tenant * kPodsPerTenant +
        (static_cast<int>(other) >= local ? other + 1 : other));
  }
  return ops;
}

/// One closed-loop batch: post 32 rounds, flush, drain.  With `sample_vt`
/// every packet is read one by one and every arrival and completion adds
/// its virtual latency to `t`; otherwise the RX rings are bulk-drained.
/// Returns the batch's wall time in microseconds.
double run_batch(TenantFabric& f, const std::vector<Op>& sched, int batch,
                 Tally& t, std::uint64_t seed, Lane* lane,
                 bool sample_vt = false) {
  const std::uint64_t b0 = now_ns();
  Scope batch_span(lane, "batch", static_cast<std::uint64_t>(batch));
  hsn::ShardEngine& engine = *f.stack->shard_engine();
  const SimTime vt = f.next_vt;
  f.next_vt += kBatchGap;
  const std::size_t n = f.members.size();
  static const std::vector<std::byte> payload = [] {
    std::vector<std::byte> p(4096);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::byte>(i * 131 + 7);
    }
    return p;
  }();

  for (int r = 0; r < kRoundsPerFlush; ++r) {
    Scope round_span(lane, "post_round", static_cast<std::uint64_t>(r));
    const Op* row =
        &sched[(static_cast<std::size_t>(batch) * kRoundsPerFlush + r) * n];
    const auto tag = static_cast<std::uint64_t>(batch * kRoundsPerFlush + r);
    for (std::size_t i = 0; i < n; ++i) {
      const Member& s = f.members[i];
      const Op& op = row[i];
      const Member& d = f.members[op.dst];
      Status st;
      switch (op.kind) {
        case OpKind::kSend:
        case OpKind::kProbe:
          ++(op.kind == OpKind::kSend ? t.sends : t.probes);
          st = engine.post_send(s.nic, s.ep, d.nic, d.ep, tag, op.size, vt);
          break;
        case OpKind::kWrite:
          ++t.writes;
          st = engine.post_rma_write(
              s.nic, s.ep, d.nic, d.rkey, kHalf + op.offset, op.size,
              std::span<const std::byte>(payload.data(), op.size), vt,
              f.next_op++);
          break;
        case OpKind::kRead: {
          ++t.reads;
          const std::uint64_t id = f.next_op++;
          if (++f.read_ordinal % kVerifyEvery == 0) {
            f.read_checks[id] = {op.dst, op.offset, op.size};
          }
          st = engine.post_rma_read(s.nic, s.ep, d.nic, d.rkey, op.offset,
                                    op.size, vt, id);
          break;
        }
      }
      if (!st.is_ok()) ++t.post_failed;
    }
  }
  {
    Scope flush_span(lane, "flush");
    engine.flush();
  }
  {
    Scope drain_span(lane, "drain");
    {
      Scope rx_span(lane, "drain.rx");
      for (const Member& m : f.members) {
        if (!sample_vt) {
          t.rx += m.nic_ptr->drain_rx(m.ep);
          continue;
        }
        for (;;) {
          auto p = m.nic_ptr->poll_rx(m.ep);
          if (!p.is_ok()) break;
          ++t.rx;
          t.vt_sum_us += to_micros(p.value().arrival_vt - vt);
          ++t.vt_n;
        }
      }
    }
    Scope ev_span(lane, "drain.events");
    for (const Member& m : f.members) {
      for (;;) {
        auto ev = m.nic_ptr->poll_event(m.ep);
        if (!ev.is_ok()) break;
        const hsn::Event& e = ev.value();
        switch (e.type) {
          case hsn::Event::Type::kRdmaWriteComplete:
            ++t.write_done;
            break;
          case hsn::Event::Type::kRdmaReadComplete: {
            ++t.read_done;
            const auto it = f.read_checks.find(e.op_id);
            if (it == f.read_checks.end()) break;
            const auto& c = it->second;
            const hsn::NicAddr target = f.members[c.target].nic;
            bool same = e.data.size() == c.size;
            for (std::size_t i = 0; same && i < c.size; ++i) {
              same = static_cast<std::uint8_t>(e.data[i]) ==
                     pattern_byte(seed, target, c.offset + i);
            }
            ++t.checked;
            if (!same) ++t.mismatched;
            f.read_checks.erase(it);
            break;
          }
          default:
            ++t.errors;
            continue;
        }
        if (sample_vt) {
          t.vt_sum_us += to_micros(e.vt - vt);
          ++t.vt_n;
        }
      }
    }
  }
  return static_cast<double>(now_ns() - b0) / 1e3;
}

struct CounterSnapshot {
  hsn::SwitchCounters sw;
  std::uint64_t vni_mismatch = 0;
};

CounterSnapshot snapshot(TenantFabric& f) {
  CounterSnapshot s;
  s.sw = f.stack->fabric().total_counters();
  for (const Member& m : f.members) {
    s.vni_mismatch += m.nic_ptr->counters().rx_vni_mismatch;
  }
  return s;
}

/// How far the switch and NIC counters moved over some posted ops.
struct Moved {
  std::uint64_t delivered = 0, dropped = 0, probe_drops = 0;
  std::uint64_t forwarded = 0, nonminimal = 0;
  Moved& operator+=(const Moved& o) {
    delivered += o.delivered;
    dropped += o.dropped;
    probe_drops += o.probe_drops;
    forwarded += o.forwarded;
    nonminimal += o.nonminimal;
    return *this;
  }
};

/// The conservation and isolation gates over everything `t` posted
/// since snapshot `before`.  Adds failures to the report's accounting
/// and returns what the counters moved.
Moved check(TenantFabric& f, const Tally& t, const CounterSnapshot& before,
            const char* what, Report& report) {
  const CounterSnapshot after = snapshot(f);
  Moved m;
  m.delivered = after.sw.delivered - before.sw.delivered;
  m.dropped = after.sw.dropped_total() - before.sw.dropped_total();
  m.probe_drops = (after.sw.dropped_dst_unauthorized -
                   before.sw.dropped_dst_unauthorized) +
                  (after.vni_mismatch - before.vni_mismatch);
  m.forwarded = after.sw.forwarded - before.sw.forwarded;
  m.nonminimal = after.sw.routed_nonminimal - before.sw.routed_nonminimal;
  const std::string w = std::string(what) + ": ";
  report.gate(m.delivered == t.sends + 2 * (t.writes + t.reads),
              w + "delivered == sends + 2*writes + 2*reads");
  report.gate(m.dropped == t.probes, w + "no intra-tenant drops");
  report.gate(m.probe_drops == t.probes, w + "every probe dropped");
  report.gate(t.rx == t.sends, w + "every send received, no probe landed");
  report.gate(t.write_done == t.writes && t.read_done == t.reads,
              w + "every RMA op completed");
  report.gate(t.errors == t.probes, w + "errors only for probes");
  report.gate(t.mismatched == 0 && (t.reads == 0 || t.checked > 0),
              w + "sampled read bytes match the target pattern");
  report.gate(t.post_failed == 0, w + "every post accepted");
  const auto gap = [](std::uint64_t want, std::uint64_t got) {
    return want > got ? want - got : got - want;
  };
  report.failed(gap(t.sends, t.rx) + gap(t.writes, t.write_done) +
                gap(t.reads, t.read_done) + t.mismatched + t.post_failed);
  return m;
}

struct TrialStats {
  std::vector<double> ops_per_s;
  std::vector<double> batch_p50_us;  ///< each trial's median batch time
  std::uint64_t ops = 0;
};

/// One whole trial: every batch of the schedule.
void run_trial(TenantFabric& f, const std::vector<Op>& sched, int batches,
               std::uint64_t seed, int index, Tally& t, Lane* lane,
               TrialStats& st) {
  const std::uint64_t ops0 = t.ops();
  std::vector<double> batch_us;
  const std::uint64_t t0 = now_ns();
  {
    Scope trial_span(lane, "trial", static_cast<std::uint64_t>(index));
    for (int b = 0; b < batches; ++b) {
      batch_us.push_back(run_batch(f, sched, b, t, seed, lane));
    }
  }
  const double wall = seconds_since(t0);
  st.batch_p50_us.push_back(median(batch_us));
  st.ops += t.ops() - ops0;
  st.ops_per_s.push_back(static_cast<double>(t.ops() - ops0) / wall);
}

/// The latency probe: one untimed pass of the schedule.  Adds its ops to
/// `t` and returns their mean virtual latency in microseconds.
double probe_vt(TenantFabric& f, const std::vector<Op>& sched, int batches,
                std::uint64_t seed, Tally& t) {
  Tally p;
  for (int b = 0; b < batches; ++b) {
    (void)run_batch(f, sched, b, p, seed, nullptr, /*sample_vt=*/true);
  }
  t += p;
  return p.vt_n ? p.vt_sum_us / static_cast<double>(p.vt_n) : 0;
}

void warm_up(TenantFabric& f, const std::vector<Op>& sched, int batches,
             std::uint64_t seed, Report& report) {
  Tally warm;
  const CounterSnapshot before = snapshot(f);
  for (int b = 0; b < std::min(kWarmupBatches, batches); ++b) {
    (void)run_batch(f, sched, b, warm, seed, nullptr);
  }
  (void)check(f, warm, before, "warm-up", report);
}

/// Trials on a separate stack built for `fc` (the traced run's
/// comparisons), with the engine counters around them.
struct Extra {
  TrialStats stats;
  hsn::ShardEngineStats e0, e1;
};

std::optional<Extra> run_extra(const FabricConfig& fc,
                               const std::vector<Op>& sched, int batches,
                               int trials, Lane* lane, const char* what,
                               Report& report) {
  auto f = build(fc, report);
  if (!f) return std::nullopt;
  warm_up(*f, sched, batches, fc.seed, report);
  Extra x;
  Tally t;
  const CounterSnapshot before = snapshot(*f);
  x.e0 = f->stack->data_plane_stats();
  for (int i = 0; i < trials; ++i) {
    run_trial(*f, sched, batches, fc.seed, i, t, lane, x.stats);
  }
  x.e1 = f->stack->data_plane_stats();
  (void)check(*f, t, before, what, report);
  return x;
}

}  // namespace

void run_fabric(const Options& opt, bool rma, Report& report, Tracer& tracer) {
  // The end-to-end numbers come from the engine's single-worker reference
  // schedule.  With min(4, nproc - 1) workers a 4-vCPU host ran both
  // workloads slower than one worker and far less steadily: the
  // permutation's run-to-run quartile spread was 14 % against 3.5 %, and
  // contention on the timing model's fabric-wide jitter lock made the RMA
  // mix bimodal (0.33 or 0.7 M ops/s, decided per process).  The traced
  // run measures the multi-worker ratio as hsn.engine.speedup_vs_t1.
  const FabricConfig fc{rma, /*jitter=*/rma, /*workers=*/1, opt.seed};
  const int batches = opt.smoke ? 2 : (rma ? 8 : 24);
  report.config("nodes", kNodes);
  report.config("pods_per_tenant", kPodsPerTenant);
  report.config("rounds_per_flush", kRoundsPerFlush);
  report.config("batches_per_trial", batches);
  report.config("engine_workers", fc.workers);
  report.config("sessions", opt.sessions);
  const std::vector<Op> sched = make_schedule(fc, batches);

  std::vector<double> tenant_start_s;
  std::vector<double> open_us;
  std::unique_ptr<TenantFabric> f;
  CounterSnapshot before;
  Tally session;
  Tally total;
  Moved moved;
  TrialStats plain;
  TrialStats traced;
  std::vector<double> vt_us;  // the latency probe of every session
  bool probed = false;
  Lane* lane = opt.trace ? &tracer.lane() : nullptr;
  const std::vector<double> setup_s = run_sessions(
      opt, opt.trace ? 2 : 1,
      [&] {
        f = build(fc, report);
        if (!f) return false;
        warm_up(*f, sched, batches, opt.seed, report);
        tenant_start_s.push_back(f->tenant_start_s);
        open_us.insert(open_us.end(), f->open_endpoint_us.begin(),
                       f->open_endpoint_us.end());
        before = snapshot(*f);
        session = Tally{};
        probed = false;
        return true;
      },
      [&](int i) {
        if (!probed) {
          vt_us.push_back(probe_vt(*f, sched, batches, opt.seed, session));
          probed = true;
        }
        // A traced run traces odd trials only: the throughput difference
        // is the tracing overhead, under the same host conditions.
        const bool timed = opt.trace && (i & 1);
        run_trial(*f, sched, batches, opt.seed, i, session,
                  timed ? lane : nullptr, timed ? traced : plain);
      },
      [&] {
        moved += check(*f, session, before, "measured trials", report);
        total += session;
        f.reset();
      });
  report.attempted(total.ops());
  if (plain.ops_per_s.empty()) return;
  report.gate(std::all_of(vt_us.begin(), vt_us.end(),
                          [&](double v) { return v == vt_us.front(); }),
              "latency probe repeats exactly in every session");

  if (!opt.trace) {
    report.metric("ops_per_s", run_rate(plain.ops_per_s), "1/s",
                  plain.ops_per_s);
    report.metric("latency_p50_us", run_time(plain.batch_p50_us), "us",
                  plain.batch_p50_us);
    report.metric("vt_latency_us", vt_us.front(), "us", vt_us);
    report.metric("setup_s", median(setup_s), "s", setup_s);
    return;
  }

  // ---- Per-layer metrics (traced run).
  const double ops = static_cast<double>(traced.ops);
  const double post_ns = lane->total_ns("post_round") / ops;
  const double flush_ns = lane->total_ns("flush") / ops;
  const double drain_ns = lane->total_ns("drain") / ops;
  const double trial_ns = lane->total_ns("trial") / ops;
  report.metric("hsn.engine.post_ns_per_op", post_ns, "ns");
  report.metric("hsn.engine.flush_ns_per_op", flush_ns, "ns");
  report.metric("hsn.nic.drain_ns_per_op", drain_ns, "ns");
  report.metric("hsn.nic.event_ns_per_op",
                lane->total_ns("drain.events") / ops, "ns");
  report.gate(post_ns + flush_ns + drain_ns >= 0.95 * trial_ns,
              "post + flush + drain spans cover 95 % of the trial");
  report.metric("trace_overhead_pct",
                100.0 * (1.0 - run_rate(traced.ops_per_s) /
                                   run_rate(plain.ops_per_s)),
                "%");

  const auto ratio = [](std::uint64_t a, double b) {
    return static_cast<double>(a) / b;
  };
  const double all_ops = static_cast<double>(total.ops());
  const double injected = static_cast<double>(moved.delivered + moved.dropped);
  report.metric("hsn.switch.hops_per_op", ratio(moved.forwarded, all_ops),
                "count");
  report.metric("hsn.switch.nonminimal_share",
                ratio(moved.nonminimal, injected), "ratio");
  report.metric("hsn.switch.deliveries_per_op",
                ratio(moved.delivered, all_ops), "count");
  report.metric("hsn.switch.drop_ratio",
                ratio(moved.dropped - total.probes, injected), "ratio");
  report.metric("hsn.isolation.probe_drops",
                static_cast<double>(moved.probe_drops), "count");
  report.metric("k8s.tenant_start_s", median(tenant_start_s), "s",
                tenant_start_s);
  report.metric("cxi.open_endpoint_us", median(open_us), "us");

  // The same schedule on min(4, nproc - 1) workers: the multi-core
  // speedup over the reference schedule, and the executor counters of
  // the threaded engine (windows and items are the same at any worker
  // count; barriers and wake-ups only mean something with workers).
  const int extra_trials = opt.smoke ? 1 : 3;
  FabricConfig multi = fc;
  multi.workers = opt.workers;
  const auto m = run_extra(multi, sched, batches, extra_trials, nullptr,
                           "multi-worker trials", report);
  if (!m) return;
  report.metric("hsn.engine.speedup_vs_t1",
                run_rate(m->stats.ops_per_s) / run_rate(plain.ops_per_s),
                "ratio");
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const hsn::ShardEngineStats& e0 = m->e0;
  const hsn::ShardEngineStats& e1 = m->e1;
  const double windows = d(e0.windows, e1.windows);
  const double forwards = d(e0.intra_forwards, e1.intra_forwards) +
                          d(e0.cross_forwards, e1.cross_forwards);
  const double pool =
      d(e0.pool_hits, e1.pool_hits) + d(e0.pool_misses, e1.pool_misses);
  report.metric("hsn.engine.windows_per_flush",
                windows / d(e0.flushes, e1.flushes), "count");
  report.metric("hsn.engine.items_per_window",
                d(e0.items_stepped, e1.items_stepped) / windows, "count");
  report.metric("hsn.engine.cross_forward_share",
                d(e0.cross_forwards, e1.cross_forwards) / forwards, "ratio");
  report.metric("hsn.engine.silent_barrier_share",
                d(e0.silent_barriers, e1.silent_barriers) / windows, "ratio");
  report.metric("hsn.engine.wakeups_per_window",
                d(e0.worker_wakeups, e1.worker_wakeups) / windows, "count");
  report.metric("hsn.engine.pool_hit_rate",
                d(e0.pool_hits, e1.pool_hits) / pool, "ratio");

  // Jitter off: the cost of the timing model's locked jitter draws shows
  // as the difference in flush time.  fabric_permutation has no jitter.
  double jitter_ns = 0;
  if (fc.jitter) {
    FabricConfig calm = fc;
    calm.jitter = false;
    Lane& calm_lane = tracer.lane();
    const auto c = run_extra(calm, sched, batches, extra_trials, &calm_lane,
                             "jitter-off trials", report);
    if (!c) return;
    jitter_ns = flush_ns - calm_lane.total_ns("flush") /
                               static_cast<double>(c->stats.ops);
  }
  report.metric("hsn.timing.jitter_ns_per_op", jitter_ns, "ns");
}

}  // namespace bench
