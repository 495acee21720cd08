// admission.cpp — admission_spike: the control plane alone.
//
// The paper's two-node stack with default K8sParams.  One trial submits
// a spike of one-pod jobs (`vni: "true"`, 100 ms run, ttl 0) at t = 0
// and drives the event loop until every job has been admitted and
// deleted; it then repeats the spike with no annotation on a fresh stack
// with the same seed, as fig12 does.  Trials cycle through a few seeded
// spike inputs, so the virtual-time results repeat exactly for each input
// and are gated to do so.  No data plane is involved: API server, job
// controller, scheduler, Metacontroller and webhook JSON, VNI registry
// and its WAL, the CNI chain, CXI service allocation, and the kubelets.
#include <cmath>
#include <functional>
#include <map>
#include <optional>

#include "common.hpp"
#include "core/stack.hpp"
#include "core/webhook_codec.hpp"

namespace bench {
namespace {

using namespace shs;

constexpr SimDuration kStep = from_millis(250);
constexpr SimDuration kMaxVirtual = 30 * 60 * kSecond;
/// Seeded spike inputs the trials cycle through.  The virtual-time results
/// are pooled over all of them, so they vary less from one --seed to the
/// next than a single spike's do.
constexpr int kSpikeInputs = 8;

std::uint64_t spike_seed(std::uint64_t seed, int input) {
  return seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(input);
}

struct Stages {
  std::vector<double> pod_create_ms, schedule_ms, kubelet_start_ms;
  std::vector<double> vni_ready_ms;
  std::optional<k8s::Job> sample_job;
  std::vector<k8s::VniObject> sample_children;
};

struct SpikeOut {
  double wall_s = 0;
  std::vector<double> delays_s;  ///< submit -> first pod Running, per job
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  bool all_gone = false;
  std::uint64_t events = 0;
  std::size_t live_max = 0;
  std::uint64_t webhook_calls = 0;
  std::uint64_t commits = 0;
  std::uint64_t services_created = 0;
  std::uint64_t services_destroyed = 0;
  std::size_t vnis_allocated_at_end = 0;
};

/// One spike on a fresh stack.  `stages` (optional) collects the
/// per-stage virtual times through extra watches; `at_end` runs on the
/// idle stack before it is destroyed.
SpikeOut run_spike(std::uint64_t seed, int jobs, bool vni, Lane* lane,
                   Stages* stages,
                   const std::function<void(core::SlingshotStack&)>& at_end) {
  SpikeOut out;
  const std::uint64_t t0 = now_ns();
  Scope spike_span(lane, vni ? "spike.vni_true" : "spike.vni_false");
  std::optional<core::SlingshotStack> stack_holder;
  {
    Scope s(lane, "stack.construct");
    core::StackConfig cfg;
    cfg.seed = seed;
    stack_holder.emplace(cfg);
  }
  core::SlingshotStack& stack = *stack_holder;

  // Jobs delete themselves (ttl 0), so starts are recorded from the
  // watch stream, as fig12 does.
  std::map<k8s::Uid, SimTime> start_of;
  std::map<k8s::Uid, SimTime> created_of;
  stack.api().watch_jobs([&](const k8s::WatchEvent<k8s::Job>& ev) {
    const auto it = start_of.find(ev.object.meta.uid);
    if (it != start_of.end() && it->second == 0 &&
        ev.object.status.start_vt > 0) {
      it->second = ev.object.status.start_vt;
    }
    if (stages != nullptr && !stages->sample_job) stages->sample_job = ev.object;
  });
  struct PodTimes {
    k8s::Uid owner = 0;
    SimTime created = 0, scheduled = 0, running = 0;
  };
  std::map<k8s::Uid, PodTimes> pod_times;
  std::map<k8s::Uid, SimTime> vni_ready;
  if (stages != nullptr) {
    stack.api().watch_pods([&](const k8s::WatchEvent<k8s::Pod>& ev) {
      PodTimes& p = pod_times[ev.object.meta.uid];
      p.owner = ev.object.meta.owner_uid;
      p.created = ev.object.meta.creation_vt;
      if (p.scheduled == 0) p.scheduled = ev.object.status.scheduled_vt;
      if (p.running == 0) p.running = ev.object.status.running_vt;
    });
    stack.api().watch_vni_objects([&](const k8s::WatchEvent<k8s::VniObject>& ev) {
      vni_ready.emplace(ev.object.bound_uid, ev.object.meta.creation_vt);
      if (stages->sample_children.empty()) {
        stages->sample_children.push_back(ev.object);
      }
    });
  }

  for (int i = 0; i < jobs; ++i) {
    Scope s(lane, "submit", static_cast<std::uint64_t>(i));
    core::JobOptions job;
    job.name = "adm-" + std::to_string(i);
    job.vni_annotation = vni ? "true" : "";
    job.pods = 1;
    job.run_duration = from_millis(100);
    job.grace_s = 5;
    job.ttl_after_finished_s = 0;
    auto uid = stack.submit_job(job);
    if (uid.is_ok()) {
      start_of[uid.value()] = 0;
      created_of[uid.value()] = stack.loop().now();
    }
  }
  out.submitted = start_of.size();

  const auto live_jobs = [&] {
    std::size_t n = 0;
    stack.api().visit_jobs([&](const k8s::Job&) { ++n; });
    return n;
  };
  while (stack.loop().now() < kMaxVirtual) {
    {
      Scope s(lane, "loop.run_for");
      out.events += stack.loop().run_for(kStep);
    }
    if (lane != nullptr) {
      std::size_t pods = 0;
      stack.api().visit_pods([&](const k8s::Pod&) { ++pods; });
      out.live_max = std::max(out.live_max, pods + live_jobs());
    }
    if (live_jobs() == 0) {
      out.all_gone = true;
      break;
    }
  }

  for (const auto& [uid, start] : start_of) {
    if (start == 0) continue;
    ++out.admitted;
    out.delays_s.push_back(to_seconds(start - created_of[uid]));
  }
  const auto& ec = stack.vni_endpoint().counters();
  out.webhook_calls = ec.sync_job + ec.finalize_job;
  out.commits = stack.database().journal_commits();
  for (std::size_t n = 0; n < stack.node_count(); ++n) {
    const auto& node = stack.node(n);
    if (node.cxi_cni == nullptr) continue;
    out.services_created += node.cxi_cni->counters().services_created;
    out.services_destroyed += node.cxi_cni->counters().services_destroyed;
  }
  out.vnis_allocated_at_end = stack.registry().allocated_count();

  if (stages != nullptr) {
    for (const auto& [uid, p] : pod_times) {
      if (p.running == 0) continue;
      const SimTime job_created = created_of[p.owner];
      stages->pod_create_ms.push_back(to_millis(p.created - job_created));
      stages->schedule_ms.push_back(to_millis(p.scheduled - p.created));
      stages->kubelet_start_ms.push_back(to_millis(p.running - p.scheduled));
    }
    for (const auto& [job, vt] : vni_ready) {
      stages->vni_ready_ms.push_back(to_millis(vt - created_of[job]));
    }
  }
  if (at_end) at_end(stack);
  stack_holder.reset();
  out.wall_s = seconds_since(t0);
  return out;
}

/// Gates one spike: every job admitted and deleted, every CXI service
/// released, no VNI left allocated.
void check_spike(const SpikeOut& s, int jobs, bool vni, Report& report) {
  const std::string w = vni ? "vni:true spike: " : "vni:false spike: ";
  report.attempted(static_cast<std::uint64_t>(jobs));
  const std::size_t ok = s.all_gone ? s.admitted : 0;
  report.failed(static_cast<std::uint64_t>(jobs) - std::min<std::uint64_t>(ok, jobs));
  report.gate(s.submitted == static_cast<std::size_t>(jobs), w + "all submitted");
  report.gate(s.admitted == static_cast<std::size_t>(jobs), w + "all admitted");
  report.gate(s.all_gone, w + "all deleted");
  report.gate(s.services_created == s.services_destroyed,
              w + "CXI services created == destroyed");
  report.gate(s.services_created == (vni ? static_cast<std::uint64_t>(jobs) : 0),
              w + "one CXI service per vni job");
  report.gate(s.vnis_allocated_at_end == 0, w + "no VNI left allocated");
}

double per_call_us(int n, const std::function<bool(int)>& call, bool& ok) {
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < n; ++i) ok = call(i) && ok;
  return static_cast<double>(now_ns() - t0) / 1e3 / n;
}

}  // namespace

void run_admission(const Options& opt, Report& report, Tracer& tracer) {
  const int jobs = opt.smoke ? 40 : 250;
  const int warm_jobs = opt.smoke ? 10 : 50;
  report.config("spike_jobs", jobs);
  report.config("sessions", opt.sessions);

  Lane* lane = opt.trace ? &tracer.lane() : nullptr;
  std::vector<double> rate[2];  // [traced?] jobs admitted+deleted per s
  std::vector<double> trial_us;
  // Per spike input: the admission delays of its first trial.
  std::vector<double> delays_true[kSpikeInputs];
  std::vector<double> delays_false[kSpikeInputs];
  SpikeOut traced_true;  // the last traced vni:true spike
  std::uint64_t traced_events = 0;
  int traced_jobs = 0;
  const std::vector<double> setup_s = run_sessions(
      opt, kSpikeInputs,
      [&] {
        // Set-up: a small warm-up spike (allocators, code paths).
        const SpikeOut w = run_spike(opt.seed ^ 0x3a3a, warm_jobs, true,
                                     nullptr, nullptr, nullptr);
        report.gate(
            w.all_gone && w.admitted == static_cast<std::size_t>(warm_jobs),
            "warm-up spike completes");
        return true;
      },
      [&](int i) {
        const bool timed = opt.trace && (i & 1);
        Lane* l = timed ? lane : nullptr;
        Scope trial_span(l, "trial", static_cast<std::uint64_t>(i));
        const int k = i % kSpikeInputs;
        const std::uint64_t seed = spike_seed(opt.seed, k);
        const SpikeOut a = run_spike(seed, jobs, true, l, nullptr, nullptr);
        const SpikeOut b = run_spike(seed, jobs, false, l, nullptr, nullptr);
        check_spike(a, jobs, true, report);
        check_spike(b, jobs, false, report);
        const double wall = a.wall_s + b.wall_s;
        rate[timed].push_back(2.0 * jobs / wall);
        if (!timed) trial_us.push_back(wall * 1e6);
        if (i == k) {
          delays_true[k] = a.delays_s;
          delays_false[k] = b.delays_s;
        }
        report.gate(
            a.delays_s == delays_true[k] && b.delays_s == delays_false[k],
            "virtual-time results repeat exactly across trials");
        if (timed) {
          traced_true = a;
          traced_events += a.events + b.events;
          traced_jobs += 2 * jobs;
        }
      },
      [] {});
  std::vector<double> pooled_true;
  std::vector<double> pooled_false;
  for (int k = 0; k < kSpikeInputs; ++k) {
    pooled_true.insert(pooled_true.end(), delays_true[k].begin(),
                       delays_true[k].end());
    pooled_false.insert(pooled_false.end(), delays_false[k].begin(),
                        delays_false[k].end());
  }

  if (!opt.trace) {
    report.metric("ops_per_s", run_rate(rate[0]), "1/s", rate[0]);
    report.metric("latency_p50_us", run_time(trial_us), "us", trial_us);
    report.metric("vt_latency_us", mean(pooled_true) * 1e6, "us");
    report.metric("setup_s", median(setup_s), "s", setup_s);
    return;
  }

  // ---- Per-layer metrics (traced run).
  const double loop_ns = lane->total_ns("loop.run_for");
  report.metric("sim.loop_us_per_job", loop_ns / 1e3 / traced_jobs, "us");
  report.metric("sim.events_per_job",
                static_cast<double>(traced_events) / traced_jobs, "count");
  report.metric("sim.ns_per_event",
                loop_ns / static_cast<double>(traced_events), "ns");
  std::vector<double> submit_us = lane->durations_ns("submit");
  for (double& x : submit_us) x /= 1e3;
  report.metric("k8s.submit_us_p50", median(submit_us), "us");
  report.metric("k8s.live_objects_max",
                static_cast<double>(traced_true.live_max), "count");
  report.metric("core.webhook_calls_per_job",
                static_cast<double>(traced_true.webhook_calls) / jobs, "count");
  report.metric("db.commits_per_job",
                static_cast<double>(traced_true.commits) / jobs, "count");
  report.metric("cxi.services_per_vni_job",
                static_cast<double>(traced_true.services_created) / jobs,
                "count");
  report.metric("trace_overhead_pct",
                100.0 * (1.0 - run_rate(rate[1]) / run_rate(rate[0])), "%");
  const double p50_false = median(pooled_false);
  report.metric("k8s.vt_admission_overhead_pct",
                100.0 * (median(pooled_true) - p50_false) / p50_false, "%");

  // Stage breakdown: one more vni:true spike with pod and VNI watches,
  // then replays of single layers at this workload's scale on its stack.
  Stages st;
  const int n = jobs;
  bool ok = true;
  double svc_us = 0;
  const SpikeOut s = run_spike(
      opt.seed, jobs, true, nullptr, &st, [&](core::SlingshotStack& stack) {
        auto& node = stack.node(0);
        svc_us = per_call_us(
            n,
            [&](int i) {
              cxi::CxiServiceDesc desc;
              desc.name = "replay-" + std::to_string(i);
              desc.members = {{cxi::MemberType::kNetNs, 4242}};
              desc.vnis = {4000};
              auto id = node.driver->svc_alloc(node.root_pid, desc);
              return id.is_ok() &&
                     node.driver->svc_destroy(node.root_pid, id.value()).is_ok();
            },
            ok);
      });
  check_spike(s, jobs, true, report);
  report.metric("cxi.svc_alloc_free_us", svc_us, "us");
  report.metric("k8s.vt_pod_create_ms", mean(st.pod_create_ms), "ms");
  report.metric("k8s.vt_schedule_ms", mean(st.schedule_ms), "ms");
  report.metric("k8s.vt_kubelet_start_ms", mean(st.kubelet_start_ms), "ms");
  report.metric("core.vt_vni_ready_ms", mean(st.vni_ready_ms), "ms");
  const double stage_sum = mean(st.pod_create_ms) + mean(st.schedule_ms) +
                           mean(st.kubelet_start_ms);
  report.gate(std::abs(stage_sum - mean(s.delays_s) * 1e3) < 1e-6,
              "stage means sum to the mean admission delay");

  report.gate(st.sample_job.has_value() && !st.sample_children.empty(),
              "webhook replay inputs captured");
  if (st.sample_job) {
    const k8s::Job job = *st.sample_job;
    const auto children = st.sample_children;
    report.metric(
        "core.webhook_roundtrip_us",
        per_call_us(
            n,
            [&](int) {
              auto req = core::webhook::Json::parse(
                  core::webhook::encode_job(job).dump());
              if (!req.is_ok() || !core::webhook::decode_job(req.value()).is_ok()) {
                return false;
              }
              auto resp = core::webhook::Json::parse(
                  core::webhook::encode_children(children).dump());
              return resp.is_ok() &&
                     core::webhook::decode_children(resp.value()).is_ok();
            },
            ok),
        "us");
  }
  {
    db::Database database;
    core::VniRegistry registry(database);
    const auto owner = [](int i) { return "job/default/adm-" + std::to_string(i); };
    const double acquire_us = per_call_us(
        n, [&](int i) { return registry.acquire(owner(i), 0).is_ok(); }, ok);
    const double release_us = per_call_us(
        n, [&](int i) { return registry.release(owner(i), 0).is_ok(); }, ok);
    report.metric("core.vni_acquire_release_us", acquire_us + release_us, "us");
  }
  {
    sim::EventLoop loop;
    k8s::ApiServer api(loop);
    const std::size_t objects = std::max<std::size_t>(traced_true.live_max, 1);
    for (std::size_t i = 0; i < objects; ++i) {
      k8s::Pod pod;
      pod.meta.name = "p-" + std::to_string(i);
      ok = api.create_pod(pod).is_ok() && ok;
    }
    std::vector<double> pass_us;
    for (int rep = 0; rep < 20; ++rep) {
      std::size_t seen = 0;
      const std::uint64_t t0 = now_ns();
      api.visit_pods([&](const k8s::Pod&) { ++seen; });
      pass_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      ok = ok && seen == objects;
    }
    report.metric("k8s.visit_all_us", median(pass_us), "us");
  }
  report.gate(ok, "every replayed layer call succeeded");
}

}  // namespace bench
